//! Capacity-bounded hash map approximating a hardware table with FIFO
//! replacement. Temporal prefetchers (ISB, Domino) have fixed metadata
//! budgets (Table II), so their correlation tables must evict; a FIFO over
//! insertion order is the standard cheap approximation.

use resemble_trace::util::FxHashMap;
use std::collections::VecDeque;

/// Hash map holding at most `capacity` entries; inserting beyond capacity
/// evicts the oldest-inserted live key (FIFO). Re-inserting an existing key
/// updates its value without refreshing its age.
#[derive(Debug, Clone)]
pub struct BoundedMap<V> {
    map: FxHashMap<u64, V>,
    order: VecDeque<u64>,
    capacity: usize,
}

impl<V> BoundedMap<V> {
    /// Create a map bounded to `capacity` entries. Storage grows as keys
    /// arrive: reserving ISB's and Domino's 2^19-entry queues up front
    /// cost every new bank four 4 MiB allocations.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        Self {
            map: FxHashMap::default(),
            order: VecDeque::new(),
            capacity,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Fetch a value.
    #[inline]
    pub fn get(&self, key: u64) -> Option<&V> {
        self.map.get(&key)
    }

    /// Insert or update; evicts the oldest entry when full.
    pub fn insert(&mut self, key: u64, value: V) {
        if self.map.insert(key, value).is_none() {
            self.order.push_back(key);
            while self.map.len() > self.capacity {
                // Lazy deletion: queued keys may already have been removed.
                if let Some(old) = self.order.pop_front() {
                    if old != key {
                        self.map.remove(&old);
                    } else {
                        self.order.push_back(old);
                    }
                } else {
                    break;
                }
            }
        }
    }

    /// Remove a key.
    pub fn remove(&mut self, key: u64) -> Option<V> {
        self.map.remove(&key)
    }

    /// Drop everything.
    pub fn clear(&mut self) {
        self.map.clear();
        self.order.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_fifo_beyond_capacity() {
        let mut m = BoundedMap::new(3);
        for k in 0..5u64 {
            m.insert(k, k * 10);
        }
        assert_eq!(m.len(), 3);
        assert!(m.get(0).is_none() && m.get(1).is_none());
        assert_eq!(m.get(4), Some(&40));
    }

    #[test]
    fn update_does_not_grow() {
        let mut m = BoundedMap::new(2);
        m.insert(1, 1);
        m.insert(1, 2);
        m.insert(1, 3);
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(1), Some(&3));
        m.insert(2, 2);
        m.insert(3, 3);
        assert_eq!(m.len(), 2);
        assert!(m.get(1).is_none(), "1 was oldest");
    }

    #[test]
    fn remove_and_reinsert() {
        let mut m = BoundedMap::new(2);
        m.insert(1, 1);
        assert_eq!(m.remove(1), Some(1));
        assert!(m.is_empty());
        m.insert(2, 2);
        m.insert(3, 3);
        m.insert(4, 4);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn capacity_one() {
        let mut m = BoundedMap::new(1);
        m.insert(1, 1);
        m.insert(2, 2);
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(2), Some(&2));
    }
}
