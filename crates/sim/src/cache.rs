//! Set-associative cache with LRU replacement and per-line prefetch
//! bookkeeping (needed for the paper's "useful prefetch" accounting: a
//! prefetch is useful iff the prefetched line is referenced before it is
//! replaced).
//!
//! Storage layout is optimized for the simulator's hot path: block tags
//! live in one contiguous `Vec<u64>` (a set's tags span at most two cache
//! lines of the host machine), while the replacement/bookkeeping metadata
//! sits in a parallel array that is only touched on the hit way or during
//! victim selection. Set indexing is strength-reduced: a mask for
//! power-of-two set counts and a Lemire multiply-shift remainder for the
//! non-power-of-two geometries Table V produces (e.g. 85 L1D sets).
//! Lookups never allocate.

use crate::convert;
use resemble_trace::record::block_of;
use serde::{Deserialize, Serialize};

/// Cache replacement policy. The paper evaluates with LRU (Table V), the
/// only policy [`Cache`] implements; the enum stays so configurations
/// and the frozen reference engine name the policy they assume.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Replacement {
    /// Least-recently-used (Table V).
    #[default]
    Lru,
}

/// Outcome of a cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// Present; `was_unused_prefetch` reports whether this demand touch is
    /// the first use of a prefetched line (it then counts as useful).
    Hit {
        /// First demand touch of a prefetched line.
        first_use_of_prefetch: bool,
    },
    /// Absent.
    Miss,
}

/// What a fill displaced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// Block number of the victim line.
    pub block: u64,
    /// The victim was brought in by a prefetch and never demanded.
    pub unused_prefetch: bool,
    /// The victim was dirty (write-back traffic).
    pub dirty: bool,
}

/// Tag value marking an empty way. Real tags are block numbers
/// (`addr >> 6`), so `u64::MAX` is unreachable.
const INVALID_TAG: u64 = u64::MAX;

/// Per-line metadata packed into one `u64`: bits 0..=60 hold the LRU
/// timestamp (the simulator issues two ticks per access/fill, so 2^61
/// outlasts any run), bit 61 `dirty`, bit 62 `prefetched`, bit 63 `used`.
/// One word per line keeps a whole 16-way set's metadata inside two host
/// cache lines, so hit updates are a single read-modify-write and victim
/// scans stream contiguous words.
const META_DIRTY: u64 = 1 << 61;
const META_PREFETCHED: u64 = 1 << 62;
const META_USED: u64 = 1 << 63;
const META_LRU_MASK: u64 = META_DIRTY - 1;

/// A single cache level.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Cache {
    name: &'static str,
    sets: usize,
    ways: usize,
    /// `INVALID_TAG` marks an empty way; otherwise the resident block.
    tags: Vec<u64>,
    /// Packed per-line metadata (see `META_*`), parallel to `tags`.
    meta: Vec<u64>,
    tick: u64,
    /// `sets - 1` when `sets` is a power of two, else `u64::MAX` to select
    /// the multiply-shift path.
    set_mask: u64,
    /// Lemire fastmod constant `⌈2^64 / sets⌉` (32-bit operand variant).
    fastmod_m: u64,
    /// `2^32 mod sets`, used to fold the high half of a 64-bit block.
    fold_r: u64,
}

/// Exact `n mod d` for 32-bit `n` via Lemire's multiply-shift
/// (`m = ⌈2^64 / d⌉`); proven exact for all `n, d < 2^32`.
#[inline]
fn fastmod32(n: u32, d: u64, m: u64) -> u64 {
    let low = m.wrapping_mul(n as u64);
    ((low as u128 * d as u128) >> 64) as u64
}

impl Cache {
    /// Build a cache of `size_bytes` with `ways` associativity over
    /// 64-byte blocks. The set count is `size / (64 * ways)` and need not
    /// be a power of two (indexing is modulo).
    pub fn new(name: &'static str, size_bytes: usize, ways: usize) -> Self {
        assert!(ways > 0);
        let sets = size_bytes / (64 * ways);
        assert!(sets > 0, "cache too small: {size_bytes} bytes, {ways} ways");
        let set_mask = if sets.is_power_of_two() {
            sets as u64 - 1
        } else {
            u64::MAX
        };
        Self {
            name,
            sets,
            ways,
            tags: vec![INVALID_TAG; sets * ways],
            meta: vec![0; sets * ways],
            tick: 0,
            set_mask,
            // ⌈2^64/sets⌉; wraps to 0 for sets == 1, where the pow2 mask
            // path is taken and this value is never read.
            fastmod_m: (u64::MAX / sets as u64).wrapping_add(1),
            fold_r: (1u64 << 32) % sets as u64,
        }
    }

    /// Cache level name ("l1d", "llc", ...).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        self.sets
    }

    /// Associativity.
    pub fn num_ways(&self) -> usize {
        self.ways
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.sets * self.ways * 64
    }

    #[inline]
    fn set_of(&self, block: u64) -> usize {
        if self.set_mask != u64::MAX {
            return convert::to_index(block & self.set_mask);
        }
        let d = self.sets as u64;
        if d < (1 << 16) {
            // Fold the 64-bit block through 2^32 ≡ fold_r (mod d); the
            // folded operand is < d² < 2^32, so both reductions stay in
            // the proven-exact 32-bit fastmod domain.
            let hi = fastmod32(convert::to_u32(block >> 32), d, self.fastmod_m);
            let lo = fastmod32(convert::low32(block), d, self.fastmod_m);
            convert::to_index(fastmod32(
                convert::to_u32(hi * self.fold_r + lo),
                d,
                self.fastmod_m,
            ))
        } else {
            // Enormous non-power-of-two set counts: fall back to hardware
            // division rather than widen the folding chain.
            convert::to_index(block % d)
        }
    }

    /// Index of `block`'s way within its set, if resident.
    ///
    /// The common associativities (Table V and the harness scale: 8, 12,
    /// 16 ways) dispatch to fixed-length branchless scans the compiler can
    /// vectorize; tags are unique within a set, so scan order is moot.
    #[inline]
    fn probe(&self, base: usize, block: u64) -> Option<usize> {
        #[inline]
        fn scan<const N: usize>(tags: &[u64], block: u64) -> Option<usize> {
            // lint:allow(panic-in-hot-path): the ways-dispatch match below only calls scan::<N> with an N-length slice
            let tags: &[u64; N] = tags.try_into().expect("slice length is N");
            let mut found = None;
            let mut i = 0;
            while i < N {
                if tags[i] == block {
                    found = Some(i);
                }
                i += 1;
            }
            found
        }
        let tags = &self.tags[base..base + self.ways];
        match self.ways {
            8 => scan::<8>(tags, block),
            12 => scan::<12>(tags, block),
            16 => scan::<16>(tags, block),
            _ => tags.iter().position(|&t| t == block),
        }
    }

    /// Demand lookup: updates LRU and prefetch-use state on hit.
    pub fn access(&mut self, addr: u64, is_write: bool) -> Lookup {
        let block = block_of(addr);
        let base = self.set_of(block) * self.ways;
        self.tick += 1;
        match self.probe(base, block) {
            Some(w) => {
                let m = &mut self.meta[base + w];
                let first_use = *m & (META_PREFETCHED | META_USED) == META_PREFETCHED;
                let mut v = (*m & (META_DIRTY | META_PREFETCHED)) | META_USED | self.tick;
                if is_write {
                    v |= META_DIRTY;
                }
                *m = v;
                Lookup::Hit {
                    first_use_of_prefetch: first_use,
                }
            }
            None => Lookup::Miss,
        }
    }

    /// Probe without disturbing any state (used by the engine to test
    /// presence and by prefetch-drop filtering).
    pub fn contains(&self, addr: u64) -> bool {
        let block = block_of(addr);
        let base = self.set_of(block) * self.ways;
        self.probe(base, block).is_some()
    }

    /// Insert a block (demand fill or prefetch fill), evicting the LRU
    /// victim if the set is full. Returns the eviction, if any.
    ///
    /// Filling a block already present refreshes it (and can mark a
    /// demand-fill over a prefetched line as used).
    pub fn fill(&mut self, addr: u64, is_write: bool, is_prefetch: bool) -> Option<Eviction> {
        let block = block_of(addr);
        let base = self.set_of(block) * self.ways;
        self.tick += 1;
        let tick = self.tick;
        // Already present?
        if let Some(w) = self.probe(base, block) {
            let m = &mut self.meta[base + w];
            let mut v = (*m & (META_DIRTY | META_PREFETCHED | META_USED)) | tick;
            if is_write {
                v |= META_DIRTY;
            }
            if !is_prefetch {
                v |= META_USED;
            }
            *m = v;
            return None;
        }
        Some(self.insert(base, block, is_write, is_prefetch, tick)).flatten()
    }

    /// [`Cache::fill`] for a block the caller has just probed absent (the
    /// engine's demand-miss path: `access` returned `Miss` and nothing
    /// touched the set since). Skips the presence probe; all state
    /// transitions, including the tick, are identical to `fill`.
    pub fn fill_known_miss(
        &mut self,
        addr: u64,
        is_write: bool,
        is_prefetch: bool,
    ) -> Option<Eviction> {
        let block = block_of(addr);
        let base = self.set_of(block) * self.ways;
        self.tick += 1;
        debug_assert!(self.probe(base, block).is_none(), "block resident");
        let tick = self.tick;
        self.insert(base, block, is_write, is_prefetch, tick)
    }

    /// Place `block` in its set, evicting the LRU line if no way is free.
    #[inline]
    fn insert(
        &mut self,
        base: usize,
        block: u64,
        is_write: bool,
        is_prefetch: bool,
        tick: u64,
    ) -> Option<Eviction> {
        #[inline]
        fn lru_min<const N: usize>(metas: &[u64]) -> usize {
            // lint:allow(panic-in-hot-path): the ways-dispatch match below only calls lru_min::<N> with an N-length slice
            let metas: &[u64; N] = metas.try_into().expect("slice length is N");
            // Seeding with u64::MAX (> META_LRU_MASK, so iteration 0
            // always wins) lets the scan start at 0 with no front
            // element access.
            let mut best = 0usize;
            let mut best_lru = u64::MAX;
            let mut i = 0;
            while i < N {
                let lru = metas[i] & META_LRU_MASK;
                if lru < best_lru {
                    best = i;
                    best_lru = lru;
                }
                i += 1;
            }
            best
        }
        let ways = self.ways;
        // No separate free-way scan: an empty way carries metadata 0 (live
        // ticks start at 1), so the victim min-scan lands on the first
        // free way whenever one exists — one pass instead of two per
        // insert.
        let metas = &self.meta[base..base + ways];
        let victim_idx = match ways {
            8 => lru_min::<8>(metas),
            12 => lru_min::<12>(metas),
            16 => lru_min::<16>(metas),
            _ => {
                let mut best = 0usize;
                let mut best_lru = u64::MAX;
                for (i, &m) in metas.iter().enumerate() {
                    let lru = m & META_LRU_MASK;
                    if lru < best_lru {
                        best = i;
                        best_lru = lru;
                    }
                }
                best
            }
        };
        let victim_tag = self.tags[base + victim_idx];
        let victim_meta = self.meta[base + victim_idx];
        let evicted = if victim_tag != INVALID_TAG {
            Some(Eviction {
                block: victim_tag,
                unused_prefetch: victim_meta & (META_PREFETCHED | META_USED) == META_PREFETCHED,
                dirty: victim_meta & META_DIRTY != 0,
            })
        } else {
            None
        };
        self.tags[base + victim_idx] = block;
        let mut v = tick;
        if is_write {
            v |= META_DIRTY;
        }
        if is_prefetch {
            v |= META_PREFETCHED;
        } else {
            v |= META_USED;
        }
        self.meta[base + victim_idx] = v;
        evicted
    }

    /// Drop all contents.
    pub fn clear(&mut self) {
        self.tags.fill(INVALID_TAG);
        self.meta.fill(0);
        self.tick = 0;
    }

    /// Strip prefetch attribution from every resident line (they remain
    /// valid, but no longer count as useful-on-first-use or
    /// unused-on-eviction). Used at the warmup/measurement boundary so
    /// accuracy only credits prefetches issued inside the measured window.
    pub fn clear_prefetch_marks(&mut self) {
        for (t, m) in self.tags.iter().zip(self.meta.iter_mut()) {
            if *t != INVALID_TAG && *m & META_PREFETCHED != 0 {
                *m = (*m & !META_PREFETCHED) | META_USED;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 2 sets x 2 ways.
        Cache::new("t", 2 * 2 * 64, 2)
    }

    #[test]
    fn geometry() {
        let c = Cache::new("llc", 8 * 1024 * 1024, 16);
        assert_eq!(c.num_sets(), 8192);
        assert_eq!(c.capacity_bytes(), 8 * 1024 * 1024);
        let c = Cache::new("l1d", 64 * 1024, 12);
        assert_eq!(c.num_sets(), 85); // non-power-of-two per Table V
    }

    #[test]
    fn set_index_matches_modulo() {
        // The strength-reduced index must agree with `%` for every
        // geometry class: power-of-two, small non-power-of-two (the
        // fastmod path), including blocks with high bits set.
        for ways in [1usize, 2, 3, 12, 16] {
            for sets in [1usize, 2, 3, 5, 64, 85, 170, 341, 8192, 65535] {
                let c = Cache::new("t", sets * ways * 64, ways);
                assert_eq!(c.num_sets(), sets);
                let mut x = 0x9E37_79B9_7F4A_7C15u64;
                for i in 0..2000u64 {
                    // xorshift over the full 64-bit range plus boundary blocks
                    x ^= x << 7;
                    x ^= x >> 9;
                    for block in [x, i, u64::MAX - i, (1u64 << 32) + i] {
                        assert_eq!(
                            c.set_of(block),
                            (block % sets as u64) as usize,
                            "sets={sets} block={block:#x}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn hit_after_fill_miss_before() {
        let mut c = small();
        assert_eq!(c.access(0x1000, false), Lookup::Miss);
        c.fill(0x1000, false, false);
        assert!(matches!(c.access(0x1000, false), Lookup::Hit { .. }));
        assert!(c.contains(0x1000));
        assert!(!c.contains(0x2000));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small();
        // Blocks 0, 2, 4 all map to set 0 (2 sets).
        c.fill(0, false, false);
        c.fill(2 * 64, false, false);
        // Touch block 0 so block 2 is LRU.
        c.access(0, false);
        let ev = c.fill(4 * 64, false, false).unwrap();
        assert_eq!(ev.block, 2);
        assert!(c.contains(0) && c.contains(4 * 64));
        assert!(!c.contains(2 * 64));
    }

    #[test]
    fn prefetch_use_tracking() {
        let mut c = small();
        c.fill(0x40, false, true); // prefetch fill
        match c.access(0x40, false) {
            Lookup::Hit {
                first_use_of_prefetch,
            } => assert!(first_use_of_prefetch),
            _ => panic!("expected hit"),
        }
        // Second touch is no longer "first use".
        match c.access(0x40, false) {
            Lookup::Hit {
                first_use_of_prefetch,
            } => assert!(!first_use_of_prefetch),
            _ => panic!("expected hit"),
        }
    }

    #[test]
    fn unused_prefetch_reported_on_eviction() {
        let mut c = small();
        c.fill(0, false, true); // prefetch, never used
        c.fill(2 * 64, false, false);
        c.access(2 * 64, false);
        let ev = c.fill(4 * 64, false, false).unwrap();
        assert_eq!(ev.block, 0);
        assert!(ev.unused_prefetch);
    }

    #[test]
    fn dirty_eviction_flag() {
        let mut c = small();
        c.fill(0, true, false);
        c.fill(2 * 64, false, false);
        c.access(2 * 64, false);
        c.access(2 * 64, false);
        let ev = c.fill(4 * 64, false, false).unwrap();
        assert_eq!(ev.block, 0);
        assert!(ev.dirty);
    }

    #[test]
    fn refill_of_present_block_no_eviction() {
        let mut c = small();
        c.fill(0x40, false, true);
        assert!(c.fill(0x40, false, false).is_none());
        // The demand refill marked the prefetched line used: evict it and
        // check it no longer counts as an unused prefetch.
        c.fill(0x40 + 2 * 64, false, false);
        c.access(0x40 + 2 * 64, false);
        let ev = c.fill(0x40 + 4 * 64, false, false).unwrap();
        assert_eq!(ev.block, 1);
        assert!(!ev.unused_prefetch);
    }

    #[test]
    fn writes_mark_dirty_on_hit() {
        let mut c = small();
        c.fill(0x40, false, false);
        c.access(0x40, true);
        c.fill(0x40 + 2 * 64, false, false);
        c.access(0x40 + 2 * 64, false);
        c.access(0x40 + 2 * 64, false);
        let ev = c.fill(0x40 + 4 * 64, false, false).unwrap();
        assert!(ev.dirty);
    }
}
