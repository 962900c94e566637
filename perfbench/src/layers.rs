//! Timing adapters that measure each layer from outside: they wrap the
//! public `TraceSource` and `Prefetcher` traits, forward every call to the
//! wrapped value unchanged, and add up the host time spent inside it.
//!
//! The adapters are bit-transparent: the wrapped object sees exactly the
//! calls, arguments and order it would see unwrapped, and every answer it
//! gives (names, kinds, budgets, degrees, suggestions) is passed back
//! untouched. `tests/adapters.rs` pins this on whole simulation jobs.

use resemble_prefetch::{CacheEvent, PredictionKind, Prefetcher};
use resemble_trace::{MemAccess, TraceSource};
use std::sync::{Arc, Mutex};
// lint:allow(wall-clock-in-sim): the benchmark measures host time
use std::time::Instant;

/// A host-clock reading: the one place this crate reads the clock.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(
    // lint:allow(wall-clock-in-sim): the benchmark measures host time
    Instant,
);

impl Stopwatch {
    /// Read the clock now.
    pub fn start() -> Self {
        // lint:allow(wall-clock-in-sim): the benchmark measures host time
        Stopwatch(Instant::now())
    }

    /// Nanoseconds since the reading, saturating.
    pub fn ns(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Seconds since the reading.
    pub fn secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

/// Host time and work one prefetcher adapter saw.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PfTally {
    /// Nanoseconds inside `on_access`.
    pub access_ns: u64,
    /// `on_access` calls.
    pub accesses: u64,
    /// Nanoseconds inside the fill/evict hooks (batched and per event).
    pub event_ns: u64,
    /// Fill/evict events delivered.
    pub events: u64,
}

impl PfTally {
    /// Add another tally into this one.
    pub fn add(&mut self, o: &PfTally) {
        self.access_ns += o.access_ns;
        self.accesses += o.accesses;
        self.event_ns += o.event_ns;
        self.events += o.events;
    }

    /// All time spent in the wrapped prefetcher.
    pub fn total_ns(&self) -> u64 {
        self.access_ns + self.event_ns
    }
}

/// Where a member adapter publishes its tally when it is dropped. A bank
/// owns its members and exposes no way to reach them again, so member
/// adapters report through this shared cell instead.
pub type TallySink = Arc<Mutex<PfTally>>;

/// A `Prefetcher` adapter timing every call into the wrapped prefetcher.
pub struct TimedPrefetcher<P: ?Sized> {
    tally: PfTally,
    sink: Option<TallySink>,
    inner: Box<P>,
}

impl<P: Prefetcher + ?Sized> TimedPrefetcher<P> {
    /// Wrap a prefetcher; read the tally with [`TimedPrefetcher::tally`].
    pub fn new(inner: Box<P>) -> Self {
        Self {
            tally: PfTally::default(),
            sink: None,
            inner,
        }
    }

    /// Wrap a prefetcher that will be moved out of reach (a bank member);
    /// its tally is added into `sink` when the adapter is dropped.
    pub fn reporting_to(inner: Box<P>, sink: TallySink) -> Self {
        Self {
            tally: PfTally::default(),
            sink: Some(sink),
            inner,
        }
    }

    /// Time and work seen so far.
    pub fn tally(&self) -> PfTally {
        self.tally
    }

    /// The wrapped prefetcher.
    pub fn inner(&self) -> &P {
        &self.inner
    }
}

impl<P: ?Sized> Drop for TimedPrefetcher<P> {
    fn drop(&mut self) {
        if let Some(sink) = &self.sink {
            // A poisoned sink only means another adapter's owner panicked;
            // the tally itself is plain counters and stays meaningful.
            let mut total = sink.lock().unwrap_or_else(|e| e.into_inner());
            total.add(&self.tally);
        }
    }
}

impl<P: Prefetcher + ?Sized> Prefetcher for TimedPrefetcher<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn kind(&self) -> PredictionKind {
        self.inner.kind()
    }

    fn on_access(&mut self, access: &MemAccess, hit: bool, out: &mut Vec<u64>) {
        let t = Stopwatch::start();
        self.inner.on_access(access, hit, out);
        self.tally.access_ns += t.ns();
        self.tally.accesses += 1;
    }

    fn on_prefetch_fill(&mut self, addr: u64) {
        let t = Stopwatch::start();
        self.inner.on_prefetch_fill(addr);
        self.tally.event_ns += t.ns();
        self.tally.events += 1;
    }

    fn on_demand_fill(&mut self, addr: u64) {
        let t = Stopwatch::start();
        self.inner.on_demand_fill(addr);
        self.tally.event_ns += t.ns();
        self.tally.events += 1;
    }

    fn on_evict(&mut self, addr: u64, unused_prefetch: bool) {
        let t = Stopwatch::start();
        self.inner.on_evict(addr, unused_prefetch);
        self.tally.event_ns += t.ns();
        self.tally.events += 1;
    }

    fn on_cache_events(&mut self, events: &[CacheEvent]) {
        let t = Stopwatch::start();
        self.inner.on_cache_events(events);
        self.tally.event_ns += t.ns();
        self.tally.events += events.len() as u64;
    }

    fn budget_bytes(&self) -> usize {
        self.inner.budget_bytes()
    }

    fn max_degree(&self) -> usize {
        self.inner.max_degree()
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

/// A `TraceSource` adapter timing trace generation.
pub struct TimedSource<S: ?Sized> {
    /// Nanoseconds inside the wrapped source.
    pub ns: u64,
    /// Accesses the wrapped source produced.
    pub accesses: u64,
    inner: Box<S>,
}

impl<S: TraceSource + ?Sized> TimedSource<S> {
    /// Wrap a trace source.
    pub fn new(inner: Box<S>) -> Self {
        Self {
            ns: 0,
            accesses: 0,
            inner,
        }
    }
}

impl<S: TraceSource + ?Sized> TraceSource for TimedSource<S> {
    fn next_access(&mut self) -> Option<MemAccess> {
        let t = Stopwatch::start();
        let a = self.inner.next_access();
        self.ns += t.ns();
        self.accesses += u64::from(a.is_some());
        a
    }

    fn next_batch(&mut self, out: &mut Vec<MemAccess>, n: usize) -> usize {
        let t = Stopwatch::start();
        let got = self.inner.next_batch(out, n);
        self.ns += t.ns();
        self.accesses += got as u64;
        got
    }

    fn collect_n(&mut self, n: usize) -> Vec<MemAccess> {
        let t = Stopwatch::start();
        let v = self.inner.collect_n(n);
        self.ns += t.ns();
        self.accesses += v.len() as u64;
        v
    }
}

/// Clock readings that split a job into small units of equal work on
/// every pass with the same seed, so each unit's fastest time over the
/// passes can be taken on its own.
#[derive(Debug)]
pub struct Stamps {
    clock: Stopwatch,
    at: Vec<u64>,
}

impl Stamps {
    /// Start the clock.
    pub fn start() -> Self {
        Stamps {
            clock: Stopwatch::start(),
            at: Vec::new(),
        }
    }

    fn stamp(&mut self) {
        self.at.push(self.clock.ns());
    }

    /// Host nanoseconds between readings: from the start to the first
    /// reading, between readings, and from the last reading to now.
    pub fn units_ns(&self) -> Vec<u64> {
        let end = self.clock.ns();
        let mut prev = 0;
        let mut units = Vec::with_capacity(self.at.len() + 1);
        for &t in self.at.iter().chain(std::iter::once(&end)) {
            units.push(t - prev);
            prev = t;
        }
        units
    }
}

/// A `TraceSource` adapter that reads the clock once per batch the engine
/// pulls (every 1,024 accesses) and does nothing else.
pub struct StampedSource<S: ?Sized> {
    /// The readings, one per `next_batch` call.
    pub stamps: Stamps,
    inner: Box<S>,
}

impl<S: TraceSource + ?Sized> StampedSource<S> {
    /// Wrap a trace source; the clock starts now.
    pub fn new(inner: Box<S>) -> Self {
        Self {
            stamps: Stamps::start(),
            inner,
        }
    }
}

impl<S: TraceSource + ?Sized> TraceSource for StampedSource<S> {
    fn next_access(&mut self) -> Option<MemAccess> {
        self.inner.next_access()
    }

    fn next_batch(&mut self, out: &mut Vec<MemAccess>, n: usize) -> usize {
        self.stamps.stamp();
        self.inner.next_batch(out, n)
    }

    fn collect_n(&mut self, n: usize) -> Vec<MemAccess> {
        self.inner.collect_n(n)
    }
}
