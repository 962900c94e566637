//! Serving telemetry: lock-free atomic counters and fixed-bucket
//! histograms, snapshotted periodically as JSONL.
//!
//! Everything here is on the per-decision hot path, so recording is a
//! handful of relaxed atomic adds — no locks, no allocation, no panics
//! (`panic-in-hot-path` covers this file). Latency uses a half-log
//! histogram: two buckets per power of two of microseconds, so reported
//! percentiles carry at most ~33% quantization error while the whole
//! histogram stays a fixed 64-slot array.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of half-log latency buckets (covers 0 µs to ~53 minutes).
const LAT_BUCKETS: usize = 64;

/// Batch sizes above this land in the overflow bucket.
const MAX_BATCH_TRACKED: usize = 256;

/// Half-log bucket index for a latency in microseconds.
fn lat_bucket(us: u64) -> usize {
    if us < 2 {
        return usize::try_from(us).unwrap_or(0);
    }
    let k = 63 - u64::from(us.leading_zeros());
    let sub = (us >> (k - 1)) & 1;
    usize::try_from(2 * k + sub)
        .unwrap_or(LAT_BUCKETS - 1)
        .min(LAT_BUCKETS - 1)
}

/// Inclusive lower edge of a latency bucket, in microseconds.
fn lat_bucket_lower(idx: usize) -> u64 {
    if idx < 2 {
        return idx as u64;
    }
    let k = (idx / 2) as u32;
    let sub = (idx % 2) as u64;
    (2 + sub) << (k - 1)
}

/// Inclusive upper edge of a latency bucket, in microseconds.
fn lat_bucket_upper(idx: usize) -> u64 {
    if idx + 1 >= LAT_BUCKETS {
        return u64::MAX;
    }
    lat_bucket_lower(idx + 1).saturating_sub(1)
}

/// Shared serving counters. One instance per server, shared by every
/// reader and shard-worker thread through an `Arc`.
#[derive(Debug)]
pub struct Telemetry {
    sessions_opened: AtomicU64,
    sessions_closed: AtomicU64,
    decisions: AtomicU64,
    prefetches: AtomicU64,
    busy_rejections: AtomicU64,
    timeouts: AtomicU64,
    events: AtomicU64,
    events_dropped: AtomicU64,
    protocol_errors: AtomicU64,
    batches: AtomicU64,
    connections_opened: AtomicU64,
    connections_closed: AtomicU64,
    pool_batches: AtomicU64,
    pool_sessions: AtomicU64,
    quantized_windows: AtomicU64,
    quantized_sessions: AtomicU64,
    checkpoints_saved: AtomicU64,
    checkpoints_loaded: AtomicU64,
    latency: [AtomicU64; LAT_BUCKETS],
    batch_sizes: [AtomicU64; MAX_BATCH_TRACKED + 1],
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl Telemetry {
    /// Fresh zeroed telemetry.
    pub fn new() -> Self {
        Self {
            sessions_opened: AtomicU64::new(0),
            sessions_closed: AtomicU64::new(0),
            decisions: AtomicU64::new(0),
            prefetches: AtomicU64::new(0),
            busy_rejections: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            events: AtomicU64::new(0),
            events_dropped: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            connections_opened: AtomicU64::new(0),
            connections_closed: AtomicU64::new(0),
            pool_batches: AtomicU64::new(0),
            pool_sessions: AtomicU64::new(0),
            quantized_windows: AtomicU64::new(0),
            quantized_sessions: AtomicU64::new(0),
            checkpoints_saved: AtomicU64::new(0),
            checkpoints_loaded: AtomicU64::new(0),
            latency: std::array::from_fn(|_| AtomicU64::new(0)),
            batch_sizes: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// A session was accepted.
    pub fn session_opened(&self) {
        self.sessions_opened.fetch_add(1, Ordering::Relaxed);
    }

    /// A session finished (Bye processed or connection lost).
    pub fn session_closed(&self) {
        self.sessions_closed.fetch_add(1, Ordering::Relaxed);
    }

    /// One decision served, with its queue+service latency and the number
    /// of prefetch addresses it issued.
    pub fn decision(&self, latency_us: u64, n_prefetches: usize) {
        self.decisions.fetch_add(1, Ordering::Relaxed);
        self.prefetches
            .fetch_add(n_prefetches as u64, Ordering::Relaxed);
        let idx = lat_bucket(latency_us);
        if let Some(b) = self.latency.get(idx) {
            b.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A request was rejected with `Busy` (queue full).
    pub fn busy(&self) {
        self.busy_rejections.fetch_add(1, Ordering::Relaxed);
    }

    /// A request expired in the queue and got `TimedOut`.
    pub fn timeout(&self) {
        self.timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// A cache-feedback event was applied.
    pub fn event(&self) {
        self.events.fetch_add(1, Ordering::Relaxed);
    }

    /// A cache-feedback event was dropped by backpressure.
    pub fn event_dropped(&self) {
        self.events_dropped.fetch_add(1, Ordering::Relaxed);
    }

    /// A malformed frame or protocol-state error.
    pub fn protocol_error(&self) {
        self.protocol_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// One decision batch (a single `forward_batch` window) of `size`
    /// decisions was processed.
    pub fn batch(&self, size: usize) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        let idx = size.min(MAX_BATCH_TRACKED);
        if let Some(b) = self.batch_sizes.get(idx) {
            b.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A TCP connection entered the event loop.
    pub fn conn_opened(&self) {
        self.connections_opened.fetch_add(1, Ordering::Relaxed);
    }

    /// A TCP connection was deregistered and its slot reclaimed.
    pub fn conn_closed(&self) {
        self.connections_closed.fetch_add(1, Ordering::Relaxed);
    }

    /// One cross-session pooled window ran: `sessions` sessions' decision
    /// windows shared a single batched forward.
    pub fn pool_batch(&self, sessions: usize) {
        self.pool_batches.fetch_add(1, Ordering::Relaxed);
        self.pool_sessions
            .fetch_add(sessions as u64, Ordering::Relaxed);
    }

    /// One pooled window ran through the int8 quantized datapath
    /// (`--quantize-frozen`), covering `sessions` sessions' decisions.
    pub fn quantized_window(&self, sessions: usize) {
        self.quantized_windows.fetch_add(1, Ordering::Relaxed);
        self.quantized_sessions
            .fetch_add(sessions as u64, Ordering::Relaxed);
    }

    /// A session checkpoint was written on retire.
    pub fn checkpoint_saved(&self) {
        self.checkpoints_saved.fetch_add(1, Ordering::Relaxed);
    }

    /// A session warm-started from a checkpoint at Hello.
    pub fn checkpoint_loaded(&self) {
        self.checkpoints_loaded.fetch_add(1, Ordering::Relaxed);
    }

    /// Decisions served so far.
    pub fn decisions_total(&self) -> u64 {
        self.decisions.load(Ordering::Relaxed)
    }

    /// Sessions closed so far.
    pub fn sessions_closed_total(&self) -> u64 {
        self.sessions_closed.load(Ordering::Relaxed)
    }

    fn percentile(&self, q: f64) -> u64 {
        let total: u64 = self.latency.iter().map(|b| b.load(Ordering::Relaxed)).sum();
        if total == 0 {
            return 0;
        }
        let mut target = (q * total as f64).ceil() as u64;
        target = target.clamp(1, total);
        let mut cum = 0u64;
        for (idx, b) in self.latency.iter().enumerate() {
            cum += b.load(Ordering::Relaxed);
            if cum >= target {
                return lat_bucket_upper(idx);
            }
        }
        lat_bucket_upper(LAT_BUCKETS - 1)
    }

    /// A point-in-time copy of every counter, with derived percentiles.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let batches = self.batches.load(Ordering::Relaxed);
        let decisions = self.decisions.load(Ordering::Relaxed);
        let batch_size_hist: Vec<(u64, u64)> = self
            .batch_sizes
            .iter()
            .enumerate()
            .filter_map(|(size, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then_some((size as u64, n))
            })
            .collect();
        TelemetrySnapshot {
            // `active()` never panics (dispatch falls back to scalar), so
            // this stays within the no-panic hot-path contract.
            kernel_backend: resemble_nn::simd::active().name().to_string(),
            cpu_caps: resemble_nn::simd::capabilities().summary(),
            sessions_opened: self.sessions_opened.load(Ordering::Relaxed),
            sessions_closed: self.sessions_closed.load(Ordering::Relaxed),
            decisions,
            prefetches: self.prefetches.load(Ordering::Relaxed),
            busy_rejections: self.busy_rejections.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            events: self.events.load(Ordering::Relaxed),
            events_dropped: self.events_dropped.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            batches,
            connections_opened: self.connections_opened.load(Ordering::Relaxed),
            connections_closed: self.connections_closed.load(Ordering::Relaxed),
            pool_batches: self.pool_batches.load(Ordering::Relaxed),
            pool_sessions: self.pool_sessions.load(Ordering::Relaxed),
            quantized_windows: self.quantized_windows.load(Ordering::Relaxed),
            quantized_sessions: self.quantized_sessions.load(Ordering::Relaxed),
            checkpoints_saved: self.checkpoints_saved.load(Ordering::Relaxed),
            checkpoints_loaded: self.checkpoints_loaded.load(Ordering::Relaxed),
            mean_batch: if batches > 0 {
                decisions as f64 / batches as f64
            } else {
                0.0
            },
            latency_us_p50: self.percentile(0.50),
            latency_us_p95: self.percentile(0.95),
            latency_us_p99: self.percentile(0.99),
            batch_size_hist,
        }
    }
}

/// A serializable point-in-time view of [`Telemetry`], one JSONL line per
/// periodic snapshot.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TelemetrySnapshot {
    /// SIMD kernel backend the snapshotting thread's decisions run on
    /// (`avx512`/`avx2`/`scalar`), so latency and throughput numbers are
    /// attributable to an ISA.
    pub kernel_backend: String,
    /// Detected CPU SIMD capability bits (space-separated feature names,
    /// e.g. `"avx2 avx512f avx512bw avx512-vnni"`, or `"none"`) —
    /// the bits backend selection and the VNNI int8 instruction forms
    /// gate on.
    pub cpu_caps: String,
    /// Sessions accepted.
    pub sessions_opened: u64,
    /// Sessions finished.
    pub sessions_closed: u64,
    /// Decisions served.
    pub decisions: u64,
    /// Prefetch addresses issued across all decisions.
    pub prefetches: u64,
    /// Requests rejected with `Busy`.
    pub busy_rejections: u64,
    /// Requests expired with `TimedOut`.
    pub timeouts: u64,
    /// Cache-feedback events applied.
    pub events: u64,
    /// Cache-feedback events dropped by backpressure.
    pub events_dropped: u64,
    /// Malformed frames / protocol-state errors.
    pub protocol_errors: u64,
    /// Decision batches processed (one `forward_batch` window each).
    pub batches: u64,
    /// TCP connections accepted into the event loop.
    pub connections_opened: u64,
    /// TCP connections deregistered (every opened connection must be
    /// closed by drain time — the leak-freedom invariant).
    pub connections_closed: u64,
    /// Cross-session pooled windows (many sessions, one forward).
    pub pool_batches: u64,
    /// Sessions summed across all pooled windows.
    pub pool_sessions: u64,
    /// Pooled windows that ran through the int8 quantized datapath.
    pub quantized_windows: u64,
    /// Sessions summed across all quantized pooled windows.
    pub quantized_sessions: u64,
    /// Session checkpoints written on retire.
    pub checkpoints_saved: u64,
    /// Sessions warm-started from a checkpoint at Hello.
    pub checkpoints_loaded: u64,
    /// Mean decisions per batch.
    pub mean_batch: f64,
    /// Median decision latency (enqueue → reply encoded), microseconds.
    pub latency_us_p50: u64,
    /// 95th-percentile decision latency, microseconds.
    pub latency_us_p95: u64,
    /// 99th-percentile decision latency, microseconds.
    pub latency_us_p99: u64,
    /// `(batch_size, count)` pairs for every non-empty bucket; sizes above
    /// 256 share the overflow bucket.
    pub batch_size_hist: Vec<(u64, u64)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_self_consistent() {
        let mut prev = 0;
        for us in [0u64, 1, 2, 3, 4, 5, 7, 8, 100, 1000, 65_535, 1 << 30] {
            let idx = lat_bucket(us);
            assert!(idx >= prev, "bucket index regressed at {us}");
            prev = idx;
            assert!(
                lat_bucket_lower(idx) <= us && us <= lat_bucket_upper(idx),
                "{us}us outside bucket {idx}: [{}, {}]",
                lat_bucket_lower(idx),
                lat_bucket_upper(idx)
            );
        }
        assert_eq!(lat_bucket(u64::MAX), LAT_BUCKETS - 1);
    }

    #[test]
    fn percentiles_reflect_recorded_latencies() {
        let t = Telemetry::new();
        // 90 fast decisions at ~10us, 10 slow at ~1000us.
        for _ in 0..90 {
            t.decision(10, 1);
        }
        for _ in 0..10 {
            t.decision(1000, 0);
        }
        let s = t.snapshot();
        assert_eq!(s.decisions, 100);
        assert_eq!(s.prefetches, 90);
        assert!(s.latency_us_p50 < 20, "p50={}", s.latency_us_p50);
        assert!(
            s.latency_us_p99 >= 512,
            "p99={} should land in the slow mode",
            s.latency_us_p99
        );
        assert!(s.latency_us_p95 <= s.latency_us_p99);
    }

    #[test]
    fn batch_histogram_tracks_sizes_with_overflow() {
        let t = Telemetry::new();
        t.batch(1);
        t.batch(1);
        t.batch(8);
        t.batch(10_000); // overflow bucket
        let s = t.snapshot();
        assert_eq!(s.batches, 4);
        assert!(s.batch_size_hist.contains(&(1, 2)));
        assert!(s.batch_size_hist.contains(&(8, 1)));
        assert!(s.batch_size_hist.contains(&(MAX_BATCH_TRACKED as u64, 1)));
    }

    #[test]
    fn empty_telemetry_snapshots_cleanly() {
        let s = Telemetry::new().snapshot();
        assert!(
            resemble_nn::KernelBackend::ALL
                .iter()
                .any(|b| b.name() == s.kernel_backend),
            "unknown backend {:?}",
            s.kernel_backend
        );
        assert!(!s.cpu_caps.is_empty(), "cpu_caps must never be blank");
        assert_eq!(s.decisions, 0);
        assert_eq!(s.quantized_windows, 0);
        assert_eq!(s.latency_us_p99, 0);
        assert_eq!(s.mean_batch, 0.0);
        assert!(s.batch_size_hist.is_empty());
        // The snapshot serializes as a single JSON object (one JSONL line).
        let line = serde_json::to_string(&s).expect("serializes");
        assert!(!line.contains('\n'));
    }
}
