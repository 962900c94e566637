//! Summaries, host facts and the result line.

use std::fmt::Write as _;

/// Median of a sample (mean of the middle pair for even sizes).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of a sample.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// The highest of p50/p90/p95/p99/p99.9 that has at least ten samples
/// beyond it, or `None` when the sample is smaller than twenty.
pub fn highest_supported(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.95, 0.9, 0.5]
        .into_iter()
        .find(|&q| n as f64 * (1.0 - q) >= 10.0)
}

/// One metric of the result line, with the sample it summarises.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Reported value: the `how` of `samples`, or a single count.
    pub value: f64,
    /// Which summary of `samples` the value is, e.g. `median`.
    pub how: &'static str,
    /// Per-repetition values behind `value`; empty for single counts.
    pub samples: Vec<f64>,
    /// `true` when larger samples are the bad tail (times), `false` when
    /// smaller ones are (rates). Picks the side the tail percentile reads.
    pub high_is_tail: bool,
}

impl Metric {
    /// A metric reported as the median of repeated measurements.
    pub fn median_of(
        name: &str,
        unit: &'static str,
        samples: Vec<f64>,
        high_is_tail: bool,
    ) -> Self {
        Metric {
            name: name.to_string(),
            unit,
            value: median(&samples),
            how: "median",
            samples,
            high_is_tail,
        }
    }

    /// A rate reported as another summary of repeated measurements than
    /// their median, named by `how`: `value` is computed by the caller, and
    /// `samples` are the per-repetition rates printed beside it.
    pub fn rate_summary(
        name: &str,
        unit: &'static str,
        value: f64,
        how: &'static str,
        samples: Vec<f64>,
    ) -> Self {
        Metric {
            name: name.to_string(),
            unit,
            value,
            how,
            samples,
            high_is_tail: false,
        }
    }

    /// A single measured value or count.
    pub fn single(name: &str, unit: &'static str, value: f64) -> Self {
        Metric {
            name: name.to_string(),
            unit,
            value,
            how: "single",
            samples: Vec::new(),
            high_is_tail: true,
        }
    }

    /// Human-readable line: value, unit, tail percentile and sample count.
    pub fn describe(&self) -> String {
        let mut s = format!("{:<34} {:>16.4} {:<6}", self.name, self.value, self.unit);
        let n = self.samples.len();
        if n > 1 {
            let _ = write!(s, " {} of n={n}", self.how);
            if let Some(q) = highest_supported(n) {
                let at = if self.high_is_tail { q } else { 1.0 - q };
                let _ = write!(
                    s,
                    ", p{} tail {:.4}",
                    (q * 1000.0).round() / 10.0,
                    quantile(&self.samples, at)
                );
            } else {
                let lo = quantile(&self.samples, 0.0);
                let hi = quantile(&self.samples, 1.0);
                let _ = write!(s, ", range {lo:.4}..{hi:.4}");
            }
        }
        s
    }
}

/// Outcome of one benchmark run: the last line of standard output.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (simulation jobs, or served requests).
    pub attempted: u64,
    /// Operations failed (panicked or mismatched jobs, or bad replies).
    pub failed: u64,
    /// Metrics in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Further figures printed with the metrics but not in the result
    /// line (they vary with the seed too much to carry a bound).
    pub extra: Vec<Metric>,
    /// Failed checks, one line each; any makes the run incorrect.
    pub problems: Vec<String>,
}

impl Outcome {
    /// Record a failed check without aborting the run.
    pub fn problem(&mut self, msg: impl Into<String>) {
        let msg = msg.into();
        eprintln!("CHECK FAILED: {msg}");
        self.problems.push(msg);
    }

    /// The JSON result line. Non-finite values cannot be written as JSON
    /// numbers; they are reported as problems and written as 0.
    pub fn result_line(&mut self) -> String {
        let bad: Vec<String> = self
            .metrics
            .iter()
            .filter(|m| !m.value.is_finite())
            .map(|m| format!("metric {} is not finite", m.name))
            .collect();
        for b in bad {
            self.problem(b);
        }
        let correct = self.problems.is_empty() && self.failed == 0;
        let mut s = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// Host facts recorded with every run.
pub fn host_facts() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "nproc={nproc} kernel_backend={} cpu_caps=\"{}\"",
        resemble_nn::simd::active().name(),
        resemble_nn::simd::capabilities().summary()
    )
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// FNV-1a over 64-bit words: the digest of a statistics record.
pub fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// End-to-end metrics with units, in `BENCHMARK.json` order. Every
/// workload reports all of them with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[("accesses_per_s", "1/s"), ("setup_s", "s")];

/// Per-layer metrics with units, in `BENCHMARK.json` order. The traced
/// run reports all of them; a layer a workload never calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.ns_per_access", "ns"),
    ("sim.self_ns_per_access", "ns"),
    ("sim.llc_mpki", "miss/kinstr"),
    ("sim.prefetch_accuracy", "ratio"),
    ("sim.prefetch_coverage", "ratio"),
    ("sim.prefetches_late_frac", "ratio"),
    ("sim.dram_row_hit_frac", "ratio"),
    ("sim.ipc_gain_pct", "%"),
    ("prefetch.bo.ns_per_access", "ns"),
    ("prefetch.spp.ns_per_access", "ns"),
    ("prefetch.isb.ns_per_access", "ns"),
    ("prefetch.domino.ns_per_access", "ns"),
    ("prefetch.events_ns_per_access", "ns"),
    ("prefetch.events_per_access", "count"),
    ("core.self_ns_per_access", "ns"),
    ("core.np_action_frac", "ratio"),
    ("core.reward_per_kaccess", "1/kaccess"),
    ("core.tabular_states", "count"),
    ("serve.client_p50_us", "us"),
    ("serve.client_p99_us", "us"),
    ("serve.server_p50_us", "us"),
    ("serve.server_p99_us", "us"),
    ("serve.mean_batch", "count"),
    ("serve.pooled_sessions_per_batch", "count"),
    ("serve.busy", "count"),
    ("serve.timeouts", "count"),
    ("serve.events_dropped", "count"),
    ("loadgen.lag_us_p99", "us"),
    ("loadgen.p99_us.plain", "us"),
    ("loadgen.p99_us.events", "us"),
    ("tracing.overhead_frac", "ratio"),
    ("mem.peak_rss_mb", "MiB"),
];

/// Order `measured` as `spec` lists them, filling every metric the
/// workload did not produce with 0 (the layer is not on its path).
/// Panics on a measured name missing from `spec`: that is a bug here.
pub fn assemble(spec: &[(&str, &'static str)], measured: Vec<Metric>) -> Vec<Metric> {
    for m in &measured {
        assert!(
            spec.iter().any(|(n, u)| *n == m.name && *u == m.unit),
            "metric {} [{}] is not in the metric list",
            m.name,
            m.unit
        );
    }
    spec.iter()
        .map(|&(name, unit)| {
            measured
                .iter()
                .find(|m| m.name == name)
                .cloned()
                .unwrap_or_else(|| Metric::single(name, unit, 0.0))
        })
        .collect()
}

/// Directory (under the working directory) where runs write their spans.
pub const OUT_DIR: &str = ".perfbench_out";

/// A path under [`OUT_DIR`], creating the directory.
pub fn out_path(file: &str) -> std::io::Result<String> {
    std::fs::create_dir_all(OUT_DIR)?;
    Ok(format!("{OUT_DIR}/{file}"))
}

/// CPU nanoseconds each live thread of this process has run so far, as
/// `(thread id, ns)`, from `/proc/self/task/<tid>/schedstat`; empty where
/// that is unavailable.
pub fn thread_cpu_ns() -> Vec<(u64, u64)> {
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    dir.flatten()
        .filter_map(|e| {
            let tid: u64 = e.file_name().to_str()?.parse().ok()?;
            let stat = std::fs::read_to_string(e.path().join("schedstat")).ok()?;
            Some((tid, stat.split_whitespace().next()?.parse().ok()?))
        })
        .collect()
}

/// A `cpu_set_t`: 1024 CPUs, one bit each.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs this process may run on, from its affinity mask, ascending.
pub fn allowed_cpus() -> Result<Vec<usize>, String> {
    let mut mask: CpuSet = [0; 16];
    // SAFETY: `mask` is a live buffer of the size passed; pid 0 names the
    // calling thread, and the call writes at most that many bytes.
    // lint:allow(unsafe-undocumented): a foreign call with no std equivalent
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpus: Vec<usize> = (0..mask.len() * 64)
        .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect();
    if cpus.is_empty() {
        return Err("the affinity mask is empty".to_string());
    }
    Ok(cpus)
}

/// Pin the calling thread to `cpu` (below 1024); threads it starts
/// afterwards inherit the pin. Pinning before any thread starts keeps
/// thread placement across CPUs (and the cross-CPU wake-ups it decides)
/// from changing what a run measures.
pub fn pin_to_cpu(cpu: usize) -> Result<(), String> {
    let mut mask: CpuSet = [0; 16];
    *mask
        .get_mut(cpu / 64)
        .ok_or_else(|| format!("CPU {cpu} is beyond the affinity mask"))? = 1 << (cpu % 64);
    // SAFETY: as in `allowed_cpus`; the call only reads the mask.
    // lint:allow(unsafe-undocumented): a foreign call with no std equivalent
    if unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), mask.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity to CPU {cpu}: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(())
}
