//! Trace analysis used by the Figure 1 motivation study.
//!
//! The paper motivates ensemble prefetching by showing that different
//! applications exhibit very different autocorrelation structure in their
//! LLC miss traces (Fig 1a), that grouping accesses by PC changes that
//! structure (Fig 1b), and that spatial vs temporal prefetchers therefore
//! win on different applications (Fig 1c). This module implements the
//! autocorrelation analysis over block-address series.

use crate::record::MemAccess;
use std::collections::HashMap;

/// Autocorrelation coefficients of a numeric series at lags `1..=max_lag`.
///
/// Uses the standard biased estimator
/// `r(k) = sum_{t} (x_t - mean)(x_{t+k} - mean) / sum_t (x_t - mean)^2`,
/// which is what statistical packages plot in autocorrelation ("ACF") plots.
/// Returns an empty vector when the series is shorter than 2 elements or has
/// zero variance.
pub fn autocorrelation(series: &[f64], max_lag: usize) -> Vec<f64> {
    let n = series.len();
    if n < 2 {
        return Vec::new();
    }
    let mean = series.iter().sum::<f64>() / n as f64;
    let denom: f64 = series.iter().map(|x| (x - mean) * (x - mean)).sum();
    if denom == 0.0 {
        return Vec::new();
    }
    let max_lag = max_lag.min(n - 1);
    let mut acf = Vec::with_capacity(max_lag);
    for k in 1..=max_lag {
        let num: f64 = (0..n - k)
            .map(|t| (series[t] - mean) * (series[t + k] - mean))
            .sum();
        acf.push(num / denom);
    }
    acf
}

/// Convert a trace to the block-address series analyzed in Fig 1.
///
/// Absolute addresses are an awkward series to correlate (they are huge and
/// monotone segments dominate), so, like the paper's analysis of "memory
/// access deltas", we analyze the series of block numbers relative to the
/// trace's first block.
pub fn block_series(trace: &[MemAccess]) -> Vec<f64> {
    if trace.is_empty() {
        return Vec::new();
    }
    let base = trace[0].block() as i64;
    trace
        .iter()
        .map(|a| (a.block() as i64 - base) as f64)
        .collect()
}

/// Autocorrelation of the trace's block-address series (Fig 1a).
///
/// The paper's Fig 1 plots are ACFs of the access *values*: streaming apps
/// show high, slowly decaying ACs (trend + periodic interleave), while
/// irregular apps show insignificant spikes.
pub fn trace_autocorrelation(trace: &[MemAccess], max_lag: usize) -> Vec<f64> {
    autocorrelation(&block_series(trace), max_lag)
}

/// Per-PC series concatenated in first-appearance order, as block values
/// relative to the trace's first block.
fn pc_grouped_series(trace: &[MemAccess]) -> Vec<f64> {
    if trace.is_empty() {
        return Vec::new();
    }
    let base = trace[0].block() as i64;
    let mut groups: HashMap<u64, Vec<f64>> = HashMap::new();
    let mut order: Vec<u64> = Vec::new();
    for a in trace {
        let e = groups.entry(a.pc).or_insert_with(|| {
            order.push(a.pc);
            Vec::new()
        });
        e.push((a.block() as i64 - base) as f64);
    }
    let mut series = Vec::with_capacity(trace.len());
    for pc in order {
        series.extend(groups.remove(&pc).unwrap_or_default());
    }
    series
}

/// Autocorrelation after grouping the trace by PC (Fig 1b).
///
/// Accesses are grouped by PC, order preserved inside each group, the
/// per-group value series are concatenated (groups ordered by first
/// appearance), and the ACF of the concatenation is returned. This mirrors
/// the paper: "we group the memory accesses by PC while keeping the access
/// order within each PC".
pub fn pc_grouped_autocorrelation(trace: &[MemAccess], max_lag: usize) -> Vec<f64> {
    autocorrelation(&pc_grouped_series(trace), max_lag)
}

/// Summary numbers used to characterize an ACF curve in test assertions and
/// harness tables: the mean absolute coefficient over the first `k` lags and
/// the lag-1 coefficient.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcfSummary {
    /// Mean of |r(k)| over the measured lags.
    pub mean_abs: f64,
    /// r(1), the lag-1 autocorrelation.
    pub lag1: f64,
    /// Largest |r(k)| over the measured lags.
    pub peak_abs: f64,
}

/// Summarize an ACF curve. Returns zeros for an empty curve.
pub fn summarize_acf(acf: &[f64]) -> AcfSummary {
    if acf.is_empty() {
        return AcfSummary {
            mean_abs: 0.0,
            lag1: 0.0,
            peak_abs: 0.0,
        };
    }
    let mean_abs = acf.iter().map(|x| x.abs()).sum::<f64>() / acf.len() as f64;
    let peak_abs = acf.iter().map(|x| x.abs()).fold(0.0, f64::max);
    AcfSummary {
        mean_abs,
        lag1: acf[0],
        peak_abs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acc(i: u64, pc: u64, addr: u64) -> MemAccess {
        MemAccess::load(i, pc, addr)
    }

    #[test]
    fn acf_of_constant_series_is_empty() {
        assert!(autocorrelation(&[3.0; 10], 5).is_empty());
        assert!(autocorrelation(&[1.0], 5).is_empty());
    }

    #[test]
    fn acf_of_periodic_series_peaks_at_period() {
        // Period-4 sawtooth: strong positive ACF at lag 4, negative at lag 2.
        let series: Vec<f64> = (0..400).map(|i| (i % 4) as f64).collect();
        let acf = autocorrelation(&series, 8);
        assert!(acf[3] > 0.9, "lag-4 should be ~1, got {}", acf[3]);
        assert!(
            acf[1] < -0.5,
            "lag-2 should be strongly negative, got {}",
            acf[1]
        );
    }

    #[test]
    fn acf_of_alternating_series() {
        let series: Vec<f64> = (0..100)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let acf = autocorrelation(&series, 2);
        assert!(acf[0] < -0.9);
        assert!(acf[1] > 0.9);
    }

    #[test]
    fn stream_value_series_is_trend_dominated() {
        // A single stream's value series is trend-dominated: AC ≈ +1.
        let single: Vec<MemAccess> = (0..500u64).map(|i| acc(i, 1, 0x10000 + i * 64)).collect();
        let v = trace_autocorrelation(&single, 8);
        assert!(
            v[0] > 0.9,
            "value ACF of a stream should be ~1, got {}",
            v[0]
        );
    }

    #[test]
    fn pc_grouping_recovers_per_pc_regularity() {
        // Interleave a periodic PC with random-walking PCs: the grouped
        // series exposes the period that interleaving hides.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let mut t = Vec::new();
        for i in 0..900u64 {
            let (pc, addr) = match i % 3 {
                0 => (0x400, rng.gen_range(0x1_0000u64..0x200_0000) & !63),
                1 => (0x500, rng.gen_range(0x1_0000u64..0x200_0000) & !63),
                _ => (0x600, 0x11_0000 + (i / 3 % 7) * 0x40_0000), // period 7
            };
            t.push(acc(i, pc, addr));
        }
        let raw = summarize_acf(&trace_autocorrelation(&t, 20));
        let grouped = summarize_acf(&pc_grouped_autocorrelation(&t, 20));
        assert!(
            grouped.peak_abs > raw.peak_abs,
            "grouped {} vs raw {}",
            grouped.peak_abs,
            raw.peak_abs
        );
    }

    #[test]
    fn summarize_acf_handles_empty() {
        let s = summarize_acf(&[]);
        assert_eq!(s.mean_abs, 0.0);
        assert_eq!(s.lag1, 0.0);
    }

    #[test]
    fn block_series_is_relative_to_first() {
        let t = vec![acc(0, 1, 0x4000), acc(1, 1, 0x4040)];
        assert_eq!(block_series(&t), vec![0.0, 1.0]);
        assert!(block_series(&[]).is_empty());
    }
}
