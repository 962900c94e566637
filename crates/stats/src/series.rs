//! Time-series smoothing.
//!
//! The paper plots Fig 6 learning curves "smoothed by a factor of 10";
//! the per-1K-access reward windows themselves come from
//! `EnsembleStats` in `resemble-core`.

/// Centered-free trailing moving average with the given factor
/// (`smooth(xs, 10)` reproduces the paper's "smoothed by a factor of 10").
pub fn smooth(xs: &[f64], factor: usize) -> Vec<f64> {
    assert!(factor > 0);
    let mut out = Vec::with_capacity(xs.len());
    let mut acc = 0.0;
    for (i, &x) in xs.iter().enumerate() {
        acc += x;
        if i >= factor {
            acc -= xs[i - factor];
            out.push(acc / factor as f64);
        } else {
            out.push(acc / (i + 1) as f64);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoothing_preserves_length_and_flattens() {
        let xs: Vec<f64> = (0..100)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let s = smooth(&xs, 10);
        assert_eq!(s.len(), xs.len());
        // After warmup the alternating series averages to ~0.
        assert!(s[50].abs() < 0.2);
    }

    #[test]
    fn smoothing_factor_one_is_identity() {
        let xs = vec![3.0, -1.0, 5.0];
        assert_eq!(smooth(&xs, 1), xs);
    }
}
