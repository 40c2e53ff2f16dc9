//! Order statistics over measured samples.

/// Nearest-rank quantile `q` in `[0, 1]` of `values` (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The highest tail quantile `values` supports: p99 when at least ten
/// samples lie beyond it (n ≥ 1000), otherwise the quantile that leaves
/// exactly ten samples above it (the median when n < 40).
pub fn supported_tail(values: &[f64]) -> f64 {
    let n = values.len() as f64;
    if n >= 1000.0 {
        quantile(values, 0.99)
    } else if n >= 40.0 {
        quantile(values, 1.0 - 10.0 / n)
    } else {
        median(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(supported_tail(&v), 190.0);
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(supported_tail(&v), 1980.0);
    }
}
