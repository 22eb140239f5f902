//! Order statistics over latency samples.
//!
//! Refused and failed requests enter a latency sample as `f64::INFINITY`:
//! they miss every latency limit, so they push the upper percentiles up
//! instead of silently disappearing from the sample.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values`, by linear interpolation
/// between the two nearest ranks (the "linear" / type-7 definition used by
/// NumPy and R).  `None` for an empty sample.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let (a, b) = (sorted[lo], sorted[hi]);
    if lo == hi || a == b {
        return Some(a);
    }
    if b.is_infinite() {
        return Some(f64::INFINITY);
    }
    Some(a + (b - a) * (rank - lo as f64))
}

/// The median of `values`.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 1.0), Some(4.0));
        assert_eq!(percentile(&v, 0.5), Some(2.5));
        assert!((percentile(&v, 0.25).unwrap() - 1.75).abs() < 1e-12);
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let v: Vec<f64> = (0..101).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert!((percentile(&v, 0.99).unwrap() - 99.0).abs() < 1e-12);
    }

    #[test]
    fn refused_requests_push_upper_percentiles_to_infinity() {
        let mut v: Vec<f64> = (1..=99).map(f64::from).collect();
        v.push(f64::INFINITY);
        assert!(percentile(&v, 0.5).unwrap().is_finite());
        assert_eq!(percentile(&v, 1.0), Some(f64::INFINITY));
        // Between the last finite rank and the infinite one.
        assert_eq!(percentile(&v, 0.995), Some(f64::INFINITY));
    }

    #[test]
    fn median_of_even_sample_is_the_midpoint() {
        assert_eq!(median(&[3.0, 1.0]), Some(2.0));
    }
}
