//! Order statistics over measured samples.

/// The `q`-quantile (`0 ≤ q ≤ 1`) by the nearest-rank rule; 0 for an
/// empty sample. Sorts `xs` in place.
pub fn quantile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let rank = (q * xs.len() as f64).ceil().max(1.0) as usize;
    xs[rank.min(xs.len()) - 1]
}

/// The median (nearest-rank); 0 for an empty sample.
pub fn median(xs: &mut [f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut xs, 0.5), 50.0);
        assert_eq!(quantile(&mut xs, 0.99), 99.0);
        assert_eq!(quantile(&mut xs, 1.0), 100.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }
}
