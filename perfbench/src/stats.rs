//! Order statistics over latency samples.

/// The sample at quantile `q` (nearest rank), or 0 for no samples.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The tail quantile a sample of `n` supports: p99 when at least ten
/// samples lie beyond it, else the highest quantile that leaves ten.
pub fn tail_q(n: usize) -> f64 {
    if n <= 10 {
        return 0.5;
    }
    (1.0 - 10.0 / n as f64).min(0.99)
}

/// Median and supported tail of `ns` samples, in microseconds, plus the
/// tail quantile used.
pub fn latency_us(mut ns: Vec<u64>) -> (f64, f64, f64) {
    ns.sort_unstable();
    let q = tail_q(ns.len());
    (
        quantile(&ns, 0.5) as f64 / 1e3,
        quantile(&ns, q) as f64 / 1e3,
        q,
    )
}

/// The upper median of `xs`, or 0 for none.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v.get(v.len() / 2).copied().unwrap_or(0.0)
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        assert_eq!(tail_q(100_000), 0.99);
        assert!((tail_q(500) - 0.98).abs() < 1e-12);
        let v: Vec<u64> = (1..=500).collect();
        assert_eq!(quantile(&v, tail_q(500)), 490);
        assert_eq!(quantile(&v, 0.5), 250);
    }
}
