//! Seeded input generation and the few statistics the benchmark reports.
//!
//! The generator is the benchmark's own (not `rand`, not a library crate's
//! private copy): inputs must stay a pure function of `--seed` whatever the
//! repository does to its RNGs.

/// splitmix64: one multiply-xorshift round per draw, no state beyond a
/// counter, identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated per purpose by `salt`.
    pub fn new(seed: u64, salt: u64) -> Rng {
        Rng(seed.wrapping_mul(0xD1B5_4A32_D192_ED03) ^ salt)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` ≥ 1).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Uniform in the open interval (0, 1).
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }
}

/// One open-loop request: when it is due, which worker serves it, and the
/// word it carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Intended send instant, virtual ns from the start of the schedule.
    pub due_ns: u64,
    pub worker: usize,
    pub word: i32,
}

/// A Poisson arrival schedule of `n` requests at `rate_per_s`, spread
/// uniformly over `workers`. A pure function of its arguments.
pub fn poisson_schedule(seed: u64, rate_per_s: f64, n: usize, workers: usize) -> Vec<Arrival> {
    let mut rng = Rng::new(seed, 0x0A11_1BA1 ^ rate_per_s.to_bits());
    let mean_gap_ns = 1e9 / rate_per_s;
    let mut due = 0.0f64;
    (0..n)
        .map(|_| {
            due += -rng.unit().ln() * mean_gap_ns;
            Arrival {
                due_ns: due as u64,
                worker: rng.below(workers as u64) as usize,
                word: (rng.next_u64() & 0x3FFF_FFFF) as i32,
            }
        })
        .collect()
}

/// The value at quantile `q` of an ascending-sorted slice (nearest rank).
pub fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank position of quantile `q`.
pub fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// The highest of p50 / p90 / p99 / p999 / p9999 that still has at least
/// ten samples beyond it, as `(label, quantile)`; `None` below 20 samples.
pub fn highest_percentile(n: usize) -> Option<(&'static str, f64)> {
    [
        ("p9999", 0.9999),
        ("p999", 0.999),
        ("p99", 0.99),
        ("p90", 0.9),
        ("p50", 0.5),
    ]
    .into_iter()
    .find(|&(_, q)| n > 0 && beyond(n, q) >= 10)
}

/// Median of a small set of host measurements (mean of the middle two for
/// an even count).
pub fn median_f64(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

pub fn geometric_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of no values");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

pub fn mean_u64(values: &[u64]) -> f64 {
    values.iter().sum::<u64>() as f64 / values.len().max(1) as f64
}

pub fn ns_to_us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // 8 192 samples: p99 leaves 81 beyond, p999 only 8.
        assert_eq!(beyond(8192, 0.99), 81);
        assert_eq!(highest_percentile(8192), Some(("p99", 0.99)));
        // 16 384 samples: p999 leaves 16 beyond.
        assert_eq!(beyond(16384, 0.999), 16);
        assert_eq!(highest_percentile(16384), Some(("p999", 0.999)));
        assert_eq!(highest_percentile(20), Some(("p50", 0.5)));
        assert_eq!(highest_percentile(19), None);
        assert_eq!(highest_percentile(0), None);
    }

    #[test]
    fn quantiles_are_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 50);
        assert_eq!(quantile_sorted(&v, 0.99), 99);
        assert_eq!(quantile_sorted(&v, 1.0), 100);
        assert_eq!(quantile_sorted(&[7], 0.999), 7);
    }

    #[test]
    fn poisson_schedule_is_a_pure_function_of_the_seed() {
        let a = poisson_schedule(7, 20_000.0, 512, 4);
        assert_eq!(a, poisson_schedule(7, 20_000.0, 512, 4));
        assert_ne!(a, poisson_schedule(8, 20_000.0, 512, 4));
        assert!(a.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        assert!(a.iter().all(|r| r.worker < 4 && r.word >= 0));
        // 512 arrivals at 20 k/s span about 25.6 ms.
        let span_ms = a.last().unwrap().due_ns as f64 / 1e6;
        assert!((20.0..32.0).contains(&span_ms), "span {span_ms} ms");
    }

    #[test]
    fn medians_and_means() {
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((geometric_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }
}
