//! The benchmark's own arithmetic: percentiles, the tail percentile a
//! sample count can support, span self time and derived layer times.

/// Nearest-rank percentile of an ascending slice (`p` in `(0, 100]`).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps float error in `p * n` from bumping an exact rank.
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Candidate tail percentiles, highest first.
const TAILS: [f64; 7] = [99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest percentile with at least ten samples beyond it, or `None`
/// when even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    if n == 0 {
        return None;
    }
    TAILS.into_iter().find(|&p| n - rank(n, p) >= 10)
}

/// Median, a tail percentile and the sample count of one timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    /// The percentile `tail` reports: p99, or the highest below it that
    /// has ten samples beyond it.
    pub tail_p: f64,
    pub tail: f64,
}

impl Summary {
    /// Summarises raw samples; values are divided by `scale` (e.g. 1000.0
    /// to turn nanoseconds into microseconds). Empty input gives zeros.
    pub fn of(samples: &mut [u64], scale: f64) -> Summary {
        if samples.is_empty() {
            return Summary { n: 0, p50: 0.0, tail_p: 0.0, tail: 0.0 };
        }
        samples.sort_unstable();
        let tail_p = tail_percentile(samples.len()).unwrap_or(50.0).min(99.0);
        Summary {
            n: samples.len(),
            p50: percentile(samples, 50.0) as f64 / scale,
            tail_p,
            tail: percentile(samples, tail_p) as f64 / scale,
        }
    }
}

/// Median of a small set of measurements (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// A span's self time: its duration minus the part of `[start, end)` that
/// the union of its children's intervals covers. Children may overlap each
/// other or stick out of the parent; each instant is subtracted once.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut iv: Vec<(u64, u64)> =
        children.iter().map(|&(s, e)| (s.max(start), e.min(end))).filter(|&(s, e)| s < e).collect();
    iv.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    end.saturating_sub(start) - covered
}

/// The server's own share of a request, in µs: the client-observed request
/// median minus the loopback echo median (transport) minus the in-process
/// chain median (the layers `handle` calls). What remains is the
/// acceptor/connection thread, the worker hop and wake-ups.
pub fn server_self_us(request_p50_us: f64, echo_p50_us: f64, chain_p50_ns: f64) -> f64 {
    request_p50_us - echo_p50_us - chain_p50_ns / 1000.0
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(39), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
    }

    #[test]
    fn percentiles_nearest_rank() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 50.0), 500);
        assert_eq!(percentile(&v, 99.0), 990);
        assert_eq!(percentile(&v, 100.0), 1000);
        assert_eq!(percentile(&[7], 99.0), 7);
    }

    #[test]
    fn summary_caps_tail_at_p99_and_falls_back_below() {
        let mut v: Vec<u64> = (1..=20_000).rev().collect();
        let s = Summary::of(&mut v, 1000.0);
        assert_eq!((s.n, s.tail_p), (20_000, 99.0));
        assert_eq!(s.p50, 10.0);
        assert_eq!(s.tail, 19.8);
        let mut few: Vec<u64> = (1..=150).collect();
        let s = Summary::of(&mut few, 1.0);
        assert_eq!((s.tail_p, s.tail), (90.0, 135.0));
        assert_eq!(Summary::of(&mut [], 1.0).n, 0);
    }

    #[test]
    fn self_time_disjoint_children() {
        assert_eq!(self_time(0, 100, &[(10, 20), (30, 50)]), 70);
        assert_eq!(self_time(0, 100, &[]), 100);
    }

    #[test]
    fn self_time_overlapping_children_count_once() {
        // [10,40) ∪ [30,60) ∪ [55,58) = [10,60): 50 covered.
        assert_eq!(self_time(0, 100, &[(30, 60), (10, 40), (55, 58)]), 50);
        // Identical children.
        assert_eq!(self_time(0, 100, &[(20, 30), (20, 30)]), 90);
        // Children sticking out of the parent are clipped to it.
        assert_eq!(self_time(50, 100, &[(0, 60), (90, 200)]), 30);
        // Fully covered.
        assert_eq!(self_time(0, 10, &[(0, 5), (4, 10)]), 0);
    }

    #[test]
    fn server_self_subtracts_transport_and_chain() {
        assert!((server_self_us(46.0, 20.0, 4_500.0) - 21.5).abs() < 1e-9);
        // Negative when the parts exceed the whole: reported as measured.
        assert!(server_self_us(10.0, 8.0, 3_000.0) < 0.0);
    }

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
