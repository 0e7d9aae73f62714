//! Fixed-bucket log-scale histograms.
//!
//! Six microsecond-scale edges plus an overflow bucket, one shape for
//! every pipeline stage, so any two histograms merge bucket by bucket —
//! which is how a router sums its shards' `Stats` replies.

/// Upper edges of the log-spaced buckets, in microseconds. A sample falls
/// in the first bucket whose edge it does not exceed; slower samples land
/// in the final overflow bucket.
pub const LATENCY_EDGES_US: [u64; 6] = [100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000];

/// Number of histogram buckets (the edges plus one overflow bucket).
pub const LATENCY_BUCKETS: usize = LATENCY_EDGES_US.len() + 1;

/// A fixed-bucket log-scale histogram of durations.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LogHistogram {
    /// Sample counts per bucket.
    pub counts: [u64; LATENCY_BUCKETS],
}

impl LogHistogram {
    /// Records one sample that took `seconds`.
    pub fn record(&mut self, seconds: f64) {
        let us = (seconds.max(0.0) * 1e6) as u64;
        let bucket = LATENCY_EDGES_US
            .iter()
            .position(|&edge| us <= edge)
            .unwrap_or(LATENCY_EDGES_US.len());
        self.counts[bucket] += 1;
    }

    /// Total samples recorded (saturating, like [`LogHistogram::merge`]).
    pub fn total(&self) -> u64 {
        self.counts.iter().fold(0, |sum, &c| sum.saturating_add(c))
    }

    /// Adds every bucket of `other` into `self`. Buckets saturate: merged
    /// counts may come off a socket, and must not wrap.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a = a.saturating_add(*b);
        }
    }

    /// An upper bound, in seconds, on the `q`-quantile of the recorded
    /// samples: the upper edge of the bucket the quantile falls in.
    /// Coarse by construction (the buckets are decades), but exactly the
    /// right shape for a conservative bound — "no slower than the bucket
    /// p95 landed in". Returns `None` when the histogram is empty
    /// or the quantile lands in the unbounded overflow bucket, so
    /// callers fall back to their own ceiling. `q` is clamped to
    /// `[0, 1]`.
    pub fn quantile_upper_bound(&self, q: f64) -> Option<f64> {
        let total = self.total();
        if total == 0 {
            return None;
        }
        // The rank of the quantile sample, 1-based, so q = 1.0 asks for
        // the last sample and q = 0.0 for the first.
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (bucket, &count) in self.counts.iter().enumerate() {
            seen = seen.saturating_add(count);
            if seen >= rank {
                return LATENCY_EDGES_US
                    .get(bucket)
                    .map(|&edge_us| edge_us as f64 / 1e6);
            }
        }
        None
    }

    /// Human label for bucket `i`, e.g. `"<=1ms"` or `">10s"`.
    pub fn label(i: usize) -> String {
        fn us_text(us: u64) -> String {
            if us >= 1_000_000 {
                format!("{}s", us / 1_000_000)
            } else if us >= 1_000 {
                format!("{}ms", us / 1_000)
            } else {
                format!("{us}us")
            }
        }
        if i < LATENCY_EDGES_US.len() {
            format!("<={}", us_text(LATENCY_EDGES_US[i]))
        } else {
            format!(">{}", us_text(*LATENCY_EDGES_US.last().unwrap()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log_spaced() {
        let mut h = LogHistogram::default();
        h.record(50e-6); // 50 µs -> bucket 0
        h.record(0.5e-3); // 0.5 ms -> bucket 1
        h.record(5e-3); // 5 ms -> bucket 2
        h.record(2.0); // 2 s -> bucket 5
        h.record(60.0); // 60 s -> overflow
        assert_eq!(h.counts, [1, 1, 1, 0, 0, 1, 1]);
        assert_eq!(h.total(), 5);
    }

    #[test]
    fn labels_read_naturally() {
        assert_eq!(LogHistogram::label(0), "<=100us");
        assert_eq!(LogHistogram::label(1), "<=1ms");
        assert_eq!(LogHistogram::label(5), "<=10s");
        assert_eq!(LogHistogram::label(6), ">10s");
    }

    #[test]
    fn merge_adds_bucketwise() {
        let mut a = LogHistogram::default();
        let mut b = LogHistogram::default();
        a.record(50e-6);
        b.record(50e-6);
        b.record(2.0);
        a.merge(&b);
        assert_eq!(a.counts[0], 2);
        assert_eq!(a.counts[5], 1);
        assert_eq!(a.total(), 3);
    }

    #[test]
    fn negative_durations_clamp_to_the_first_bucket() {
        let mut h = LogHistogram::default();
        h.record(-1.0);
        assert_eq!(h.counts[0], 1);
    }

    #[test]
    fn quantile_upper_bound_walks_the_buckets() {
        let mut h = LogHistogram::default();
        assert_eq!(h.quantile_upper_bound(0.95), None, "empty histogram");
        // 90 fast samples (<=100us), 9 medium (<=10ms), 1 slow (<=1s).
        for _ in 0..90 {
            h.record(50e-6);
        }
        for _ in 0..9 {
            h.record(5e-3);
        }
        h.record(0.5);
        assert_eq!(h.quantile_upper_bound(0.5), Some(100e-6));
        assert_eq!(h.quantile_upper_bound(0.9), Some(100e-6));
        assert_eq!(h.quantile_upper_bound(0.95), Some(10e-3));
        assert_eq!(h.quantile_upper_bound(1.0), Some(1.0));
        // Out-of-range q clamps rather than panicking.
        assert_eq!(h.quantile_upper_bound(7.0), Some(1.0));
        assert_eq!(h.quantile_upper_bound(-1.0), Some(100e-6));
    }

    #[test]
    fn quantile_in_the_overflow_bucket_is_unbounded() {
        let mut h = LogHistogram::default();
        h.record(60.0);
        assert_eq!(h.quantile_upper_bound(0.5), None);
    }
}
