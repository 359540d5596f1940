//! Percentiles under the sample-count rule, and medians.

use crate::json::Json;

/// Percentile levels a tail may be reported at, ascending, in per mille
/// (whole numbers, so the sample-count rule is exact).
const LEVELS_PM: [usize; 6] = [500, 750, 900, 950, 990, 999];

/// Samples a percentile must leave beyond it to be reported.
const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice (`p` in 0..=1).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[((sorted.len() - 1) as f64 * p).floor() as usize]
}

/// The highest level, at most `want`, that leaves at least ten of `n`
/// samples beyond it; the median when even that is unsupported.
pub fn supported_level(n: usize, want: f64) -> f64 {
    LEVELS_PM
        .iter()
        .rev()
        .find(|&&pm| pm as f64 / 1000.0 <= want && n * (1000 - pm) / 1000 >= MIN_BEYOND)
        .map_or(0.50, |&pm| pm as f64 / 1000.0)
}

/// Median of measured values (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
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

/// A latency distribution: median plus the highest supported tail.
#[derive(Clone, Debug, PartialEq)]
pub struct Timing {
    pub samples: usize,
    pub p50_ns: u64,
    /// The level `tail_ns` was taken at (≤ the level asked for).
    pub tail_level: f64,
    pub tail_ns: u64,
}

impl Timing {
    /// Summarises latencies in nanoseconds; `None` without samples.
    pub fn of(mut ns: Vec<u64>, want_tail: f64) -> Option<Timing> {
        if ns.is_empty() {
            return None;
        }
        ns.sort_unstable();
        let tail_level = supported_level(ns.len(), want_tail);
        Some(Timing {
            samples: ns.len(),
            p50_ns: percentile(&ns, 0.50),
            tail_level,
            tail_ns: percentile(&ns, tail_level),
        })
    }

    pub fn p50_us(&self) -> f64 {
        self.p50_ns as f64 / 1e3
    }

    pub fn tail_us(&self) -> f64 {
        self.tail_ns as f64 / 1e3
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("samples", Json::Int(self.samples as i64)),
            ("p50_us", Json::Num(self.p50_us())),
            ("tail_level", Json::Num(self.tail_level)),
            ("tail_us", Json::Num(self.tail_us())),
        ])
    }
}

/// One operation class over a measured window: throughput, median
/// latency and tail latency, each as the median over slices of the
/// window, beside the whole-window distribution.
///
/// A slice holds an equal number of consecutive completions, not an
/// equal time: its throughput is its count over the time it spans, so it
/// is not quantised when completions are few. Interference on a shared
/// host comes in bursts of a second or so; with many short slices a
/// burst disturbs a minority of them and does not move the median.
#[derive(Clone, Debug, PartialEq)]
pub struct OpSummary {
    pub whole: Timing,
    /// Per slice, in window order.
    pub slice_rps: Vec<f64>,
    pub slice_p50_us: Vec<f64>,
    pub rps: f64,
    pub p50_us: f64,
    /// The level of `tail_us`, and how many slices it is the median of:
    /// as many as hold enough samples each to support the level.
    pub tail_level: f64,
    pub tail_slices: usize,
    pub tail_us: f64,
}

/// Splits `sorted` into `parts` runs whose lengths differ by at most one.
fn equal_parts<T>(sorted: &[T], parts: usize) -> impl Iterator<Item = &[T]> {
    let mut rest = sorted;
    (0..parts).map(move |i| {
        let (part, tail) = rest.split_at(rest.len() / (parts - i));
        rest = tail;
        part
    })
}

fn sorted_latencies(slice: &[(u64, u64)]) -> Vec<u64> {
    let mut latencies: Vec<u64> = slice.iter().map(|s| s.1).collect();
    latencies.sort_unstable();
    latencies
}

impl OpSummary {
    /// `samples` are `(completion time since window start, latency)` in
    /// nanoseconds; completions at or after `window_ns` (the drain) are
    /// left out. With fewer completions than `slices`, each is a slice of
    /// its own; `None` without any.
    pub fn of(
        samples: &[(u64, u64)],
        window_ns: u64,
        slices: usize,
        want_tail: f64,
    ) -> Option<OpSummary> {
        let mut inside: Vec<(u64, u64)> =
            samples.iter().copied().filter(|s| s.0 < window_ns).collect();
        inside.sort_unstable();
        let whole = Timing::of(inside.iter().map(|s| s.1).collect(), want_tail)?;

        let (mut rps, mut p50) = (Vec::new(), Vec::new());
        let mut slice_start_ns = 0;
        for slice in equal_parts(&inside, slices.min(inside.len())) {
            let slice_end_ns = slice.last()?.0;
            rps.push(slice.len() as f64 * 1e9 / (slice_end_ns - slice_start_ns).max(1) as f64);
            p50.push(percentile(&sorted_latencies(slice), 0.50) as f64 / 1e3);
            slice_start_ns = slice_end_ns;
        }

        // The tail keeps the level the whole window supports; a slice
        // must hold enough samples to support it too.
        let tail_level = whole.tail_level;
        let per_slice = (MIN_BEYOND as f64 / (1.0 - tail_level)).ceil() as usize;
        let tail_slices = (inside.len() / per_slice).clamp(1, slices);
        let tails: Vec<f64> = equal_parts(&inside, tail_slices)
            .map(|slice| percentile(&sorted_latencies(slice), tail_level) as f64 / 1e3)
            .collect();
        let p50_us = median(&p50);
        // Too few samples for any tail: the median stands in, and it is
        // the same median as `p50_us`.
        let tail_us = if tail_level == 0.50 { p50_us } else { median(&tails) };
        Some(OpSummary {
            whole,
            rps: median(&rps),
            p50_us,
            slice_rps: rps,
            slice_p50_us: p50,
            tail_level,
            tail_slices,
            tail_us,
        })
    }

    pub fn to_json(&self) -> Json {
        let nums = |v: &[f64]| Json::Arr(v.iter().map(|&x| Json::Num(x)).collect());
        Json::obj([
            ("whole_window", self.whole.to_json()),
            ("slices", Json::Int(self.slice_rps.len() as i64)),
            ("rps_median_of_slices", Json::Num(self.rps)),
            ("p50_us_median_of_slices", Json::Num(self.p50_us)),
            ("tail_level", Json::Num(self.tail_level)),
            ("tail_slices", Json::Int(self.tail_slices as i64)),
            ("tail_us_median_of_slices", Json::Num(self.tail_us)),
            ("slice_rps", nums(&self.slice_rps)),
            ("slice_p50_us", nums(&self.slice_p50_us)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_level_needs_ten_samples_beyond() {
        assert_eq!(supported_level(1000, 0.99), 0.99);
        assert_eq!(supported_level(999, 0.99), 0.95, "p99 of 999 leaves only nine beyond");
        assert_eq!(supported_level(200, 0.99), 0.95);
        assert_eq!(supported_level(199, 0.99), 0.90);
        assert_eq!(supported_level(100, 0.95), 0.90);
        assert_eq!(supported_level(40, 0.99), 0.75);
        assert_eq!(supported_level(12, 0.99), 0.50, "too few for any tail");
        assert_eq!(supported_level(100_000, 0.95), 0.95, "never above the level asked for");
    }

    #[test]
    fn timing_reports_count_median_and_supported_tail() {
        let t = Timing::of((1..=400).map(|i| i * 1000).collect(), 0.99).unwrap();
        assert_eq!(t.samples, 400);
        assert_eq!(t.p50_ns, 200_000);
        assert_eq!(t.tail_level, 0.95);
        assert_eq!(t.tail_ns, 380_000);
        assert!(Timing::of(Vec::new(), 0.99).is_none());
    }

    #[test]
    fn op_summary_takes_medians_over_equal_count_slices_and_drops_the_drain() {
        // 100 completions per second for 4 s, except a stall from 2.0 s
        // to 2.5 s, after which latencies are tenfold until 3.0 s.
        let mut samples = Vec::new();
        for i in 0..400u64 {
            let done = i * 10_000_000;
            if (2_000_000_000..2_500_000_000).contains(&done) {
                continue;
            }
            let disturbed = (2_500_000_000..3_000_000_000).contains(&done);
            samples.push((done, if disturbed { 10_000 } else { 1_000 }));
        }
        samples.push((4_000_000_000, 77)); // completed in the drain
        let s = OpSummary::of(&samples, 4_000_000_000, 5, 0.99).unwrap();
        assert_eq!(s.whole.samples, 350);
        assert!((s.rps - 100.0).abs() < 1.5, "the stalled slice does not move it: {}", s.rps);
        assert_eq!(s.p50_us, 1.0);
        assert_eq!(s.whole.tail_level, 0.95, "350 samples support p95, not p99");
        assert_eq!(s.whole.tail_ns, 10_000);
        // p95 needs 200 samples a slice: one slice, the whole window's tail
        assert_eq!((s.tail_level, s.tail_slices, s.tail_us), (0.95, 1, 10.0));
        // p75 needs 40 samples a slice: five slices of 70, and the slow
        // samples fill a quarter of one slice only
        let t = OpSummary::of(&samples, 4_000_000_000, 5, 0.75).unwrap();
        assert_eq!((t.tail_level, t.tail_slices), (0.75, 5));
        assert_eq!(t.tail_us, 1.0, "one disturbed slice does not move the tail");
        assert_eq!(t.whole.tail_ns, 1_000);
        let few = OpSummary::of(&samples[..3], 4_000_000_000, 5, 0.99).unwrap();
        assert_eq!((few.slice_rps.len(), few.whole.samples), (3, 3));
        assert_eq!((few.tail_level, few.tail_us), (0.50, few.p50_us));
        assert!(OpSummary::of(&[], 4_000_000_000, 5, 0.99).is_none());
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
