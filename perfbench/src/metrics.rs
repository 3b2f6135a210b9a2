//! Metric bookkeeping: exact percentiles, windowed tails, the ladder
//! subtraction, the metric-name rule, and the one-line JSON result.

use std::fmt::Write as _;

/// One named measurement with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// True when `name` obeys the metric-name rule: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
}

/// True when `unit` is a non-empty unit of at most 16 characters from
/// `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

/// An ordered set of metrics; names are unique and checked on insert.
#[derive(Debug, Default)]
pub struct MetricSet {
    items: Vec<Metric>,
}

impl MetricSet {
    /// Adds a metric. Panics on a malformed name or unit, or a duplicate
    /// name: those are bugs in the benchmark, not in the measured program.
    pub fn put(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        let name = name.into();
        assert!(valid_name(&name), "bad metric name {name:?}");
        assert!(valid_unit(unit), "bad unit {unit:?} for {name}");
        assert!(
            self.items.iter().all(|m| m.name != name),
            "duplicate metric {name}"
        );
        self.items.push(Metric { name, unit, value });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.items.iter().find(|m| m.name == name).map(|m| m.value)
    }

    pub fn iter(&self) -> impl Iterator<Item = &Metric> {
        self.items.iter()
    }
}

/// Formats a finite number for JSON with all its digits; non-finite values
/// (a ratio over zero) become 0, which JSON can carry.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &MetricSet) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}

/// The exact `p`-quantile (`p` in `[0, 1]`, nearest-rank) of `values`,
/// which it sorts in place; 0 when empty.
pub fn percentile(values: &mut [u64], p: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    values.sort_unstable();
    let rank = ((values.len() as f64) * p.clamp(0.0, 1.0)).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// Median of floats (mean of the middle pair for an even count); 0 when
/// empty.
pub fn median_f64(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Sub-buckets per power of two of [`LatHist`] (2^7: under 0.8 % error).
const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
/// Latencies at or above 2^40 ns (18 minutes) land in the last bucket.
const TOP_BIT: u32 = 40;
const BUCKETS: usize = SUB + (TOP_BIT - SUB_BITS) as usize * SUB;

/// A log-linear latency histogram: exact below 128 ns, then 128 buckets
/// per power of two. It is fixed at 17 KiB, so recording allocates nothing
/// and the benchmark's own memory does not grow with the operations it
/// counts (peak RSS is an end-to-end metric).
#[derive(Clone)]
pub struct LatHist {
    counts: Vec<u32>,
    n: u64,
    sum_ns: u128,
}

impl Default for LatHist {
    fn default() -> LatHist {
        LatHist {
            counts: vec![0; BUCKETS],
            n: 0,
            sum_ns: 0,
        }
    }
}

fn bucket_of(ns: u64) -> usize {
    if ns < SUB as u64 {
        return ns as usize;
    }
    let e = (63 - ns.leading_zeros()).min(TOP_BIT - 1);
    let sub = ((ns.min((1 << TOP_BIT) - 1) >> (e - SUB_BITS)) as usize) & (SUB - 1);
    SUB + (e - SUB_BITS) as usize * SUB + sub
}

/// Midpoint of a bucket's range, in ns.
fn bucket_value(i: usize) -> f64 {
    if i < SUB {
        return i as f64;
    }
    let shift = ((i - SUB) / SUB) as u32;
    let low = ((SUB + (i - SUB) % SUB) as u64) << shift;
    low as f64 + ((1u64 << shift) - 1) as f64 / 2.0
}

impl LatHist {
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.n += 1;
        self.sum_ns += ns as u128;
    }

    pub fn merge(&mut self, other: &LatHist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
        self.sum_ns += other.sum_ns;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn mean_ns(&self) -> f64 {
        ratio(self.sum_ns as f64, self.n as f64)
    }

    /// The `p`-quantile (nearest rank) as its bucket's midpoint; 0 when
    /// empty.
    pub fn percentile_ns(&self, p: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let target = ((self.n as f64 * p.clamp(0.0, 1.0)).ceil() as u64).clamp(1, self.n);
        let mut seen = 0;
        for (i, c) in self.counts.iter().enumerate() {
            seen += *c as u64;
            if seen >= target {
                return bucket_value(i);
            }
        }
        unreachable!("target is at most the total count")
    }
}

/// Latencies of one measured phase, recorded by one thread: the
/// whole-phase histogram, and the 99th percentile of each fixed time window
/// from the phase's start.
///
/// A phase reports the median over its windows' 99th percentiles, so one
/// scheduler stall on a shared machine moves one window's tail rather than
/// the whole run's. A window with fewer than 100 samples (too few for a
/// 99th percentile with one sample beyond it) is merged into its
/// successor; a short trailing window is left out unless it is the only
/// one. Windows are closed as time passes, so memory stays fixed however
/// many operations a window holds; logs of several threads therefore
/// contribute their own windows rather than pooled ones.
#[derive(Clone)]
pub struct LatencyLog {
    window_ns: u64,
    window_end_ns: u64,
    pub total: LatHist,
    current: LatHist,
    p99s: Vec<f64>,
}

impl LatencyLog {
    pub fn new(start_ns: u64, window_ns: u64) -> LatencyLog {
        LatencyLog {
            window_ns,
            window_end_ns: start_ns + window_ns,
            total: LatHist::default(),
            current: LatHist::default(),
            p99s: Vec::new(),
        }
    }

    /// Records an operation that finished at `done_ns` after `latency_ns`.
    /// `done_ns` must not go backwards.
    pub fn record(&mut self, done_ns: u64, latency_ns: u64) {
        if done_ns >= self.window_end_ns {
            if self.current.count() >= 100 {
                self.p99s.push(self.current.percentile_ns(0.99));
                self.current = LatHist::default();
            }
            let behind = (done_ns - self.window_end_ns) / self.window_ns + 1;
            self.window_end_ns += behind * self.window_ns;
        }
        self.total.record(latency_ns);
        self.current.record(latency_ns);
    }

    /// The closed windows' 99th percentiles (or the open window's, when no
    /// window has closed).
    pub fn window_p99s(&self) -> Vec<f64> {
        if self.p99s.is_empty() && self.current.count() > 0 {
            return vec![self.current.percentile_ns(0.99)];
        }
        self.p99s.clone()
    }

    /// Adds another thread's log of the same phase.
    pub fn merge(&mut self, other: &LatencyLog) {
        self.total.merge(&other.total);
        self.p99s.extend(other.window_p99s());
    }
}

/// Self time of each rung of a ladder: the same operation issued at
/// successive depths (outermost first) on the same target. Rung `i`'s self
/// time is its median minus the next-deeper rung's median; the deepest
/// rung keeps its whole median.
pub fn ladder_self(medians_ns: &[f64]) -> Vec<f64> {
    medians_ns
        .iter()
        .enumerate()
        .map(|(i, m)| m - medians_ns.get(i + 1).copied().unwrap_or(0.0))
        .collect()
}

/// Seeded SplitMix64: the benchmark's only source of input randomness.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// `num / den`, or 0 when `den` is 0.
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
    fn names_follow_the_rule() {
        for ok in [
            "p50_us",
            "net.socket.roundtrip_us",
            "kernel.pool_hit_rate",
            "a-b.c_9",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            ".lead",
            "_lead",
            "has space",
            "semi;colon",
            "slash/no",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["us", "ms", "1/s", "%", "count", "B/op", "frames/op"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "micro seconds", "a\"b", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    #[should_panic(expected = "unit")]
    fn a_metric_needs_a_unit() {
        MetricSet::default().put("p50_us", "", 1.0);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn metric_names_are_unique() {
        let mut m = MetricSet::default();
        m.put("p50_us", "us", 1.0);
        m.put("p50_us", "us", 2.0);
    }

    #[test]
    fn result_line_shape() {
        let mut m = MetricSet::default();
        m.put("p50_us", "us", 12.5);
        m.put("ops_per_s", "1/s", f64::NAN);
        assert_eq!(
            result_json(true, 10, 0, &m),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"p50_us\": {\"value\": 12.5, \"unit\": \"us\"}, \
             \"ops_per_s\": {\"value\": 0, \"unit\": \"1/s\"}}}"
        );
    }

    #[test]
    fn exact_percentiles() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut v, 0.50), 50);
        assert_eq!(percentile(&mut v, 0.99), 99);
        assert_eq!(percentile(&mut v, 1.0), 100);
        assert_eq!(percentile(&mut v, 0.0), 1);
        assert_eq!(percentile(&mut [], 0.5), 0);
        assert_eq!(percentile(&mut [7], 0.99), 7);
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn histogram_percentiles_are_within_a_bucket() {
        let mut h = LatHist::default();
        for v in 1..=10_000u64 {
            h.record(v * 1_000);
        }
        assert_eq!(h.count(), 10_000);
        assert_eq!(h.mean_ns(), 5_000_500.0);
        for (p, exact) in [(0.5, 5_000_000.0), (0.99, 9_900_000.0), (0.01, 100_000.0)] {
            let got = h.percentile_ns(p);
            assert!(
                (got - exact).abs() / exact < 0.008,
                "p{p}: {got} vs {exact}"
            );
        }
        // Exact below 128 ns; huge values clamp into the last bucket.
        let mut small = LatHist::default();
        small.record(7);
        small.record(u64::MAX);
        assert_eq!(small.percentile_ns(0.5), 7.0);
        assert!(small.percentile_ns(1.0) > 1e12);
        assert_eq!(LatHist::default().percentile_ns(0.5), 0.0);
    }

    #[test]
    fn buckets_are_monotonic_and_contiguous() {
        let mut last = 0;
        for ns in (0..2_000u64).chain((2_000..5_000_000).step_by(37)) {
            let b = bucket_of(ns);
            assert!(b >= last, "bucket order breaks at {ns}");
            assert!(ns >= 1_000 || b <= last + 1, "skipped a bucket at {ns}");
            last = b;
            let mid = bucket_value(b);
            assert!(
                (mid - ns as f64).abs() <= (ns as f64 / 128.0).max(0.5),
                "{ns} -> {mid}"
            );
        }
    }

    #[test]
    fn windowed_tail_isolates_a_stalled_window() {
        // Three 1 µs windows of 100 samples; the middle one has a stalled
        // tail. The whole-run p99 would be the stall; the median window's
        // p99 is not.
        let mut log = LatencyLog::new(0, 1_000);
        for w in 0..3u64 {
            for i in 0..100u64 {
                let slow = w == 1 && i >= 90;
                log.record(w * 1_000 + i, if slow { 1_000_000 } else { 100 + i });
            }
        }
        // The third window closes when a later sample arrives.
        log.record(3_000, 1);
        let p99s = log.window_p99s();
        // Nearest rank: the 99th of 100 samples.
        assert_eq!(p99s.len(), 3);
        assert_eq!(median_f64(&p99s), 198.0);
        assert!(p99s[1] > 990_000.0);
    }

    #[test]
    fn sparse_windows_merge_forward_and_logs_merge() {
        // 500 ns windows hold 50 samples each: pairs merge, and the short
        // trailing window is left out.
        let mut a = LatencyLog::new(0, 500);
        let mut b = LatencyLog::new(0, 500);
        for i in 0..150u64 {
            a.record(i * 10, i);
        }
        assert_eq!(a.window_p99s(), vec![98.0]);
        b.record(10, 5);
        a.merge(&b);
        assert_eq!(a.total.count(), 151);
        // A log whose only window is still open reports that window.
        assert_eq!(a.window_p99s(), vec![98.0, 5.0]);
        assert!(LatencyLog::new(0, 500).window_p99s().is_empty());
    }

    #[test]
    fn ladder_subtracts_adjacent_rungs() {
        let selfs = ladder_self(&[30.5, 30.0, 28.0]);
        assert_eq!(selfs, vec![0.5, 2.0, 28.0]);
        assert!(ladder_self(&[]).is_empty());
        // Rungs are reported as measured, even when noise inverts them.
        assert_eq!(ladder_self(&[10.0, 10.5]), vec![-0.5, 10.5]);
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7, 1);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let mut r = Rng::new(7, 1);
        assert_eq!(a, (0..4).map(|_| r.next_u64()).collect::<Vec<_>>());
        let mut other = Rng::new(8, 1);
        assert_ne!(a[0], other.next_u64());
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
