//! Order statistics over latency samples, and the reference kernel that
//! states them for a box of one speed.

use pbds_core::telemetry::clock::Stopwatch;

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Sort samples ascending; the other helpers take the sorted slice.
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    samples
}

/// Nearest-rank percentile (`p` in `(0, 100]`) of an ascending slice: the
/// smallest sample with at least `p` percent of the samples at or below it.
/// Returns `None` when fewer than [`MIN_SAMPLES_BEYOND`] samples lie above
/// that rank (or, for percentiles below the median, below it): a tail
/// percentile read off a handful of samples does not repeat.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let rank = nearest_rank(sorted.len(), p)?;
    let beyond = (sorted.len() - rank).min(rank - 1);
    (beyond >= MIN_SAMPLES_BEYOND).then(|| sorted[rank - 1])
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn nearest_rank(n: usize, p: f64) -> Option<usize> {
    assert!(p > 0.0 && p <= 100.0, "percentile {p} out of (0, 100]");
    (n > 0).then(|| ((p / 100.0) * n as f64).ceil().max(1.0) as usize)
}

/// Median of any non-empty set of values (mean of the two middle ones for an
/// even count).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values.to_vec());
    assert!(!v.is_empty(), "median of no values");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when the denominator is 0 (a share of nothing).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Distance between the first and third quartile as a share of the median,
/// with the quartiles of Python's `statistics.quantiles(values, n=4)`
/// (exclusive method). Needs at least two values.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let v = sorted(values.to_vec());
    let n = v.len();
    if n < 2 {
        return None;
    }
    let quantile = |k: usize| {
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    let med = median(&v);
    (med != 0.0).then(|| (quantile(3) - quantile(1)) / med.abs())
}

/// Steps of the reference kernel, and the microseconds they take on the
/// sandbox this benchmark was written on when nothing else runs there.
const KERNEL_STEPS: u64 = 20_000;
pub const KERNEL_REFERENCE_US: f64 = 38.0;

/// Run the reference kernel — a fixed chain of dependent integer operations
/// that touches no memory — and return the microseconds it took.
///
/// The sandbox is a 2-vCPU guest on a host that is often oversubscribed.
/// Its neighbours take whole time slices (37 % of all CPU time was `steal`
/// over one 90 s stretch) and slow it in ways no counter shows (the same
/// work runs a quarter slower for seconds with no steal reported). The same
/// query then takes 3.7 ms or 7 ms depending on the minute. Every client
/// times this kernel before each request; how long it takes says how fast
/// the box is running right now, and times measured beside it are stated for
/// a box that runs it in [`KERNEL_REFERENCE_US`]. See [`windows`].
pub fn reference_kernel_us() -> f64 {
    let sw = Stopwatch::start();
    let mut x = std::hint::black_box(0x2545_F491_4F6C_DD1D_u64);
    let mut acc = 0u64;
    for _ in 0..KERNEL_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11);
    }
    std::hint::black_box(acc);
    sw.elapsed().as_secs_f64() * 1e6
}

/// Speed of the box while kernels took `kernel_us` on average, relative to
/// the reference: 1 on the quiet reference box, 0.5 when everything takes
/// twice as long. A time measured at that speed is multiplied by it, a rate
/// divided.
pub fn box_speed(kernel_us: &[f64]) -> f64 {
    if kernel_us.is_empty() {
        1.0
    } else {
        KERNEL_REFERENCE_US / mean(kernel_us)
    }
}

/// Run `f` between two bursts of `kernels` reference kernels each and return
/// its result with the [`box_speed`] over both bursts: for work too long to
/// have a kernel timed inside it.
pub fn with_box_speed<T>(kernels: usize, f: impl FnOnce() -> T) -> (T, f64) {
    let burst = || (0..kernels).map(|_| reference_kernel_us());
    let mut kernel_us: Vec<f64> = burst().collect();
    let out = f();
    kernel_us.extend(burst());
    (out, box_speed(&kernel_us))
}

/// One timed operation: when it completed, in seconds since its phase
/// began, how long it took, and how long the reference kernel took just
/// before it (`None` for an operation whose thread does not run the kernel).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timed {
    pub end_s: f64,
    pub ms: f64,
    pub kernel_us: Option<f64>,
}

/// One window of a phase, stated for the reference speed.
#[derive(Debug, Clone, PartialEq)]
pub struct Window {
    /// [`box_speed`] over the window's kernel timings; 1 if it has none.
    pub speed: f64,
    /// How long the window would have been on a box of the reference speed.
    pub reference_s: f64,
    pub queries: usize,
    /// Queries and other operations.
    pub ops: usize,
    /// Nearest-rank percentiles of the window's query latencies; `None` in
    /// a window without queries.
    pub p50_ms: Option<f64>,
    pub p95_ms: Option<f64>,
}

/// Cut `[0, seconds)` into `count` equal windows and summarise each, its
/// length and latencies multiplied by the window's box speed. `others` are
/// operations counted in `ops` only. Operations that completed after
/// `seconds` (each client's last) belong to no window.
///
/// A latency metric of the phase is the median of its windows, so that a
/// stall of the box covering fewer than half of them moves nothing. A rate
/// is operations over the windows' reference seconds, both summed: counting
/// per window would alias with whatever the program does periodically (a
/// checkpoint every 0.55 s against windows of 0.5 s).
pub fn windows(queries: &[Timed], others: &[Timed], seconds: f64, count: usize) -> Vec<Window> {
    let width = seconds / count as f64;
    let slot = |op: &Timed| Some((op.end_s / width) as usize).filter(|at| *at < count);
    let mut latencies: Vec<Vec<f64>> = vec![Vec::new(); count];
    let mut kernels: Vec<Vec<f64>> = vec![Vec::new(); count];
    let mut other_ops = vec![0usize; count];
    for op in queries {
        if let Some(at) = slot(op) {
            latencies[at].push(op.ms);
            kernels[at].extend(op.kernel_us);
        }
    }
    for op in others {
        if let Some(at) = slot(op) {
            other_ops[at] += 1;
        }
    }
    latencies
        .into_iter()
        .zip(kernels)
        .zip(other_ops)
        .map(|((latencies, kernels), other_ops)| {
            let speed = box_speed(&kernels);
            let latencies = sorted(latencies);
            let at = |p| nearest_rank(latencies.len(), p).map(|rank| latencies[rank - 1] * speed);
            Window {
                speed,
                reference_s: width * speed,
                queries: latencies.len(),
                ops: latencies.len() + other_ops,
                p50_ms: at(50.0),
                p95_ms: at(95.0),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), Some(500.0));
        assert_eq!(percentile(&samples, 95.0), Some(950.0));
        assert_eq!(percentile(&samples, 99.0), Some(990.0));
        // 200 samples: rank ceil(0.95 * 200) = 190, ten samples beyond.
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&samples, 95.0), Some(190.0));
    }

    #[test]
    fn percentile_refuses_a_thin_tail() {
        let samples: Vec<f64> = (1..=199).map(f64::from).collect();
        // rank 190 of 199 leaves nine samples beyond it.
        assert_eq!(percentile(&samples, 95.0), None);
        assert_eq!(percentile(&samples, 99.0), None);
        assert_eq!(percentile(&[], 50.0), None);
        let few: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&few, 50.0), None);
        let enough: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(percentile(&enough, 50.0), Some(11.0));
    }

    #[test]
    fn median_and_spread_match_python_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let spread = quartile_spread(&values).unwrap();
        assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(quartile_spread(&[1.0]), None);
    }

    #[test]
    fn reference_kernel_takes_time_and_speed_is_relative_to_the_reference() {
        assert!(reference_kernel_us() > 0.0);
        assert_eq!(box_speed(&[KERNEL_REFERENCE_US]), 1.0);
        assert_eq!(
            box_speed(&[KERNEL_REFERENCE_US, 3.0 * KERNEL_REFERENCE_US]),
            0.5
        );
        assert_eq!(box_speed(&[]), 1.0);
    }

    #[test]
    fn windows_state_each_slice_of_the_phase_for_the_reference_speed() {
        // Three one-second windows. The box runs at reference speed in the
        // first: ten queries of 10 ms. In the second it runs at half speed:
        // five queries of 20 ms, kernels taking twice as long. The third has
        // an acknowledgement but no query, and one straggler ends after it.
        let query = |end_s, ms, kernel: f64| Timed {
            end_s,
            ms,
            kernel_us: Some(kernel * KERNEL_REFERENCE_US),
        };
        let mut queries: Vec<Timed> = (0..10)
            .map(|i| query(0.05 + 0.1 * i as f64, 10.0, 1.0))
            .collect();
        queries.extend((0..5).map(|i| query(1.1 + 0.2 * i as f64, 20.0, 2.0)));
        queries.push(query(3.4, 5.0, 1.0));
        let ack = |end_s| Timed {
            end_s,
            ms: 1.0,
            kernel_us: None,
        };
        let acks = [ack(0.5), ack(0.6), ack(1.5), ack(2.5)];

        let w = windows(&queries, &acks, 3.0, 3);
        let reference = Window {
            speed: 1.0,
            reference_s: 1.0,
            queries: 10,
            ops: 12,
            p50_ms: Some(10.0),
            p95_ms: Some(10.0),
        };
        let half_speed = Window {
            speed: 0.5,
            reference_s: 0.5,
            queries: 5,
            ops: 6,
            ..reference.clone()
        };
        let without_queries = Window {
            speed: 1.0,
            reference_s: 1.0,
            queries: 0,
            ops: 1,
            p50_ms: None,
            p95_ms: None,
        };
        assert_eq!(w, vec![reference, half_speed, without_queries]);
        // Fifteen queries in 2.5 reference seconds: the half-speed second
        // counts as half a second.
        let queries: usize = w.iter().map(|w| w.queries).sum();
        let reference_s: f64 = w.iter().map(|w| w.reference_s).sum();
        assert_eq!(queries as f64 / reference_s, 6.0);
    }

    #[test]
    fn a_window_percentile_is_nearest_rank_over_its_own_queries() {
        let queries: Vec<Timed> = (1..=40)
            .map(|i| Timed {
                end_s: i as f64 / 50.0,
                ms: i as f64,
                kernel_us: None,
            })
            .collect();
        let w = windows(&queries, &[], 1.0, 1);
        assert_eq!((w[0].p50_ms, w[0].p95_ms), (Some(20.0), Some(38.0)));
        assert_eq!(w[0].speed, 1.0);
    }
}
