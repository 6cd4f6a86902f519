//! Seeded generators and the estimators every workload reports through.
//!
//! The generators are the benchmark's own (not `eris-workloads`') so that
//! a change to the program can never change the inputs it is measured on.

/// SplitMix64: tiny, fast, and good enough to drive keys and op mixes.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// One independent stream per `(seed, stream)` pair.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)` (multiply-shift; bias < 2^-32 for n < 2^32).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }
}

/// Zipf over ranks `0..n` with exponent `theta` (Gray et al., the YCSB
/// generator).  Rank 0 is the hottest; ranks are *not* scrambled, so a
/// caller that maps rank → key keeps the hot keys adjacent.
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n >= 2 && theta > 0.0 && theta < 1.0);
        let zeta = |m: u64| (1..=m).map(|i| (i as f64).powf(-theta)).sum::<f64>();
        let zetan = zeta(n);
        Zipf {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta(2) / zetan),
        }
    }

    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let r = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        r.min(self.n - 1)
    }
}

/// The `q`-quantile (nearest-rank on a sorted copy); 0 for no samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The conventional median (mean of the two middle values for even counts).
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Progress of a run as `(seconds since its start, cumulative operations)`
/// points, one per epoch or poll.
pub type Progress = Vec<(f64, f64)>;

/// Rates of `windows` equal time windows covering `[from, to]`, from the
/// piecewise-linear cumulative count through `progress`.
pub fn window_rates(progress: &[(f64, f64)], from: f64, to: f64, windows: usize) -> Vec<f64> {
    let width = (to - from) / windows as f64;
    if progress.len() < 2 || width <= 0.0 {
        return Vec::new();
    }
    let mut i = 0;
    let mut at = |t: f64| {
        while i + 1 < progress.len() && progress[i + 1].0 < t {
            i += 1;
        }
        let (t0, c0) = progress[i];
        let (t1, c1) = progress[(i + 1).min(progress.len() - 1)];
        if t <= t0 || t1 <= t0 {
            c0
        } else if t >= t1 {
            c1
        } else {
            c0 + (c1 - c0) * (t - t0) / (t1 - t0)
        }
    };
    let mut prev = at(from);
    (1..=windows)
        .map(|w| {
            let c = at(from + width * w as f64);
            let rate = (c - prev) / width;
            prev = c;
            rate
        })
        .collect()
}

/// Number of windows the measured phase is cut into.
pub const WINDOWS: usize = 32;

/// Throughput of a measured phase, robust against a co-tenant stealing the
/// processor: interference only ever lowers a window's rate, so the 90th
/// percentile window is close to what the program does undisturbed, while
/// the whole-run mean moves with the neighbour's load.
pub struct Throughput {
    /// 90th-percentile window rate: the reported `ops_per_s`.
    pub p90: f64,
    pub mean: f64,
    /// p90 / p10 of the window rates: how disturbed the run was.
    pub spread: f64,
}

pub fn throughput(progress: &[(f64, f64)], from: f64, to: f64) -> Throughput {
    let rates = window_rates(progress, from, to, WINDOWS);
    let p10 = percentile(&rates, 0.1);
    let p90 = percentile(&rates, 0.9);
    Throughput {
        p90,
        mean: rates.iter().sum::<f64>() / rates.len().max(1) as f64,
        spread: if p10 > 0.0 { p90 / p10 } else { 0.0 },
    }
}

/// Latency samples as `(seconds since the run started, latency)`.
pub type Timed = Vec<(f64, f64)>;

/// Number of windows a latency percentile is taken over.
pub const LATENCY_WINDOWS: usize = 8;

/// The `q`-quantile of the latencies in each of [`LATENCY_WINDOWS`] equal
/// windows of `[from, to]`, then the lower quartile of those (the second
/// best of 8 windows).  The mirror image of [`throughput`]: interference
/// (a neighbour on the core, a slow spell of the shared disk, a
/// checkpoint, a balancer cycle) only ever raises a window's latency, and
/// on the sandbox it comes in spells of many seconds, so the run's quieter
/// quarter says what the program does and the rest says what the
/// neighbours do.  The stalls themselves are reported per layer.
pub fn windowed_percentile(samples: &[(f64, f64)], from: f64, to: f64, q: f64) -> f64 {
    let width = (to - from) / LATENCY_WINDOWS as f64;
    let mut windows: Vec<Vec<f64>> = vec![Vec::new(); LATENCY_WINDOWS];
    for &(t, lat) in samples {
        if t >= from && t < to && width > 0.0 {
            windows[(((t - from) / width) as usize).min(LATENCY_WINDOWS - 1)].push(lat);
        }
    }
    let per_window: Vec<f64> = windows
        .iter()
        .filter(|w| !w.is_empty())
        .map(|w| percentile(w, q))
        .collect();
    percentile(&per_window, 0.25)
}

/// First and third quartile spread as a share of the median, as the
/// acceptance rule computes it (`statistics.quantiles(v, n=4)`, exclusive).
pub fn iqr_share(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let quart = |k: usize| {
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = (pos - lo as f64).clamp(0.0, 1.0);
        v[lo - 1] + (v[lo] - v[lo - 1]) * frac
    };
    let med = median(&v);
    if med == 0.0 {
        0.0
    } else {
        (quart(3) - quart(1)) / med
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_seed_deterministic_and_streams_differ() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(8, 1).next_u64());
        let mut r = Rng::new(1, 0);
        assert!((0..10_000).all(|_| r.below(10) < 10));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 0.999), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), 2.0);
    }

    #[test]
    fn window_rates_interpolate_the_cumulative_count() {
        // 100 ops/s for 1 s, then 300 ops/s for 1 s, sampled unevenly.
        let p = vec![
            (0.0, 0.0),
            (0.4, 40.0),
            (1.0, 100.0),
            (1.5, 250.0),
            (2.0, 400.0),
        ];
        let r = window_rates(&p, 0.0, 2.0, 4);
        assert_eq!(r.len(), 4);
        for (got, want) in r.iter().zip([100.0, 100.0, 300.0, 300.0]) {
            assert!((got - want).abs() < 1e-9, "{got} vs {want}");
        }
        // A window past the last point sees no progress.
        assert_eq!(window_rates(&p, 2.0, 3.0, 1), vec![0.0]);
    }

    #[test]
    fn window_p90_ignores_a_stalled_stretch() {
        // Steady 1000 ops/s with a 0.5 s stall in the middle of 10 s.
        let mut p = Vec::new();
        let mut ops = 0.0;
        for i in 0..=1000 {
            let t = i as f64 * 0.01;
            if !(5.0..5.5).contains(&t) {
                ops += 10.0;
            }
            p.push((t, ops));
        }
        let t = throughput(&p, 0.0, 10.0);
        assert!((t.p90 - 1000.0).abs() < 15.0, "p90 {}", t.p90);
        assert!(t.mean < 960.0, "mean {}", t.mean);
    }

    #[test]
    fn windowed_percentile_reads_the_quiet_quarter() {
        // 1 ms latencies for 8 s, except 50 ms from the third second on.
        let samples: Timed = (0..8000)
            .map(|i| {
                let t = i as f64 * 0.001;
                (
                    t,
                    if t >= 2.0 {
                        50_000.0
                    } else {
                        1000.0 + (i % 10) as f64
                    },
                )
            })
            .collect();
        assert_eq!(windowed_percentile(&samples, 0.0, 8.0, 0.9), 1008.0);
        let all: Vec<f64> = samples.iter().map(|s| s.1).collect();
        assert_eq!(percentile(&all, 0.9), 50_000.0);
        assert_eq!(windowed_percentile(&[], 0.0, 8.0, 0.9), 0.0);
    }

    #[test]
    fn zipf_is_skewed_bounded_and_deterministic() {
        let z = Zipf::new(1 << 16, 0.99);
        let mut r = Rng::new(3, 0);
        let n = 200_000;
        let s: Vec<u64> = (0..n).map(|_| z.sample(&mut r)).collect();
        assert!(s.iter().all(|&k| k < 1 << 16));
        let share = |lim: u64| s.iter().filter(|&&k| k < lim).count() as f64 / n as f64;
        // zeta(1)/zeta(2^16) ≈ 0.086 for theta 0.99; the top 1 % of ranks
        // draw well over half the accesses.
        assert!((share(1) - 0.086).abs() < 0.01, "rank 0 share {}", share(1));
        assert!(share(655) > 0.55, "top 1% share {}", share(655));
        assert!(share(1 << 15) < 0.97);
        let mut r2 = Rng::new(3, 0);
        assert!(s.iter().take(1000).all(|&k| k == z.sample(&mut r2)));
    }

    #[test]
    fn iqr_share_matches_python_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }
}
