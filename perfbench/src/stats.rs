//! Small measurement helpers: nearest-rank percentiles, geometric means,
//! process CPU and peak-RSS readers, and the seeded open-loop schedule.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use raqo_resource::CacheStats;

/// A nearest-rank percentile and how many samples lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    pub value: f64,
    /// Samples ranked above the percentile's rank.
    pub beyond: usize,
    /// Samples the percentile was taken over.
    pub samples: usize,
}

/// Nearest-rank percentile of `samples` (sorted in place): the value at
/// rank `ceil(p/100 · n)`, 1-based. An empty slice yields `NaN`, so a
/// metric with no samples can never pass for a measurement.
pub fn percentile(samples: &mut [f64], p: f64) -> Pct {
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    let n = samples.len();
    if n == 0 {
        return Pct {
            value: f64::NAN,
            beyond: 0,
            samples: 0,
        };
    }
    samples.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    let rank = rank.min(n);
    Pct {
        value: samples[rank - 1],
        beyond: n - rank,
        samples: n,
    }
}

/// A percentile taken per time window, summarised by its median.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Windowed {
    pub value: f64,
    pub windows: usize,
    /// The fewest samples any window's percentile had beyond it.
    pub min_beyond: usize,
}

/// Median over consecutive `width`-second windows of each window's
/// nearest-rank percentile `p`. `samples` are (time in seconds, value);
/// windows without samples are skipped. A burst of host interference
/// moves only the windows it falls in, not the median across windows.
pub fn windowed_percentile(samples: &[(f64, f64)], width: f64, p: f64) -> Windowed {
    let mut windows: std::collections::BTreeMap<u64, Vec<f64>> = Default::default();
    for &(t, v) in samples {
        windows.entry((t / width) as u64).or_default().push(v);
    }
    let per: Vec<Pct> = windows.values_mut().map(|w| percentile(w, p)).collect();
    let mut values: Vec<f64> = per.iter().map(|w| w.value).collect();
    Windowed {
        value: percentile(&mut values, 50.0).value,
        windows: per.len(),
        min_beyond: per.iter().map(|w| w.beyond).min().unwrap_or(0),
    }
}

/// Geometric mean of positive values; `NaN` when empty or when any value
/// is not a positive finite number.
pub fn geomean(values: impl IntoIterator<Item = (f64, u64)>) -> f64 {
    let mut log_sum = 0.0;
    let mut weight = 0u64;
    for (v, w) in values {
        if !(v.is_finite() && v > 0.0) {
            return f64::NAN;
        }
        log_sum += v.ln() * w as f64;
        weight += w;
    }
    if weight == 0 {
        return f64::NAN;
    }
    (log_sum / weight as f64).exp()
}

/// Arithmetic mean; `NaN` when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// User plus system CPU time of this process, in milliseconds, parsed
/// from the text of `/proc/self/stat` (fields 14 and 15, in clock ticks).
pub fn parse_cpu_ms(stat: &str, ticks_per_sec: f64) -> Option<f64> {
    // The command name (field 2) is parenthesised and may hold spaces, so
    // count fields from the last ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / ticks_per_sec * 1e3)
}

/// Peak resident set size in MB, parsed from the `VmHWM:` line of the text
/// of `/proc/self/status` (reported in kB).
pub fn parse_peak_rss_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// (steal, total) jiffies of the whole machine from the text of
/// `/proc/stat`: how long the hypervisor ran other guests while this one's
/// CPUs wanted to run, out of all CPU time.
pub fn parse_steal(stat: &str) -> Option<(u64, u64)> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Machine-wide (steal, total) jiffies so far; zeros when unreadable.
pub fn steal_ticks() -> (u64, u64) {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| parse_steal(&s))
        .unwrap_or((0, 0))
}

/// Linux reports `/proc` CPU times in USER_HZ ticks, which is 100 on every
/// supported architecture.
const USER_HZ: f64 = 100.0;

/// This process's user plus system CPU time so far, in milliseconds.
pub fn process_cpu_ms() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_cpu_ms(&s, USER_HZ))
        .unwrap_or(f64::NAN)
}

/// This process's peak resident set size so far, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_peak_rss_mb(&s))
        .unwrap_or(f64::NAN)
}

/// Send times, in seconds from the start of the window, of a Poisson
/// arrival process at `rate_per_sec`, up to `horizon_sec`. The same seed
/// always gives the same schedule.
pub fn poisson_schedule(seed: u64, rate_per_sec: f64, horizon_sec: f64) -> Vec<f64> {
    assert!(rate_per_sec > 0.0, "arrival rate must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        let u: f64 = rng.gen_range(0.0..1.0);
        t += -(1.0 - u).ln() / rate_per_sec;
        if t >= horizon_sec {
            return out;
        }
        out.push(t);
    }
}

/// Cache statistics accumulated between two snapshots.
pub fn cache_since(after: CacheStats, before: CacheStats) -> CacheStats {
    CacheStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        insertions: after.insertions - before.insertions,
    }
}

/// Seeded Fisher–Yates shuffle of `0..n`.
pub fn shuffled(n: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile_and_samples_beyond() {
        let mut v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(
            percentile(&mut v, 50.0),
            Pct {
                value: 50.0,
                beyond: 50,
                samples: 100
            }
        );
        assert_eq!(
            percentile(&mut v, 99.0),
            Pct {
                value: 99.0,
                beyond: 1,
                samples: 100
            }
        );
        assert_eq!(percentile(&mut v, 100.0).value, 100.0);
        assert_eq!(percentile(&mut v, 0.0).value, 1.0, "rank is at least 1");
        let mut odd = vec![3.0, 1.0, 2.0];
        let p = percentile(&mut odd, 50.0);
        assert_eq!((p.value, p.beyond), (2.0, 1), "ceil(1.5) = rank 2");
        assert!(percentile(&mut [], 50.0).value.is_nan());
    }

    #[test]
    fn windowed_percentile_is_the_median_over_windows() {
        // Three one-second windows; the middle one is disturbed.
        let mut samples = Vec::new();
        for i in 0..100 {
            let t = f64::from(i) / 100.0;
            samples.push((t, f64::from(i % 10)));
            samples.push((1.0 + t, 1000.0 + f64::from(i % 10)));
            samples.push((2.0 + t, 2.0 * f64::from(i % 10)));
        }
        let w = windowed_percentile(&samples, 1.0, 90.0);
        assert_eq!((w.windows, w.min_beyond), (3, 10));
        assert_eq!(w.value, 16.0, "p90s are 8, 1008 and 16: the median is 16");
        assert!(windowed_percentile(&[], 1.0, 50.0).value.is_nan());
    }

    #[test]
    fn geometric_mean_weights_and_rejects_nonpositive() {
        assert!((geomean([(2.0, 1), (8.0, 1)]) - 4.0).abs() < 1e-12);
        assert!((geomean([(2.0, 3), (16.0, 1)]) - 2f64.powf(7.0 / 4.0)).abs() < 1e-12);
        assert!(geomean([(1.0, 1), (0.0, 1)]).is_nan());
        assert!(geomean([(1.0, 1), (f64::INFINITY, 1)]).is_nan());
        assert!(geomean(std::iter::empty()).is_nan());
    }

    #[test]
    fn proc_readers_parse_real_and_synthetic_text() {
        let stat = "4242 (a b) c) R 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 1 0";
        assert_eq!(parse_cpu_ms(stat, 100.0), Some(3000.0));
        assert_eq!(parse_cpu_ms("garbage", 100.0), None);
        let stat = "cpu  10 0 20 60 0 0 0 10 0 0\ncpu0 5 0 10 30 0 0 0 5 0 0\n";
        assert_eq!(parse_steal(stat), Some((10, 100)));
        assert_eq!(parse_steal("intr 1 2"), None);
        let status = "Name:\tx\nVmPeak:\t 9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_peak_rss_mb(status), Some(2.0));
        assert_eq!(parse_peak_rss_mb("VmRSS: 1 kB"), None);
        // The live readers see this very process.
        let before = process_cpu_ms();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(process_cpu_ms() >= before);
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn poisson_schedule_is_seeded_sorted_and_near_rate() {
        let a = poisson_schedule(7, 1000.0, 5.0);
        assert_eq!(a, poisson_schedule(7, 1000.0, 5.0));
        assert_ne!(a, poisson_schedule(8, 1000.0, 5.0));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|&t| (0.0..5.0).contains(&t)));
        assert!((4700..5300).contains(&a.len()), "{} arrivals", a.len());
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut s = shuffled(50, &mut rng);
        assert_ne!(s, (0..50).collect::<Vec<_>>());
        s.sort_unstable();
        assert_eq!(s, (0..50).collect::<Vec<_>>());
    }
}
