//! Small shared helpers: a seeded generator, order statistics, digests,
//! process memory and metric records.

use std::time::{Duration, Instant};

/// SplitMix64: the benchmark's only source of randomness, so the same
/// `--seed` always yields the same inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_5EED_5EED_5EED)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A synthetic-application seed small enough to read in a spec.
    pub fn app_seed(&mut self) -> u64 {
        self.next_u64() % 1_000_000
    }
}

/// Nearest-rank percentile of `values` (`q` in `0..=1`); 0 when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median (mean of the two middle values for an even count); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Geometric mean of positive `values`; 0 when empty.
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn since_ms(t: Instant) -> f64 {
    ms(t.elapsed())
}

/// FNV-1a over `bytes`, as 16 hex digits: how expected outputs are
/// stored and compared.
pub fn digest(bytes: &[u8]) -> String {
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    format!("{hash:016x}")
}

/// Peak resident set size of process `pid` (`"self"` for this one), in
/// MiB, from `/proc/<pid>/status`; 0 where unavailable.
pub fn peak_rss_mb(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Busy and stolen CPU ticks since boot, summed over all CPUs, from
/// `/proc/stat`; `None` where unavailable.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal ...
    let busy = fields.iter().take(7).sum::<u64>() - fields.get(3)? - fields.get(4)?;
    Some((busy, *fields.get(7)?))
}

/// The share of the CPU time this machine's busy CPUs were owed since
/// `start` (a [`cpu_ticks`] snapshot) that they actually got: 1 minus the
/// share the host stole. 1 where `/proc/stat` is unavailable.
pub fn unstolen_share(start: Option<(u64, u64)>) -> f64 {
    match (start, cpu_ticks()) {
        (Some((busy0, steal0)), Some((busy1, steal1))) => {
            let stolen = steal1.saturating_sub(steal0);
            let total = busy1.saturating_sub(busy0) + stolen;
            if total == 0 {
                1.0
            } else {
                1.0 - stolen as f64 / total as f64
            }
        }
        _ => 1.0,
    }
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What a workload run hands back to `main`.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (requests, frames or simulation points).
    pub attempted: u64,
    /// Operations that errored, were refused, timed out or produced
    /// wrong bytes.
    pub failed: u64,
    /// One line per output or counter that did not match.
    pub mismatches: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Human-readable trace summary (traced runs only).
    pub summary: String,
    /// Recorded spans as JSON lines (traced runs only).
    pub spans: String,
}

impl Outcome {
    /// Records one mismatch (counted as a failed operation).
    pub fn mismatch(&mut self, what: String) {
        self.failed += 1;
        self.mismatches.push(what);
    }
}
