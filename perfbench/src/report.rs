//! What one benchmark run reports: named metrics with units, operation
//! counts, human-readable lines, and the one-line JSON result.

use std::fmt::Write as _;
use std::time::Duration;

/// A metric value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything a workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Operations attempted (joins, requests or inserts).
    pub attempted: u64,
    /// Operations that errored, came back `Degraded` or gave a wrong
    /// answer.
    pub failed: u64,
    /// Correctness failures, one line each.
    pub problems: Vec<String>,
    /// Peak resident set of child processes (`catalogd` nodes), in MB.
    pub child_rss_mb: f64,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records a correctness failure (it also counts as a failed
    /// operation).
    pub fn fail(&mut self, problem: String) {
        eprintln!("perfbench: FAIL {problem}");
        self.failed += 1;
        self.problems.push(problem);
    }

    /// Checks `cond`; on failure records `what` as a failed operation.
    pub fn check(&mut self, cond: bool, what: impl FnOnce() -> String) {
        if !cond {
            self.fail(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        )
        .expect("formatting into a String cannot fail");
        for (k, m) in self.metrics.iter().enumerate() {
            let sep = if k == 0 { "" } else { ", " };
            // JSON has no NaN or infinity.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            // `{:?}` prints every digit of the shortest round-trip form
            // (`1.0`, `0.0123`, `1e-7`), all valid JSON numbers.
            write!(
                out,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
            .expect("formatting into a String cannot fail");
        }
        out.push_str("}}");
        out
    }
}

/// Nearest-rank percentile of an ascending slice (`q` in `[0, 1]`).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64) * q).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Per-block figures of a latency series (seconds, in arrival order)
/// over consecutive blocks of `block` samples: each block's throughput,
/// p50 and `q` percentile, taken across blocks at the calm quarter (the
/// block a quarter of the way from the fastest). A trailing partial
/// block is dropped unless it is the only one.
///
/// The shared VMs this runs on stall for a few milliseconds at a time
/// whenever the hypervisor runs a neighbour, in bursts that hit some
/// stretches of a run and not others; the calm quarter measures the
/// program rather than the neighbours.
#[derive(Debug)]
pub struct BlockStats {
    /// Operations per second.
    pub rate: f64,
    pub p50: f64,
    /// The `q` percentile.
    pub tail: f64,
}

impl BlockStats {
    pub fn of(latencies: &[f64], block: usize, q: f64) -> BlockStats {
        let block = block.max(1);
        let chunks: Vec<&[f64]> = if latencies.len() < block {
            vec![latencies]
        } else {
            latencies.chunks_exact(block).collect()
        };
        let (mut rates, mut p50s, mut tails) = (Vec::new(), Vec::new(), Vec::new());
        for chunk in &chunks {
            let mut sorted = chunk.to_vec();
            sorted.sort_by(f64::total_cmp);
            rates.push(sorted.len() as f64 / sorted.iter().sum::<f64>());
            p50s.push(percentile(&sorted, 0.5));
            tails.push(percentile(&sorted, q));
        }
        for v in [&mut rates, &mut p50s, &mut tails] {
            v.sort_by(f64::total_cmp);
        }
        BlockStats {
            rate: percentile(&rates, 0.75),
            p50: percentile(&p50s, 0.25),
            tail: percentile(&tails, 0.25),
        }
    }
}

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set (`VmHWM`) of process `pid` (`"self"` for this
/// one), in MB; `None` where `/proc` does not have it.
pub fn vm_hwm_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The aggregate `cpu` line of `/proc/stat` (ticks per state); `None`
/// where `/proc` does not have it.
pub fn host_cpu_ticks() -> Option<Vec<u64>> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().next()?.strip_prefix("cpu ")?;
    line.split_whitespace().map(|t| t.parse().ok()).collect()
}

/// Share of CPU ticks between two `host_cpu_ticks` readings that were
/// stolen (the eighth field, `steal`).
pub fn steal_share(before: &[u64], after: &[u64]) -> f64 {
    let delta: Vec<u64> = after
        .iter()
        .zip(before)
        .map(|(a, b)| a.saturating_sub(*b))
        .collect();
    let total: u64 = delta.iter().take(8).sum();
    delta
        .get(7)
        .map_or(0.0, |&steal| steal as f64 / total.max(1) as f64)
}

/// Prints a human-readable metric line (`name = value unit`).
pub fn show(name: &str, value: f64, unit: &str) {
    println!("  {name:<28} {value:>14.4} {unit}");
}
