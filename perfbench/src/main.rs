//! `perfbench`: the repository benchmark's load generator.
//!
//! ```text
//! perfbench --workload selfjoin|serve|stream --seed N --seconds S --trace 0|1
//!           [--catalogd PATH] [--out DIR] [--set key=value ...]
//! ```
//!
//! One process generates the workload from its seed, drives the
//! program, checks every answer and prints, as its last line, one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! run replays the workload through the layers' public functions with
//! a span around each call and reports the per-layer metrics instead.
//! `perfbench/run.py` builds this binary and passes the recorded
//! workload parameters from `perfbench/config.json` as `--set` pairs.
//! Exit status is 0 only if every check passed.

mod layers;
mod report;
mod selfjoin;
mod serve;
mod stream;
mod trace;

use layers::Layers;
use report::Report;
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;
use tsj_ted::JoinStats;

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub catalogd: Option<PathBuf>,
    pub out: PathBuf,
    params: HashMap<String, String>,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let raw: Vec<String> = std::env::args().skip(1).collect();
        let mut args = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
            catalogd: None,
            out: PathBuf::from("perfbench/out"),
            params: HashMap::new(),
        };
        let mut it = raw.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => args.workload = value()?.clone(),
                "--seed" => args.seed = value()?.parse().map_err(|_| "bad --seed")?,
                "--seconds" => args.seconds = value()?.parse().map_err(|_| "bad --seconds")?,
                "--trace" => args.trace = value()? == "1",
                "--catalogd" => args.catalogd = Some(PathBuf::from(value()?)),
                "--out" => args.out = PathBuf::from(value()?),
                "--set" => {
                    let pair = value()?;
                    let (k, v) = pair.split_once('=').ok_or(format!("bad --set {pair}"))?;
                    args.params.insert(k.to_string(), v.to_string());
                }
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(args)
    }

    /// Workload parameter `key`; `perfbench/config.json` records every
    /// one and `run.py` passes them all.
    pub fn param<T: std::str::FromStr>(&self, key: &str) -> T {
        let raw = self
            .params
            .get(key)
            .unwrap_or_else(|| panic!("missing --set {key}=... (see perfbench/config.json)"));
        raw.parse()
            .unwrap_or_else(|_| panic!("--set {key}={raw} does not parse"))
    }
}

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// The result-defining counters of a join, timings excluded: what two
/// runs of the same join must agree on bit for bit.
pub fn stats_key(stats: &JoinStats) -> (u64, u64, u64, u64, Vec<(&'static str, u64)>) {
    (
        stats.candidates,
        stats.ted_calls,
        stats.prefilter_skips,
        stats.early_accepts,
        stats
            .stage_counts
            .iter()
            .map(|c| (c.stage, c.count))
            .collect(),
    )
}

/// Writes the traced run's spans as chrome-trace JSON under `--out`.
pub fn write_trace(args: &Args, tracer: &trace::Tracer) {
    let path = args
        .out
        .join(format!("trace-{}-{}.json", args.workload, args.seed));
    let written = std::fs::create_dir_all(&args.out)
        .and_then(|()| std::fs::write(&path, tracer.to_chrome_json()));
    match written {
        Ok(()) => println!(
            "trace: {} operations written to {}",
            tracer.ops(),
            path.display()
        ),
        Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
    }
    for (layer, total) in tracer.layer_totals() {
        println!("  span {layer:<24} {:>12.6} s", total.as_secs_f64());
    }
    println!(
        "  traced wall {:.6} s = layer spans + {:.6} s unattributed",
        tracer.wall().as_secs_f64(),
        tracer.unattributed_s()
    );
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    let mut layers = Layers::default();
    let cpu_before = report::host_cpu_ticks();
    match args.workload.as_str() {
        "selfjoin" => selfjoin::run(&args, &mut report, &mut layers),
        "serve" => serve::run(&args, &mut report, &mut layers),
        "stream" => stream::run(&args, &mut report, &mut layers),
        other => {
            eprintln!("perfbench: unknown workload {other:?} (selfjoin, serve, stream)");
            return ExitCode::from(2);
        }
    }
    if let (Some(before), Some(after)) = (cpu_before, report::host_cpu_ticks()) {
        // Time the hypervisor gave this machine's CPUs to others: the
        // usual reason two runs of the same code read differently.
        let share = report::steal_share(&before, &after);
        println!(
            "host: {:.1}% of CPU time stolen during the run",
            share * 100.0
        );
    }
    if args.trace {
        report.metrics.clear();
        for (name, value, unit) in layers.into_metrics() {
            report.metric(name, value, unit);
        }
    } else {
        // Set-up and workload metrics come from the workload; these two
        // are shared by all.
        let success = 1.0 - report.failed as f64 / report.attempted.max(1) as f64;
        report.metric("success_rate", success, "frac");
        let rss = report::vm_hwm_mb("self").unwrap_or(0.0) + report.child_rss_mb;
        report.metric("peak_rss_mb", rss, "MB");
    }
    println!("perfbench: {} metrics", report.metrics.len());
    for m in &report.metrics {
        report::show(m.name, m.value, m.unit);
    }
    println!("{}", report.to_json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
