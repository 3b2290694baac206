//! The per-layer metrics of the traced run, and the traced verify call
//! every workload's replay shares.

use crate::trace::{Op, Tracer};
use partsj::{VerifyData, VerifyEngine};
use std::collections::BTreeMap;
use std::time::Instant;
use tsj_ted::JoinStats;

/// Every per-layer metric, in report order, with its unit. A traced
/// run reports all of them; a layer the workload never calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("verify.ted_s", "s"),
    ("ted.calls", "count"),
    ("ted.yield", "frac"),
    ("verify.filter_s", "s"),
    ("verify.stage.size", "count"),
    ("verify.stage.shape-accept", "count"),
    ("verify.stage.label-hist", "count"),
    ("verify.stage.traversal-sed", "count"),
    ("verify.precision", "frac"),
    ("verify.prep_s", "s"),
    ("tree.lcrs_s", "s"),
    ("probe.s", "s"),
    ("probe.candidates", "count"),
    ("probe.match_yield", "frac"),
    ("partition.s", "s"),
    ("subgraph.s", "s"),
    ("subgraph.built", "count"),
    ("index.insert_s", "s"),
    ("index.registrations", "count"),
    ("shard.evict_s", "s"),
    ("shard.compactions", "count"),
    ("shard.compaction_ms_p50", "ms"),
    ("shard.dead_postings_max", "count"),
    ("server.probe_ms", "ms"),
    ("server.verify_ms", "ms"),
    ("wire.other_ms", "ms"),
    ("wire.encode_us", "us"),
    ("wire.batch_bytes", "bytes"),
    ("cluster.requests_per_join", "count"),
    ("cluster.retries", "count"),
    ("cluster.inproc_join_ms", "ms"),
    ("catalog.freeze_s", "s"),
    ("catalog.from_bytes_s", "s"),
    ("catalog.snapshot_mb", "MB"),
    ("client.connect_ms", "ms"),
    ("loadgen.lateness_p99_ms", "ms"),
    ("baselines.str_join_s", "s"),
    ("baselines.str_ted_calls", "count"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_frac", "frac"),
];

/// Layer spans whose totals become `<span>_s` metrics.
const TIMED_SPANS: &[(&str, &str)] = &[
    ("verify.ted", "verify.ted_s"),
    ("verify.filter", "verify.filter_s"),
    ("verify.prep", "verify.prep_s"),
    ("tree.lcrs", "tree.lcrs_s"),
    ("probe", "probe.s"),
    ("partition", "partition.s"),
    ("subgraph", "subgraph.s"),
    ("index.insert", "index.insert_s"),
    ("shard.evict", "shard.evict_s"),
];

/// Per-layer values collected by one traced run.
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|&(n, _)| n == name),
            "unknown per-layer metric {name}"
        );
        self.values.insert(name, value);
    }

    /// Copies the span totals, the unattributed remainder and the
    /// verify counters: `stats` from `VerifyEngine::fold_into`,
    /// `candidates` checked, `results` accepted, and `ted_results`, the
    /// accepted ones that needed exact TED.
    pub fn from_trace(
        tracer: &Tracer,
        stats: &JoinStats,
        candidates: u64,
        results: u64,
        ted_results: u64,
    ) -> Layers {
        let mut layers = Layers::default();
        for &(span, metric) in TIMED_SPANS {
            layers.set(metric, tracer.total(span).as_secs_f64());
        }
        layers.set("trace.unattributed_s", tracer.unattributed_s());
        layers.set("ted.calls", stats.ted_calls as f64);
        layers.set("ted.yield", ratio(ted_results, stats.ted_calls));
        for row in &stats.stage_counts {
            let name = match row.stage {
                "size" => "verify.stage.size",
                "shape-accept" => "verify.stage.shape-accept",
                "label-hist" => "verify.stage.label-hist",
                "traversal-sed" => "verify.stage.traversal-sed",
                _ => continue,
            };
            layers.set(name, row.count as f64);
        }
        layers.set("probe.candidates", candidates as f64);
        layers.set("verify.precision", ratio(results, candidates));
        layers
    }

    /// Every per-layer metric in report order (0 where unset).
    pub fn into_metrics(self) -> impl Iterator<Item = (&'static str, f64, &'static str)> {
        PER_LAYER
            .iter()
            .map(move |&(name, unit)| (name, self.values.get(name).copied().unwrap_or(0.0), unit))
    }
}

/// `num / den`, 0 when nothing was attempted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// `VerifyEngine::check` as a traced layer call: the span is
/// `verify.ted` when the check reached exact TED (the engine's
/// `ted_calls()` advanced) and `verify.filter` when the filter chain
/// decided alone. Returns the check's answer and whether TED ran.
pub fn traced_check(
    tracer: &mut Tracer,
    op: &Op,
    engine: &mut VerifyEngine,
    a: &VerifyData,
    b: &VerifyData,
) -> (Option<u32>, bool) {
    let before = engine.ted_calls();
    let start = Instant::now();
    let verdict = engine.check(a, b);
    let dur = start.elapsed();
    let ran_ted = engine.ted_calls() > before;
    tracer.record(
        op,
        if ran_ted {
            "verify.ted"
        } else {
            "verify.filter"
        },
        start,
        dur,
    );
    (verdict, ran_ted)
}
