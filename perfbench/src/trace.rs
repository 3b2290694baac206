//! The traced run's span recorder.
//!
//! Spans are stamped here, in the benchmark, around calls into each
//! layer's public functions — the program itself is not instrumented
//! for this. Every operation (a join, a served request, a stream
//! insert) opens one root span with a fresh operation id; the layer
//! spans recorded inside it carry that id and name the root as their
//! parent. Layer spans of one operation never overlap, so the
//! operation's wall time is the sum of its layer spans plus whatever no
//! layer claimed (`trace.unattributed_s`).
//!
//! Totals per layer are kept for every span; the spans themselves are
//! kept in memory up to a fixed cap and written as chrome-trace JSON
//! (`chrome://tracing`, Perfetto) at the end of the run.
//! `tsj_obs::TraceBuffer` stamps whole milliseconds, too coarse for
//! microsecond inserts, so the export is written here.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Spans retained for the chrome-trace export; later ones are counted
/// as dropped (their time still lands in the layer totals).
const EXPORT_CAP: usize = 200_000;

#[derive(Debug, Clone, Copy)]
struct SpanRec {
    name: &'static str,
    op: u64,
    /// `None` for an operation's root span.
    parent: Option<&'static str>,
    start_ns: u64,
    dur_ns: u64,
}

/// An open operation: its id, root span name and start stamp.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    pub id: u64,
    name: &'static str,
    start: Instant,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next_op: u64,
    spans: Vec<SpanRec>,
    dropped: u64,
    totals: BTreeMap<&'static str, Duration>,
    op_wall: Duration,
    ops: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            next_op: 0,
            spans: Vec::new(),
            dropped: 0,
            totals: BTreeMap::new(),
            op_wall: Duration::ZERO,
            ops: 0,
        }
    }

    /// Opens an operation (root span) with a fresh id.
    pub fn begin(&mut self, name: &'static str) -> Op {
        let id = self.next_op;
        self.begin_with(name, id)
    }

    /// Opens an operation with the caller's id — one request sent down
    /// several paths keeps one id.
    pub fn begin_with(&mut self, name: &'static str, id: u64) -> Op {
        self.next_op = self.next_op.max(id + 1);
        Op {
            id,
            name,
            start: Instant::now(),
        }
    }

    /// Closes `op`, recording its root span; returns its wall time.
    pub fn end(&mut self, op: Op) -> Duration {
        let dur = op.start.elapsed();
        self.push(op.name, op.id, None, op.start, dur);
        self.op_wall += dur;
        self.ops += 1;
        dur
    }

    /// Runs `f` as layer `name` of `op`.
    pub fn layer<R>(&mut self, op: &Op, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.record(op, name, start, start.elapsed());
        out
    }

    /// Records an already-stamped layer span of `op`.
    pub fn record(&mut self, op: &Op, name: &'static str, start: Instant, dur: Duration) {
        *self.totals.entry(name).or_default() += dur;
        self.push(name, op.id, Some(op.name), start, dur);
    }

    fn push(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<&'static str>,
        start: Instant,
        dur: Duration,
    ) {
        if self.spans.len() >= EXPORT_CAP {
            self.dropped += 1;
            return;
        }
        self.spans.push(SpanRec {
            name,
            op,
            parent,
            start_ns: start.saturating_duration_since(self.origin).as_nanos() as u64,
            dur_ns: dur.as_nanos() as u64,
        });
    }

    /// Total time recorded under layer `name`.
    pub fn total(&self, name: &str) -> Duration {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Summed wall time of every closed operation.
    pub fn wall(&self) -> Duration {
        self.op_wall
    }

    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Traced wall time minus every layer span, in seconds (negative
    /// only if a layer span leaked outside its operation).
    pub fn unattributed_s(&self) -> f64 {
        let layers: Duration = self.totals.values().sum();
        self.op_wall.as_secs_f64() - layers.as_secs_f64()
    }

    /// Per-layer totals, for the human-readable summary.
    pub fn layer_totals(&self) -> impl Iterator<Item = (&'static str, Duration)> + '_ {
        self.totals.iter().map(|(&k, &v)| (k, v))
    }

    /// The retained spans as chrome-trace JSON (`ph: "X"`, microsecond
    /// stamps with nanosecond fractions).
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 120 + 128);
        out.push_str("{\"traceEvents\":[");
        for (k, s) in self.spans.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            let tid = if s.parent.is_none() { 1 } else { 2 };
            write!(
                out,
                "\n{{\"name\":\"{}\",\"cat\":\"perfbench\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":{tid},\"args\":{{\"op\":{},\"parent\":\"{}\"}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.op,
                s.parent.unwrap_or(""),
            )
            .expect("formatting into a String cannot fail");
        }
        write!(
            out,
            "\n],\"displayTimeUnit\":\"ns\",\"otherData\":{{\"ops\":{},\"dropped_spans\":{}}}}}\n",
            self.ops, self.dropped
        )
        .expect("formatting into a String cannot fail");
        out
    }
}
