//! `stream`: Swissprot-like inserts, heavy in near-duplicates, through
//! `ShardedStreamingJoin` with a sliding count window — closed loop,
//! one caller.
//!
//! The index takes writes beside reads here: every insert probes,
//! verifies, partitions and publishes, and (once the window is full)
//! evicts the oldest tree, whose tombstones now and then trigger a
//! shard compaction. The compactions put the tail at p999.
//!
//! Set-up is a fresh join filled to the window, so every measured
//! insert also evicts. Untraced, the run inserts the rest of the stream
//! (over again from a fresh set-up while time remains) and confirms
//! every reported partner by exact TED. Traced, it replays `insert_at`
//! through the shard and core layers' public functions and holds every
//! partner list, the compaction count and the verify counters against
//! the entry point's.

use crate::layers::{ratio, traced_check, Layers};
use crate::report::{median, percentile, secs, show, Report};
use crate::trace::{Op, Tracer};
use crate::{stats_key, Args, SETUP_REPS};
use partsj::{
    build_subgraphs, cuts_for, LayerId, MatchCache, PartSjConfig, ProbeCounters, ProbeScratch,
    StampSink, VerifyData, VerifyEngine, VerifyPrep,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::time::{Duration, Instant};
use tsj_shard::{EvictionPolicy, ShardConfig, ShardedIndex, ShardedStreamingJoin};
use tsj_ted::{JoinStats, TedEngine, TreeIdx};
use tsj_tree::{FxHashMap, Tree};

/// Labels of the Swissprot-like generator.
const LABELS: u32 = 84;

struct Params {
    inserts: usize,
    window: usize,
    tau: u32,
    dup_frac: f64,
    max_edits: usize,
    lookback: usize,
}

/// Inserts the traced run replays through both paths.
const TRACE_INSERTS: usize = 40_000;

impl Params {
    fn from(args: &Args) -> Params {
        let inserts = if args.trace {
            TRACE_INSERTS
        } else {
            args.param("inserts")
        };
        Params {
            inserts,
            window: args.param("window"),
            tau: args.param("tau"),
            dup_frac: args.param("dup_frac"),
            max_edits: args.param("max_edits"),
            lookback: args.param("lookback"),
        }
    }
}

/// The insert stream: fresh Swissprot-like trees, and near-duplicates
/// (0..=max_edits random edits) of one of the last `lookback` fresh
/// trees. Copies are never copied again, so families stay small and
/// the stream's cost per insert does not drift as it runs.
fn generate(p: &Params, seed: u64) -> Vec<Tree> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5747_EA11);
    let dups: Vec<bool> = (0..p.inserts)
        .map(|k| k > 0 && rng.gen_bool(p.dup_frac))
        .collect();
    let fresh_count = dups.iter().filter(|&&dup| !dup).count();
    let mut fresh = tsj_datagen::swissprot_like(fresh_count, seed).into_iter();
    let mut stream: Vec<Tree> = Vec::with_capacity(p.inserts);
    let mut originals: Vec<usize> = Vec::new();
    for dup in dups {
        let tree = if dup {
            let back = rng.gen_range(0..originals.len().min(p.lookback));
            let base = &stream[originals[originals.len() - 1 - back]];
            let edits = rng.gen_range(0..=p.max_edits);
            tsj_datagen::random_edit_script(base, edits, &mut rng, LABELS).0
        } else {
            originals.push(stream.len());
            fresh
                .next()
                .expect("one fresh tree per non-duplicate insert")
        };
        stream.push(tree);
    }
    stream
}

fn new_join(p: &Params) -> ShardedStreamingJoin {
    ShardedStreamingJoin::new(
        p.tau,
        PartSjConfig::default(),
        ShardConfig::default(),
        EvictionPolicy::SlidingCount(p.window),
    )
}

/// A fresh join filled to the window; partners of the fill inserts are
/// appended to `partners`.
fn fill(p: &Params, stream: &[Tree], partners: &mut Vec<Vec<TreeIdx>>) -> ShardedStreamingJoin {
    let mut join = new_join(p);
    for tree in &stream[..p.window.min(stream.len())] {
        partners.push(join.insert(tree));
    }
    join
}

pub fn run(args: &Args, report: &mut Report, layers: &mut Layers) {
    let p = Params::from(args);
    println!(
        "stream: {} Swissprot-like inserts ({:.0}% near-duplicates), window {}, tau {}, seed {}",
        p.inserts,
        p.dup_frac * 100.0,
        p.window,
        p.tau,
        args.seed
    );
    let start = Instant::now();
    let stream = generate(&p, args.seed);
    println!("stream: generated in {:.3} s", secs(start.elapsed()));
    if args.trace {
        traced(&p, args, &stream, report, layers);
    } else {
        measured(&p, args, &stream, report);
    }
}

/// Confirms every reported partner by exact TED ≤ τ (`tsj_ted::ted`'s
/// kernel, one engine per worker so its buffers are reused).
fn confirm(p: &Params, stream: &[Tree], partners: &[Vec<TreeIdx>], report: &mut Report) -> usize {
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(4);
    let chunk = partners.len().div_ceil(workers).max(1);
    let bad: Vec<(usize, TreeIdx)> = std::thread::scope(|scope| {
        let handles: Vec<_> = partners
            .chunks(chunk)
            .enumerate()
            .map(|(c, lists)| {
                scope.spawn(move || {
                    let mut engine = TedEngine::unit();
                    let mut bad = Vec::new();
                    for (offset, list) in lists.iter().enumerate() {
                        let k = c * chunk + offset;
                        for &j in list {
                            if engine.distance_trees(&stream[j as usize], &stream[k]) > p.tau {
                                bad.push((k, j));
                            }
                        }
                    }
                    bad
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("confirm worker panicked"))
            .collect()
    });
    for (k, j) in bad {
        report.fail(format!(
            "stream: insert {k} reported partner {j} beyond tau"
        ));
    }
    partners.iter().map(Vec::len).sum()
}

fn measured(p: &Params, args: &Args, stream: &[Tree], report: &mut Report) {
    let mut setups = Vec::new();
    let mut first_pass: Vec<Vec<TreeIdx>> = Vec::new();
    let mut join = None;
    for _ in 0..SETUP_REPS {
        first_pass.clear();
        let start = Instant::now();
        join = Some(fill(p, stream, &mut first_pass));
        setups.push(secs(start.elapsed()));
    }
    let mut join = join.expect("at least one set-up");
    report.attempted += first_pass.len() as u64;

    let budget = Duration::from_secs_f64(args.seconds);
    let mut measured = Duration::ZERO;
    let mut latencies: Vec<f64> = Vec::new();
    let mut next = p.window.min(stream.len());
    let mut passes = 1;
    let (mut compactions, mut evictions) = (0u64, 0u64);
    while measured < budget {
        if next == stream.len() {
            // Stream exhausted: start over from a fresh set-up; its
            // partner lists must repeat the first pass's.
            compactions += join.compactions();
            evictions += join.evictions();
            let mut again = Vec::new();
            let start = Instant::now();
            join = fill(p, stream, &mut again);
            setups.push(secs(start.elapsed()));
            report.attempted += again.len() as u64;
            report.check(again[..] == first_pass[..again.len()], || {
                "stream: a repeated fill reported different partners".into()
            });
            next = again.len();
            passes += 1;
        }
        let start = Instant::now();
        let partners = join.insert(&stream[next]);
        let dur = start.elapsed();
        measured += dur;
        latencies.push(dur.as_secs_f64());
        report.attempted += 1;
        if passes == 1 {
            first_pass.push(partners);
        } else if first_pass.get(next) != Some(&partners) {
            report.fail(format!(
                "stream: insert {next} changed partners between passes"
            ));
        }
        next += 1;
    }
    compactions += join.compactions();
    evictions += join.evictions();

    let pairs: usize = first_pass.iter().map(Vec::len).sum();
    let start = Instant::now();
    let confirmed = confirm(p, stream, &first_pass, report);
    println!(
        "stream: {} inserts measured over {passes} pass(es); {pairs} partner pairs in the first \
         pass, {confirmed} confirmed by exact TED in {:.3} s; {evictions} evictions, \
         {compactions} compactions",
        latencies.len(),
        secs(start.elapsed())
    );

    latencies.sort_by(f64::total_cmp);
    let inserts_per_s = latencies.len() as f64 / secs(measured);
    let p50 = percentile(&latencies, 0.5);
    let p999 = percentile(&latencies, 0.999);
    report.metric("setup_s", median(&setups), "s");
    report.metric("ops_per_s", inserts_per_s, "1/s");
    report.metric("op_p50_ms", p50 * 1e3, "ms");
    report.metric("op_tail_ms", p999 * 1e3, "ms");
    show("inserts_per_s", inserts_per_s, "1/s");
    show("insert_p50_us", p50 * 1e6, "us");
    show("insert_p999_us", p999 * 1e6, "us");
    show("insert_samples", latencies.len() as f64, "count");
}

/// `ShardedStreamingJoin::insert_at` under `SlidingCount`, replayed
/// through public functions with one span per layer call.
struct Replay {
    tau: u32,
    window: usize,
    config: PartSjConfig,
    index: ShardedIndex,
    small_by_size: FxHashMap<u32, Vec<TreeIdx>>,
    data: Vec<Option<VerifyData>>,
    stamp: Vec<u32>,
    caches: Vec<MatchCache>,
    shard_scratch: Vec<usize>,
    layer_scratch: Vec<LayerId>,
    candidates: Vec<TreeIdx>,
    probe_scratch: ProbeScratch,
    verify_prep: VerifyPrep,
    arrivals: VecDeque<TreeIdx>,
    verify: VerifyEngine,
    counters: ProbeCounters,
    subgraphs_built: u64,
    checked: u64,
    ted_results: u64,
    compaction_ms: Vec<f64>,
    dead_postings_max: u64,
}

impl Replay {
    fn new(p: &Params) -> Replay {
        let config = PartSjConfig::default();
        let index = ShardedIndex::new(p.tau, config.window, &ShardConfig::default());
        let caches = (0..index.shard_count())
            .map(|_| MatchCache::new())
            .collect();
        Replay {
            tau: p.tau,
            window: p.window,
            config,
            index,
            small_by_size: FxHashMap::default(),
            data: Vec::new(),
            stamp: Vec::new(),
            caches,
            shard_scratch: Vec::new(),
            layer_scratch: Vec::new(),
            candidates: Vec::new(),
            probe_scratch: ProbeScratch::new(),
            verify_prep: VerifyPrep::default(),
            arrivals: VecDeque::new(),
            verify: VerifyEngine::new(p.tau, &config),
            counters: ProbeCounters::default(),
            subgraphs_built: 0,
            checked: 0,
            ted_results: 0,
            compaction_ms: Vec::new(),
            dead_postings_max: 0,
        }
    }

    fn evict(&mut self, tracer: &mut Tracer, op: &Op) {
        let keep = self.window.saturating_sub(1);
        while self.index.live_trees() > keep {
            let Some(id) = self.arrivals.pop_front() else {
                break;
            };
            if !self.index.is_alive(id) {
                continue;
            }
            let size = self.index.size_of(id).expect("live tree has a size");
            let before = self.index.compactions();
            let start = Instant::now();
            self.index.remove_tree(id);
            let dur = start.elapsed();
            tracer.record(op, "shard.evict", start, dur);
            if self.index.compactions() > before {
                self.compaction_ms.push(dur.as_secs_f64() * 1e3);
            }
            self.dead_postings_max = self.dead_postings_max.max(self.index.dead_postings());
            self.data[id as usize] = None;
            if (size as usize) < 2 * self.tau as usize + 1 {
                if let Some(list) = self.small_by_size.get_mut(&size) {
                    list.retain(|&j| j != id);
                }
            }
        }
    }

    fn insert(&mut self, tree: &Tree, tracer: &mut Tracer) -> Vec<TreeIdx> {
        let op = tracer.begin("stream.insert");
        self.evict(tracer, &op);
        let delta = 2 * self.tau as usize + 1;
        let id = self.data.len() as TreeIdx;
        let size = tree.len() as u32;
        let lo = size.saturating_sub(self.tau).max(1);
        let hi = size + self.tau;

        let start = Instant::now();
        self.candidates.clear();
        for n in lo..=hi {
            if let Some(list) = self.small_by_size.get(&n) {
                for &j in list {
                    if self.index.is_alive(j) && self.stamp[j as usize] != id {
                        self.stamp[j as usize] = id;
                        self.candidates.push(j);
                    }
                }
            }
        }
        tracer.record(&op, "probe", start, start.elapsed());

        let start = Instant::now();
        let (binary, posts) = self.probe_scratch.prepare(tree);
        tracer.record(&op, "tree.lcrs", start, start.elapsed());
        let start = Instant::now();
        let mut sink = StampSink {
            stamp: &mut self.stamp,
            marker: id,
            candidates: &mut self.candidates,
        };
        self.index.probe_tree(
            binary,
            posts,
            size,
            lo,
            hi,
            self.config.matching,
            &mut self.caches,
            &mut self.shard_scratch,
            &mut self.layer_scratch,
            &mut self.counters,
            &mut sink,
        );
        tracer.record(&op, "probe", start, start.elapsed());

        let (config, prep) = (&self.config, &mut self.verify_prep);
        let data = tracer.layer(&op, "verify.prep", || {
            VerifyData::for_config_with(tree, &config.verify, prep)
        });
        let mut partners = Vec::new();
        for &j in &self.candidates {
            let other = self.data[j as usize]
                .as_ref()
                .expect("live candidate has verification data");
            let (verdict, ran_ted) = traced_check(tracer, &op, &mut self.verify, other, &data);
            if verdict.is_some() {
                partners.push(j);
                self.ted_results += u64::from(ran_ted);
            }
        }
        self.checked += self.candidates.len() as u64;
        partners.sort_unstable();

        if (size as usize) < delta {
            let (index, small) = (&mut self.index, &mut self.small_by_size);
            tracer.layer(&op, "index.insert", || {
                index.track(id, size);
                small.entry(size).or_default().push(id);
            });
        } else {
            let partitioning = self.config.partitioning;
            let cuts = tracer.layer(&op, "partition", || {
                cuts_for(binary, delta, partitioning, u64::from(id))
            });
            let subgraphs = tracer.layer(&op, "subgraph", || {
                build_subgraphs(binary, posts, &cuts, id)
            });
            self.subgraphs_built += subgraphs.len() as u64;
            let index = &mut self.index;
            tracer.layer(&op, "index.insert", || {
                index.insert_tree(id, size, subgraphs)
            });
        }
        self.data.push(Some(data));
        self.stamp.push(u32::MAX);
        self.arrivals.push_back(id);
        tracer.end(op);
        partners
    }
}

fn traced(p: &Params, args: &Args, stream: &[Tree], report: &mut Report, layers: &mut Layers) {
    // Untraced entry point over the whole stream.
    let mut join = new_join(p);
    let start = Instant::now();
    let entry: Vec<Vec<TreeIdx>> = stream.iter().map(|tree| join.insert(tree)).collect();
    let untraced = secs(start.elapsed());
    let mut entry_stats = JoinStats::default();
    join.verify_engine().fold_into(&mut entry_stats);

    let mut tracer = Tracer::new();
    let mut rep = Replay::new(p);
    let mut mismatched = 0usize;
    for (k, tree) in stream.iter().enumerate() {
        let partners = rep.insert(tree, &mut tracer);
        report.attempted += 2;
        if partners != entry[k] {
            mismatched += 1;
            report.fail(format!(
                "stream: insert {k}: replay partners {partners:?}, entry point {:?}",
                entry[k]
            ));
        }
    }
    let traced_wall = secs(tracer.wall());
    let mut stats = JoinStats::default();
    rep.verify.fold_into(&mut stats);
    report.check(
        stats_key(&stats) == stats_key(&entry_stats)
            && rep.index.compactions() == join.compactions(),
        || {
            format!(
                "stream: replay counters differ from the entry point \
                 (ted {} vs {}, compactions {} vs {})",
                stats.ted_calls,
                entry_stats.ted_calls,
                rep.index.compactions(),
                join.compactions()
            )
        },
    );
    let confirmed = confirm(p, stream, &entry, report);

    let results: u64 = entry.iter().map(|l| l.len() as u64).sum();
    *layers = Layers::from_trace(&tracer, &stats, rep.checked, results, rep.ted_results);
    layers.set(
        "probe.match_yield",
        ratio(rep.counters.matches, rep.counters.match_attempts),
    );
    let registrations: u64 = (0..rep.index.shard_count())
        .map(|s| rep.index.shard_index(s).registrations())
        .sum();
    layers.set("subgraph.built", rep.subgraphs_built as f64);
    layers.set("index.registrations", registrations as f64);
    layers.set("shard.compactions", rep.index.compactions() as f64);
    layers.set("shard.compaction_ms_p50", median(&rep.compaction_ms));
    layers.set("shard.dead_postings_max", rep.dead_postings_max as f64);
    layers.set("trace.overhead_frac", (traced_wall - untraced) / untraced);
    crate::write_trace(args, &tracer);
    println!(
        "stream traced: {} inserts, untraced {untraced:.4} s, traced replay {traced_wall:.4} s, \
         {mismatched} mismatched partner lists, {confirmed} partners confirmed by exact TED",
        stream.len()
    );
}
