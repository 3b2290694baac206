//! `selfjoin`: the batch PartSJ self-join over Zaki-style synthetic
//! trees, closed loop with one caller.
//!
//! Untraced, the run alternates the sequential `partsj_join` and the
//! parallel `sharded_join` (default `ShardConfig`) until the measuring
//! time is spent, and holds both against the STR baseline's pairs.
//! Traced, it replays Algorithm 1 through `partsj`'s public functions
//! with a span around every layer call and holds the replay against
//! `partsj_join_detailed`.

use crate::layers::{ratio, traced_check, Layers};
use crate::report::{median, percentile, secs, show, Report};
use crate::trace::Tracer;
use crate::{stats_key, Args, SETUP_REPS};
use partsj::{
    build_subgraphs, cuts_for, partsj_join_detailed, probe_tree_nodes, resolve_layers, LayerId,
    MatchCache, PartSjConfig, PartSjDetail, ProbeCounters, ProbeScratch, StampSink, SubgraphIndex,
    VerifyData, VerifyEngine,
};
use std::time::{Duration, Instant};
use tsj_datagen::SyntheticParams;
use tsj_shard::{sharded_join_detailed, ShardConfig};
use tsj_ted::{JoinOutcome, JoinStats, TreeIdx};
use tsj_tree::{FxHashMap, Tree};

struct Params {
    trees: usize,
    avg_size: usize,
    tau: u32,
}

/// Joins of each kind a run makes at least, however short its time.
const MIN_REPS: usize = 3;

impl Params {
    fn from(args: &Args) -> Params {
        Params {
            trees: args.param("trees"),
            avg_size: args.param("avg_size"),
            tau: args.param("tau"),
        }
    }
}

fn generate(p: &Params, seed: u64) -> Vec<Tree> {
    let params = SyntheticParams {
        avg_size: p.avg_size,
        ..SyntheticParams::default()
    };
    tsj_datagen::synthetic(p.trees, &params, seed)
}

/// Set-up is generating the collection: the join builds its own index.
fn setup(p: &Params, seed: u64, report: &mut Report) -> Vec<Tree> {
    let mut times = Vec::new();
    let mut trees = Vec::new();
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        trees = generate(p, seed);
        times.push(secs(start.elapsed()));
    }
    report.metric("setup_s", median(&times), "s");
    trees
}

/// The STR baseline: the pairs oracle, and the paper's comparison.
fn str_oracle(trees: &[Tree], tau: u32) -> (JoinOutcome, Duration) {
    let start = Instant::now();
    let outcome = tsj_baselines::str_join(trees, tau);
    (outcome, start.elapsed())
}

pub fn run(args: &Args, report: &mut Report, layers: &mut Layers) {
    let p = Params::from(args);
    println!(
        "selfjoin: {} synthetic trees, avg size {}, tau {}, seed {}",
        p.trees, p.avg_size, p.tau, args.seed
    );
    if args.trace {
        traced(&p, args, report, layers);
    } else {
        measured(&p, args, report);
    }
}

fn measured(p: &Params, args: &Args, report: &mut Report) {
    let trees = setup(p, args.seed, report);
    let config = PartSjConfig::default();
    let shard_cfg = ShardConfig::default();
    let (oracle, str_wall) = str_oracle(&trees, p.tau);
    report.attempted += 1;

    let mut seq: Vec<f64> = Vec::new();
    let mut par: Vec<f64> = Vec::new();
    let mut reference: Option<(JoinOutcome, PartSjDetail)> = None;
    let budget = Duration::from_secs_f64(args.seconds);
    let mut measured = Duration::ZERO;
    while measured < budget || seq.len() < MIN_REPS || par.len() < MIN_REPS {
        let start = Instant::now();
        let (outcome, detail) = partsj_join_detailed(&trees, p.tau, &config);
        let wall = start.elapsed();
        seq.push(secs(wall));
        let start = Instant::now();
        let (par_outcome, par_detail) = sharded_join_detailed(&trees, p.tau, &config, &shard_cfg);
        let par_wall = start.elapsed();
        par.push(secs(par_wall));
        measured += wall + par_wall;
        report.attempted += 2;

        let reference = reference.get_or_insert_with(|| {
            report.check(outcome.pairs == oracle.pairs, || {
                format!(
                    "selfjoin: PRT found {} pairs, STR {}",
                    outcome.pairs.len(),
                    oracle.pairs.len()
                )
            });
            (outcome.clone(), detail.clone())
        });
        report.check(
            outcome.pairs == reference.0.pairs
                && stats_key(&outcome.stats) == stats_key(&reference.0.stats)
                && detail == reference.1,
            || "selfjoin: partsj_join is not deterministic across repetitions".into(),
        );
        report.check(
            par_outcome.pairs == reference.0.pairs
                && stats_key(&par_outcome.stats) == stats_key(&reference.0.stats)
                && par_detail.subgraphs_built == reference.1.subgraphs_built,
            || {
                format!(
                    "selfjoin: sharded_join differs from partsj_join ({} vs {} pairs, {} vs {} candidates)",
                    par_outcome.pairs.len(),
                    reference.0.pairs.len(),
                    par_outcome.stats.candidates,
                    reference.0.stats.candidates
                )
            },
        );
    }

    let join_s = median(&seq);
    let par_join_s = median(&par);
    let str_s = secs(str_wall);
    // A run makes a handful of joins: its tail is their upper quartile.
    let mut sorted = seq.clone();
    sorted.sort_by(f64::total_cmp);
    let tail_s = percentile(&sorted, 0.75);
    report.metric("ops_per_s", 1.0 / par_join_s, "1/s");
    report.metric("op_p50_ms", join_s * 1e3, "ms");
    report.metric("op_tail_ms", tail_s * 1e3, "ms");

    let (outcome, _) = reference.expect("at least one join ran");
    println!(
        "selfjoin: {} pairs, {} candidates, {} TED calls; {} sequential + {} parallel joins",
        outcome.pairs.len(),
        outcome.stats.candidates,
        outcome.stats.ted_calls,
        seq.len(),
        par.len()
    );
    show("join_s", join_s, "s");
    show("par_join_s", par_join_s, "s");
    show("str_join_s", str_s, "s");
    show("prt_str_ratio", join_s / str_s, "x");
    show("str_ted_calls", oracle.stats.ted_calls as f64, "count");
}

/// Algorithm 1 (`partsj_join_detailed`) replayed through public
/// functions, one span per layer call.
struct Replay {
    outcome: JoinOutcome,
    detail: PartSjDetail,
    ted_results: u64,
}

fn replay(trees: &[Tree], tau: u32, config: &PartSjConfig, tracer: &mut Tracer) -> Replay {
    let op = tracer.begin("selfjoin.join");
    let delta = 2 * tau as usize + 1;
    let mut stats = JoinStats::default();
    let mut detail = PartSjDetail::default();
    let data: Vec<VerifyData> = tracer.layer(&op, "verify.prep", || {
        VerifyData::batch_for_config(trees, &config.verify)
    });
    let mut order: Vec<TreeIdx> = (0..trees.len() as TreeIdx).collect();
    order.sort_by_key(|&i| (trees[i as usize].len(), i));

    let mut index = SubgraphIndex::new(tau, config.window);
    let mut small_by_size: FxHashMap<u32, Vec<TreeIdx>> = FxHashMap::default();
    let mut stamp: Vec<TreeIdx> = vec![TreeIdx::MAX; trees.len()];
    let mut verify = VerifyEngine::new(tau, config);
    let mut pairs: Vec<(TreeIdx, TreeIdx)> = Vec::new();
    let mut candidates: Vec<TreeIdx> = Vec::new();
    let mut layer_window: Vec<LayerId> = Vec::new();
    let mut match_cache = MatchCache::new();
    let mut counters = ProbeCounters::default();
    let mut probe_scratch = ProbeScratch::new();
    let mut ted_results = 0u64;

    for &i in &order {
        let tree = &trees[i as usize];
        let start = Instant::now();
        let (binary, posts) = probe_scratch.prepare(tree);
        tracer.record(&op, "tree.lcrs", start, start.elapsed());
        let size_i = binary.len() as u32;
        let lo = size_i.saturating_sub(tau).max(1);

        let start = Instant::now();
        candidates.clear();
        for n in lo..=size_i {
            if let Some(list) = small_by_size.get(&n) {
                for &j in list {
                    if stamp[j as usize] != i {
                        stamp[j as usize] = i;
                        candidates.push(j);
                        detail.small_tree_candidates += 1;
                    }
                }
            }
        }
        resolve_layers(&index, lo, size_i, &mut layer_window);
        let mut sink = StampSink {
            stamp: &mut stamp,
            marker: i,
            candidates: &mut candidates,
        };
        probe_tree_nodes(
            &index,
            &layer_window,
            binary,
            posts,
            size_i,
            config.matching,
            &mut match_cache,
            &mut counters,
            &mut sink,
        );
        tracer.record(&op, "probe", start, start.elapsed());
        stats.candidates += candidates.len() as u64;
        stats.pairs_examined += candidates.len() as u64;

        for &j in &candidates {
            let (verdict, ran_ted) = traced_check(
                tracer,
                &op,
                &mut verify,
                &data[i as usize],
                &data[j as usize],
            );
            if verdict.is_some() {
                pairs.push((j, i));
                ted_results += u64::from(ran_ted);
            }
        }

        if (size_i as usize) < delta {
            small_by_size.entry(size_i).or_default().push(i);
        } else {
            let cuts = tracer.layer(&op, "partition", || {
                cuts_for(binary, delta, config.partitioning, u64::from(i))
            });
            let subgraphs =
                tracer.layer(&op, "subgraph", || build_subgraphs(binary, posts, &cuts, i));
            detail.subgraphs_built += subgraphs.len() as u64;
            tracer.layer(&op, "index.insert", || index.insert_tree(size_i, subgraphs));
        }
    }
    detail.probes = counters.probes;
    detail.match_attempts = counters.match_attempts;
    detail.matches = counters.matches;
    detail.index_registrations = index.registrations();
    verify.fold_into(&mut stats);
    tracer.end(op);
    Replay {
        outcome: JoinOutcome::new(pairs, stats),
        detail,
        ted_results,
    }
}

fn traced(p: &Params, args: &Args, report: &mut Report, layers: &mut Layers) {
    let trees = generate(p, args.seed);
    let config = PartSjConfig::default();

    // Untraced entry point first, then the traced replay of the same join.
    let start = Instant::now();
    let (entry, entry_detail) = partsj_join_detailed(&trees, p.tau, &config);
    let untraced = secs(start.elapsed());
    let mut tracer = Tracer::new();
    let rep = replay(&trees, p.tau, &config, &mut tracer);
    let traced_wall = secs(tracer.wall());
    report.attempted += 2;
    report.check(
        rep.outcome.pairs == entry.pairs
            && stats_key(&rep.outcome.stats) == stats_key(&entry.stats)
            && rep.detail == entry_detail,
        || {
            format!(
                "selfjoin: the Algorithm 1 replay differs from partsj_join_detailed \
                 (pairs {} vs {}, detail {:?} vs {:?})",
                rep.outcome.pairs.len(),
                entry.pairs.len(),
                rep.detail,
                entry_detail
            )
        },
    );

    let (oracle, str_wall) = str_oracle(&trees, p.tau);
    report.attempted += 1;
    report.check(oracle.pairs == entry.pairs, || {
        format!(
            "selfjoin: PRT found {} pairs, STR {}",
            entry.pairs.len(),
            oracle.pairs.len()
        )
    });

    let results = rep.outcome.pairs.len() as u64;
    *layers = Layers::from_trace(
        &tracer,
        &rep.outcome.stats,
        rep.outcome.stats.candidates,
        results,
        rep.ted_results,
    );
    layers.set(
        "probe.match_yield",
        ratio(rep.detail.matches, rep.detail.match_attempts),
    );
    layers.set("subgraph.built", rep.detail.subgraphs_built as f64);
    layers.set("index.registrations", rep.detail.index_registrations as f64);
    layers.set("baselines.str_join_s", secs(str_wall));
    layers.set("baselines.str_ted_calls", oracle.stats.ted_calls as f64);
    layers.set("trace.overhead_frac", (traced_wall - untraced) / untraced);
    crate::write_trace(args, &tracer);
    println!(
        "selfjoin traced: untraced join {untraced:.4} s, traced replay {traced_wall:.4} s, \
         STR {:.4} s (PRT/STR {:.3})",
        secs(str_wall),
        untraced / secs(str_wall)
    );
}
