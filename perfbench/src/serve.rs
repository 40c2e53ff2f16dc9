//! `serve_fresh` and `serve_hot`: two closed-loop client threads over
//! disjoint users against `mbssl serve`'s engine at its defaults, with an
//! IVF index attached at the default `nprobe`, on a catalog of about ten
//! thousand items.
//!
//! Set-up synthesizes the wide log, trains MBMISSL briefly on it (recall
//! on an untrained item table says nothing), saves and reloads the
//! checkpoint, compiles the engine, builds, saves and reloads the index
//! and starts the server. `serve_hot` then requests every user once and
//! discards the replies, so its timed requests all hit the interest
//! cache.
//!
//! One operation is, on `serve_fresh`, an ingest of one new event for the
//! user followed by a top-10 request (every request misses the cache, so
//! the encoder forward and the batcher carry the work); on `serve_hot`, a
//! read-only top-10 request (IVF probe, re-rank and serving overhead).
//! A round is [`ROUND_OPS`] operations on each client.

use std::collections::HashSet;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mbssl_core::infer::CatalogQuery;
use mbssl_core::serve::{RerankChain, ServeConfig, ServeStats, Server, SessionStore, Stage};
use mbssl_core::{recommend_top_n, InferenceModel, IvfIndex, Mbmissl, Trainer};
use mbssl_data::synthetic::SyntheticConfig;
use mbssl_data::{Behavior, ItemId, Sequence, UserId};
use mbssl_telemetry::Histogram;

use crate::data;
use crate::host::{self, HostNoise};
use crate::train::{model_config, schema, train_config};
use crate::{checks, stats, trace, Outcome, RunConfig};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Fresh,
    Hot,
}

const CLIENTS: usize = 2;
const TOP_N: usize = 10;
/// Operations per client per round.
const ROUND_OPS: usize = 256;
/// One reply in this many is kept and re-derived offline after the run.
const SAMPLE_EVERY: usize = 32;
/// The set-up's brief training: instances and validation users kept.
const TRAIN_INSTANCES: usize = 256;
const VAL_INSTANCES: usize = 256;

/// The wide log: taobao-like behaviour, a catalog of about 11k items
/// after the 5/3 k-core.
fn wide_log(seed: u64) -> SyntheticConfig {
    SyntheticConfig {
        name: "taobao-wide".into(),
        num_users: 3000,
        num_items: 12_000,
        num_topics: 120,
        mean_events_per_user: 40,
        ..SyntheticConfig::taobao_like(seed)
    }
}

struct Fixture {
    model: Mbmissl,
    num_items: usize,
    server: Server,
    clients: Vec<Client>,
}

/// One client's users with the benchmark's own copy of each history and
/// seen set.
struct Client {
    id: usize,
    users: Vec<(UserId, Sequence, HashSet<ItemId>)>,
    next: usize,
    ops: u64,
    rng: StdRng,
}

/// A reply kept for the offline re-derivation.
struct Sample {
    history: Sequence,
    seen: HashSet<ItemId>,
    recs: Vec<(ItemId, f32)>,
}

#[derive(Default)]
struct RoundLog {
    op_ns: Vec<u64>,
    submit_ns: Vec<u64>,
    ingest_ns: Vec<u64>,
    failed: u64,
    problems: Vec<String>,
    samples: Vec<Sample>,
}

impl RoundLog {
    fn merge(&mut self, other: RoundLog) {
        self.op_ns.extend(other.op_ns);
        self.submit_ns.extend(other.submit_ns);
        self.ingest_ns.extend(other.ingest_ns);
        self.failed += other.failed;
        self.problems.extend(other.problems);
        self.samples.extend(other.samples);
    }
}

fn setup(cfg: &RunConfig, mode: Mode) -> Result<Fixture, String> {
    let synth = wide_log(cfg.seed);
    let dir = &cfg.dir;
    let (tsv, mbds, ckpt, ivf) = (
        dir.join("log.tsv"),
        dir.join("log.mbds"),
        dir.join("model.ckpt"),
        dir.join("model.ckpt.ivf"),
    );
    data::write_tsv(&synth, &tsv).map_err(|e| format!("writing {}: {e}", tsv.display()))?;
    let mut loaded = data::load(&tsv, &mbds, synth.target_behavior)?;
    loaded.split.train.truncate(TRAIN_INSTANCES);
    loaded.split.val.truncate(VAL_INSTANCES);
    let schema = schema(&loaded);
    let num_items = loaded.dataset.num_items;

    let trained = Mbmissl::new(num_items, schema.clone(), model_config(cfg.seed));
    trace::timed("trainer.fit", || {
        Trainer::new(train_config(cfg.seed, 1)).fit(&trained, &loaded.split, &loaded.sampler)
    });
    trace::timed("tensor.ckpt_save", || trained.save(&ckpt))
        .map_err(|e| format!("saving {}: {e}", ckpt.display()))?;
    let model = Mbmissl::new(num_items, schema, model_config(cfg.seed));
    trace::timed("tensor.ckpt_load", || model.load(&ckpt))
        .map_err(|e| format!("loading {}: {e}", ckpt.display()))?;
    let mut engine = trace::timed("infer.compile", || InferenceModel::compile(&model));
    let index = trace::timed("ann.build", || engine.build_index(cfg.seed));
    trace::timed("ann.save", || index.save_to_file(&ivf))
        .map_err(|e| format!("saving {}: {e}", ivf.display()))?;
    let index = load_index(&ivf)?;
    engine
        .attach_index(index)
        .map_err(|e| format!("attaching {}: {e}", ivf.display()))?;

    let store = Arc::new(SessionStore::from_dataset(&loaded.dataset));
    let server = Server::start(engine, store, RerankChain::empty(), ServeConfig::default());
    let mut clients: Vec<Client> = (0..CLIENTS)
        .map(|c| Client {
            id: c,
            users: Vec::new(),
            next: 0,
            ops: 0,
            rng: StdRng::seed_from_u64(cfg.seed ^ (0x5e7e_0000 + c as u64)),
        })
        .collect();
    for (u, seq) in loaded.dataset.sequences.iter().enumerate() {
        let seen = seq.items.iter().copied().collect();
        clients[u % CLIENTS]
            .users
            .push((u as UserId, seq.clone(), seen));
    }
    if mode == Mode::Hot {
        if let Err(e) = warm_up(&server, loaded.dataset.sequences.len()) {
            server.shutdown();
            return Err(e);
        }
    }
    Ok(Fixture {
        model,
        num_items,
        server,
        clients,
    })
}

/// `serve_hot`'s warm-up: every user once, replies discarded, so every
/// timed request finds its user's interests cached. As many concurrent
/// clients as the server batches requests fill its batches, so the pass
/// costs few forwards and seldom waits out the straggler window: a
/// two-client pass took 2 s of the set-up on a quiet host and twice that
/// under 20 % steal.
fn warm_up(server: &Server, users: usize) -> Result<(), String> {
    let clients = ServeConfig::default().max_batch;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|first| {
                scope.spawn(move || {
                    (first..users).step_by(clients).try_for_each(|u| {
                        server
                            .submit(u as UserId, TOP_N)
                            .map(drop)
                            .map_err(|e| format!("warm-up request for user {u}: {e}"))
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().expect("warm-up client panicked"))
    })
}

fn load_index(path: &Path) -> Result<IvfIndex, String> {
    trace::timed("ann.load", || IvfIndex::load_from_file(path))
        .map_err(|e| format!("loading {}: {e}", path.display()))
}

/// Both clients run `ops` operations each, concurrently.
fn run_round(fx: &mut Fixture, mode: Mode, ops: usize) -> RoundLog {
    let (server, num_items) = (&fx.server, fx.num_items);
    let mut log = RoundLog::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = fx
            .clients
            .iter_mut()
            .map(|client| scope.spawn(move || client_ops(client, server, num_items, mode, ops)))
            .collect();
        for h in handles {
            log.merge(h.join().expect("client thread panicked"));
        }
    });
    log
}

fn client_ops(
    c: &mut Client,
    server: &Server,
    num_items: usize,
    mode: Mode,
    ops: usize,
) -> RoundLog {
    let mut log = RoundLog {
        op_ns: Vec::with_capacity(ops),
        submit_ns: Vec::with_capacity(ops),
        ingest_ns: Vec::with_capacity(ops),
        ..RoundLog::default()
    };
    for _ in 0..ops {
        let req = ((c.id as u64) << 40) | c.ops;
        let at = c.next;
        c.next = (at + 1) % c.users.len();
        let (user, history, seen) = &mut c.users[at];
        let sample = c.ops.is_multiple_of(SAMPLE_EVERY as u64);
        c.ops += 1;
        let op = trace::span_req("serve.op", Some(req));
        let t0 = Instant::now();
        if mode == Mode::Fresh {
            let item = c.rng.gen_range(1..=num_items as ItemId);
            let ingested = {
                let _sp = trace::span_req("serve.ingest", Some(req));
                server.ingest(*user, item, Behavior::Click)
            };
            if let Err(e) = ingested {
                log.failed += 1;
                log.problems.push(format!("ingest for user {user}: {e}"));
                continue;
            }
            history.push(item, Behavior::Click);
            seen.insert(item);
        }
        let t1 = Instant::now();
        let reply = {
            let _sp = trace::span_req("serve.submit", Some(req));
            server.submit(*user, TOP_N)
        };
        let t2 = Instant::now();
        drop(op);
        let reply = match reply {
            Ok(r) => r,
            Err(e) => {
                log.failed += 1;
                log.problems.push(format!("request for user {user}: {e}"));
                continue;
            }
        };
        log.op_ns.push((t2 - t0).as_nanos() as u64);
        log.submit_ns.push((t2 - t1).as_nanos() as u64);
        if mode == Mode::Fresh {
            log.ingest_ns.push((t1 - t0).as_nanos() as u64);
        }
        let recs: Vec<(ItemId, f32)> = reply.recs.iter().map(|r| (r.item, r.score)).collect();
        if let Err(e) = checks::check_reply(&recs, TOP_N, num_items, seen) {
            log.failed += 1;
            log.problems.push(format!("reply for user {user}: {e}"));
        }
        if sample {
            log.samples.push(Sample {
                history: history.clone(),
                seen: seen.clone(),
                recs,
            });
        }
    }
    log
}

/// `after − before` for a cumulative stage histogram, bucket by bucket
/// (quantiles keep the histogram's bucket error).
fn since(after: &Histogram, before: &Histogram) -> Histogram {
    let mut out = Histogram::new();
    let mut old = before.nonzero_buckets().peekable();
    for b in after.nonzero_buckets() {
        while old.peek().is_some_and(|o| o.lower < b.lower) {
            old.next();
        }
        let prior = old
            .peek()
            .filter(|o| o.lower == b.lower)
            .map_or(0, |o| o.count);
        if b.count > prior {
            out.record_n(b.lower + (b.upper - b.lower) / 2, b.count - prior);
        }
    }
    out
}

pub fn run(cfg: &RunConfig, host: &HostNoise, mode: Mode) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    // One set-up: each trains a checkpoint, builds an index and starts a
    // server, too dear to repeat on every run.
    let mut fx = {
        let _sp = trace::span("bench.setup");
        setup(cfg, mode)?
    };
    out.set("setup_s", host.elapsed_s());

    let before = fx.server.stats();
    let phase = Instant::now();
    let mut log = RoundLog::default();
    let mut plain_op_ns = Vec::new();
    let (mut traced_walls, mut plain_walls) = (Vec::new(), Vec::new());
    let mut round_cpu_ms_per_op = Vec::new();
    let mut rounds = 0usize;
    while (cfg.traced && rounds < 2) || phase.elapsed().as_secs_f64() < cfg.seconds {
        // Traced runs alternate traced and untraced rounds; the pair
        // gives the tracing overhead.
        let traced = cfg.traced && rounds.is_multiple_of(2);
        trace::set_enabled(traced);
        if traced {
            mbssl_telemetry::set_mode(mbssl_telemetry::TraceMode::Summary);
        }
        let (t, c) = (Instant::now(), host::cpu_seconds());
        let round_log = {
            let _sp = trace::span("bench.round");
            run_round(&mut fx, mode, ROUND_OPS)
        };
        let wall = t.elapsed().as_secs_f64();
        round_cpu_ms_per_op.push(1e3 * (host::cpu_seconds() - c) / (ROUND_OPS * CLIENTS) as f64);
        mbssl_telemetry::set_mode(mbssl_telemetry::TraceMode::Off);
        if traced {
            traced_walls.push(wall);
        } else {
            plain_walls.push(wall);
            plain_op_ns.extend_from_slice(&round_log.op_ns);
        }
        log.merge(round_log);
        rounds += 1;
    }
    trace::set_enabled(cfg.traced);
    let phase_wall: f64 = traced_walls.iter().chain(&plain_walls).sum();
    let after = fx.server.stats();
    let num_items = fx.num_items;
    let Fixture { model, server, .. } = fx;
    server.shutdown();

    let ops = (rounds * ROUND_OPS * CLIENTS) as u64;
    out.attempted = ops;
    out.failed = log.failed;
    for p in log.problems.iter().take(5) {
        out.problems.push(p.clone());
    }
    check_cache(&mut out, mode, &before, &after, ops - log.failed);

    // Offline re-derivation of the sampled replies: a separately
    // compiled engine with the same index, and one with no index.
    let ivf = cfg.dir.join("model.ckpt.ivf");
    let mut offline = InferenceModel::compile(&model);
    let index = load_index(&ivf)?;
    let imbalance = index.stats().imbalance;
    offline
        .attach_index(index)
        .map_err(|e| format!("attaching {}: {e}", ivf.display()))?;
    let exhaustive = InferenceModel::compile(&model);
    let mut recalls = Vec::with_capacity(log.samples.len());
    let mut mismatches = 0usize;
    for s in &log.samples {
        let pairs = |recs: Vec<mbssl_core::Recommendation>| -> Vec<(ItemId, f32)> {
            recs.iter().map(|r| (r.item, r.score)).collect()
        };
        let again = pairs(recommend_top_n(
            &offline, &s.history, num_items, TOP_N, &s.seen, 512,
        ));
        if let Err(e) = checks::check_same_reply(&s.recs, &again) {
            if mismatches == 0 {
                out.problems
                    .push(format!("sampled reply vs offline recommend_top_n: {e}"));
            }
            mismatches += 1;
        }
        let reference = pairs(recommend_top_n(
            &exhaustive,
            &s.history,
            num_items,
            TOP_N,
            &s.seen,
            512,
        ));
        recalls.push(checks::recall(&s.recs, &reference));
    }
    if mismatches > 0 {
        out.problems.push(format!(
            "{mismatches} of {} sampled replies differ offline",
            log.samples.len()
        ));
    }
    let recall10 = recalls.iter().sum::<f64>() / recalls.len().max(1) as f64;
    if !(recall10 > 0.0 && recall10 <= 1.0) {
        out.problems
            .push(format!("recall@10 {recall10} outside (0, 1]"));
    }

    out.set("peak_rss_mb", host::peak_rss_mb());
    out.set("cpu_ms_per_op", stats::median(&round_cpu_ms_per_op));
    eprintln!(
        "perfbench: {}: {rounds} rounds, {ops} ops in {phase_wall:.2}s, {num_items} items, recall@10 {recall10:.3} over {} samples",
        cfg.workload,
        log.samples.len()
    );

    if cfg.traced {
        let plain_ms: Vec<f64> = plain_op_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
        out.set("latency_p50_ms", stats::median(&plain_ms));
        out.set("latency_p99_ms", stats::supported_tail(&plain_ms));
        out.set(
            "qps",
            (plain_walls.len() * ROUND_OPS * CLIENTS) as f64 / plain_walls.iter().sum::<f64>(),
        );
        out.set("recall10", recall10);
        out.set("ann.list_imbalance", imbalance);
        let overhead = stats::median(&traced_walls) / stats::median(&plain_walls) - 1.0;
        out.set("telemetry.overhead_pct", 100.0 * overhead);
        let index = load_index(&ivf)?;
        let engines = Engines {
            offline: &offline,
            exhaustive: &exhaustive,
            index: &index,
            num_items,
        };
        layer_metrics(&mut out, mode, &log, &before, &after, &engines);
    }
    Ok(out)
}

/// Every timed request hits the interest cache on `serve_hot`; none does
/// on `serve_fresh`.
fn check_cache(
    out: &mut Outcome,
    mode: Mode,
    before: &ServeStats,
    after: &ServeStats,
    served: u64,
) {
    let hits = after.cache_hits - before.cache_hits;
    let misses = after.cache_misses - before.cache_misses;
    let ok = match mode {
        Mode::Hot => hits == served && misses == 0,
        Mode::Fresh => after.cache_hits == 0 && misses == served,
    };
    if !ok {
        out.problems.push(format!(
            "cache: {hits} hits / {misses} misses over {served} timed requests ({} hits since start)",
            after.cache_hits
        ));
    }
}

struct Engines<'a> {
    offline: &'a InferenceModel,
    exhaustive: &'a InferenceModel,
    /// A third copy of the index, probed directly.
    index: &'a IvfIndex,
    num_items: usize,
}

fn layer_metrics(
    out: &mut Outcome,
    mode: Mode,
    log: &RoundLog,
    before: &ServeStats,
    after: &ServeStats,
    e: &Engines,
) {
    // Replay the sampled requests offline, one call at a time.
    let nprobe = e.offline.attached_nprobe().unwrap_or(1);
    let k = e.offline.num_interests();
    let mut candidates = Vec::new();
    let mut per_query = Vec::with_capacity(log.samples.len());
    for s in &log.samples {
        let z = trace::timed("infer.encode", || e.offline.encode_interests(&[&s.history]));
        let query = [CatalogQuery {
            n: TOP_N,
            exclude: &s.seen,
        }];
        trace::timed("infer.rank", || {
            e.offline.rank_from_interests(&z, &query, e.num_items, None)
        });
        trace::timed("infer.rank_exhaustive", || {
            e.exhaustive
                .rank_from_interests(&z, &query, e.num_items, None)
        });
        candidates.clear();
        trace::timed("ann.probe", || {
            e.index.probe_into(&z, k, nprobe, &mut candidates)
        });
        per_query.push(candidates.len() as f64);
    }
    let spans = trace::spans();
    let p50_us = |name: &str| 1e3 * stats::median(&trace::durations_ms(&spans, name));
    for (name, span) in [
        ("data.open_ms", "data.open"),
        ("data.materialize_ms", "data.materialize"),
        ("data.split_ms", "data.split"),
        ("data.sampler_ms", "data.sampler"),
        ("tensor.ckpt_save_ms", "tensor.ckpt_save"),
        ("tensor.ckpt_load_ms", "tensor.ckpt_load"),
        ("infer.compile_ms", "infer.compile"),
        ("ann.build_ms", "ann.build"),
        ("ann.save_ms", "ann.save"),
        ("ann.load_ms", "ann.load"),
    ] {
        out.set(name, p50_us(span) / 1e3);
    }
    out.set("data.synth_s", p50_us("data.synth") / 1e6);
    out.set("data.convert_s", p50_us("data.convert") / 1e6);
    let encode = p50_us("infer.encode");
    let rank = p50_us("infer.rank");
    out.set("infer.encode_p50_us", encode);
    out.set("infer.rank_p50_us", rank);
    out.set(
        "infer.rank_exhaustive_p50_us",
        p50_us("infer.rank_exhaustive"),
    );
    let cands = per_query.iter().sum::<f64>() / per_query.len().max(1) as f64;
    out.set("ann.candidates_per_query", cands);
    if cands > 0.0 {
        out.set("ann.useful_ratio", TOP_N as f64 / cands);
    }

    // Server stages over the timed phase only.
    let stage = |s: Stage, q: f64| since(after.stage(s), before.stage(s)).quantile(q) as f64 / 1e3;
    out.set("serve.queue_p50_us", stage(Stage::Queue, 0.5));
    out.set("serve.queue_p99_us", stage(Stage::Queue, 0.99));
    out.set("serve.forward_p50_us", stage(Stage::Forward, 0.5));
    out.set("serve.forward_p99_us", stage(Stage::Forward, 0.99));
    out.set("serve.rank_p50_us", stage(Stage::Rank, 0.5));
    out.set("serve.rank_p99_us", stage(Stage::Rank, 0.99));
    out.set("serve.reply_p50_us", stage(Stage::Reply, 0.5));
    let requests = (after.requests - before.requests) as f64;
    out.set(
        "serve.mean_batch",
        requests / (after.batches - before.batches).max(1) as f64,
    );
    out.set(
        "serve.cache_hit_ratio",
        (after.cache_hits - before.cache_hits) as f64 / requests.max(1.0),
    );
    let us = |v: &[u64]| stats::median(&v.iter().map(|&ns| ns as f64 / 1e3).collect::<Vec<_>>());
    let offline_us = if mode == Mode::Fresh {
        encode + rank
    } else {
        rank
    };
    out.set("serve.overhead_p50_us", us(&log.submit_ns) - offline_us);
    if mode == Mode::Fresh {
        out.set("serve.ingest_p50_us", us(&log.ingest_ns));
    }
    crate::drain_program_spans(out);
    crate::layer_shares(out, &spans, CLIENTS);
}
