//! `train`: fit MBMISSL on a small taobao-like log for a fixed number of
//! epochs with per-epoch validation and a checkpoint save — the steps
//! `mbssl train` takes. The autograd model, kernels, allocator and
//! trainer do nearly all the work; `infer`, `ann` and `serve` do none.
//!
//! One operation is one training sample. A round is one whole fit from a
//! fresh model plus its checkpoint save. Traced runs cycle three kinds
//! of round: an untraced fit (the baseline for the tracing overhead and
//! the source of the throughput, core and allocator figures), a fit with
//! the program's own telemetry and the benchmark's spans on (prefetch
//! wait, step time, GEMM share), and a step loop written here from the
//! trainer's public pieces with a span around each call (batch
//! preparation, forward, backward, optimizer, evaluation). That loop
//! must reproduce the fit's per-epoch losses bit for bit.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mbssl_core::{evaluate, BehaviorSchema, Mbmissl, ModelConfig, SequentialRecommender};
use mbssl_core::{TrainConfig, TrainableRecommender, Trainer};
use mbssl_data::sampler::{BatchIterator, EvalCandidates};
use mbssl_data::synthetic::SyntheticConfig;
use mbssl_data::{ItemId, Sequence};
use mbssl_tensor::optim::{clip_grad_norm, Adam, Optimizer};

use crate::data::{self, Loaded};
use crate::host::{self, HostNoise};
use crate::{checks, stats, trace, Outcome, RunConfig};

/// Epochs per fit.
const EPOCHS: usize = 2;
/// Size of the taobao-like log relative to its preset (1200 users).
const SCALE: f64 = 0.15;
/// Training instances kept: three full batches of `mbssl train`'s 128,
/// so every seed fits the same number of equally sized steps.
const TRAIN_INSTANCES: usize = 384;

/// The `mbssl train` model at its CLI defaults (`--dim 32 --interests 4`).
pub fn model_config(seed: u64) -> ModelConfig {
    ModelConfig {
        dim: 32,
        heads: 2,
        num_layers: 1,
        ffn_hidden: 64,
        num_interests: 4,
        extractor_hidden: 32,
        seed,
        ..ModelConfig::default()
    }
}

/// `mbssl train`'s loop options for `epochs` epochs, never stopping early.
pub fn train_config(seed: u64, epochs: usize) -> TrainConfig {
    TrainConfig {
        epochs,
        patience: epochs,
        seed,
        ..TrainConfig::default()
    }
}

pub fn schema(loaded: &Loaded) -> BehaviorSchema {
    BehaviorSchema::new(
        loaded.dataset.behaviors.clone(),
        loaded.dataset.target_behavior,
    )
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Round {
    /// `Trainer::fit`, nothing traced.
    Fit,
    /// `Trainer::fit` with the program's telemetry and our spans on.
    TracedFit,
    /// The step loop with a span around each call.
    Steps,
}

struct RoundResult {
    kind: Round,
    wall_s: f64,
    cpu_s: f64,
    samples: u64,
    /// Wall seconds of `Trainer::fit` alone (validation included, the
    /// checkpoint save not); 0 for the step loop.
    fit_s: f64,
    losses: Vec<f32>,
    ndcg: Vec<f64>,
    alloc: (u64, u64),
    pool: (u64, u64),
    model: Mbmissl,
}

pub fn run(cfg: &RunConfig, host: &HostNoise) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let synth = SyntheticConfig::taobao_like(cfg.seed).scaled(SCALE);
    let (tsv, mbds, ckpt) = (
        cfg.dir.join("log.tsv"),
        cfg.dir.join("log.mbds"),
        cfg.dir.join("model.ckpt"),
    );
    let (loaded, setup_s) = crate::repeat_setup(host, || {
        data::write_tsv(&synth, &tsv).map_err(|e| format!("writing {}: {e}", tsv.display()))?;
        let mut loaded = data::load(&tsv, &mbds, synth.target_behavior)?;
        if loaded.split.train.len() < TRAIN_INSTANCES || loaded.split.val.is_empty() {
            return Err(format!(
                "the generated log has {} training instances, {TRAIN_INSTANCES} needed",
                loaded.split.train.len()
            ));
        }
        loaded.split.train.truncate(TRAIN_INSTANCES);
        Ok(loaded)
    })?;
    out.set("setup_s", setup_s);
    let schema = schema(&loaded);
    let train_len = loaded.split.train.len();

    let phase = Instant::now();
    let cycle: &[Round] = if cfg.traced {
        &[Round::Fit, Round::TracedFit, Round::Steps]
    } else {
        &[Round::Fit]
    };
    let mut rounds: Vec<RoundResult> = Vec::new();
    while rounds.len() < cycle.len() || phase.elapsed().as_secs_f64() < cfg.seconds {
        let kind = cycle[rounds.len() % cycle.len()];
        rounds.push(round(kind, cfg.seed, &loaded, &schema, &ckpt)?);
    }
    let phase_s = phase.elapsed().as_secs_f64();

    // Checks: finite losses, reproducible fits, learning, checkpoint.
    for r in &rounds {
        let ok = checks::check_losses(&r.losses);
        if ok.is_err() {
            out.failed += r.samples;
        }
        out.check("training loss", ok);
        out.attempted += r.samples;
    }
    let first = &rounds[0];
    for r in &rounds[1..] {
        let same = r
            .losses
            .iter()
            .map(|l| l.to_bits())
            .eq(first.losses.iter().map(|l| l.to_bits()))
            && r.ndcg
                .iter()
                .map(|n| n.to_bits())
                .eq(first.ndcg.iter().map(|n| n.to_bits()));
        let what = if r.kind == Round::Steps {
            "step loop vs Trainer::fit"
        } else {
            "repeated fit"
        };
        out.check(
            what,
            if same {
                Ok(())
            } else {
                Err(format!(
                    "losses {:?} / NDCG {:?} vs {:?} / {:?}",
                    r.losses, r.ndcg, first.losses, first.ndcg
                ))
            },
        );
    }
    let val_ndcg10 = first.ndcg.last().copied().unwrap_or(0.0);
    let cands = EvalCandidates::build(&loaded.split.val, &loaded.sampler, 99, cfg.seed ^ 0x5eed);
    let untrained = Mbmissl::new(
        loaded.dataset.num_items,
        schema.clone(),
        model_config(cfg.seed),
    );
    let untrained_ndcg = evaluate(&untrained, &loaded.split.val, &cands, 128)
        .aggregate()
        .ndcg10;
    out.check(
        "validation NDCG@10",
        checks::check_ndcg(val_ndcg10, untrained_ndcg, checks::random_ndcg10(99)),
    );
    let last = &rounds.last().expect("at least one round").model;
    let reloaded = Mbmissl::new(
        loaded.dataset.num_items,
        schema.clone(),
        model_config(cfg.seed),
    );
    trace::timed("tensor.ckpt_load", || reloaded.load(&ckpt))
        .map_err(|e| format!("loading {}: {e}", ckpt.display()))?;
    out.check(
        "checkpoint save→load",
        same_scores(last, &reloaded, &loaded, &cands),
    );

    // End-to-end figures (from untraced fits).
    let fits: Vec<&RoundResult> = rounds.iter().filter(|r| r.kind == Round::Fit).collect();
    out.set("peak_rss_mb", host::peak_rss_mb());
    let cpu_ms: Vec<f64> = fits
        .iter()
        .map(|r| 1e3 * r.cpu_s / r.samples as f64)
        .collect();
    out.set("cpu_ms_per_op", stats::median(&cpu_ms));
    eprintln!(
        "perfbench: train: {} rounds over {phase_s:.1}s, {train_len} train / {} val instances, {} items, val NDCG@10 {val_ndcg10:.4} (untrained {untrained_ndcg:.4})",
        rounds.len(),
        loaded.split.val.len(),
        loaded.dataset.num_items
    );

    if cfg.traced {
        layer_metrics(&mut out, &rounds, &loaded, val_ndcg10);
    }
    Ok(out)
}

/// The trained and the reloaded model score the validation candidates
/// identically, bit for bit.
fn same_scores(
    a: &Mbmissl,
    b: &Mbmissl,
    loaded: &Loaded,
    cands: &EvalCandidates,
) -> Result<(), String> {
    let n = loaded.split.val.len().min(256);
    let histories: Vec<&Sequence> = loaded.split.val[..n].iter().map(|i| &i.history).collect();
    let lists: Vec<&[ItemId]> = cands.lists[..n].iter().map(Vec::as_slice).collect();
    let bits = |m: &Mbmissl| -> Vec<u32> {
        mbssl_tensor::no_grad(|| m.score_batch(&histories, &lists))
            .concat()
            .iter()
            .map(|s| s.to_bits())
            .collect()
    };
    if bits(a) == bits(b) {
        Ok(())
    } else {
        Err("reloaded checkpoint scores differ from the trained model".into())
    }
}

fn round(
    kind: Round,
    seed: u64,
    loaded: &Loaded,
    schema: &BehaviorSchema,
    ckpt: &std::path::Path,
) -> Result<RoundResult, String> {
    let model = Mbmissl::new(loaded.dataset.num_items, schema.clone(), model_config(seed));
    // Untraced fits stay untraced in traced runs too: they are the
    // baseline the tracing overhead is measured against.
    let traced_run = trace::enabled();
    trace::set_enabled(traced_run && kind != Round::Fit);
    let alloc0 = mbssl_tensor::alloc::stats();
    let pool0 = mbssl_tensor::pool::stats();
    let cpu0 = host::cpu_seconds();
    let t0 = Instant::now();
    let (losses, ndcg, fit_s) = match kind {
        Round::Fit | Round::TracedFit => {
            let traced = kind == Round::TracedFit;
            if traced {
                mbssl_telemetry::set_mode(mbssl_telemetry::TraceMode::Summary);
            }
            let fit = Instant::now();
            let report = {
                let _sp = trace::span("bench.fit");
                Trainer::new(train_config(seed, EPOCHS)).fit(&model, &loaded.split, &loaded.sampler)
            };
            let fit_s = fit.elapsed().as_secs_f64();
            if traced {
                mbssl_telemetry::set_mode(mbssl_telemetry::TraceMode::Off);
            }
            let h = &report.history;
            (
                h.iter().map(|e| e.train_loss).collect(),
                h.iter().map(|e| e.val_ndcg10.unwrap_or(0.0)).collect(),
                fit_s,
            )
        }
        Round::Steps => {
            let _sp = trace::span("bench.round");
            let (losses, ndcg) = step_loop(&model, loaded, seed);
            (losses, ndcg, 0.0)
        }
    };
    trace::timed("tensor.ckpt_save", || model.save(ckpt))
        .map_err(|e| format!("saving {}: {e}", ckpt.display()))?;
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = host::cpu_seconds() - cpu0;
    trace::set_enabled(traced_run);
    let alloc1 = mbssl_tensor::alloc::stats();
    let pool1 = mbssl_tensor::pool::stats();
    Ok(RoundResult {
        kind,
        wall_s,
        cpu_s,
        samples: EPOCHS as u64 * loaded.split.train.len() as u64,
        fit_s,
        losses,
        ndcg,
        alloc: (alloc1.hits - alloc0.hits, alloc1.misses - alloc0.misses),
        pool: (pool1.1 - pool0.1, (pool1.0 + pool1.1) - (pool0.0 + pool0.1)),
        model,
    })
}

/// `Trainer::fit` without prefetch, early stopping or best-epoch
/// restore, written from the trainer's public pieces so each call can
/// be timed. Draws the data and graph RNG streams exactly as the
/// trainer does, so its per-epoch losses and validation NDCG equal the
/// fit's. Returns `(mean loss, validation NDCG@10)` per epoch.
fn step_loop(model: &Mbmissl, loaded: &Loaded, seed: u64) -> (Vec<f32>, Vec<f64>) {
    let cfg = train_config(seed, EPOCHS);
    let (split, sampler) = (&loaded.split, &loaded.sampler);
    let num_negatives = cfg.num_negatives.min(sampler.num_items().saturating_sub(2));
    let params = model.params();
    let mut opt = Adam::new(params.clone(), cfg.lr);
    let cands = EvalCandidates::build(&split.val, sampler, cfg.eval_negatives, cfg.seed ^ 0x5eed);
    let mut data_rng = StdRng::seed_from_u64(cfg.seed);
    let (mut losses, mut ndcg) = (Vec::new(), Vec::new());
    for _ in 0..cfg.epochs {
        let mut iter = BatchIterator::new(&split.train, cfg.batch_size, &mut data_rng);
        let (mut sum, mut batches) = (0.0f32, 0usize);
        while let Some(chunk) = iter.next_chunk() {
            let prepared = trace::timed("data.prepare_batch", || {
                model.prepare_batch(&chunk, sampler, num_negatives, &mut data_rng)
            });
            let mut graph_rng = StdRng::seed_from_u64(data_rng.gen());
            let _step = trace::span("trainer.step");
            opt.zero_grad();
            let loss = trace::timed("model.forward", || {
                model.loss_on_prepared(&prepared, sampler, num_negatives, &mut graph_rng)
            });
            sum += loss.item();
            batches += 1;
            trace::timed("model.backward", || loss.backward());
            trace::timed("trainer.optim", || {
                clip_grad_norm(&params, cfg.clip_norm);
                opt.step();
            });
        }
        losses.push(if batches > 0 {
            sum / batches as f32
        } else {
            0.0
        });
        let m = trace::timed("eval.evaluate", || {
            evaluate(model, &split.val, &cands, cfg.batch_size).aggregate()
        });
        ndcg.push(m.ndcg10);
    }
    (losses, ndcg)
}

fn layer_metrics(out: &mut Outcome, rounds: &[RoundResult], loaded: &Loaded, val_ndcg10: f64) {
    let spans = trace::spans();
    let p50 = |name: &str| stats::median(&trace::durations_ms(&spans, name));
    let of =
        |kind: Round| -> Vec<&RoundResult> { rounds.iter().filter(|r| r.kind == kind).collect() };
    let (fits, traced) = (of(Round::Fit), of(Round::TracedFit));
    for (name, span) in [
        ("data.synth_s", "data.synth"),
        ("data.convert_s", "data.convert"),
    ] {
        out.set(name, p50(span) / 1e3);
    }
    for (name, span) in [
        ("data.open_ms", "data.open"),
        ("data.materialize_ms", "data.materialize"),
        ("data.split_ms", "data.split"),
        ("data.sampler_ms", "data.sampler"),
        ("data.prepare_batch_p50_ms", "data.prepare_batch"),
        ("model.forward_p50_ms", "model.forward"),
        ("model.backward_p50_ms", "model.backward"),
        ("trainer.optim_p50_ms", "trainer.optim"),
        ("tensor.ckpt_save_ms", "tensor.ckpt_save"),
        ("tensor.ckpt_load_ms", "tensor.ckpt_load"),
    ] {
        out.set(name, p50(span));
    }
    let eval_s = p50("eval.evaluate") / 1e3;
    if eval_s > 0.0 {
        out.set("eval.users_per_s", loaded.split.val.len() as f64 / eval_s);
    }
    let wall =
        |rs: &[&RoundResult]| stats::median(&rs.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    out.set(
        "train_samples_per_s",
        stats::median(
            &fits
                .iter()
                .map(|r| r.samples as f64 / r.fit_s)
                .collect::<Vec<_>>(),
        ),
    );
    out.set(
        "trainer.cores_used",
        stats::median(&fits.iter().map(|r| r.cpu_s / r.wall_s).collect::<Vec<_>>()),
    );
    let (hits, misses) = fits
        .iter()
        .fold((0, 0), |a, r| (a.0 + r.alloc.0, a.1 + r.alloc.1));
    out.set(
        "tensor.alloc_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    let (inline, jobs) = fits
        .iter()
        .fold((0, 0), |a, r| (a.0 + r.pool.0, a.1 + r.pool.1));
    out.set(
        "tensor.pool_inline_ratio",
        inline as f64 / jobs.max(1) as f64,
    );
    out.set(
        "telemetry.overhead_pct",
        100.0 * (wall(&traced) / wall(&fits) - 1.0),
    );
    out.set("val_ndcg10", val_ndcg10);

    // The program's own spans from the traced fits.
    let program = crate::drain_program_spans(out);
    let total = |pred: &dyn Fn(&mbssl_telemetry::LabelStats) -> bool| -> u64 {
        program.iter().filter(|r| pred(r)).map(|r| r.total_ns).sum()
    };
    let busiest = |label: &str| {
        program
            .iter()
            .filter(|r| r.label == label)
            .max_by_key(|r| r.count)
    };
    if let Some(step) = busiest("trainer.train_step") {
        out.set("train_step_p50_ms", step.p50_ns as f64 / 1e6);
    }
    if let Some(wait) = busiest("trainer.prefetch_wait") {
        out.set("trainer.prefetch_wait_p50_ms", wait.p50_ns as f64 / 1e6);
    }
    let step_ns = total(&|r| r.label == "trainer.train_step");
    let gemm_ns = total(&|r| {
        r.label.starts_with("kernel.gemm")
            && !r.parent.starts_with("eval")
            && !r.parent.starts_with("infer")
    });
    if step_ns > 0 {
        out.set("tensor.gemm_share", gemm_ns as f64 / step_ns as f64);
    }
    crate::layer_shares(out, &spans, 1);
}
