//! `ingest`: everything the data layer does before a first training
//! step, at scale. Set-up synthesizes a scale-regime log of about a
//! million events as a user-sorted TSV; each round streams it through
//! the `.mbds` converter (5/3 k-core), opens and validates the file,
//! materializes the dataset and builds the leave-one-out split and the
//! negative sampler. One operation is 1000 raw events.

use std::time::Instant;

use mbssl_data::synthetic::SyntheticConfig;
use mbssl_data::ItemId;

use crate::data::{self, Loaded, K_ITEM, K_USER};
use crate::host::{self, HostNoise};
use crate::{checks, stats, trace, Outcome, RunConfig};

/// Users in the scale-regime log (about 10.5 events each).
const USERS: usize = 100_000;

pub fn run(cfg: &RunConfig, host: &HostNoise) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let synth = SyntheticConfig::scale_regime(USERS, cfg.seed);
    let (tsv, mbds) = (cfg.dir.join("log.tsv"), cfg.dir.join("log.mbds"));
    let (events, setup_s) = crate::repeat_setup(host, || {
        data::write_tsv(&synth, &tsv).map_err(|e| format!("writing {}: {e}", tsv.display()))
    })?;
    out.set("setup_s", setup_s);
    let ops_per_round = (events / 1000) as u64;

    let phase = Instant::now();
    let mut round_cpu_s = Vec::new();
    let (mut traced_walls, mut plain_walls) = (Vec::new(), Vec::new());
    let mut last: Option<Loaded> = None;
    while (cfg.traced && plain_walls.len() + traced_walls.len() < 2)
        || phase.elapsed().as_secs_f64() < cfg.seconds
    {
        let traced = cfg.traced && traced_walls.len() <= plain_walls.len();
        trace::set_enabled(traced);
        drop(last.take()); // free the previous round's output first
        let (t, c) = (Instant::now(), host::cpu_seconds());
        let loaded = {
            let _sp = trace::span("bench.round");
            data::load(&tsv, &mbds, synth.target_behavior)?
        };
        let wall = t.elapsed().as_secs_f64();
        round_cpu_s.push(host::cpu_seconds() - c);
        if traced {
            traced_walls.push(wall)
        } else {
            plain_walls.push(wall)
        }
        last = Some(loaded);
    }
    trace::set_enabled(cfg.traced);
    let rounds = (traced_walls.len() + plain_walls.len()) as u64;
    out.attempted = rounds * ops_per_round;
    let loaded = last.expect("at least one round");

    // Checks against the benchmark's own k-core of the generated events.
    let report = &loaded.report;
    if report.events_in != events {
        out.problems.push(format!(
            "converter read {} events, {events} were written",
            report.events_in
        ));
    }
    let expected = checks::k_core(&data::raw_events(&synth), K_USER, K_ITEM);
    let converted: Vec<Vec<ItemId>> = loaded
        .dataset
        .sequences
        .iter()
        .map(|s| s.items.clone())
        .collect();
    out.check(
        "converted dataset vs own 5/3 k-core",
        checks::check_converted(&expected, &converted, loaded.dataset.num_items),
    );
    let file = &loaded.file;
    let header_ok = file.num_users() == expected.len()
        && file.num_events() == expected.iter().map(Vec::len).sum::<usize>()
        && file.num_items() == loaded.dataset.num_items;
    if !header_ok {
        out.problems.push(format!(
            ".mbds header says {} users / {} items / {} events",
            file.num_users(),
            file.num_items(),
            file.num_events()
        ));
    }
    out.check(
        "time order",
        checks::check_time_order(file.user_offsets(), file.timestamps()),
    );
    out.check("materialized dataset", loaded.dataset.validate());

    out.set("peak_rss_mb", host::peak_rss_mb());
    let cpu_ms: Vec<f64> = round_cpu_s
        .iter()
        .map(|c| 1e3 * c / ops_per_round as f64)
        .collect();
    out.set("cpu_ms_per_op", stats::median(&cpu_ms));
    eprintln!(
        "perfbench: ingest: {rounds} rounds of {events} events → {} users / {} items / {} events",
        file.num_users(),
        file.num_items(),
        file.num_events()
    );

    if cfg.traced {
        let spans = trace::spans();
        let p50 = |name: &str| stats::median(&trace::durations_ms(&spans, name));
        out.set("data.synth_s", p50("data.synth") / 1e3);
        out.set("data.convert_s", p50("data.convert") / 1e3);
        out.set("data.open_ms", p50("data.open"));
        out.set("data.materialize_ms", p50("data.materialize"));
        out.set("data.split_ms", p50("data.split"));
        out.set("data.sampler_ms", p50("data.sampler"));
        out.set(
            "ingest_events_per_s",
            events as f64 / stats::median(&plain_walls),
        );
        out.set(
            "telemetry.overhead_pct",
            100.0 * (stats::median(&traced_walls) / stats::median(&plain_walls) - 1.0),
        );
        crate::layer_shares(&mut out, &spans, 1);
    }
    Ok(out)
}
