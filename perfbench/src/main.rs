//! `perfbench` — the mbssl benchmark: one command, four workloads.
//!
//! ```text
//! perfbench --workload <train|serve_fresh|serve_hot|ingest> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run builds its inputs from the seed, sets up, measures whole
//! rounds of its operation for at least `--seconds`, checks the
//! program's outputs and
//! prints one JSON line last: `{"correct", "attempted", "failed",
//! "metrics"}`. `--trace 0` reports the end-to-end metrics, `--trace 1`
//! the per-layer ones and writes the spans to `perfbench/out/`. A line
//! before it, `{"host": ...}`, records the host steal share, load,
//! `nproc` and git revision of the run; the same record is appended to
//! `perfbench/out/runs.jsonl`. See README.md for the workloads and what
//! each metric means.

mod checks;
mod data;
mod host;
mod ingest;
mod metrics;
mod serve;
mod stats;
mod trace;
mod train;

use std::collections::BTreeMap;
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use metrics::{Kind, METRICS};

/// `train` and `ingest`, whose set-up is only input synthesis and
/// conversion (tens to hundreds of milliseconds), build it at least
/// [`MIN_SETUPS`] times and keep building until [`SETUP_BUDGET_S`] has
/// passed (at most [`MAX_SETUPS`] times); their `setup_s` is the median.
/// The serve workloads set up once: their `setup_s` is the single span
/// from process start to the first timed operation.
pub const MIN_SETUPS: usize = 3;
pub const MAX_SETUPS: usize = 15;
pub const SETUP_BUDGET_S: f64 = 1.0;

/// One run's parameters.
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Scratch directory for this run's files, removed at the end.
    pub dir: PathBuf,
}

/// What a workload measured and found.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks; any makes the run incorrect.
    pub problems: Vec<String>,
    /// Measured metric values by name (end-to-end and per-layer).
    pub values: BTreeMap<&'static str, f64>,
    /// Extra JSONL records for the trace file (program span edges).
    pub trace_extra: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(metrics::def(name).is_some(), "unknown metric {name}");
        self.values.insert(name, value);
    }

    /// Records a check's result.
    pub fn check(&mut self, what: &str, result: Result<(), String>) {
        if let Err(e) = result {
            self.problems.push(format!("{what}: {e}"));
        }
    }
}

/// Runs `setup` repeatedly (see [`MIN_SETUPS`]), keeping the last
/// result, and returns it with the median set-up time in seconds. The
/// first set-up is charged from process start.
pub fn repeat_setup<T>(
    host: &host::HostNoise,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < MIN_SETUPS
        || (host.elapsed_s() < SETUP_BUDGET_S && times.len() < MAX_SETUPS)
    {
        let before = if times.is_empty() {
            0.0
        } else {
            host.elapsed_s()
        };
        drop(last.take()); // free the previous set-up before building the next
        let _sp = trace::span("bench.setup");
        last = Some(setup()?);
        times.push(host.elapsed_s() - before);
    }
    Ok((last.expect("at least one set-up"), stats::median(&times)))
}

/// Share of the traced rounds' wall time covered by named layers, and
/// each layer's self time as a share of it. Rounds are the `bench.round`
/// spans; `lanes` threads do the round's work concurrently.
pub fn layer_shares(out: &mut Outcome, spans: &[trace::SpanRec], lanes: usize) {
    let rounds: Vec<&trace::SpanRec> = spans.iter().filter(|s| s.name == "bench.round").collect();
    let wall: u64 = rounds.iter().map(|s| s.dur_ns()).sum::<u64>() * lanes as u64;
    let mut layers: BTreeMap<String, u64> = BTreeMap::new();
    for r in &rounds {
        for (layer, ns) in trace::layer_self_ns(spans, r.start_ns, r.end_ns) {
            *layers.entry(layer).or_default() += ns;
        }
    }
    let pct = |ns: u64| {
        if wall == 0 {
            0.0
        } else {
            100.0 * ns as f64 / wall as f64
        }
    };
    out.set("trace.covered_pct", pct(layers.values().sum()));
    for d in METRICS {
        if let Some(layer) = d.name.strip_suffix(".self_pct") {
            out.set(d.name, pct(layers.get(layer).copied().unwrap_or(0)));
        }
    }
    for (layer, ns) in &layers {
        out.trace_extra.push(format!(
            "{{\"kind\":\"layer\",\"layer\":\"{layer}\",\"self_ns\":{ns},\"self_pct\":{:.4}}}",
            pct(*ns)
        ));
    }
}

/// The program's own spans (mbssl-telemetry), drained as JSONL records
/// for the trace file, plus the drained records themselves.
pub fn drain_program_spans(out: &mut Outcome) -> Vec<mbssl_telemetry::LabelStats> {
    mbssl_telemetry::set_mode(mbssl_telemetry::TraceMode::Summary);
    let records = mbssl_telemetry::drain();
    mbssl_telemetry::set_mode(mbssl_telemetry::TraceMode::Off);
    for r in &records {
        out.trace_extra
            .push(mbssl_telemetry::record_to_jsonl(r, "program"));
    }
    records
}

fn parse_args() -> Result<RunConfig, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == key)
            .ok_or(format!("missing {key}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{key} needs a value"))
    };
    let workload = get("--workload")?.to_string();
    if !["train", "serve_fresh", "serve_hot", "ingest"].contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (train | serve_fresh | serve_hot | ingest)"
        ));
    }
    let seed: u64 = get("--seed")?.parse().map_err(|_| "bad --seed")?;
    let seconds: f64 = get("--seconds")?.parse().map_err(|_| "bad --seconds")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let traced = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    let dir = out_dir().join(format!("{workload}-s{seed}-p{}", std::process::id()));
    Ok(RunConfig {
        workload,
        seed,
        seconds,
        traced,
        dir,
    })
}

/// `perfbench/out/`, next to this package's manifest.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn main() -> ExitCode {
    let host = host::HostNoise::start();
    // The benchmark measures the program at its defaults: no runtime
    // switch inherited from the caller's environment may change the path
    // it takes. Done before any thread exists.
    let inherited: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("MBSSL_"))
        .collect();
    for key in inherited {
        std::env::remove_var(key);
    }
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&cfg.dir) {
        eprintln!("perfbench: creating {}: {e}", cfg.dir.display());
        return ExitCode::FAILURE;
    }
    trace::set_enabled(cfg.traced);
    let started = Instant::now();
    let result = match cfg.workload.as_str() {
        "train" => train::run(&cfg, &host),
        "serve_fresh" => serve::run(&cfg, &host, serve::Mode::Fresh),
        "serve_hot" => serve::run(&cfg, &host, serve::Mode::Hot),
        _ => ingest::run(&cfg, &host),
    };
    trace::set_enabled(false);
    std::fs::remove_dir_all(&cfg.dir).ok();
    let mut out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", cfg.workload);
            return ExitCode::FAILURE;
        }
    };
    let (steal_pct, host_line) = host.finish();
    out.set("host.steal_pct", steal_pct);
    eprintln!(
        "perfbench: {} seed {} ran {:.1}s",
        cfg.workload,
        cfg.seed,
        started.elapsed().as_secs_f64()
    );
    for p in &out.problems {
        eprintln!("perfbench: CHECK FAILED: {p}");
    }

    let kind = if cfg.traced {
        Kind::Layer
    } else {
        Kind::EndToEnd
    };
    let mut fields = Vec::new();
    for d in METRICS.iter().filter(|d| d.kind == kind) {
        let value = match out.values.get(d.name) {
            Some(v) => *v,
            None if kind == Kind::Layer => 0.0, // layer not exercised here
            None => {
                eprintln!("perfbench: {} did not measure {}", cfg.workload, d.name);
                return ExitCode::FAILURE;
            }
        };
        let value = if value.is_finite() { value } else { 0.0 };
        fields.push(format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            d.name, d.unit
        ));
    }
    let result_line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.problems.is_empty(),
        out.attempted,
        out.failed,
        fields.join(", ")
    );
    let host_record = format!(
        "{{\"host\": {host_line}, \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}}}",
        cfg.workload, cfg.seed, cfg.seconds, cfg.traced as u8
    );
    if cfg.traced {
        let path = out_dir().join(format!("trace-{}-s{}.jsonl", cfg.workload, cfg.seed));
        let mut extra = out.trace_extra.clone();
        extra.push(host_record.clone());
        match trace::write_jsonl(&path, &trace::spans(), &extra) {
            Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
    }
    let log = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(out_dir().join("runs.jsonl"));
    if let Ok(mut log) = log {
        let _ = writeln!(log, "{{\"run\": {host_record}, \"result\": {result_line}}}");
    }
    println!("{host_record}");
    println!("{result_line}");
    ExitCode::SUCCESS
}
