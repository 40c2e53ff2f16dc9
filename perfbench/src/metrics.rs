//! Every metric the benchmark reports, with its unit and better
//! direction. `BENCHMARK.json` lists the same names (a unit test keeps
//! the two in step).

/// Where a metric is reported.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// Untraced runs (`--trace 0`); every workload reports it.
    EndToEnd,
    /// Traced runs (`--trace 1`); 0 on a workload that does not exercise
    /// the layer.
    Layer,
}

pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    /// Read by the test that keeps `BENCHMARK.json` in step.
    #[allow(dead_code)]
    pub better: &'static str,
    pub kind: Kind,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    Def {
        name,
        unit,
        better,
        kind: Kind::EndToEnd,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    Def {
        name,
        unit,
        better,
        kind: Kind::Layer,
    }
}

pub const METRICS: &[Def] = &[
    e2e("setup_s", "s", "lower"),
    e2e("peak_rss_mb", "MB", "lower"),
    e2e("cpu_ms_per_op", "ms", "lower"),
    // Workload-specific figures of the user-facing results.
    layer("train_step_p50_ms", "ms", "lower"),
    layer("train_samples_per_s", "1/s", "higher"),
    layer("val_ndcg10", "ratio", "higher"),
    layer("latency_p50_ms", "ms", "lower"),
    layer("latency_p99_ms", "ms", "lower"),
    layer("qps", "1/s", "higher"),
    layer("recall10", "ratio", "higher"),
    layer("ingest_events_per_s", "1/s", "higher"),
    // Data layer.
    layer("data.synth_s", "s", "lower"),
    layer("data.convert_s", "s", "lower"),
    layer("data.open_ms", "ms", "lower"),
    layer("data.materialize_ms", "ms", "lower"),
    layer("data.split_ms", "ms", "lower"),
    layer("data.sampler_ms", "ms", "lower"),
    layer("data.prepare_batch_p50_ms", "ms", "lower"),
    // Model, trainer, kernels and evaluation.
    layer("trainer.prefetch_wait_p50_ms", "ms", "lower"),
    layer("model.forward_p50_ms", "ms", "lower"),
    layer("model.backward_p50_ms", "ms", "lower"),
    layer("trainer.optim_p50_ms", "ms", "lower"),
    layer("trainer.cores_used", "cores", "higher"),
    layer("tensor.alloc_hit_ratio", "ratio", "higher"),
    layer("tensor.pool_inline_ratio", "ratio", "lower"),
    layer("tensor.gemm_share", "ratio", "higher"),
    layer("eval.users_per_s", "1/s", "higher"),
    layer("tensor.ckpt_save_ms", "ms", "lower"),
    layer("tensor.ckpt_load_ms", "ms", "lower"),
    // Inference engine and index.
    layer("infer.compile_ms", "ms", "lower"),
    layer("ann.build_ms", "ms", "lower"),
    layer("ann.save_ms", "ms", "lower"),
    layer("ann.load_ms", "ms", "lower"),
    layer("infer.encode_p50_us", "us", "lower"),
    layer("infer.rank_p50_us", "us", "lower"),
    layer("infer.rank_exhaustive_p50_us", "us", "lower"),
    layer("ann.candidates_per_query", "count", "lower"),
    layer("ann.useful_ratio", "ratio", "higher"),
    layer("ann.list_imbalance", "ratio", "lower"),
    // Serving.
    layer("serve.queue_p50_us", "us", "lower"),
    layer("serve.queue_p99_us", "us", "lower"),
    layer("serve.forward_p50_us", "us", "lower"),
    layer("serve.forward_p99_us", "us", "lower"),
    layer("serve.rank_p50_us", "us", "lower"),
    layer("serve.rank_p99_us", "us", "lower"),
    layer("serve.reply_p50_us", "us", "lower"),
    layer("serve.mean_batch", "count", "higher"),
    layer("serve.cache_hit_ratio", "ratio", "higher"),
    layer("serve.overhead_p50_us", "us", "lower"),
    layer("serve.ingest_p50_us", "us", "lower"),
    // Tracing itself and where the timed phase went.
    layer("telemetry.overhead_pct", "%", "lower"),
    layer("trace.covered_pct", "%", "higher"),
    layer("data.self_pct", "%", "lower"),
    layer("model.self_pct", "%", "lower"),
    layer("trainer.self_pct", "%", "lower"),
    layer("eval.self_pct", "%", "lower"),
    layer("serve.self_pct", "%", "lower"),
    layer("host.steal_pct", "%", "lower"),
];

/// Looks a metric up by name.
pub fn def(name: &str) -> Option<&'static Def> {
    METRICS.iter().find(|d| d.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::value::Value;

    fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
        match v {
            Value::Obj(pairs) => &pairs.iter().find(|(k, _)| k == key).expect(key).1,
            _ => panic!("not an object"),
        }
    }

    fn text(v: &Value) -> &str {
        match v {
            Value::Str(s) => s,
            _ => panic!("not a string"),
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc: Value = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        for (key, kind) in [("end_to_end", Kind::EndToEnd), ("per_layer", Kind::Layer)] {
            let Value::Arr(listed) = field(&doc, key) else {
                panic!("{key} is not a list")
            };
            let ours: Vec<&Def> = METRICS.iter().filter(|d| d.kind == kind).collect();
            assert_eq!(listed.len(), ours.len(), "{key} length");
            for (entry, d) in listed.iter().zip(ours) {
                assert_eq!(text(field(entry, "name")), d.name);
                assert_eq!(text(field(entry, "unit")), d.unit, "{}", d.name);
                assert_eq!(text(field(entry, "better")), d.better, "{}", d.name);
            }
        }
    }

    #[test]
    fn names_are_unique() {
        for (i, d) in METRICS.iter().enumerate() {
            assert!(
                METRICS[i + 1..].iter().all(|o| o.name != d.name),
                "{}",
                d.name
            );
        }
    }
}
