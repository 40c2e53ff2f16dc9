//! Input synthesis and the data pipeline every workload starts from:
//! generated log → TSV → `.mbds` → dataset → leave-one-out split →
//! negative sampler.

use std::io::Write;
use std::path::Path;

use mbssl_data::format::MbdsFile;
use mbssl_data::preprocess::{
    convert_tsv_streaming, leave_one_out, ConvertReport, Split, SplitConfig,
};
use mbssl_data::sampler::NegativeSampler;
use mbssl_data::synthetic::SyntheticConfig;
use mbssl_data::{Behavior, Dataset, ItemId};

use crate::trace;

/// The k-core thresholds `mbssl convert` and `mbssl train` apply.
pub const K_USER: usize = 5;
pub const K_ITEM: usize = 3;

/// Streams the generator's log to `path` as a user-sorted TSV with the
/// per-user event index as timestamp (the layout `mbssl synth` writes).
/// Returns the number of events written.
pub fn write_tsv(config: &SyntheticConfig, path: &Path) -> std::io::Result<usize> {
    let _sp = trace::span("data.synth");
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    out.write_all(b"user\titem\tbehavior\ttimestamp\n")?;
    let mut events = 0usize;
    let mut err = None;
    config.for_each_user(|user, seq, _noise| {
        for (t, (&item, &b)) in seq.items.iter().zip(seq.behaviors.iter()).enumerate() {
            if err.is_none() {
                err = writeln!(out, "{user}\t{item}\t{}\t{t}", b.token()).err();
            }
            events += 1;
        }
    });
    if let Some(e) = err {
        return Err(e);
    }
    out.flush()?;
    Ok(events)
}

/// The generated events per user (raw item ids), regenerated from the
/// same config the TSV came from — the input of the ingest check.
pub fn raw_events(config: &SyntheticConfig) -> Vec<Vec<ItemId>> {
    let mut users = Vec::with_capacity(config.num_users);
    config.for_each_user(|_, seq, _| users.push(seq.items));
    users
}

/// Everything the data layer hands a first training step.
pub struct Loaded {
    pub report: ConvertReport,
    pub file: MbdsFile,
    pub dataset: Dataset,
    pub split: Split,
    pub sampler: NegativeSampler,
}

/// Converts `tsv` to `mbds`, opens and validates it, materializes the
/// dataset and builds the leave-one-out split and negative sampler —
/// the path `mbssl convert` + `mbssl train` take.
pub fn load(tsv: &Path, mbds: &Path, target: Behavior) -> Result<Loaded, String> {
    let report = trace::timed("data.convert", || {
        convert_tsv_streaming(tsv, mbds, target, K_USER, K_ITEM)
    })
    .map_err(|e| format!("converting {}: {e}", tsv.display()))?;
    let file = trace::timed("data.open", || MbdsFile::open(mbds))
        .map_err(|e| format!("opening {}: {e}", mbds.display()))?;
    let dataset = trace::timed("data.materialize", || file.to_dataset());
    let split = trace::timed("data.split", || {
        leave_one_out(&dataset, &SplitConfig::default())
    });
    let sampler = trace::timed("data.sampler", || NegativeSampler::from_dataset(&dataset));
    Ok(Loaded {
        report,
        file,
        dataset,
        split,
        sampler,
    })
}
