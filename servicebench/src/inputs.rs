//! Workload inputs, all generated by `efes-synth` from the run's seed
//! and serialised into `POST /scenarios` documents before any timing.

use efes_ingest::{DatabaseUpload, ScenarioUpload, UploadFormat};
use efes_relational::{Column, IntegrationScenario};
use efes_synth::{generate, SynthConfig};

/// One generated scenario shape (see `efes_synth::ShapeKnobs`).
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub tables: usize,
    pub payload_attrs: usize,
    pub rows: usize,
    pub fanout: usize,
}

/// How large the inputs are and how often set-up repeats.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// The tall shape shared by `tall_cold` and `tall_append`.
    pub tall: Shape,
    /// The many-tables shape of `wide_schema`.
    pub wide: Shape,
    /// Distinct scenarios `tall_cold` cycles through.
    pub cold_pool: usize,
    /// Extension uploads in one `tall_append` chain before the base is
    /// re-uploaded; each adds 1% of the full row count.
    pub append_steps: usize,
    /// Set-up repetitions per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Seconds of operations run, checked but unmeasured, before the
    /// measured loop starts: the first operations after a set-up run
    /// slower while the allocator's heap grows to its working size.
    pub warmup_seconds: f64,
    /// Cap on measured operations (the smoke mode's few operations).
    pub max_ops: Option<usize>,
    /// Passes of the traced replay over the workload's inputs.
    pub replay_rounds: usize,
}

impl Scale {
    pub fn full() -> Scale {
        Scale {
            tall: Shape {
                tables: 2,
                payload_attrs: 3,
                rows: 50_000,
                fanout: 2,
            },
            wide: Shape {
                tables: 40,
                payload_attrs: 10,
                rows: 200,
                fanout: 1,
            },
            cold_pool: 2,
            append_steps: 8,
            setup_reps: 5,
            warmup_seconds: 3.0,
            max_ops: None,
            replay_rounds: 2,
        }
    }

    /// Tiny inputs and a few operations: checks the plumbing and the
    /// emitted metric names, not performance.
    pub fn smoke() -> Scale {
        Scale {
            tall: Shape {
                tables: 2,
                payload_attrs: 3,
                rows: 400,
                fanout: 2,
            },
            wide: Shape {
                tables: 6,
                payload_attrs: 4,
                rows: 40,
                fanout: 1,
            },
            cold_pool: 2,
            append_steps: 2,
            setup_reps: 2,
            warmup_seconds: 1e-3,
            max_ops: Some(3),
            replay_rounds: 1,
        }
    }
}

/// One scenario version as the client uploads it.
pub struct Version {
    /// Registry name the document uploads under.
    pub name: String,
    /// The serialised upload document.
    pub doc: String,
}

impl Version {
    /// The scenario exactly as the server holds it after the upload:
    /// the same document through the same parser.
    pub fn scenario(&self) -> IntegrationScenario {
        ScenarioUpload::parse(self.doc.as_bytes())
            .and_then(ScenarioUpload::into_scenario)
            .expect("generated upload documents parse")
    }
}

/// A sub-seed per generated input, so inputs differ from each other but
/// depend only on the run's seed.
fn sub_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn upload_of(shape: Shape, seed: u64, name: &str) -> ScenarioUpload {
    let mut cfg = SynthConfig::default().with_seed(seed).with_rows(shape.rows);
    cfg.shape.tables = shape.tables;
    cfg.shape.payload_attrs = shape.payload_attrs;
    cfg.shape.fanout = shape.fanout;
    let mut upload =
        ScenarioUpload::from_scenario(&generate(&cfg).scenario, UploadFormat::JsonRows);
    upload.name = name.to_owned();
    upload
}

fn version(upload: &ScenarioUpload) -> Version {
    Version {
        name: upload.name.clone(),
        doc: serde_json::to_string(upload).expect("upload documents serialise"),
    }
}

/// `count` independent scenarios of `shape`, named `{prefix}-{i}`.
pub fn pool(shape: Shape, seed: u64, prefix: &str, count: usize) -> Vec<Version> {
    (0..count)
        .map(|i| {
            version(&upload_of(
                shape,
                sub_seed(seed, i as u64),
                &format!("{prefix}-{i}"),
            ))
        })
        .collect()
}

/// A chain of `steps + 1` versions of one scenario, each an exact row
/// prefix of the next: version `k` keeps `100 - (steps - k)` percent of
/// every table's rows, so each step appends ~1% of the full size.
pub fn append_chain(shape: Shape, seed: u64, name: &str, steps: usize) -> Vec<Version> {
    let full = upload_of(shape, sub_seed(seed, 0), name);
    (0..=steps)
        .map(|k| {
            let keep = 1.0 - 0.01 * (steps - k) as f64;
            let mut upload = full.clone();
            for db in upload
                .sources
                .iter_mut()
                .chain(std::iter::once(&mut upload.target))
            {
                truncate(db, keep);
            }
            version(&upload)
        })
        .collect()
}

fn truncate(db: &mut DatabaseUpload, keep: f64) {
    for table in &mut db.tables {
        for column in &mut table.columns {
            let rows = (column.len() as f64 * keep).floor() as usize;
            *column = Column::from_cells((0..rows).map(|i| column.value(i).to_value()).collect());
        }
    }
}
