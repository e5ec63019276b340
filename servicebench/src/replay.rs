//! The traced replay: the server-side work of a workload's operations,
//! re-run in process with a span around each call into a layer's public
//! API, on the same inputs and in the same cache state the service
//! sees.
//!
//! The spans sit in the benchmark, not in the program: `core.*` spans
//! wrap whole modules (`assess_with` + `plan_with`), and the `csg.*`
//! spans wrap a separate replay of the calls the structure module makes
//! (per source: conversion of target and source, relationship matching
//! and conflict detection once for assessment and once more for
//! planning, then repair planning). If the structure module changes the
//! calls it makes, the replay must follow in its own change; a
//! `trace.coverage` above 1 is the sign that it has not.

use crate::inputs::Version;
use crate::workload::{estimate_request, Workload};
use efes::modules::{MappingModule, StructureModule, ValueModule};
use efes::{
    AssessContext, EstimateResponse, EstimationConfig, EstimationModule, Estimator, ExecutionMode,
    ExecutionPolicy, ModuleSelection, Quality, ScenarioRegistry,
};
use efes_csg::{
    database_to_csg_ctx, detect_conflicts_ctx, match_relationships_with, plan_repairs,
    NodeCorrespondences,
};
use efes_exec::RunContext;
use efes_ingest::{DynamicRegistry, InsertOutcome, ScenarioUpload};
use efes_matching::{CombinedMatcher, MatcherConfig};
use efes_profiling::{DbTag, ProfileCache, ProfileKey};
use efes_relational::IntegrationScenario;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Accumulated span time (ms) and call count per span name.
#[derive(Debug, Default)]
pub struct Spans(BTreeMap<&'static str, (f64, u64)>);

impl Spans {
    fn time<T>(&mut self, name: &'static str, call: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = call();
        let entry = self.0.entry(name).or_default();
        entry.0 += started.elapsed().as_secs_f64() * 1e3;
        entry.1 += 1;
        out
    }

    fn add(&mut self, name: &'static str, value: f64) {
        let entry = self.0.entry(name).or_default();
        entry.0 += value;
        entry.1 += 1;
    }

    /// Total milliseconds (or total value) recorded under `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |e| e.0)
    }

    /// Number of calls recorded under `name`.
    pub fn calls(&self, name: &str) -> u64 {
        self.0.get(name).map_or(0, |e| e.1)
    }
}

/// What one replay did: its spans and how many operations of each kind
/// it replayed (the denominators of the per-operation metrics).
#[derive(Debug, Default)]
pub struct Replay {
    pub spans: Spans,
    pub uploads: usize,
    pub estimates: usize,
    pub matches: usize,
}

/// The cache a scenario's estimates meet on the server: uploaded
/// scenarios get a bounded, partial-retaining cache.
fn server_cache() -> Arc<ProfileCache> {
    Arc::new(ProfileCache::bounded(4096).retaining_partials())
}

fn config(quality: Quality) -> EstimationConfig {
    let mut config = EstimationConfig::for_quality(quality);
    config.execution = ExecutionPolicy::Sequential;
    config
}

/// A cache in the state a scenario has once it has been estimated.
fn warm_cache(scenario: &IntegrationScenario) -> Arc<ProfileCache> {
    let cache = server_cache();
    Estimator::with_selected_modules(config(Quality::HighQuality), ModuleSelection::all())
        .estimate_with_cache(scenario, Arc::clone(&cache))
        .expect("warming estimate");
    cache
}

impl Replay {
    /// Replay `workload`'s operations over its distinct inputs, `rounds`
    /// times over.
    pub fn run(workload: Workload, versions: &[Version], rounds: usize) -> Replay {
        let mut r = Replay::default();
        for _ in 0..rounds {
            r.round(workload, versions);
        }
        r
    }

    fn round(&mut self, workload: Workload, versions: &[Version]) {
        match workload {
            Workload::TallCold | Workload::WideSchema => {
                for v in versions {
                    let registry = registry();
                    let scenario = self.upload(v, &registry, false);
                    self.estimate(&scenario, &v.name, Quality::HighQuality, None);
                    if workload == Workload::WideSchema {
                        // The second estimate meets the profiles the
                        // first one cached.
                        let cache = warm_cache(&scenario);
                        self.estimate(&scenario, &v.name, Quality::LowEffort, Some(&cache));
                    }
                    self.matching(&scenario);
                }
            }
            Workload::TallAppend => {
                let registry = registry();
                let base = versions[0].scenario();
                registry
                    .insert(&versions[0].name, "", base)
                    .expect("base version inserts");
                for v in &versions[1..versions.len().min(3)] {
                    let scenario = self.upload(v, &registry, true);
                    // The server seeds the grown cache from retained
                    // partials, so the estimate meets every profile.
                    let cache = warm_cache(&scenario);
                    self.estimate(&scenario, &v.name, Quality::HighQuality, Some(&cache));
                    self.matching(&scenario);
                }
            }
        }
    }

    /// `POST /scenarios` without the HTTP: parse, then insert.
    fn upload(
        &mut self,
        v: &Version,
        registry: &DynamicRegistry,
        extends: bool,
    ) -> IntegrationScenario {
        self.uploads += 1;
        let upload = self.spans.time("ingest.parse", || {
            ScenarioUpload::parse(v.doc.as_bytes()).expect("generated documents parse")
        });
        let description = upload.description.clone();
        let scenario = self
            .spans
            .time("ingest.parse", || upload.into_scenario())
            .expect("generated documents assemble");
        let outcome = self.spans.time("ingest.insert", || {
            registry.insert(&v.name, &description, scenario.clone())
        });
        match outcome {
            Ok(InsertOutcome::Extended { .. }) if extends => {}
            Ok(InsertOutcome::Inserted { .. }) if !extends => {}
            other => panic!(
                "replayed upload of {} did not insert as the service does: {other:?}",
                v.name
            ),
        }
        scenario
    }

    /// `POST /match` without the HTTP.
    fn matching(&mut self, scenario: &IntegrationScenario) {
        self.matches += 1;
        let (_, stats) = self.spans.time("matching.propose", || {
            CombinedMatcher::new(MatcherConfig::default()).propose_attribute_matches_stats(
                &scenario.sources[0],
                &scenario.target,
                &ProfileCache::new(),
                ExecutionMode::Sequential,
            )
        });
        self.spans
            .add("matching.pairs_total", stats.pairs_total as f64);
        self.spans
            .add("matching.pairs_pruned", stats.pairs_pruned as f64);
    }

    /// One estimate: the real pipeline call for the wall time, then each
    /// layer's calls under spans. `warm` is the resident scenario's
    /// cache; `None` gives every replay a fresh one, as a new upload
    /// does.
    fn estimate(
        &mut self,
        scenario: &IntegrationScenario,
        name: &str,
        quality: Quality,
        warm: Option<&Arc<ProfileCache>>,
    ) {
        self.estimates += 1;
        let cache = || warm.map_or_else(server_cache, Arc::clone);
        let run = RunContext::unbounded();
        let config = config(quality);

        let estimator = Estimator::with_selected_modules(config.clone(), ModuleSelection::all());
        // One untimed run first, so the timed calls below all start from
        // a heap the pipeline has already grown (the first run after a
        // parse pays extra page faults that would bias the comparison).
        estimator
            .estimate_with_cache_ctx(scenario, cache(), run.clone())
            .expect("replayed estimate");
        let estimate = self
            .spans
            .time("trace.estimate", || {
                estimator.estimate_with_cache_ctx(scenario, cache(), run.clone())
            })
            .expect("replayed estimate");

        let ctx = AssessContext {
            cache: cache(),
            mode: ExecutionMode::Sequential,
            run: run.clone(),
        };
        let modules: [(&'static str, Box<dyn EstimationModule>); 3] = [
            ("core.mapping", Box::new(MappingModule)),
            ("core.structure", Box::new(StructureModule::default())),
            ("core.values", Box::new(ValueModule::default())),
        ];
        for (span, module) in modules {
            self.spans.time(span, || {
                let report = module.assess_with(scenario, &ctx).expect("replayed assess");
                module
                    .plan_with(scenario, &report, &config, &ctx)
                    .expect("replayed plan")
            });
        }

        self.structure_calls(scenario, &config, &run);

        let profiles = cache();
        self.spans.time("profiling.profile", || {
            for (sid, source) in scenario.iter_sources() {
                for (sa, ta) in scenario.correspondences.attribute_correspondences(sid) {
                    let reference_type = scenario
                        .target
                        .schema
                        .table(ta.table)
                        .attribute(ta.attr)
                        .datatype;
                    let keys = [
                        (source, DbTag::source(sid.0 as u32), sa),
                        (&scenario.target, DbTag::TARGET, ta),
                    ];
                    for (db, tag, attr) in keys {
                        let key = ProfileKey {
                            db: tag,
                            table: attr.table,
                            attr: attr.attr,
                            reference_type,
                        };
                        profiles
                            .of_attribute_sharded_ctx(&run, db, key, ExecutionMode::Sequential)
                            .expect("replayed profile");
                    }
                }
            }
        });

        let request = estimate_request(name, quality);
        self.spans.time("serve.encode", || {
            serde_json::to_string(&EstimateResponse::from_estimate(&estimate, &request))
                .expect("estimate responses serialise")
        });
    }

    /// The structure module's CSG calls, per source: assessment converts,
    /// matches and detects; planning does all three again and then plans
    /// repairs.
    fn structure_calls(
        &mut self,
        scenario: &IntegrationScenario,
        config: &EstimationConfig,
        run: &RunContext,
    ) {
        let mut opts = StructureModule::default().planner_options;
        opts.max_iterations = config.max_repair_iterations;
        for (sid, source) in scenario.iter_sources() {
            for planning in [false, true] {
                let target_conv = self
                    .spans
                    .time("csg.convert", || database_to_csg_ctx(&scenario.target, run))
                    .expect("replayed conversion");
                let source_conv = self
                    .spans
                    .time("csg.convert", || database_to_csg_ctx(source, run))
                    .expect("replayed conversion");
                let matches = self.spans.time("csg.match", || {
                    let corr = NodeCorrespondences::from_scenario(
                        scenario,
                        sid,
                        &target_conv,
                        &source_conv,
                    );
                    match_relationships_with(
                        &target_conv.csg,
                        &source_conv.csg,
                        &corr,
                        ExecutionMode::Sequential,
                    )
                });
                let conflicts = self
                    .spans
                    .time("csg.detect", || {
                        detect_conflicts_ctx(&target_conv, &source_conv, &matches, run)
                    })
                    .expect("replayed detection");
                if planning {
                    self.spans
                        .time("csg.plan", || {
                            plan_repairs(&target_conv, &matches, &conflicts, config.quality, &opts)
                        })
                        .expect("replayed repair planning");
                }
                // Freeing the graphs is work the module's span pays too;
                // it is charged to the conversion that built them.
                self.spans.time("csg.convert.free", || {
                    drop((target_conv, source_conv, matches, conflicts))
                });
            }
        }
    }
}

fn registry() -> DynamicRegistry {
    DynamicRegistry::new(ScenarioRegistry::new(), Some(16 << 30))
}
