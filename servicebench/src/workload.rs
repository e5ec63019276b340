//! The three closed-loop workloads, driven over loopback HTTP against an
//! in-process `efes-serve` server, and the correctness oracle that
//! checks every answer against the library.

use crate::calib;
use crate::client::{request, Scrape};
use crate::inputs::{self, Scale, Version};
use efes::{
    EstimateRequest, EstimateResponse, EstimationConfig, Estimator, ExecutionPolicy,
    ModuleSelection, Quality, ScenarioRegistry,
};
use efes_exec::parallel_map;
use efes_matching::{CombinedMatcher, MatcherConfig};
use efes_profiling::ProfileCache;
use efes_relational::SourceId;
use efes_serve::http::Limits;
use efes_serve::{
    MatchEntry, MatchRequest, MatchResponse, Server, ServerConfig, ServerHandle, UploadResponse,
};
use std::collections::{BTreeMap, BTreeSet};
use std::net::SocketAddr;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The benchmark's workloads. Why each exists is in the README.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Upload → estimate → match → delete, cycling a small pool.
    TallCold,
    /// One resident scenario grown ~1% per operation by an extension
    /// upload, then estimated.
    TallAppend,
    /// Upload → estimates at both qualities → match → delete of a
    /// ~40-table scenario.
    WideSchema,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::TallCold,
        Workload::TallAppend,
        Workload::WideSchema,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TallCold => "tall_cold",
            Workload::TallAppend => "tall_append",
            Workload::WideSchema => "wide_schema",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's scenario versions, generated from `seed`.
    pub fn inputs(self, scale: &Scale, seed: u64) -> Vec<Version> {
        match self {
            Workload::TallCold => inputs::pool(scale.tall, seed, "tall-cold", scale.cold_pool),
            Workload::TallAppend => {
                inputs::append_chain(scale.tall, seed, "tall-append", scale.append_steps)
            }
            Workload::WideSchema => inputs::pool(scale.wide, seed, "wide", 1),
        }
    }
}

/// The estimate request a workload sends; every estimate returns its
/// task list, so the answer exercises the full response encoding.
pub fn estimate_request(name: &str, quality: Quality) -> EstimateRequest {
    EstimateRequest {
        quality,
        include_tasks: true,
        ..EstimateRequest::new(name)
    }
}

/// The server under test: `workers` equal to the host's threads,
/// default sequential per-request estimation, and limits raised so that
/// a failure means a fault rather than a tight limit.
pub fn start_server(workers: usize) -> Result<ServerHandle, String> {
    let config = ServerConfig {
        workers: ExecutionPolicy::Threads(workers),
        default_deadline: Duration::from_secs(120),
        max_deadline: Duration::from_secs(120),
        io_timeout: Duration::from_secs(60),
        limits: Limits {
            max_upload_body: 1 << 30,
            ..Limits::default()
        },
        ingest_budget: Some(16 << 30),
        ..ServerConfig::default()
    };
    Server::start(config, ScenarioRegistry::new()).map_err(|e| format!("starting server: {e}"))
}

/// Which answer an oracle entry checks: an estimate of one version at
/// one quality, or a match over one version.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum AnswerKey {
    Estimate { version: usize, high_quality: bool },
    Match { version: usize },
}

/// Operation identifier; `None` marks set-up requests.
type OpId = Option<usize>;

/// Every 200 answer body, grouped by what it answers, for the oracle.
#[derive(Default)]
pub struct Answers(Mutex<BTreeMap<AnswerKey, Vec<(OpId, String)>>>);

impl Answers {
    fn record(&self, key: AnswerKey, op: OpId, body: String) {
        self.0
            .lock()
            .expect("answer log poisoned")
            .entry(key)
            .or_default()
            .push((op, body));
    }

    /// Compare every recorded answer with the library's, computed once
    /// per distinct key. Returns the operations whose answers differ
    /// (`None` among them if a set-up answer was wrong).
    pub fn check(self, versions: &[Version]) -> BTreeSet<OpId> {
        let answers: Vec<_> = self
            .0
            .into_inner()
            .expect("answer log poisoned")
            .into_iter()
            .collect();
        // The server is stopped by now, so the library runs use every
        // thread; each key parses its own copy of the scenario.
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let checked = parallel_map(
            ExecutionPolicy::Threads(threads).mode(),
            answers,
            |(key, bodies)| {
                let expected = match key {
                    AnswerKey::Estimate {
                        version,
                        high_quality,
                    } => expected_estimate(&versions[version], high_quality),
                    AnswerKey::Match { version } => expected_match(&versions[version]),
                };
                bodies
                    .into_iter()
                    .filter(|(_, body)| *body != expected)
                    .map(|(op, _)| {
                        eprintln!("oracle: {key:?} answer of op {op:?} differs from the library");
                        op
                    })
                    .collect::<Vec<_>>()
            },
        );
        checked.into_iter().flatten().collect()
    }
}

/// The library's estimate under the server's configuration (sequential
/// estimation, all modules), encoded as the server encodes it.
fn expected_estimate(version: &Version, high_quality: bool) -> String {
    let scenario = version.scenario();
    let quality = if high_quality {
        Quality::HighQuality
    } else {
        Quality::LowEffort
    };
    let request = estimate_request(&version.name, quality);
    let mut config = EstimationConfig::for_quality(request.quality);
    config.execution = ExecutionPolicy::Sequential;
    let estimate = Estimator::with_selected_modules(config, ModuleSelection::all())
        .estimate(&scenario)
        .expect("library estimate of a generated scenario");
    serde_json::to_string(&EstimateResponse::from_estimate(&estimate, &request))
        .expect("estimate responses serialise")
}

/// The library's matcher over source 0, named as `POST /match` names it.
fn expected_match(version: &Version) -> String {
    let scenario = version.scenario();
    let source = scenario.source(SourceId(0));
    let (proposed, stats) = CombinedMatcher::new(MatcherConfig::default())
        .propose_attribute_matches_stats(
            source,
            &scenario.target,
            &ProfileCache::new(),
            ExecutionPolicy::Sequential.mode(),
        );
    let matches = proposed
        .into_iter()
        .map(|m| {
            let s_table = source.schema.table(m.source.0);
            let t_table = scenario.target.schema.table(m.target.0);
            MatchEntry {
                source_table: s_table.name.clone(),
                source_attr: s_table.attributes[m.source.1 .0].name.clone(),
                target_table: t_table.name.clone(),
                target_attr: t_table.attributes[m.target.1 .0].name.clone(),
                score: m.score,
            }
        })
        .collect();
    serde_json::to_string(&MatchResponse {
        scenario: version.name.clone(),
        source: 0,
        pairs_total: stats.pairs_total as u64,
        pairs_pruned: stats.pairs_pruned as u64,
        matches,
    })
    .expect("match responses serialise")
}

/// Latency samples in milliseconds, by request kind.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    pub estimate: Vec<f64>,
    pub matching: Vec<f64>,
    pub upload: Vec<f64>,
    /// Upload start to first answered estimate of that upload.
    pub ready: Vec<f64>,
    /// Estimates sent outside the measured time (the append chain's
    /// reset); the traced run still needs them to account for the
    /// server's stage time.
    pub untimed_estimate: Vec<f64>,
    /// Host-speed calibration slices, one before each operation.
    pub calibration: Vec<f64>,
}

/// Counter readings the traced run takes around requests that drop a
/// profile cache (deletes, extension uploads). The server's cache
/// counters sum over the caches it holds *now*, so a dropped cache
/// takes its hits and misses with it; adding back what each drop
/// removed keeps the phase's hit ratio exact.
#[derive(Debug, Default, Clone)]
pub struct Probe {
    pub retired_hits: f64,
    pub retired_misses: f64,
    pub max_resident_bytes: f64,
}

impl Probe {
    fn around<T>(
        &mut self,
        addr: SocketAddr,
        call: impl FnOnce() -> Result<T, String>,
    ) -> Result<T, String> {
        let before = Scrape::fetch(addr)?;
        let out = call();
        let after = Scrape::fetch(addr)?;
        let dropped = |series: &str| (before.get(series) - after.get(series)).max(0.0);
        self.retired_hits += dropped("efes_profile_cache_hits_total");
        self.retired_misses += dropped("efes_profile_cache_misses_total");
        self.max_resident_bytes = self
            .max_resident_bytes
            .max(after.get("efes_ingest_resident_bytes"))
            .max(before.get("efes_ingest_resident_bytes"));
        out
    }
}

/// The closed-loop client and what it has seen.
struct Client<'a> {
    session: Session<'a>,
    /// Set in the traced run only.
    probe: Option<Probe>,
    samples: Samples,
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

impl Client<'_> {
    fn upload(&mut self, version: usize, expect: &str) -> Result<(), String> {
        let Session { addr, versions, .. } = self.session;
        let v = &versions[version];
        let started = Instant::now();
        let send = || request(addr, "POST", "/scenarios", v.doc.as_bytes());
        let reply = match self.probe.as_mut() {
            Some(probe) => probe.around(addr, send)?,
            None => send()?,
        };
        let millis = ms_since(started);
        let wanted_status = if expect == "created" { 201 } else { 200 };
        if reply.status != wanted_status {
            return Err(format!(
                "upload {} answered {}: {}",
                v.name, reply.status, reply.body
            ));
        }
        let answer: UploadResponse =
            serde_json::from_str(&reply.body).map_err(|e| format!("upload reply: {e}"))?;
        if answer.status != expect || answer.scenario != v.name || answer.resident_bytes == 0 {
            return Err(format!(
                "upload {} answered {:?}, wanted {expect}",
                v.name, reply.body
            ));
        }
        self.samples.upload.push(millis);
        Ok(())
    }

    fn estimate(&mut self, version: usize, quality: Quality, op: OpId) -> Result<(), String> {
        let name = &self.session.versions[version].name;
        let body = serde_json::to_string(&estimate_request(name, quality))
            .expect("estimate requests serialise");
        let started = Instant::now();
        let reply = request(self.session.addr, "POST", "/estimate", body.as_bytes())?;
        let millis = ms_since(started);
        if reply.status != 200 {
            return Err(format!(
                "estimate {name} answered {}: {}",
                reply.status, reply.body
            ));
        }
        self.samples.estimate.push(millis);
        let key = AnswerKey::Estimate {
            version,
            high_quality: quality == Quality::HighQuality,
        };
        self.session.answers.record(key, op, reply.body);
        Ok(())
    }

    fn matching(&mut self, version: usize, op: OpId) -> Result<(), String> {
        let name = &self.session.versions[version].name;
        let body = serde_json::to_string(&MatchRequest {
            scenario: name.clone(),
            source: 0,
        })
        .expect("match requests serialise");
        let started = Instant::now();
        let reply = request(self.session.addr, "POST", "/match", body.as_bytes())?;
        let millis = ms_since(started);
        if reply.status != 200 {
            return Err(format!(
                "match {name} answered {}: {}",
                reply.status, reply.body
            ));
        }
        self.samples.matching.push(millis);
        self.session
            .answers
            .record(AnswerKey::Match { version }, op, reply.body);
        Ok(())
    }

    fn delete(&mut self, version: usize) -> Result<(), String> {
        let addr = self.session.addr;
        let path = format!("/scenarios/{}", self.session.versions[version].name);
        let send = || request(addr, "DELETE", &path, b"");
        let reply = match self.probe.as_mut() {
            Some(probe) => probe.around(addr, send)?,
            None => send()?,
        };
        if reply.status != 200 {
            return Err(format!(
                "DELETE {path} answered {}: {}",
                reply.status, reply.body
            ));
        }
        Ok(())
    }

    /// Upload `version` and estimate it: the ready path.
    fn upload_then_estimate(
        &mut self,
        version: usize,
        expect: &str,
        quality: Quality,
        op: OpId,
    ) -> Result<(), String> {
        let started = Instant::now();
        self.upload(version, expect)?;
        self.estimate(version, quality, op)?;
        self.samples.ready.push(ms_since(started));
        Ok(())
    }
}

/// A running server and what its client sends it.
#[derive(Clone, Copy)]
pub struct Session<'a> {
    pub workload: Workload,
    pub addr: SocketAddr,
    pub versions: &'a [Version],
    pub answers: &'a Answers,
}

/// What a stretch of client traffic produced.
#[derive(Default)]
pub struct Phase {
    pub samples: Samples,
    pub attempted: usize,
    /// Operations that got a non-200 answer or no answer; wrong answers
    /// are added by the oracle later.
    pub failed: BTreeSet<OpId>,
    /// Operations completed without failure inside the measured time.
    pub completed: usize,
    /// Measured seconds (wall time minus untimed pauses).
    pub seconds: f64,
    pub probe: Probe,
}

impl<'a> Session<'a> {
    fn client(&self, traced: bool) -> Client<'a> {
        Client {
            session: *self,
            probe: traced.then(Probe::default),
            samples: Samples::default(),
        }
    }

    /// The set-up's warm-up: the workload's first scenario is uploaded,
    /// estimated and matched, so every request kind has run; it stays
    /// resident only where the loop extends it.
    pub fn warm_up(&self) -> Result<(), String> {
        let mut c = self.client(false);
        c.upload_then_estimate(0, "created", Quality::HighQuality, None)?;
        c.matching(0, None)?;
        if self.workload != Workload::TallAppend {
            c.delete(0)?;
        }
        Ok(())
    }

    /// Run the closed loop: one client, sending its next operation only
    /// when the previous one is answered. Operations started within the
    /// first `warmup_seconds` are checked but not measured; then the
    /// loop runs until `seconds` of measured time pass (or `max_ops`
    /// measured operations).
    pub fn run_loop(
        &self,
        warmup_seconds: f64,
        seconds: f64,
        max_ops: Option<usize>,
        traced: bool,
    ) -> Phase {
        let c = &mut self.client(traced);
        let (workload, versions) = (self.workload, self.versions);
        let mut phase = Phase::default();
        let mut started = Instant::now();
        let mut warming = warmup_seconds > 0.0;
        let mut paused = Duration::ZERO;
        // The append chain's position: version 0 is resident.
        let mut chain = 0usize;
        let mut i = 0usize;
        let mut measured = 0usize;
        loop {
            let elapsed = started.elapsed().saturating_sub(paused).as_secs_f64();
            if warming && elapsed >= warmup_seconds {
                // Warm-up over: its samples go, the clock starts.
                warming = false;
                c.samples = Samples::default();
                started = Instant::now();
                paused = Duration::ZERO;
            } else if !warming
                && (elapsed >= seconds || max_ops.is_some_and(|m| measured >= m))
            {
                break;
            }
            // The slice runs outside the measured time.
            let pause = Instant::now();
            c.samples.calibration.push(calib::slice());
            paused += pause.elapsed();
            let op = Some(i);
            phase.attempted += 1;
            if workload == Workload::TallAppend && chain + 1 == versions.len() {
                // Chain exhausted: put the base back outside the measured
                // time, estimated once so its profile cache exists for the
                // next append.
                let pause = Instant::now();
                let kept = (c.samples.upload.len(), c.samples.estimate.len());
                let reset = c
                    .delete(chain)
                    .and_then(|()| c.upload(0, "created"))
                    .and_then(|()| c.estimate(0, Quality::HighQuality, None));
                c.samples.upload.truncate(kept.0);
                let reset_estimates: Vec<f64> = c.samples.estimate.drain(kept.1..).collect();
                c.samples.untimed_estimate.extend(reset_estimates);
                paused += pause.elapsed();
                if let Err(e) = reset {
                    eprintln!("{}: chain reset failed: {e}", workload.name());
                    phase.failed.insert(op);
                    break;
                }
                chain = 0;
            }
            let outcome = match workload {
                Workload::TallCold => {
                    let v = i % versions.len();
                    c.upload_then_estimate(v, "created", Quality::HighQuality, op)
                        .and_then(|()| c.matching(v, op))
                        .and_then(|()| c.delete(v))
                }
                Workload::TallAppend => {
                    chain += 1;
                    c.upload_then_estimate(chain, "extended", Quality::HighQuality, op)
                        .and_then(|()| c.matching(chain, op))
                }
                Workload::WideSchema => c
                    .upload_then_estimate(0, "created", Quality::HighQuality, op)
                    .and_then(|()| c.estimate(0, Quality::LowEffort, op))
                    .and_then(|()| c.matching(0, op))
                    .and_then(|()| c.delete(0)),
            };
            match outcome {
                Ok(()) if !warming => phase.completed += 1,
                Ok(()) => {}
                Err(e) => {
                    eprintln!("{}: op {i} failed: {e}", workload.name());
                    phase.failed.insert(op);
                }
            }
            if !warming {
                measured += 1;
            }
            i += 1;
        }
        phase.seconds = (started.elapsed() - paused).as_secs_f64();
        phase.samples = std::mem::take(&mut c.samples);
        phase.probe = c.probe.take().unwrap_or_default();
        phase
    }
}
