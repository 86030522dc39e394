//! The four workloads: the specs the benchmark generates from its seed,
//! the untraced spec → result runs, and the checks every result passes.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use emgrid_batch::{LocalBackend, SweepEngine};
use emgrid_fea::geometry::CharacterizationModel;
use emgrid_runtime::{JobEngine, JobStatus};
use emgrid_serve::json::{self, Json};
use emgrid_serve::metrics::Metrics;
use emgrid_serve::runner::{run_job, PhaseLog, RunEnv};
use emgrid_serve::{JobSpec, JobStore, ResolvedJob};

/// Job seeds with a recorded reference: `--seed s` runs job
/// seed `s % REFERENCE_SEEDS + 1`.
pub const REFERENCE_SEEDS: u64 = 16;

/// Relative tolerance of a headline statistic against its reference.
pub const REFERENCE_TOLERANCE: f64 = 1e-9;

/// The longest one job may run before the benchmark gives up on it.
const JOB_TIMEOUT: Duration = Duration::from_secs(170);

/// Netlist caps for the job runner, as the daemon's defaults set them.
const MAX_NETLIST_BYTES: usize = 8 * 1024 * 1024;
const MAX_NETLIST_LINES: usize = 400_000;

/// Times the FEA set-up is repeated per iteration.
const FEA_SETUP_REPEATS: usize = 5;

/// Checkpoint cadence of `emgrid sweep` (its `--checkpoint-every` default).
pub const SWEEP_CHECKPOINT_EVERY: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    AnalyzePg1,
    TopkPg100k,
    FeaFig07,
    SweepFig08,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "analyze_pg1" => Workload::AnalyzePg1,
            "topk_pg100k" => Workload::TopkPg100k,
            "fea_fig07" => Workload::FeaFig07,
            "sweep_fig08" => Workload::SweepFig08,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::AnalyzePg1 => "analyze_pg1",
            Workload::TopkPg100k => "topk_pg100k",
            Workload::FeaFig07 => "fea_fig07",
            Workload::SweepFig08 => "sweep_fig08",
        }
    }

    /// The spec documents one iteration submits, generated from the job
    /// seed (FEA has no randomness, so its specs ignore the seed).
    pub fn specs(self, job_seed: u64) -> Vec<String> {
        match self {
            Workload::AnalyzePg1 => vec![format!(
                r#"{{"kind":"analyze","benchmark":"pg1","array":"4x4","pattern":"plus","criterion":"rinf","trials":2000,"grid_trials":100,"seed":{job_seed},"threads":1}}"#
            )],
            Workload::TopkPg100k => vec![format!(
                r#"{{"kind":"analyze","benchmark":"pg100k","array":"4x4","pattern":"plus","criterion":"rinf","trials":400,"grid_trials":1,"seed":{job_seed},"threads":1,"screening":{{"top_k":64}}}}"#
            )],
            Workload::FeaFig07 => ["1x1", "4x4", "8x8"]
                .iter()
                .map(|array| {
                    format!(
                        r#"{{"kind":"fea","array":"{array}","pattern":"plus","resolution":0.25,"threads":1,"use_cache":false}}"#
                    )
                })
                .collect(),
            Workload::SweepFig08 => vec![format!(
                r#"{{"name":"fig08-ttf-vs-j","job":{{"kind":"characterize","trials":400,"seed":{job_seed},"threads":1}},"axes":{{"array":["1x1","4x4","8x8"],"pattern":["plus","tee","ell"],"criterion":["wl","r2x","rinf"],"current_density":[5e9,1e10,2e10,4e10]}}}}"#
            )],
        }
    }
}

/// Parses a job spec document.
pub fn job_spec(text: &str) -> Result<JobSpec, String> {
    let doc = json::parse(text).map_err(|e| format!("spec is not JSON: {e}"))?;
    JobSpec::from_json(&doc).map_err(|e| format!("spec rejected: {e}"))
}

/// One untraced spec → checked result iteration.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Spec to checked result doc, seconds.
    pub wall: f64,
    /// Seconds before the first Monte Carlo trial or FEA solve.
    pub setup: f64,
    /// Work units completed (grid trials, primitives or jobs).
    pub units: f64,
    /// Seconds the units took after set-up.
    pub work: f64,
    /// Jobs attempted and jobs failed (or whose result failed a check).
    pub attempted: u64,
    pub failed: u64,
    /// What failed, for the report on standard error.
    pub errors: Vec<String>,
    /// The result docs, for comparison with the traced run.
    pub docs: Vec<Json>,
}

/// What every job runner in this process shares.
struct Shared {
    store: JobStore,
    metrics: Metrics,
    phases: PhaseLog,
}

/// Runs single jobs through `serve::runner::run_job` on a one-worker job
/// engine, as the daemon's workers do, with checkpoints off as in the CLI.
pub struct JobRunner {
    engine: JobEngine<String>,
    shared: Arc<Shared>,
}

impl JobRunner {
    pub fn open(state: &Path) -> std::io::Result<JobRunner> {
        Ok(JobRunner {
            engine: JobEngine::new(1, 8),
            shared: Arc::new(Shared {
                store: JobStore::open(state.join("jobs"))?,
                metrics: Metrics::default(),
                phases: PhaseLog::default(),
            }),
        })
    }

    /// Submits `spec`, waits for it, and returns its result doc and the
    /// seconds the runner recorded for its level-2 (grid MC) phase.
    pub fn run(&self, spec: JobSpec) -> Result<(Json, f64), String> {
        let shared = Arc::clone(&self.shared);
        let id = self
            .engine
            .submit(move |ctx| {
                let env = RunEnv {
                    store: &shared.store,
                    metrics: &shared.metrics,
                    checkpoint_every: 0,
                    cache_dir: None,
                    max_netlist_bytes: MAX_NETLIST_BYTES,
                    max_netlist_lines: MAX_NETLIST_LINES,
                    phases: Some(&shared.phases),
                };
                run_job(&spec, ctx, &env)
            })
            .map_err(|e| format!("submit failed: {e}"))?;
        match self.engine.wait_terminal(id, JOB_TIMEOUT) {
            Some(JobStatus::Done) => {}
            other => {
                let error = self.engine.snapshot(id).and_then(|s| s.error);
                return Err(format!("job ended {other:?}: {error:?}"));
            }
        }
        let text = self
            .engine
            .snapshot(id)
            .and_then(|s| s.result)
            .ok_or("done job has no result")?;
        let doc = json::parse(&text).map_err(|e| format!("result is not JSON: {e}"))?;
        let level2 = self
            .shared
            .phases
            .phases(id)
            .iter()
            .filter(|p| p.0 == "level2")
            .map(|p| p.1)
            .sum();
        Ok((doc, level2))
    }
}

/// Reference headline statistics, recorded per job seed.
pub struct References(Json);

impl References {
    pub fn load() -> References {
        let doc =
            json::parse(include_str!("../references.json")).expect("references.json is valid JSON");
        References(doc)
    }

    /// The recorded reference of `workload` for `key`.
    pub fn get(&self, workload: Workload, key: &str) -> Option<&Json> {
        self.0.get(workload.name())?.get(key)
    }
}

fn num(doc: &Json, key: &str) -> Result<f64, String> {
    doc.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("result has no numeric `{key}`"))
}

fn close(value: f64, reference: f64) -> bool {
    (value - reference).abs() <= REFERENCE_TOLERANCE * reference.abs()
}

fn numbers(doc: &Json) -> Option<Vec<f64>> {
    match doc {
        Json::Arr(items) => items.iter().map(Json::as_f64).collect(),
        _ => None,
    }
}

/// Checks one analyze result: every grid trial ran, the screen kept
/// `top_k` sites when asked, and the median TTF matches the reference.
fn check_analyze(
    doc: &Json,
    workload: Workload,
    job_seed: u64,
    refs: &References,
) -> Result<(), String> {
    let (requested, run) = (num(doc, "grid_trials")?, num(doc, "grid_trials_run")?);
    if requested != run {
        return Err(format!("{run} of {requested} grid trials ran"));
    }
    if workload == Workload::TopkPg100k {
        let selected = doc
            .get("screening")
            .and_then(|s| s.get("selected"))
            .and_then(Json::as_f64);
        if selected != Some(64.0) {
            return Err(format!("screen selected {selected:?} sites, not 64"));
        }
    }
    let median = num(doc, "ttf_median_years")?;
    let reference = refs
        .get(workload, &job_seed.to_string())
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("no reference for job seed {job_seed}"))?;
    if !close(median, reference) {
        return Err(format!(
            "median TTF {median} years is not within {REFERENCE_TOLERANCE:e} of {reference}"
        ));
    }
    Ok(())
}

/// Row-major indices of the corner and interior vias of an `n`×`n` array.
fn corners_and_interior(n: usize) -> (Vec<usize>, Vec<usize>) {
    let corners = vec![0, n - 1, n * (n - 1), n * n - 1];
    let interior = (1..n - 1)
        .flat_map(|r| (1..n - 1).map(move |c| r * n + c))
        .collect();
    (corners, interior)
}

fn mean_at(stress: &[f64], at: &[usize]) -> f64 {
    at.iter().map(|&i| stress[i]).sum::<f64>() / at.len() as f64
}

/// Checks the three FEA results against their references and the paper's
/// shape: corner vias carry more stress than interior vias, and the 8x8
/// interior less than the 4x4 interior.
fn check_fea(docs: &[Json], refs: &References) -> Vec<String> {
    let mut errors = Vec::new();
    let mut interior_means = Vec::new();
    for doc in docs {
        let array = doc.get("array").and_then(Json::as_str).unwrap_or("?");
        let stress = doc.get("per_via_stress_mpa").and_then(numbers);
        let reference = refs.get(Workload::FeaFig07, array).and_then(numbers);
        let (Some(stress), Some(reference)) = (stress, reference) else {
            errors.push(format!("{array}: missing stresses or reference"));
            continue;
        };
        if stress.len() != reference.len()
            || stress.iter().zip(&reference).any(|(s, r)| !close(*s, *r))
        {
            errors.push(format!(
                "{array}: per-via stress is not within {REFERENCE_TOLERANCE:e} of the reference"
            ));
        }
        let n = (stress.len() as f64).sqrt() as usize;
        if n >= 3 && n * n == stress.len() {
            let (corners, interior) = corners_and_interior(n);
            let min_corner = corners
                .iter()
                .map(|&i| stress[i])
                .fold(f64::INFINITY, f64::min);
            let max_interior = interior.iter().map(|&i| stress[i]).fold(0.0, f64::max);
            if min_corner <= max_interior {
                errors.push(format!(
                    "{array}: a corner via ({min_corner} MPa) is not above every interior via ({max_interior} MPa)"
                ));
            }
            interior_means.push((array.to_owned(), mean_at(&stress, &interior)));
        }
    }
    match interior_means.as_slice() {
        [(a, four), (b, eight)] if a == "4x4" && b == "8x8" => {
            if eight >= four {
                errors.push(format!(
                    "8x8 interior mean {eight} MPa is not below the 4x4 interior mean {four} MPa"
                ));
            }
        }
        _ => errors.push("the 4x4 and 8x8 results are missing".into()),
    }
    errors
}

/// Checks a sweep report: every job done with all its trials, every
/// median within tolerance of the reference, lifetimes ordered
/// ell ≥ tee ≥ plus and falling as current density rises.
fn check_sweep(report: &Json, job_seed: u64, refs: &References) -> Vec<String> {
    let mut errors = Vec::new();
    let Some(Json::Arr(entries)) = report.get("entries") else {
        return vec!["report has no entries".into()];
    };
    let reference = refs
        .get(Workload::SweepFig08, &job_seed.to_string())
        .and_then(numbers)
        .unwrap_or_default();
    if reference.len() != entries.len() {
        errors.push(format!(
            "{} reference medians for {} entries",
            reference.len(),
            entries.len()
        ));
    }
    // (array, pattern, criterion, current density) -> median years.
    let mut medians = Vec::new();
    for (i, entry) in entries.iter().enumerate() {
        let key = entry.get("key").and_then(Json::as_str).unwrap_or("?");
        let Some(result) = entry.get("result") else {
            errors.push(format!("{key}: no result"));
            continue;
        };
        let axes = entry.get("axes");
        let axis = |name: &str| axes.and_then(|a| a.get(name)).cloned();
        let trials = (
            result.get("trials").and_then(Json::as_f64),
            result.get("trials_run").and_then(Json::as_f64),
        );
        if trials.0.is_none() || trials.0 != trials.1 {
            errors.push(format!(
                "{key}: {:?} of {:?} trials ran",
                trials.1, trials.0
            ));
        }
        let Some(median) = result.get("ttf_median_years").and_then(Json::as_f64) else {
            errors.push(format!("{key}: no median"));
            continue;
        };
        if reference.get(i).is_some_and(|r| !close(median, *r)) {
            errors.push(format!("{key}: median {median} differs from the reference"));
        }
        let label = |j: Option<Json>| {
            j.and_then(|v| v.as_str().map(str::to_owned))
                .unwrap_or_default()
        };
        medians.push((
            label(axis("array")),
            label(axis("pattern")),
            label(axis("criterion")),
            axis("current_density")
                .and_then(|v| v.as_f64())
                .unwrap_or(0.0),
            median,
        ));
    }
    let find = |a: &str, p: &str, c: &str, j: f64| {
        medians
            .iter()
            .find(|m| m.0 == a && m.1 == p && m.2 == c && m.3 == j)
            .map(|m| m.4)
    };
    for (a, p, c, j, median) in &medians {
        if p == "tee" {
            let (plus, ell) = (find(a, "plus", c, *j), find(a, "ell", c, *j));
            if !(plus.is_some_and(|plus| plus <= *median) && ell.is_some_and(|ell| *median <= ell))
            {
                errors.push(format!(
                    "{a} {c} j={j}: ell {ell:?} >= tee {median} >= plus {plus:?} does not hold"
                ));
            }
        }
        let next = medians
            .iter()
            .filter(|m| m.0 == *a && m.1 == *p && m.2 == *c && m.3 > *j)
            .min_by(|x, y| x.3.total_cmp(&y.3));
        if let Some(next) = next {
            if next.4 >= *median {
                errors.push(format!(
                    "{a} {p} {c}: TTF {} at j={} is not below {median} at j={j}",
                    next.4, next.3
                ));
            }
        }
    }
    errors
}

/// A fresh scratch state directory under `root`.
pub fn fresh_dir(root: &Path, tag: &str) -> std::io::Result<PathBuf> {
    let dir = root.join(tag);
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// One untraced iteration of `workload`: spec → checked result doc.
pub fn run_untraced(
    workload: Workload,
    job_seed: u64,
    runner: &JobRunner,
    state: &Path,
    refs: &References,
) -> Sample {
    let specs = workload.specs(job_seed);
    match workload {
        Workload::AnalyzePg1 | Workload::TopkPg100k => {
            let start = Instant::now();
            let outcome = job_spec(&specs[0]).and_then(|spec| runner.run(spec));
            let job_wall = start.elapsed().as_secs_f64();
            let (doc, level2) = match outcome {
                Ok(ok) => ok,
                Err(e) => return Sample::failed(start, 1, e),
            };
            let check = check_analyze(&doc, workload, job_seed, refs);
            let wall = start.elapsed().as_secs_f64();
            Sample {
                wall,
                setup: job_wall - level2,
                units: num(&doc, "grid_trials_run").unwrap_or(0.0),
                work: level2,
                attempted: 1,
                failed: u64::from(check.is_err()),
                errors: check.err().into_iter().collect(),
                docs: vec![doc],
            }
        }
        Workload::FeaFig07 => {
            // The runner meshes inside one opaque call, so set-up (spec
            // resolution and mesh construction) is timed here by doing
            // that same work before the jobs run. It takes milliseconds,
            // so it is repeated and the median kept.
            let mut setups = Vec::with_capacity(FEA_SETUP_REPEATS);
            let mut parsed = Vec::new();
            for _ in 0..FEA_SETUP_REPEATS {
                let setup_start = Instant::now();
                let meshed: Result<Vec<JobSpec>, String> = specs
                    .iter()
                    .map(|text| {
                        let spec = job_spec(text)?;
                        std::hint::black_box(fea_model(&spec)?.build_mesh().node_count());
                        Ok(spec)
                    })
                    .collect();
                setups.push(setup_start.elapsed().as_secs_f64());
                match meshed {
                    Ok(specs) => parsed = specs,
                    Err(e) => return Sample::failed(setup_start, specs.len() as u64, e),
                }
            }
            setups.sort_by(f64::total_cmp);
            let setup = setups[setups.len() / 2];
            let start = Instant::now();
            let mut docs = Vec::new();
            let mut errors = Vec::new();
            for spec in parsed {
                match runner.run(spec) {
                    Ok((doc, _)) => docs.push(doc),
                    Err(e) => errors.push(e),
                }
            }
            let failed_jobs = errors.len() as u64;
            errors.extend(check_fea(&docs, refs));
            let wall = start.elapsed().as_secs_f64();
            Sample {
                wall,
                setup,
                units: docs.len() as f64,
                work: wall - setup,
                attempted: specs.len() as u64,
                failed: if errors.is_empty() {
                    0
                } else {
                    failed_jobs.max(1)
                },
                errors,
                docs,
            }
        }
        Workload::SweepFig08 => run_sweep_untraced(&specs[0], job_seed, state, refs),
    }
}

/// The `CharacterizationModel` an fea job meshes, exactly as the runner
/// builds it.
pub fn fea_model(spec: &JobSpec) -> Result<CharacterizationModel, String> {
    match spec
        .resolve()
        .map_err(|e| format!("spec failed to resolve: {e}"))?
    {
        ResolvedJob::Fea(job) => Ok(CharacterizationModel {
            pattern: job.intersection,
            array: job.geometry,
            resolution: job.resolution,
            ..CharacterizationModel::default()
        }),
        _ => Err("expected an fea job".to_owned()),
    }
}

/// Runs a sweep as `emgrid sweep` does: one local worker, checkpoints
/// every 64 trials, at most two jobs in flight.
fn run_sweep_untraced(text: &str, job_seed: u64, state: &Path, refs: &References) -> Sample {
    let start = Instant::now();
    let outcome = (|| -> Result<(f64, Json), String> {
        let dir = fresh_dir(state, "sweep").map_err(|e| e.to_string())?;
        let backend = LocalBackend::open(&dir, 1, SWEEP_CHECKPOINT_EVERY)
            .map_err(|e| format!("cannot open job store: {e}"))?;
        let engine = SweepEngine::new(Arc::new(backend.clone()), dir.join("sweeps"), 2)
            .map_err(|e| format!("cannot open sweep store: {e}"))?;
        let submission = engine
            .submit_text(text)
            .map_err(|e| format!("sweep rejected: {e}"))?;
        let setup = start.elapsed().as_secs_f64();
        engine.wait_idle();
        // Every job is terminal by now; this only waits for the worker to
        // let go of the backend, so the engine joins on this thread.
        backend.shutdown_now();
        let bytes = engine
            .report_bytes(&submission.sweep)
            .ok_or("sweep finished without a report")?;
        let report = json::parse(&String::from_utf8_lossy(&bytes))
            .map_err(|e| format!("report is not JSON: {e}"))?;
        Ok((setup, report))
    })();
    let (setup, report) = match outcome {
        Ok(ok) => ok,
        Err(e) => return Sample::failed(start, 108, e),
    };
    let total = num(&report, "jobs_total").unwrap_or(0.0);
    let done = num(&report, "jobs_done").unwrap_or(0.0);
    let errors = check_sweep(&report, job_seed, refs);
    let wall = start.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(state.join("sweep"));
    Sample {
        wall,
        setup,
        units: done,
        work: wall - setup,
        attempted: total as u64,
        failed: if errors.is_empty() {
            (total - done) as u64
        } else {
            ((total - done) as u64).max(1)
        },
        errors,
        docs: vec![report],
    }
}

impl Sample {
    fn failed(start: Instant, attempted: u64, error: String) -> Sample {
        Sample {
            wall: start.elapsed().as_secs_f64(),
            setup: 0.0,
            units: 0.0,
            work: 0.0,
            attempted,
            failed: attempted,
            errors: vec![error],
            docs: Vec::new(),
        }
    }

    /// The headline statistics a traced run must reproduce: the median
    /// TTF of analyze jobs and every sweep entry, or per-via stresses.
    pub fn headlines(&self) -> Vec<f64> {
        let mut out = Vec::new();
        for doc in &self.docs {
            if let Some(v) = doc.get("ttf_median_years").and_then(Json::as_f64) {
                out.push(v);
            }
            if let Some(v) = doc.get("per_via_stress_mpa").and_then(numbers) {
                out.extend(v);
            }
            if let Some(Json::Arr(entries)) = doc.get("entries") {
                for e in entries {
                    if let Some(v) = e
                        .get("result")
                        .and_then(|r| r.get("ttf_median_years"))
                        .and_then(Json::as_f64)
                    {
                        out.push(v);
                    }
                }
            }
        }
        out
    }
}
