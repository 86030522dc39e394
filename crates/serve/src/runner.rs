//! Executes jobs: the one spec → result pipeline behind the daemon, sweeps
//! and the CLI. [`execute`] runs a [`ResolvedJob`] to a typed [`Outcome`]
//! under optional [`Hooks`] — seed derivation, current density, variation
//! and screening setup live there alone — and [`result_doc`] renders the
//! outcome. [`run_job`] wires the hooks to the daemon's [`JobStore`]; the
//! `emgrid` CLI runs the same two steps with no hooks and renders text.
//!
//! The result document depends only on the canonical spec: it holds
//! statistics but never timing, thread-count or resume telemetry, so a
//! spec yields byte-identical `result.json` cold or warm, on one worker or
//! eight, straight through or resumed from a checkpoint after a `kill -9`.
//! Checkpoints stream to the store with atomic renames; cancellation
//! commits a final checkpoint and reports [`JobOutcome::Cancelled`] so a
//! later restart can pick the work back up.

use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

use emgrid_em::{Technology, SECONDS_PER_YEAR};
use emgrid_fea::geometry::CharacterizationModel;
use emgrid_pg::{
    GridCheckpoint, GridSession, GridVariation, McResult, PowerGrid, PowerGridMc, SystemCriterion,
};
use emgrid_runtime::{CancelToken, JobCtx, JobId, JobOutcome};
use emgrid_screen::{screen_grid, ScreenOptions, ScreenReport};
use emgrid_spice::ingest::{ingest, IngestLimits, IngestOptions};
use emgrid_spice::{GridSpec, Netlist};
use emgrid_via::{
    CharacterizationResult, FeaOptions, FeaReport, LayerPair, StressCache, StressTable,
    VarianceDecomposition, ViaArrayMc, ViaCheckpoint, ViaSession,
};

use crate::json::Json;
use crate::metrics::Metrics;
use crate::spec::{DeckSource, JobSpec, ResolvedAnalyze, ResolvedFea, ResolvedJob, ResolvedMc};
use crate::store::JobStore;

/// Jobs whose phase timings stay queryable after the map would otherwise
/// grow without bound; disk stays authoritative for everything else, so
/// evicted phase data is merely absent from old status docs.
const PHASE_RETENTION: usize = 1024;

/// Per-job phase wall times (`mc`, `ingest`, `level1`, `screen`,
/// `level2`, `fea`),
/// surfaced in `GET /v1/jobs/:id` status docs — never in result docs,
/// which must stay byte-identical whatever the timings were.
///
/// Bounded like the engine's terminal-record ring: beyond
/// [`PHASE_RETENTION`] jobs the oldest entry is evicted.
#[derive(Debug, Default)]
pub struct PhaseLog {
    /// Insertion order (for eviction) alongside the id → phases map.
    inner: Mutex<(VecDeque<JobId>, HashMap<JobId, PhaseTimings>)>,
}

/// `(phase, seconds)` pairs in execution order.
type PhaseTimings = Vec<(&'static str, f64)>;

impl PhaseLog {
    /// Appends one `(phase, seconds)` pair for `id`.
    pub fn record(&self, id: JobId, phase: &'static str, seconds: f64) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let (order, map) = &mut *inner;
        if !map.contains_key(&id) {
            order.push_back(id);
            if order.len() > PHASE_RETENTION {
                if let Some(old) = order.pop_front() {
                    map.remove(&old);
                }
            }
        }
        map.entry(id).or_default().push((phase, seconds));
    }

    /// The recorded phases of `id`, in execution order.
    pub fn phases(&self, id: JobId) -> PhaseTimings {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.1.get(&id).cloned().unwrap_or_default()
    }
}

/// Everything a job needs besides its spec.
pub struct RunEnv<'a> {
    /// Where checkpoints (and final artifacts) are persisted.
    pub store: &'a JobStore,
    /// Daemon counters (checkpoints written).
    pub metrics: &'a Metrics,
    /// Trials between checkpoints; 0 disables periodic checkpointing.
    pub checkpoint_every: usize,
    /// Stress-cache directory override for `fea` jobs.
    pub cache_dir: Option<&'a Path>,
    /// Byte cap for netlist re-ingest, mirroring the limit the submission
    /// endpoint screened with — a deck accepted at the door must never be
    /// rejected as "too large" once it reaches a worker.
    pub max_netlist_bytes: usize,
    /// Line cap for netlist re-ingest, same door/worker symmetry as
    /// [`RunEnv::max_netlist_bytes`] — chip-scale decks run to millions of
    /// lines, far past the ingest default.
    pub max_netlist_lines: usize,
    /// Phase-duration sink for status docs (`None` = don't record).
    pub phases: Option<&'a PhaseLog>,
}

/// The optional hooks and limits [`execute`] runs under. The daemon wires
/// them to its job store; a one-shot caller leaves them at their defaults.
#[derive(Default)]
pub struct Hooks<'a> {
    /// Cooperative cancellation, polled between trials.
    pub cancel: Option<&'a CancelToken>,
    /// Encoded checkpoint of the checkpointed Monte Carlo level (level 1
    /// for `characterize`, level 2 for `analyze`) to resume from.
    pub resume: Option<String>,
    /// Trials between checkpoints; 0 disables periodic checkpointing.
    pub checkpoint_every: usize,
    /// Receives each encoded checkpoint.
    pub on_checkpoint: Option<&'a dyn Fn(&str)>,
    /// Receives `(phase, seconds)` as each [`PhaseLog`] phase ends.
    pub on_phase: Option<&'a dyn Fn(&'static str, f64)>,
    /// Size caps for an `analyze` job's netlist.
    pub limits: IngestLimits,
    /// Stress-cache directory override for `fea` jobs.
    pub cache_dir: Option<&'a Path>,
}

impl Hooks<'_> {
    /// Runs one phase, reporting its wall time.
    fn timed<T>(&self, phase: &'static str, run: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = run();
        if let Some(on_phase) = self.on_phase {
            on_phase(phase, started.elapsed().as_secs_f64());
        }
        out
    }

    fn checkpoint(&self, encode: impl FnOnce() -> String) {
        if let Some(on_checkpoint) = self.on_checkpoint {
            on_checkpoint(&encode());
        }
    }
}

/// What [`execute`] produced: the typed results, run telemetry included,
/// with the resolved parameters [`result_doc`] echoes.
pub enum Outcome {
    /// Level-1 characterization, with the ln-TTF variance split when the
    /// spec asked for one.
    Characterize {
        mc: ResolvedMc,
        result: CharacterizationResult,
        variance: Option<VarianceDecomposition>,
    },
    /// Two-level analysis: the deck label (benchmark or `inline`), its
    /// via-array site count, the level-2 result, and the screening report
    /// and level-1 variance split when the spec asked for them.
    Analyze {
        mc: ResolvedMc,
        grid_trials: usize,
        deck: String,
        sites: usize,
        result: McResult,
        screen: Option<ScreenReport>,
        variance: Option<VarianceDecomposition>,
    },
    /// One-primitive FEA, with the stress cache it consulted.
    Fea {
        job: ResolvedFea,
        table: StressTable,
        report: FeaReport,
        cache: Option<PathBuf>,
    },
}

/// Why [`execute`] stopped short of an [`Outcome`].
#[derive(Debug)]
pub enum Halt {
    /// The job observed its cancellation token.
    Cancelled,
    /// The job failed, with a client-readable reason.
    Failed(String),
}

/// Wraps an error as a job failure, prefixed with what failed.
fn failed<E: std::fmt::Display>(what: &str) -> impl FnOnce(E) -> Halt + '_ {
    move |e| Halt::Failed(format!("{what}: {e}"))
}

/// Runs one job to an outcome. Never panics on bad input — every failure
/// becomes [`JobOutcome::Failed`] with a client-readable message.
pub fn run_job(spec: &JobSpec, ctx: &JobCtx, env: &RunEnv<'_>) -> JobOutcome<String> {
    // Accepted specs always resolve; a failure here means a hand-built or
    // tampered spec reached a worker, and the field-level message says why.
    let job = match spec.resolve() {
        Ok(job) => job,
        Err(e) => return JobOutcome::Failed(format!("spec failed to resolve: {e}")),
    };
    let on_checkpoint = |encoded: &str| {
        if env.store.write_checkpoint(ctx.id, encoded).is_ok() {
            ctx.note_checkpoint();
            Metrics::inc(&env.metrics.checkpoints);
        }
    };
    let on_phase = |phase: &'static str, seconds: f64| {
        if let Some(log) = env.phases {
            log.record(ctx.id, phase, seconds);
        }
    };
    let hooks = Hooks {
        cancel: Some(&ctx.cancel),
        resume: env.store.read_checkpoint(ctx.id),
        checkpoint_every: env.checkpoint_every,
        on_checkpoint: Some(&on_checkpoint),
        on_phase: Some(&on_phase),
        limits: IngestLimits {
            max_bytes: env.max_netlist_bytes,
            max_lines: env.max_netlist_lines,
        },
        cache_dir: env.cache_dir,
    };
    match execute(&job, &hooks).and_then(|outcome| result_doc(&outcome).map_err(Halt::Failed)) {
        Ok(doc) => JobOutcome::Done(doc.to_string()),
        Err(Halt::Cancelled) => JobOutcome::Cancelled,
        Err(Halt::Failed(e)) => JobOutcome::Failed(e),
    }
}

/// Runs a resolved job under `hooks` to its typed [`Outcome`].
///
/// # Errors
///
/// [`Halt`] when the job is cancelled or fails.
pub fn execute(job: &ResolvedJob, hooks: &Hooks<'_>) -> Result<Outcome, Halt> {
    match job {
        ResolvedJob::Characterize(mc) => characterize(mc, hooks),
        ResolvedJob::Analyze(job) => analyze(job, hooks),
        ResolvedJob::Fea(job) => fea(job, hooks),
    }
}

/// The level-1 model of a spec: the paper's reference stress table at the
/// spec's current density, varied when the spec has a `variation` block.
fn level1_model(mc: &ResolvedMc) -> ViaArrayMc {
    let model =
        ViaArrayMc::from_reference_table(&mc.config, Technology::default(), mc.current_density);
    match &mc.variation {
        Some(v) => model.with_variation(v.to_via()),
        None => model,
    }
}

/// A level-1 run that finished: not cancelled before or during its trials.
fn finished(result: Option<CharacterizationResult>) -> Result<CharacterizationResult, Halt> {
    result
        .filter(|r| !r.report().cancelled)
        .ok_or(Halt::Cancelled)
}

fn characterize(mc: &ResolvedMc, hooks: &Hooks<'_>) -> Result<Outcome, Halt> {
    let model = level1_model(mc);
    let mut on_checkpoint = |cp: &ViaCheckpoint| hooks.checkpoint(|| cp.encode());
    let session = ViaSession {
        resume: hooks
            .resume
            .as_deref()
            .and_then(|t| ViaCheckpoint::decode(t).ok()),
        cancel: hooks.cancel,
        checkpoint_every: hooks.checkpoint_every,
        on_checkpoint: Some(&mut on_checkpoint),
    };
    let outcome = hooks.timed("mc", || {
        model.characterize_session(mc.trials, mc.seed, &mc.runtime, session)
    });
    let result = finished(outcome)?;
    Ok(Outcome::Characterize {
        variance: frozen_variance(&model, mc, hooks, &result)?,
        mc: mc.clone(),
        result,
    })
}

/// The ln-TTF variance split of `varied` (see
/// [`ViaArrayMc::variance_split`]), when the spec asks for one.
fn frozen_variance(
    model: &ViaArrayMc,
    mc: &ResolvedMc,
    hooks: &Hooks<'_>,
    varied: &CharacterizationResult,
) -> Result<Option<VarianceDecomposition>, Halt> {
    if !mc.variation.is_some_and(|v| v.variance_analysis) {
        return Ok(None);
    }
    let split = model.variance_split(varied, mc.trials, mc.seed, &mc.runtime, hooks.cancel);
    split.map(Some).ok_or(Halt::Cancelled)
}

/// The netlist an `analyze` spec names, and its label: a benchmark profile
/// is generated, an inline deck goes through [`ingest`] under `limits`,
/// which rejects fatal lint findings with a client-readable message.
pub fn load_deck(
    deck: &DeckSource,
    repair_vias: Option<f64>,
    limits: IngestLimits,
) -> Result<(Netlist, String), String> {
    match deck {
        DeckSource::Benchmark(name) => {
            let spec = GridSpec::profile(name).unwrap_or_else(GridSpec::pg1);
            Ok((spec.generate(), name.clone()))
        }
        DeckSource::Netlist(text) => ingest(
            text,
            &IngestOptions {
                limits,
                repair_vias,
            },
        )
        .map(|ok| (ok.netlist, "inline".to_owned()))
        .map_err(|e| format!("netlist rejected: {e}")),
    }
}

/// The screening pass an `analyze` spec's `screening` and `solver` blocks
/// ask for (no `screening` block: rank every via array).
pub fn screen_options(job: &ResolvedAnalyze) -> ScreenOptions {
    let screening = job.screening.unwrap_or_default();
    ScreenOptions {
        method: job.method,
        factor: job.factor,
        top_k: screening.top_k,
        stress_threshold: screening.stress_threshold,
        ..ScreenOptions::default()
    }
}

fn analyze(job: &ResolvedAnalyze, hooks: &Hooks<'_>) -> Result<Outcome, Halt> {
    let mc = &job.mc;
    let (netlist, deck) = hooks
        .timed("ingest", || {
            load_deck(&job.deck, job.repair_vias, hooks.limits)
        })
        .map_err(Halt::Failed)?;

    // Level 1: via-array characterization (deterministic, re-run in full on
    // resume — only the level-2 grid loop is checkpointed).
    let model = level1_model(mc);
    let level1 = ViaSession {
        cancel: hooks.cancel,
        ..ViaSession::default()
    };
    let characterization = finished(hooks.timed("level1", || {
        model.characterize_session(mc.trials, mc.seed, &mc.runtime, level1)
    }))?;
    let reliability = characterization
        .reliability(mc.criterion)
        .map_err(failed("level-1 fit failed"))?;

    // Level 2: system Monte Carlo over the grid, checkpointed.
    let grid = PowerGrid::from_netlist(netlist).map_err(failed("grid construction failed"))?;
    let sites = grid.via_sites().len();

    // Optional prefilter: steady-state screening ranks every via array in
    // one linear-time pass, and the grid Monte Carlo then simulates only
    // the selected subset.
    let screen = match &job.screening {
        Some(_) => {
            let report = hooks
                .timed("screen", || {
                    screen_grid(&grid, &Technology::default(), &screen_options(job))
                })
                .map_err(failed("screening failed"))?;
            if report.selected_scores().is_empty() {
                return Err(Halt::Failed(
                    "screening selected no via arrays: stress_threshold excludes every site".into(),
                ));
            }
            Some(report)
        }
        None => None,
    };

    let mut grid_mc = PowerGridMc::new(grid, reliability)
        .with_system_criterion(SystemCriterion::IrDropFraction(0.10))
        .with_factor_options(job.factor);
    if let Some(v) = &mc.variation {
        // Temperature enters the grid level as a first-order ln-TTF sigma
        // (Ea/(kB·T²)·σ_T); linewidth scales per-site current directly.
        grid_mc = grid_mc.with_variation(GridVariation {
            ttf_ln_sigma: v.to_via().grid_ttf_ln_sigma(&Technology::default()),
            linewidth_sigma: v.linewidth_sigma,
        });
    }
    if let Some(report) = &screen {
        grid_mc = grid_mc.with_active_sites(&report.selected_sites());
    }
    let mut on_checkpoint = |cp: &GridCheckpoint| hooks.checkpoint(|| cp.encode());
    let session = GridSession {
        resume: hooks
            .resume
            .as_deref()
            .and_then(|t| GridCheckpoint::decode(t).ok()),
        cancel: hooks.cancel,
        checkpoint_every: hooks.checkpoint_every,
        on_checkpoint: Some(&mut on_checkpoint),
    };
    let result = hooks
        .timed("level2", || {
            grid_mc.run_session(job.grid_trials, mc.seed ^ 0xc11, &mc.runtime, session)
        })
        .map_err(failed("grid Monte Carlo failed"))?;
    if result.report().cancelled {
        return Err(Halt::Cancelled);
    }
    Ok(Outcome::Analyze {
        variance: frozen_variance(&model, mc, hooks, &characterization)?,
        mc: mc.clone(),
        grid_trials: job.grid_trials,
        deck,
        sites,
        result,
        screen,
    })
}

fn fea(job: &ResolvedFea, hooks: &Hooks<'_>) -> Result<Outcome, Halt> {
    let model = CharacterizationModel {
        pattern: job.intersection,
        array: job.geometry,
        resolution: job.resolution,
        ..CharacterizationModel::default()
    };
    let cache = match (job.use_cache, hooks.cache_dir) {
        (false, _) => None,
        (true, Some(dir)) => Some(StressCache::new(dir)),
        (true, None) => StressCache::open_default(),
    };
    let cache_dir = cache.as_ref().map(|c| c.dir().to_path_buf());
    let opts = FeaOptions {
        threads: job.threads,
        ordering: job.ordering,
        kernels: job.kernels,
        cache,
        ..FeaOptions::default()
    };
    let (table, report) = hooks
        .timed("fea", || {
            StressTable::characterize_with_fea_opts(&[(model, LayerPair::IntermediateTop)], &opts)
        })
        .map_err(failed("FEA failed"))?;
    Ok(Outcome::Fea {
        job: job.clone(),
        table,
        report,
        cache: cache_dir,
    })
}

/// Renders an outcome as its result document: statistics only, never
/// timing or thread counts, in a fixed key order. Variation and screening
/// blocks are opt-in, so documents without them keep their historical
/// bytes.
///
/// # Errors
///
/// A client-readable message when a fit fails or a statistic is not
/// finite: JSON has no NaN/Inf, and writing one as `null` would ship a
/// broken statistic as a valid-looking document.
pub fn result_doc(outcome: &Outcome) -> Result<Json, String> {
    let doc = match outcome {
        Outcome::Characterize {
            mc,
            result,
            variance,
        } => {
            let ecdf = result.ecdf(mc.criterion);
            let fit = result
                .fit_lognormal(mc.criterion)
                .map_err(|e| format!("lognormal fit failed: {e}"))?;
            let ks = result
                .fit_quality(mc.criterion)
                .map_err(|e| format!("fit quality failed: {e}"))?;
            let years = |seconds: f64| Json::n(seconds / SECONDS_PER_YEAR);
            let trials_run = result.report().trials_run as f64;
            let mut doc = vec![
                ("kind".into(), Json::s("characterize")),
                ("array".into(), Json::s(&mc.array)),
                ("pattern".into(), Json::s(&mc.pattern)),
                ("criterion".into(), Json::s(&mc.criterion_label)),
                ("trials".into(), Json::n(mc.trials as f64)),
                ("seed".into(), Json::n(mc.seed as f64)),
                ("trials_run".into(), Json::n(trials_run)),
                ("ttf_median_years".into(), years(ecdf.median())),
                ("ttf_p03_years".into(), years(ecdf.worst_case())),
                ("lognormal_median_years".into(), years(fit.median())),
                ("lognormal_sigma".into(), Json::n(fit.sigma())),
                ("ks".into(), Json::n(ks)),
            ];
            doc.extend(variation_doc(mc, variance.as_ref()));
            doc
        }
        Outcome::Analyze {
            mc,
            grid_trials,
            deck,
            sites,
            result,
            screen,
            variance,
        } => {
            let mut doc = vec![
                ("kind".into(), Json::s("analyze")),
                ("deck".into(), Json::s(deck)),
                ("array".into(), Json::s(&mc.array)),
                ("pattern".into(), Json::s(&mc.pattern)),
                ("criterion".into(), Json::s(&mc.criterion_label)),
                ("trials".into(), Json::n(mc.trials as f64)),
                ("grid_trials".into(), Json::n(*grid_trials as f64)),
                ("seed".into(), Json::n(mc.seed as f64)),
                ("sites".into(), Json::n(*sites as f64)),
            ];
            doc.extend(variation_doc(mc, variance.as_ref()));
            doc.extend(screen.as_ref().map(screening_doc));
            let critical = result
                .critical_sites(5)
                .into_iter()
                .map(|(site, count)| Json::Arr(vec![Json::n(site as f64), Json::n(count as f64)]));
            doc.extend([
                (
                    "grid_trials_run".into(),
                    Json::n(result.report().trials_run as f64),
                ),
                ("ttf_median_years".into(), Json::n(result.median_years())),
                ("ttf_p03_years".into(), Json::n(result.worst_case_years())),
                ("mean_failures".into(), Json::n(result.mean_failures())),
                ("critical_sites".into(), Json::Arr(critical.collect())),
            ]);
            doc
        }
        Outcome::Fea {
            job, table, report, ..
        } => {
            let entry = &table.entries()[0];
            let stress = entry.per_via_stress.iter().map(|s| Json::n(s / 1e6));
            vec![
                ("kind".into(), Json::s("fea")),
                ("array".into(), Json::s(&job.array)),
                ("pattern".into(), Json::s(&job.pattern)),
                ("resolution".into(), Json::n(job.resolution)),
                ("rows".into(), Json::n(entry.rows as f64)),
                ("cols".into(), Json::n(entry.cols as f64)),
                (
                    "unknowns".into(),
                    Json::n(report.primitives[0].unknowns as f64),
                ),
                ("per_via_stress_mpa".into(), Json::Arr(stress.collect())),
            ]
        }
    };
    let doc = Json::Obj(doc);
    check_finite(&doc, "")?;
    Ok(doc)
}

/// The result-document `variation` block, present when the spec varied
/// the run: its knobs, plus the variance decomposition when asked for.
fn variation_doc(
    mc: &ResolvedMc,
    variance: Option<&VarianceDecomposition>,
) -> Option<(String, Json)> {
    let v = mc.variation?;
    let mut pairs = vec![
        ("edge_current_factor".into(), Json::n(v.edge_current_factor)),
        ("temperature_sigma_c".into(), Json::n(v.temperature_sigma_c)),
        ("linewidth_sigma".into(), Json::n(v.linewidth_sigma)),
    ];
    if let Some(d) = variance {
        pairs.push((
            "variance".into(),
            Json::Obj(vec![
                ("total".into(), Json::n(d.total)),
                ("void".into(), Json::n(d.void)),
                ("environment".into(), Json::n(d.environment)),
            ]),
        ));
    }
    Some(("variation".into(), Json::Obj(pairs)))
}

/// The result-document `screening` block: the selected sites' scores.
fn screening_doc(report: &ScreenReport) -> (String, Json) {
    let scores = report.selected_scores().iter().map(|s| {
        Json::Obj(vec![
            ("site".into(), Json::n(s.site as f64)),
            ("name".into(), Json::s(&s.name)),
            ("stress_pa".into(), Json::n(s.stress_pa)),
            ("criticality".into(), Json::n(s.criticality)),
            ("current_a".into(), Json::n(s.current_a)),
        ])
    });
    let selected = report.selected_scores().len() as f64;
    let block = vec![
        ("trees".into(), Json::n(report.trees as f64)),
        (
            "critical_stress_pa".into(),
            Json::n(report.critical_stress_pa),
        ),
        ("selected".into(), Json::n(selected)),
        ("scores".into(), Json::Arr(scores.collect())),
    ];
    ("screening".into(), Json::Obj(block))
}

/// Fails on the first NaN/Inf number in `doc`, naming its dotted key
/// (array elements report the array's key).
fn check_finite(doc: &Json, key: &str) -> Result<(), String> {
    match doc {
        Json::Num(n) if !n.is_finite() => Err(format!("non-finite statistic `{key}`")),
        Json::Arr(items) => items.iter().try_for_each(|v| check_finite(v, key)),
        Json::Obj(pairs) => pairs.iter().try_for_each(|(k, v)| match key {
            "" => check_finite(v, k),
            _ => check_finite(v, &format!("{key}.{k}")),
        }),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{JobBody, McParams, ScreeningSpec, SolverSpec};
    use emgrid_runtime::JobEngine;
    use std::time::Duration;

    fn temp_store(tag: &str) -> JobStore {
        let root = std::env::temp_dir().join(format!("emgrid-runner-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        JobStore::open(root).unwrap()
    }

    /// Runs a spec through a real engine (so a genuine JobCtx exists) and
    /// waits for the outcome.
    fn run_to_outcome(
        spec: JobSpec,
        store: &JobStore,
        checkpoint_every: usize,
    ) -> (u64, JobOutcome<String>) {
        let engine: JobEngine<String> = JobEngine::new(1, 4);
        let store2 = store.clone();
        let id = engine
            .submit(move |ctx| {
                let metrics = Metrics::default();
                let env = RunEnv {
                    store: &store2,
                    metrics: &metrics,
                    checkpoint_every,
                    cache_dir: None,
                    max_netlist_bytes: IngestLimits::default().max_bytes,
                    max_netlist_lines: IngestLimits::default().max_lines,
                    phases: None,
                };
                run_job(&spec, ctx, &env)
            })
            .unwrap();
        engine.wait_terminal(id, Duration::from_secs(120)).unwrap();
        let snap = engine.snapshot(id).unwrap();
        let outcome = match snap.result {
            Some(r) => JobOutcome::Done(r),
            None if snap.error.is_some() => JobOutcome::Failed(snap.error.unwrap()),
            None => JobOutcome::Cancelled,
        };
        (id, outcome)
    }

    fn characterize_spec(trials: usize, seed: u64, threads: usize) -> JobSpec {
        JobSpec::from(JobBody::Characterize(McParams {
            array: "4x4".into(),
            pattern: "plus".into(),
            criterion: "rinf".into(),
            trials,
            seed,
            threads,
            target_ci: None,
            current_density: None,
            variation: None,
        }))
    }

    #[test]
    fn characterize_result_is_thread_count_invariant() {
        let store = temp_store("char");
        let (_, one) = run_to_outcome(characterize_spec(96, 11, 1), &store, 0);
        let (_, two) = run_to_outcome(characterize_spec(96, 11, 3), &store, 0);
        let (JobOutcome::Done(a), JobOutcome::Done(b)) = (&one, &two) else {
            panic!("jobs failed: {one:?} / {two:?}");
        };
        assert_eq!(a, b, "thread count leaked into the result document");
        assert!(a.contains("\"kind\":\"characterize\""), "{a}");
        assert!(a.contains("\"trials_run\":96"), "{a}");
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn varied_characterize_reports_variance_and_stays_thread_invariant() {
        let store = temp_store("varied");
        let make = |threads: usize| {
            let mut spec = characterize_spec(64, 21, threads);
            let JobBody::Characterize(mc) = &mut spec.body else {
                unreachable!()
            };
            mc.variation = Some(crate::spec::VariationSpec {
                edge_current_factor: 0.4,
                temperature_sigma_c: 6.0,
                linewidth_sigma: 0.05,
                variance_analysis: true,
            });
            spec
        };
        let (_, one) = run_to_outcome(make(1), &store, 0);
        let (_, four) = run_to_outcome(make(4), &store, 0);
        let (JobOutcome::Done(a), JobOutcome::Done(b)) = (&one, &four) else {
            panic!("jobs failed: {one:?} / {four:?}");
        };
        assert_eq!(a, b, "thread count leaked into the varied result");
        assert!(
            a.contains("\"variation\":{\"edge_current_factor\":0.4"),
            "{a}"
        );
        assert!(a.contains("\"variance\":{\"total\":"), "{a}");
        assert!(a.contains("\"environment\":"), "{a}");
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn analyze_checkpoint_resume_reproduces_the_uninterrupted_result() {
        let deck =
            emgrid_spice::writer::write_string(&GridSpec::custom("runner-test", 8, 8).generate());
        let make_spec = |grid_trials: usize| {
            JobSpec::from(JobBody::Analyze {
                mc: McParams {
                    array: "4x4".into(),
                    pattern: "plus".into(),
                    criterion: "rinf".into(),
                    trials: 120,
                    seed: 9,
                    threads: 2,
                    target_ci: None,
                    current_density: None,
                    variation: None,
                },
                deck: DeckSource::Netlist(deck.clone()),
                grid_trials,
                repair_vias: None,
                screening: None,
                solver: SolverSpec::default(),
            })
        };

        // Reference: 40 grid trials straight through, no checkpointing.
        let store = temp_store("analyze");
        let (_, reference) = run_to_outcome(make_spec(40), &store, 0);
        let JobOutcome::Done(reference) = reference else {
            panic!("reference failed: {reference:?}")
        };

        // Interruption, constructed deterministically: an 8-trial run with
        // checkpoint cadence 8 leaves on disk exactly the checkpoint a
        // 40-trial run would have written at its first watermark (same
        // seed, and batch ends align to absolute trial-index multiples).
        let store2 = temp_store("analyze-resume");
        let (prefix_id, prefix) = run_to_outcome(make_spec(8), &store2, 8);
        assert!(matches!(prefix, JobOutcome::Done(_)), "{prefix:?}");
        assert!(
            store2.read_checkpoint(prefix_id).is_some(),
            "no checkpoint persisted"
        );

        // Resume: the full 40-trial spec under the same id finds the
        // watermark-8 checkpoint and must land on the reference bytes.
        let (resumed_id, resumed) = run_to_outcome(make_spec(40), &store2, 8);
        assert_eq!(resumed_id, prefix_id, "store keying broken");
        let JobOutcome::Done(resumed) = resumed else {
            panic!("resumed run failed: {resumed:?}")
        };
        assert_eq!(
            resumed, reference,
            "resumed run diverged from the uninterrupted reference"
        );
        let _ = std::fs::remove_dir_all(store.root());
        let _ = std::fs::remove_dir_all(store2.root());
    }

    #[test]
    fn a_pre_cancelled_job_reports_cancelled_without_output() {
        let store = temp_store("cancel");
        let engine: JobEngine<String> = JobEngine::new(1, 4);
        let spec = characterize_spec(5_000, 3, 1);
        let s = store.clone();
        let id = engine
            .submit(move |ctx| {
                // Trip the job's own token before running, modelling a
                // delete that raced submission.
                ctx.cancel.cancel();
                let metrics = Metrics::default();
                let env = RunEnv {
                    store: &s,
                    metrics: &metrics,
                    checkpoint_every: 0,
                    cache_dir: None,
                    max_netlist_bytes: IngestLimits::default().max_bytes,
                    max_netlist_lines: IngestLimits::default().max_lines,
                    phases: None,
                };
                run_job(&spec, ctx, &env)
            })
            .unwrap();
        engine.wait_terminal(id, Duration::from_secs(60)).unwrap();
        let snap = engine.snapshot(id).unwrap();
        assert!(snap.result.is_none(), "{snap:?}");
        assert!(snap.error.is_none(), "{snap:?}");
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn screened_analyze_records_scores_and_stays_byte_stable() {
        let store = temp_store("screened");
        let make = |screening: Option<ScreeningSpec>| {
            JobSpec::from(JobBody::Analyze {
                mc: McParams {
                    array: "4x4".into(),
                    pattern: "plus".into(),
                    criterion: "rinf".into(),
                    trials: 48,
                    seed: 7,
                    threads: 2,
                    target_ci: None,
                    current_density: None,
                    variation: None,
                },
                deck: DeckSource::Benchmark("pg1".into()),
                grid_trials: 10,
                repair_vias: None,
                screening,
                solver: SolverSpec::default(),
            })
        };
        let top6 = ScreeningSpec {
            top_k: Some(6),
            stress_threshold: None,
        };
        let (_, first) = run_to_outcome(make(Some(top6)), &store, 0);
        let JobOutcome::Done(first) = first else {
            panic!("screened job failed: {first:?}")
        };
        assert!(first.contains("\"screening\":{\"trees\":"), "{first}");
        assert!(first.contains("\"selected\":6"), "{first}");
        assert!(first.contains("\"stress_pa\":"), "{first}");
        assert!(first.contains("\"ttf_median_years\":"), "{first}");

        let (_, second) = run_to_outcome(make(Some(top6)), &store, 0);
        let JobOutcome::Done(second) = second else {
            panic!("rerun failed: {second:?}")
        };
        assert_eq!(first, second, "screened result document is not byte-stable");

        // A threshold no array can reach fails structurally instead of
        // running a Monte Carlo with nothing allowed to fail.
        let impossible = ScreeningSpec {
            top_k: None,
            stress_threshold: Some(1e30),
        };
        let (_, outcome) = run_to_outcome(make(Some(impossible)), &store, 0);
        let JobOutcome::Failed(message) = outcome else {
            panic!("expected failure, got {outcome:?}")
        };
        assert!(
            message.contains("screening selected no via arrays"),
            "{message}"
        );
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn bad_netlists_fail_with_structured_messages() {
        let store = temp_store("badnet");
        let spec = JobSpec::from(JobBody::Analyze {
            mc: McParams {
                array: "4x4".into(),
                pattern: "plus".into(),
                criterion: "rinf".into(),
                trials: 10,
                seed: 1,
                threads: 1,
                target_ci: None,
                current_density: None,
                variation: None,
            },
            deck: DeckSource::Netlist("R1 a b\n".into()),
            grid_trials: 5,
            repair_vias: None,
            screening: None,
            solver: SolverSpec::default(),
        });
        let (_, outcome) = run_to_outcome(spec, &store, 0);
        let JobOutcome::Failed(message) = outcome else {
            panic!("expected failure, got {outcome:?}")
        };
        assert!(message.contains("netlist rejected"), "{message}");
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn non_finite_statistics_fail_naming_their_key() {
        let doc = |sigma: f64| {
            Json::Obj(vec![
                ("kind".into(), Json::s("characterize")),
                ("lognormal_sigma".into(), Json::n(sigma)),
                (
                    "variation".into(),
                    Json::Obj(vec![(
                        "variance".into(),
                        Json::Obj(vec![("total".into(), Json::n(sigma))]),
                    )]),
                ),
                (
                    "per_via".into(),
                    Json::Arr(vec![Json::n(1.0), Json::n(sigma)]),
                ),
            ])
        };
        assert_eq!(check_finite(&doc(0.25), ""), Ok(()));
        assert_eq!(
            check_finite(&doc(f64::NAN), ""),
            Err("non-finite statistic `lognormal_sigma`".to_owned())
        );
        let Json::Obj(mut pairs) = doc(f64::INFINITY) else {
            unreachable!()
        };
        pairs.remove(1);
        assert_eq!(
            check_finite(&Json::Obj(pairs.clone()), ""),
            Err("non-finite statistic `variation.variance.total`".to_owned())
        );
        pairs.remove(1);
        assert_eq!(
            check_finite(&Json::Obj(pairs), ""),
            Err("non-finite statistic `per_via`".to_owned())
        );
    }
}
