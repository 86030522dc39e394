//! Traced runs: the benchmark replays each workload's pipeline one layer
//! call at a time, with a span around every call, and reads the program's
//! own span table for the work below those calls.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use emgrid_batch::SweepEngine;
use emgrid_em::Technology;
use emgrid_fea::ThermalStressAnalysis;
use emgrid_pg::{PowerGrid, PowerGridMc, SystemCriterion};
use emgrid_runtime::obs;
use emgrid_scenarios::SweepSpec;
use emgrid_screen::{screen_grid, ScreenOptions};
use emgrid_serve::json::{self, Json};
use emgrid_serve::spec::{DeckSource, ResolvedAnalyze};
use emgrid_serve::ResolvedJob;
use emgrid_sparse::{FactorOptions, LdlFactor};
use emgrid_spice::GridSpec;
use emgrid_via::{FeaOptions, ViaArrayMc, ViaSession};

use crate::backend::TracingBackend;
use crate::obs_report;
use crate::trace::{coverage, SpanRec, Tracer};
use crate::workload::{fea_model, fresh_dir, job_spec, Workload, SWEEP_CHECKPOINT_EVERY};

/// One traced iteration.
#[derive(Debug, Clone)]
pub struct TracedRun {
    /// Wall seconds of the iteration's root span.
    pub wall: f64,
    /// Share of the root span its layer spans cover.
    pub coverage: f64,
    /// The uncovered remainder, by name.
    pub gaps: Vec<(String, f64)>,
    /// Headline statistics, to compare with the untraced run.
    pub headlines: Vec<f64>,
    /// Per-layer busy seconds.
    pub times: BTreeMap<&'static str, f64>,
    /// Deterministic work counters.
    pub counts: BTreeMap<&'static str, f64>,
}

/// What a workload's layer calls report besides their spans.
#[derive(Default)]
struct Replay {
    headlines: Vec<f64>,
    counts: BTreeMap<&'static str, f64>,
    times: BTreeMap<&'static str, f64>,
    /// The grid's nominal system, factored after the root span closes.
    nominal: Option<(PowerGridMc, FactorOptions)>,
}

/// Runs one traced iteration as span run `run`.
pub fn run_traced(
    workload: Workload,
    job_seed: u64,
    tracer: &Arc<Tracer>,
    run: u64,
    state: &Path,
) -> Result<TracedRun, String> {
    let specs = workload.specs(job_seed);
    obs::reset_spans();
    obs::set_trace(true);
    let replay = tracer.span(run, None, "iteration", |root| match workload {
        Workload::AnalyzePg1 | Workload::TopkPg100k => analyze(&specs[0], tracer, run, root),
        Workload::FeaFig07 => fea(&specs, tracer, run, root),
        Workload::SweepFig08 => sweep(&specs[0], tracer, run, root, state),
    });
    obs::set_trace(false);
    let mut replay = replay?;
    if let Some((grid_mc, options)) = replay.nominal.take() {
        let factor = LdlFactor::factor_with(grid_mc.grid().dc().matrix(), &options)
            .map_err(|e| format!("nominal factor failed: {e}"))?;
        replay
            .counts
            .insert("sparse.nominal_fill_nnz", factor.l_nnz() as f64);
    }

    let spans = tracer.spans_of(run);
    let root = spans
        .iter()
        .find(|s| s.parent.is_none())
        .ok_or("traced run recorded no root span")?;
    let (share, gaps) = coverage(root, &spans);
    let total = |name: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(SpanRec::seconds)
            .sum()
    };

    let program = obs_report::snapshot();
    let (solves, solve_s) = obs_report::sum(&program, "solve", |p| p != "fea");
    let (factors, numeric_s) = obs_report::sum(&program, "numeric", |_| true);
    let (_, order_s) = obs_report::sum(&program, "order", |_| true);
    let (_, symbolic_s) = obs_report::sum(&program, "symbolic", |_| true);
    let (checkpoints, checkpoint_s) = obs_report::sum(&program, "checkpoint", |_| true);
    let (_, via_mc_s) = obs_report::sum(&program, "via-mc", |_| true);

    let counts = &mut replay.counts;
    counts.insert("sparse.solve_calls", solves as f64);
    counts.insert("sparse.factor_calls", factors as f64);
    counts.insert("runtime.checkpoint_count", checkpoints as f64);
    let failures = counts.get("pg.failures").copied().unwrap_or(0.0);

    let times = &mut replay.times;
    times.insert("sparse.solve_s", solve_s);
    times.insert("sparse.factor_s", order_s + symbolic_s + numeric_s);
    times.insert("runtime.checkpoint_s", checkpoint_s);
    // The benchmark's own span where it calls the level-1 MC directly;
    // inside a sweep the call is in `run_job`, so the program's span.
    let via_span = total("via.characterize");
    times.insert(
        "via.characterize_s",
        if via_span > 0.0 { via_span } else { via_mc_s },
    );
    let mc = total("pg.mc");
    times.insert("pg.mc_s", mc);
    times.insert(
        "pg.ms_per_failure",
        if failures > 0.0 {
            mc * 1e3 / failures
        } else {
            0.0
        },
    );
    for (metric, span) in [
        ("spice.generate_s", "spice.generate"),
        ("pg.grid_build_s", "pg.grid_build"),
        ("screen.screen_s", "screen.screen"),
        ("scenarios.expand_s", "scenarios.expand"),
        ("serve.run_job_s", "serve.run_job"),
    ] {
        times.insert(metric, total(span));
    }
    let sweep = total("batch.sweep");
    let run_jobs = total("serve.run_job");
    times.insert(
        "batch.overhead_s",
        if sweep > 0.0 { sweep - run_jobs } else { 0.0 },
    );

    Ok(TracedRun {
        wall: root.seconds(),
        coverage: share,
        gaps,
        headlines: replay.headlines,
        times: replay.times,
        counts: replay.counts,
    })
}

fn resolve_analyze(text: &str) -> Result<ResolvedAnalyze, String> {
    match job_spec(text)?
        .resolve()
        .map_err(|e| format!("spec failed to resolve: {e}"))?
    {
        ResolvedJob::Analyze(job) if job.mc.variation.is_none() => Ok(job),
        _ => Err("expected an analyze job without variation".to_owned()),
    }
}

/// The analyze pipeline of `serve::runner`, one layer call per span.
fn analyze(text: &str, tracer: &Tracer, run: u64, root: u64) -> Result<Replay, String> {
    let parent = Some(root);
    let mut out = Replay::default();

    let job = tracer.span(run, parent, "serve.resolve", |_| resolve_analyze(text))?;
    let mc = &job.mc;
    let DeckSource::Benchmark(deck) = &job.deck else {
        return Err("expected a benchmark deck".into());
    };
    let netlist = tracer.span(run, parent, "spice.generate", |_| {
        GridSpec::profile(deck)
            .unwrap_or_else(GridSpec::pg1)
            .generate()
    });
    let characterization = tracer
        .span(run, parent, "via.characterize", |_| {
            ViaArrayMc::from_reference_table(&mc.config, Technology::default(), mc.current_density)
                .characterize_session(mc.trials, mc.seed, &mc.runtime, ViaSession::default())
        })
        .ok_or("level-1 MC was cancelled")?;
    out.counts
        .insert("via.trials", characterization.report().trials_run as f64);
    let reliability = characterization
        .reliability(mc.criterion)
        .map_err(|e| format!("level-1 fit failed: {e}"))?;
    let grid = tracer
        .span(run, parent, "pg.grid_build", |_| {
            PowerGrid::from_netlist(netlist)
        })
        .map_err(|e| format!("grid construction failed: {e}"))?;

    let mut active = grid.via_sites().len();
    let mut selected = None;
    if let Some(s) = &job.screening {
        let options = ScreenOptions {
            method: job.method,
            factor: job.factor,
            top_k: s.top_k,
            stress_threshold: s.stress_threshold,
            ..ScreenOptions::default()
        };
        let report = tracer
            .span(run, parent, "screen.screen", |_| {
                screen_grid(&grid, &Technology::default(), &options)
            })
            .map_err(|e| format!("screening failed: {e}"))?;
        let sites = report.selected_sites();
        active = sites.len();
        out.counts.insert("screen.selected", active as f64);
        selected = Some(sites);
    }
    // `serve::runner` seeds the grid stream with the job seed ^ 0xc11.
    let (grid_mc, result) = tracer.span(run, parent, "pg.mc", |_| {
        let mut grid_mc = PowerGridMc::new(grid, reliability)
            .with_system_criterion(SystemCriterion::IrDropFraction(0.10))
            .with_factor_options(job.factor);
        if let Some(sites) = &selected {
            grid_mc = grid_mc.with_active_sites(sites);
        }
        let result = grid_mc.run_with(job.grid_trials, mc.seed ^ 0xc11, &mc.runtime);
        (grid_mc, result)
    });
    let result = result.map_err(|e| format!("grid Monte Carlo failed: {e}"))?;

    let failures = result.failures_per_trial();
    let breached = failures.iter().filter(|&&f| f < active).count();
    out.counts
        .insert("pg.failures", failures.iter().sum::<usize>() as f64);
    out.counts
        .insert("pg.breach_ratio", breached as f64 / failures.len() as f64);
    out.headlines.push(result.median_years());
    out.nominal = Some((grid_mc, job.factor));
    Ok(out)
}

/// The fea pipeline of `serve::runner` for each primitive.
fn fea(specs: &[String], tracer: &Tracer, run: u64, root: u64) -> Result<Replay, String> {
    let mut out = Replay::default();
    let (mut unknowns, mut iterations, mut assemble, mut solve) = (0.0, 0.0, 0.0, 0.0);
    for text in specs {
        let resolved = tracer.span(run, Some(root), "serve.resolve", |_| {
            let spec = job_spec(text)?;
            match spec.resolve() {
                Ok(ResolvedJob::Fea(job)) => Ok((fea_model(&spec)?, job)),
                _ => Err("expected an fea job".to_owned()),
            }
        });
        let (model, job) = resolved?;
        let solved = tracer.span(run, Some(root), "fea.run_with_stats", |_| {
            ThermalStressAnalysis::new(model)
                .with_method(FeaOptions::default().method)
                .with_ordering(job.ordering)
                .with_kernels(job.kernels)
                .with_threads(job.threads)
                .run_with_stats()
                .map(|(field, stats)| (field.per_via_peak_stress(), stats))
        });
        let (stress, stats) = solved.map_err(|e| format!("FEA failed: {e}"))?;
        out.headlines.extend(stress.iter().map(|s| s / 1e6));
        unknowns += stats.unknowns as f64;
        iterations += stats.iterations as f64;
        assemble += stats.assemble_time.as_secs_f64();
        solve += stats.solve_time.as_secs_f64();
    }
    out.counts.insert("fea.unknowns", unknowns);
    out.counts.insert("sparse.cg_iterations", iterations);
    out.times.insert("fea.assemble_s", assemble);
    out.times.insert("fea.solve_s", solve);
    Ok(out)
}

/// A sweep through `SweepEngine`, with `run_job` traced on the worker.
fn sweep(
    text: &str,
    tracer: &Arc<Tracer>,
    run: u64,
    root: u64,
    state: &Path,
) -> Result<Replay, String> {
    let mut out = Replay::default();
    let jobs = tracer.span(run, Some(root), "scenarios.expand", |_| {
        SweepSpec::parse(text)
            .and_then(|spec| spec.expand())
            .map(|jobs| jobs.len())
            .map_err(|e| format!("sweep rejected: {e}"))
    })?;
    out.counts.insert("scenarios.jobs", jobs as f64);
    let report = tracer.span(run, Some(root), "batch.sweep", |id| {
        let dir = fresh_dir(state, "sweep-traced").map_err(|e| e.to_string())?;
        let backend =
            TracingBackend::open(&dir, SWEEP_CHECKPOINT_EVERY, Arc::clone(tracer), run, id)
                .map_err(|e| format!("cannot open job store: {e}"))?;
        let engine = SweepEngine::new(Arc::new(backend.clone()), dir.join("sweeps"), 2)
            .map_err(|e| format!("cannot open sweep store: {e}"))?;
        let submission = engine
            .submit_text(text)
            .map_err(|e| format!("sweep rejected: {e}"))?;
        engine.wait_idle();
        backend.drain();
        let bytes = engine
            .report_bytes(&submission.sweep)
            .ok_or("sweep finished without a report")?;
        drop(engine);
        drop(backend);
        let _ = std::fs::remove_dir_all(&dir);
        json::parse(&String::from_utf8_lossy(&bytes)).map_err(|e| format!("bad report: {e}"))
    })?;
    let Some(Json::Arr(entries)) = report.get("entries") else {
        return Err("report has no entries".into());
    };
    let mut trials = 0.0;
    for e in entries {
        let result = e.get("result").ok_or("a sweep job did not finish")?;
        trials += result
            .get("trials_run")
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        out.headlines
            .extend(result.get("ttf_median_years").and_then(Json::as_f64));
    }
    out.counts.insert("via.trials", trials);
    Ok(out)
}
