//! End-to-end and per-layer benchmark of the emgrid workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <analyze_pg1|topk_pg100k|fea_fig07|sweep_fig08> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Each run is one process that repeats its
//! workload, spec to checked result, for about `--seconds` seconds and
//! prints one JSON object as the last line of standard output. With
//! `--trace 0` it reports the end-to-end metrics of untraced iterations;
//! with `--trace 1` it alternates untraced and traced iterations and
//! reports the per-layer metrics, and writes the traced spans under
//! `.bench_out/traces/`. `--print-reference` instead prints the headline
//! statistics of one iteration, for recording `references.json`.

mod backend;
mod obs_report;
mod trace;
mod traced;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use emgrid_runtime::{JobEngine, JobOutcome};
use emgrid_serve::json::Json;

use trace::Tracer;
use traced::{run_traced, TracedRun};
use workload::{run_untraced, JobRunner, References, Sample, Workload, REFERENCE_SEEDS};

/// Where runs keep their job state and traces, relative to the checkout.
const OUT_DIR: &str = ".bench_out";

/// Traced iterations wanted per traced run: two, so the work counters can
/// be compared between repeats of the same seed.
const TRACED_REPEATS: usize = 2;

/// Untraced iterations every end-to-end run makes, whatever its budget,
/// so its medians never rest on fewer samples.
const MIN_ITERATIONS: usize = 3;

/// Coverage the traced run's layer spans must reach.
const MIN_COVERAGE: f64 = 0.95;

/// The end-to-end metrics, in order, with their units.
const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer busy seconds and work counters, with their units.
const PER_LAYER: [(&str, &str); 28] = [
    ("pg.mc_s", "s"),
    ("pg.failures", "count"),
    ("pg.ms_per_failure", "ms"),
    ("pg.breach_ratio", "ratio"),
    ("pg.grid_build_s", "s"),
    ("sparse.solve_calls", "count"),
    ("sparse.solve_s", "s"),
    ("sparse.factor_calls", "count"),
    ("sparse.factor_s", "s"),
    ("sparse.nominal_fill_nnz", "count"),
    ("sparse.cg_iterations", "count"),
    ("fea.solve_s", "s"),
    ("fea.assemble_s", "s"),
    ("fea.unknowns", "count"),
    ("spice.generate_s", "s"),
    ("screen.screen_s", "s"),
    ("screen.selected", "count"),
    ("via.characterize_s", "s"),
    ("via.trials", "count"),
    ("runtime.checkpoint_count", "count"),
    ("runtime.checkpoint_s", "s"),
    ("scenarios.expand_s", "s"),
    ("scenarios.jobs", "count"),
    ("serve.run_job_s", "s"),
    ("batch.overhead_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.coverage", "ratio"),
    ("error_rate", "ratio"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    print_reference: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let number = |flag: &str, default: u64| -> Result<u64, String> {
        value(flag).map_or(Ok(default), |v| {
            v.parse()
                .map_err(|_| format!("{flag} takes a whole number, not `{v}`"))
        })
    };
    let name = value("--workload").ok_or("--workload is required")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let trace = match number("--trace", 0)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    Ok(Args {
        workload,
        seed: number("--seed", 0)?,
        seconds: number("--seconds", 10)?.max(1),
        trace,
        print_reference: argv.iter().any(|a| a == "--print-reference"),
    })
}

/// Peak resident set of this process, MB (`VmHWM` of `/proc/self/status`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Whether another iteration of about `estimate` seconds fits the budget.
fn fits(start: Instant, budget: Duration, estimate: f64) -> bool {
    start.elapsed().as_secs_f64() + estimate <= budget.as_secs_f64()
}

fn same(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| (x - y).abs() <= workload::REFERENCE_TOLERANCE * y.abs())
}

/// Tallies of every iteration in a run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    fn add(&mut self, sample: &Sample) {
        self.attempted += sample.attempted;
        self.failed += sample.failed;
        self.errors.extend(sample.errors.iter().cloned());
    }
}

fn end_to_end(args: &Args, job_seed: u64, runner: &JobRunner, state: &Path) -> (Tally, Vec<f64>) {
    let refs = References::load();
    let (start, budget) = (Instant::now(), Duration::from_secs(args.seconds));
    let mut samples: Vec<Sample> = Vec::new();
    let mut tally = Tally::default();
    loop {
        let s = run_untraced(args.workload, job_seed, runner, state, &refs);
        tally.add(&s);
        samples.push(s);
        let walls: Vec<f64> = samples.iter().map(|s| s.wall).collect();
        if samples.len() >= MIN_ITERATIONS && !fits(start, budget, median(&walls)) {
            break;
        }
    }
    let col = |f: fn(&Sample) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
    eprintln!(
        "{}: {} untraced iterations, wall {:?}",
        args.workload.name(),
        samples.len(),
        samples.iter().map(|s| s.wall).collect::<Vec<_>>()
    );
    let values = vec![
        col(|s| s.wall),
        col(|s| s.setup),
        col(|s| s.units / s.work.max(f64::MIN_POSITIVE)),
        peak_rss_mb(),
    ];
    (tally, values)
}

fn per_layer(
    args: &Args,
    job_seed: u64,
    runner: &JobRunner,
    state: &Path,
) -> (Tally, BTreeMap<&'static str, f64>) {
    let refs = References::load();
    let tracer = Arc::new(Tracer::new());
    let (start, budget) = (Instant::now(), Duration::from_secs(args.seconds));
    let mut untraced: Vec<Sample> = Vec::new();
    let mut traced: Vec<TracedRun> = Vec::new();
    let mut tally = Tally::default();
    let replays: JobEngine<Result<TracedRun, String>> = JobEngine::new(1, 1);
    // A first untraced iteration warms the process up; it is checked but
    // left out of the overhead ratio, so the ratio compares warm runs.
    let warmup = run_untraced(args.workload, job_seed, runner, state, &refs);
    tally.add(&warmup);
    loop {
        let run = traced.len() as u64 + 1;
        // Jobs run on a job-engine worker thread; the replay runs on one
        // too, so both see the same thread and allocator behaviour.
        let replay = {
            let (tracer, state) = (Arc::clone(&tracer), state.to_path_buf());
            let workload = args.workload;
            replays
                .submit(move |_| {
                    JobOutcome::Done(run_traced(workload, job_seed, &tracer, run, &state))
                })
                .ok()
                .and_then(|id| {
                    replays.wait_terminal(id, Duration::from_secs(170))?;
                    replays.snapshot(id)?.result
                })
                .unwrap_or_else(|| Err("traced replay did not finish".into()))
        };
        match replay {
            Ok(t) => traced.push(t),
            Err(e) => {
                tally.attempted += 1;
                tally.failed += 1;
                tally.errors.push(format!("traced run {run}: {e}"));
                break;
            }
        }
        let s = run_untraced(args.workload, job_seed, runner, state, &refs);
        tally.add(&s);
        untraced.push(s);
        let u = median(&untraced.iter().map(|s| s.wall).collect::<Vec<_>>());
        let t = median(&traced.iter().map(|t| t.wall).collect::<Vec<_>>());
        if tally.failed > 0 || (traced.len() >= TRACED_REPEATS && !fits(start, budget, u + t)) {
            break;
        }
    }

    // The traced replay must reproduce the untraced results, cover its
    // wall time, and repeat its work counters exactly.
    let reference = untraced
        .iter()
        .find(|s| s.failed == 0)
        .map(Sample::headlines);
    for (i, t) in traced.iter().enumerate() {
        let run = i + 1;
        let mut errors = Vec::new();
        if reference.as_ref().is_some_and(|r| !same(&t.headlines, r)) {
            errors.push(format!("traced run {run} diverged from run_job"));
        }
        if t.coverage < MIN_COVERAGE {
            errors.push(format!(
                "traced run {run}: spans cover {:.4} of wall time, uncovered {:?}",
                t.coverage, t.gaps
            ));
        }
        if t.counts != traced[0].counts {
            errors.push(format!(
                "traced run {run}: work counters {:?} differ from run 1's {:?}",
                t.counts, traced[0].counts
            ));
        }
        tally.attempted += 1;
        tally.failed += u64::from(!errors.is_empty());
        tally.errors.extend(errors);
    }

    let path = PathBuf::from(OUT_DIR).join("traces").join(format!(
        "{}-seed{}.json",
        args.workload.name(),
        args.seed
    ));
    if let Err(e) = tracer.write(&path) {
        eprintln!("cannot write {}: {e}", path.display());
    }

    let mut metrics: BTreeMap<&'static str, f64> = BTreeMap::new();
    if let Some(first) = traced.first() {
        metrics.extend(first.counts.iter().map(|(k, v)| (*k, *v)));
        for key in first.times.keys() {
            let values: Vec<f64> = traced
                .iter()
                .filter_map(|t| t.times.get(key))
                .copied()
                .collect();
            metrics.insert(key, median(&values));
        }
        for (name, seconds) in &first.gaps {
            eprintln!("uncovered: {name}: {seconds:.6} s");
        }
    }
    let u = median(&untraced.iter().map(|s| s.wall).collect::<Vec<_>>());
    let t = median(&traced.iter().map(|t| t.wall).collect::<Vec<_>>());
    metrics.insert("trace.overhead_ratio", t / u.max(f64::MIN_POSITIVE));
    metrics.insert(
        "trace.coverage",
        traced.iter().map(|t| t.coverage).fold(1.0, f64::min),
    );
    metrics.insert(
        "error_rate",
        tally.failed as f64 / tally.attempted.max(1) as f64,
    );
    eprintln!(
        "{}: {} untraced and {} traced iterations",
        args.workload.name(),
        untraced.len() + 1,
        traced.len()
    );
    (tally, metrics)
}

fn metric(value: f64, unit: &str) -> Json {
    Json::Obj(vec![
        ("value".into(), Json::n(value)),
        ("unit".into(), Json::s(unit)),
    ])
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let job_seed = args.seed % REFERENCE_SEEDS + 1;
    let state = PathBuf::from(OUT_DIR).join(format!("run-{}", std::process::id()));
    let runner =
        match workload::fresh_dir(Path::new(OUT_DIR), &format!("run-{}", std::process::id()))
            .and_then(|_| JobRunner::open(&state))
        {
            Ok(runner) => runner,
            Err(e) => {
                eprintln!("perfbench: cannot create {}: {e}", state.display());
                return ExitCode::from(1);
            }
        };

    let line = if args.print_reference {
        let sample = run_untraced(
            args.workload,
            job_seed,
            &runner,
            &state,
            &References::load(),
        );
        Json::Obj(vec![
            ("workload".into(), Json::s(args.workload.name())),
            ("job_seed".into(), Json::n(job_seed as f64)),
            ("docs".into(), Json::Arr(sample.docs)),
        ])
    } else {
        let (tally, metrics) = if args.trace {
            let (tally, values) = per_layer(&args, job_seed, &runner, &state);
            let metrics = PER_LAYER
                .iter()
                .map(|(name, unit)| {
                    (
                        name.to_string(),
                        metric(values.get(name).copied().unwrap_or(0.0), unit),
                    )
                })
                .collect();
            (tally, metrics)
        } else {
            let (tally, values) = end_to_end(&args, job_seed, &runner, &state);
            let metrics = END_TO_END
                .iter()
                .zip(values)
                .map(|((name, unit), v)| (name.to_string(), metric(v, unit)))
                .collect();
            (tally, metrics)
        };
        for e in &tally.errors {
            eprintln!("check failed: {e}");
        }
        Json::Obj(vec![
            ("correct".into(), Json::Bool(tally.errors.is_empty())),
            ("attempted".into(), Json::n(tally.attempted as f64)),
            ("failed".into(), Json::n(tally.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
    };
    drop(runner);
    let _ = std::fs::remove_dir_all(&state);
    println!("{line}");
    ExitCode::SUCCESS
}
