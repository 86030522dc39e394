//! Command-line interface logic for the `emgrid` binary.
//!
//! Argument parsing is hand-rolled (the workspace avoids CLI dependencies)
//! and the command handlers return their report as a `String`, which keeps
//! the whole surface unit-testable; the binary in `src/bin/emgrid.rs` only
//! forwards `std::env::args` and prints.
//!
//! Every command declares its flags in a knob table, and a flag outside
//! it is an error. The `characterize`, `analyze` and `fea` knobs spell
//! JobSpec keys: those commands build the spec, validate and resolve it
//! exactly as the daemon does, and run it through the daemon's own
//! execute → result-document pipeline (`emgrid_serve::runner`) before
//! rendering text.

use std::fmt::Write as _;
use std::path::Path;

use emgrid_em::black::BlackModel;
use emgrid_em::{Technology, SECONDS_PER_YEAR};
use emgrid_pg::signoff::{current_density_signoff, WireGeometry};
use emgrid_pg::{IrDropReport, PowerGrid};
use emgrid_runtime::{obs, RunReport};
use emgrid_screen::screen_grid;
use emgrid_serve::json::{self, Json};
use emgrid_serve::runner::{self, execute, result_doc, screen_options, Halt, Hooks, Outcome};
use emgrid_serve::{JobSpec, ResolvedJob, ResolvedMc, ServeConfig, Server, SpecError};
use emgrid_spice::ingest::IngestLimits;
use emgrid_spice::writer::write_string;
use emgrid_spice::{lint, parse, repair_shorted_vias, GridSpec};
use emgrid_via::VarianceDecomposition;

/// A CLI failure: the message to print to stderr.
#[derive(Debug, Clone, PartialEq)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

/// Usage text.
pub const USAGE: &str = "\
emgrid — stress-aware EM reliability analysis of power grids with via arrays

USAGE:
    emgrid <COMMAND> [OPTIONS]

COMMANDS:
    generate      emit a synthetic IBM-style benchmark deck to stdout
                    --profile pg1|pg2|pg5|pg100k|pg1m (default pg1)
    lint          check a SPICE deck for structural problems
                    <deck.sp>
    irdrop        nominal IR-drop report of a deck
                    <deck.sp> [--repair-vias <ohms>]
    characterize  via-array TTF characterization (level-1 Monte Carlo)
                    --array 1x1|4x4|8x8 (default 4x4)
                    --pattern plus|tee|ell (default plus)
                    --criterion wl|r2x|rinf (default rinf)
                    --trials <n> (default 2000)  --seed <n> (default 1)
                    [--threads <n>] [--target-ci <half-width>]
                    [--edge-current-factor <f>] [--temperature-sigma <degC>]
                    [--linewidth-sigma <f>] [--variance-analysis]
    analyze       system TTF of a deck (two-level Monte Carlo)
                    <deck.sp> [same options as characterize]
                    --grid-trials <n> (default 200)  [--repair-vias <ohms>]
                    [--ordering natural|rcm|amd|nd]
                    [--kernels auto|scalar|blocked]
    screen        linear-time steady-state EM screening: rank every via
                  array of a deck by steady-state stress, no Monte Carlo
                    <deck.sp> | --profile pg1|pg2|pg5|pg100k|pg1m
                    [--top-k <n>] [--stress-threshold <Pa>]
                    [--method auto|direct|cg] (default auto: direct small,
                                               IC(0)-CG chip-scale)
                    [--ordering natural|rcm|amd|nd]
                    [--kernels auto|scalar|blocked]
                    [--repair-vias <ohms>] [--json]

    fea           finite-element stress characterization of one primitive
                    --array 1x1|4x4|8x8 (default 4x4)
                    --pattern plus|tee|ell (default plus)
                    [--resolution <um>] [--fea-threads <n>] [--no-cache]
                    [--cache-dir <dir>] [--ordering natural|rcm|amd|nd]
                    [--kernels auto|scalar|blocked]

    signoff       traditional current-density signoff (Black's law)
                    <deck.sp> --target-years <y> (default 10)
    sweep         run a manifest-driven parameter sweep to completion
                    <spec.json> (declarative sweep: job template + axes)
                    [--state-dir <dir>] (default results/jobs)
                    [--workers <n>] (default 2)
                    [--checkpoint-every <trials>] (default 64; 0 disables)
                    [--max-in-flight <n>] (default 2*workers)
    validate      check a job or sweep spec offline, no daemon required
                    <spec.json> (a spec with a `kind` key is validated as
                                 a job spec, anything else as a sweep spec)
                  prints the canonical JSON to stdout on success; on
                  failure prints the offending field and exits nonzero
    serve         run the analysis daemon (JSON over HTTP)
                    [--addr <ip:port>] (default 127.0.0.1:8080; port 0 = ephemeral)
                    [--workers <n>] (default 2)
                    [--queue-depth <n>] (default 64)
                    [--checkpoint-every <trials>] (default 64; 0 disables)
                    [--state-dir <dir>] (default results/jobs)
                    [--cache-dir <dir>] [--max-body-bytes <n>]
                    [--max-netlist-lines <n>] (default 400000; raise for
                                               chip-scale inline decks)
                    [--max-connections <n>] (default 256)
                    [--dispatchers <n>] (default 2; route-handler threads,
                                         thread 0 interactive-only)
                    [--max-in-flight-per-client <n>] (default 64; 0 = off)
                    [--debug-panic-route] (CI only: POST /debug/panic panics
                                           a dispatcher's handler)
    help          print this message

Every command takes --trace: span timers are collected across all layers
(assembly, factorization, CG iterations, Monte Carlo batches, checkpoint
commits) and a nested wall-time summary is printed to stderr on exit.

Monte Carlo commands take --threads (work-stealing across n OS threads;
results are bit-identical for any thread count) and --target-ci (stop as
soon as the 95% CI half-width on mean ln TTF reaches the target instead
of exhausting the trial budget).

The characterize, analyze and fea flags are spellings of job-spec keys
(the JSON that `POST /v1/jobs` and `emgrid validate` take). Each command
builds that spec, validates it exactly as the daemon does, and runs it
through the daemon's own pipeline, so a spec prints the statistics its
daemon result document holds. screen spells the deck, `screening` and
`solver` blocks of an analyze spec the same way:

    --array, --pattern (t, l)         array, pattern
    --criterion (weakest-link, open)  criterion
    --trials, --seed, --threads       trials, seed, threads
    --target-ci                       target_ci
    --edge-current-factor             variation.edge_current_factor
    --temperature-sigma               variation.temperature_sigma_c
    --linewidth-sigma                 variation.linewidth_sigma
    --variance-analysis               variation.variance_analysis
    --grid-trials                     grid_trials (analyze)
    <deck.sp>, --repair-vias          netlist, repair_vias
    --ordering, --kernels, --method   solver.ordering, solver.kernels,
                                      solver.method (screen)
    --resolution, --fea-threads       resolution, threads (fea)
    --no-cache                        use_cache: false (fea)
    --profile, --top-k                benchmark, screening.top_k (screen)
    --stress-threshold                screening.stress_threshold (screen)

So the spec bounds apply: at most 1e6 trials and 64 threads,
--resolution in [0.05, 5] um, and the variation bounds below. Decks go
through the daemon's ingest, which rejects fatal lint findings; shorted
vias are repaired only when --repair-vias asks. Unlisted flags are
errors.

The characterize and analyze commands model on-die variation:
--edge-current-factor (at most 10) weights edge/corner vias with
`1 + f*sides` of the array current, --temperature-sigma (at most 100
degC) and --linewidth-sigma (at most 0.5) sample spatially correlated
per-via temperature and linewidth fields each trial (from per-trial RNG
sub-streams, so results stay bit-identical for any thread count).
--variance-analysis replays the same trials with the fields frozen and
reports how much of the ln-TTF variance the correlated fields add on
top of void nucleation.

The screen command solves one operating point, decomposes the grid into
interconnect trees, and prints every via array ranked by its steady-state
EM stress (the Korhonen long-time limit) — seconds even at a million
nodes, so it runs before (and gates) the expensive two-level Monte Carlo.
--top-k / --stress-threshold select the subset; --json emits the same
deterministic document the serve/sweep `screening` block records.

--ordering, --kernels and --resolution fall back to the EMGRID_ORDERING,
EMGRID_KERNELS and EMGRID_RESOLUTION environment variables, then to amd,
auto (the register-blocked kernels) and 0.25 um. Orderings and kernel
backends change wall time only: every statistic is bit-identical. fea
caches solved fields by model content under --cache-dir, else
EMGRID_CACHE_DIR, else results/cache/; --no-cache (or EMGRID_NO_CACHE=1)
bypasses the cache. Results are bit-identical for any --fea-threads.

The serve command runs in the foreground until killed. Job state lives
under --state-dir; a restarted daemon requeues unfinished jobs and
resumes them from their last checkpoint, reproducing the exact bytes an
uninterrupted run would have returned. The daemon also mounts the sweep
API (POST /v1/sweeps, GET /v1/sweeps/:id[/report]) and resumes any
interrupted sweeps on startup.

The sweep command expands a JSON sweep spec (a job template plus axes of
values) into one job per axis combination, runs them through the same
checkpointable engine, and folds the results into a single byte-stable
report under <state-dir>/sweeps/<id>/report.json. Progress is tracked in
an on-disk manifest: re-running the same spec after an interruption (or
`kill -9`) resumes from the completed jobs instead of starting over, and
the final report is byte-identical to an uninterrupted run's.

The validate command runs the same strict spec checks the daemon and the
sweep engine apply — unknown keys, bounds, schema versions, full axis
expansion — without touching a state directory, and prints the canonical
(persisted) form of the spec. Job and sweep specs both take an optional
`\"schema\": 1` version pin; unknown versions are rejected up front.
";

/// Runs the CLI on pre-split arguments (without the program name).
///
/// # Errors
///
/// Returns [`CliError`] with a user-facing message on bad arguments or
/// failing analyses.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let Some(name) = args.first() else {
        return Err(CliError(USAGE.to_owned()));
    };
    if matches!(name.as_str(), "help" | "--help" | "-h") {
        return Ok(USAGE.to_owned());
    }
    let command =
        command(name).ok_or_else(|| CliError(format!("unknown command `{name}`\n\n{USAGE}")))?;
    let flags = Flags::parse(name, &command, &args[1..])?;
    // `--trace` arms the runtime's span timers for any command; the span
    // tree goes to stderr so piped stdout reports stay clean.
    let trace = flags.has(TRACE.flag);
    if trace {
        obs::reset_spans();
        obs::set_trace(true);
    }
    let result = (command.run)(&flags);
    if trace {
        obs::set_trace(false);
        eprintln!("{}", obs::span_report());
    }
    result
}

/// One row of a command's knob table: a flag and the JobSpec key it
/// spells. Values travel as text and become JSON numbers when they parse
/// as one, so the spec layer types and bounds them as it would a
/// submitted document.
#[derive(Debug)]
struct Knob {
    flag: &'static str,
    /// The JobSpec key the flag spells, dotted for nested blocks; empty
    /// when the command reads the flag itself.
    key: &'static str,
    /// `Some(b)` for a valueless switch, which sets its key to `b`.
    switch: Option<bool>,
    /// Environment variable read when the flag is absent.
    env: Option<&'static str>,
    /// Accepted value spellings beyond the spec's: `(alias, spec label)`.
    aliases: &'static [(&'static str, &'static str)],
}

const fn knob(flag: &'static str, key: &'static str) -> Knob {
    Knob {
        flag,
        key,
        switch: None,
        env: None,
        aliases: &[],
    }
}

const fn switch(flag: &'static str, key: &'static str, on: bool) -> Knob {
    Knob {
        switch: Some(on),
        ..knob(flag, key)
    }
}

/// A flag the command reads itself.
const fn option(flag: &'static str) -> Knob {
    knob(flag, "")
}

/// `--trace` is accepted by every command.
const TRACE: Knob = switch("--trace", "", true);

// The knob tables, in groups shared between commands.
#[rustfmt::skip]
const PRIMITIVE: &[Knob] = &[
    knob("--array", "array"),
    Knob { aliases: &[("t", "tee"), ("l", "ell")], ..knob("--pattern", "pattern") },
];
#[rustfmt::skip]
const MONTE_CARLO: &[Knob] = &[
    Knob { aliases: &[("weakest-link", "wl"), ("open", "rinf")], ..knob("--criterion", "criterion") },
    knob("--trials", "trials"),
    knob("--seed", "seed"),
    knob("--threads", "threads"),
    knob("--target-ci", "target_ci"),
    knob("--edge-current-factor", "variation.edge_current_factor"),
    knob("--temperature-sigma", "variation.temperature_sigma_c"),
    knob("--linewidth-sigma", "variation.linewidth_sigma"),
    switch("--variance-analysis", "variation.variance_analysis", true),
];
const GRID_TRIALS: &[Knob] = &[knob("--grid-trials", "grid_trials")];
const DECK: &[Knob] = &[knob("--repair-vias", "repair_vias")];
#[rustfmt::skip]
const SOLVER: &[Knob] = &[
    Knob { env: Some("EMGRID_ORDERING"), ..knob("--ordering", "solver.ordering") },
    Knob { env: Some("EMGRID_KERNELS"), ..knob("--kernels", "solver.kernels") },
];
#[rustfmt::skip]
const FEA: &[Knob] = &[
    Knob { env: Some("EMGRID_RESOLUTION"), ..knob("--resolution", "resolution") },
    knob("--fea-threads", "threads"),
    switch("--no-cache", "use_cache", false),
    option("--cache-dir"),
];
const PROFILE: &[Knob] = &[knob("--profile", "benchmark")];
#[rustfmt::skip]
const SCREEN: &[Knob] = &[
    knob("--top-k", "screening.top_k"),
    knob("--stress-threshold", "screening.stress_threshold"),
    knob("--method", "solver.method"),
    switch("--json", "", true),
];
const SIGNOFF: &[Knob] = &[option("--target-years")];
#[rustfmt::skip]
const SWEEP: &[Knob] = &[
    option("--state-dir"), option("--workers"), option("--checkpoint-every"),
    option("--max-in-flight"),
];
#[rustfmt::skip]
const SERVE: &[Knob] = &[
    option("--addr"), option("--workers"), option("--queue-depth"),
    option("--checkpoint-every"), option("--state-dir"), option("--cache-dir"),
    option("--max-body-bytes"), option("--max-netlist-lines"), option("--max-connections"),
    option("--dispatchers"), option("--max-in-flight-per-client"),
    switch("--debug-panic-route", "", true),
];

type Handler = fn(&Flags<'_>) -> Result<String, CliError>;

/// One command: its knob table, the positional argument it takes (named
/// for the "missing …" error), and its handler.
struct Command {
    knobs: &'static [&'static [Knob]],
    positional: Option<&'static str>,
    run: Handler,
}

#[rustfmt::skip]
fn command(name: &str) -> Option<Command> {
    const DECK_PATH: Option<&str> = Some("deck path");
    let (knobs, positional, run): (&'static [&'static [Knob]], _, Handler) = match name {
        "generate" => (&[PROFILE], None, cmd_generate),
        "lint" => (&[DECK], DECK_PATH, cmd_lint),
        "irdrop" => (&[DECK], DECK_PATH, cmd_irdrop),
        "characterize" => (&[PRIMITIVE, MONTE_CARLO], None, |f| run_spec("characterize", f)),
        "analyze" => (&[PRIMITIVE, MONTE_CARLO, GRID_TRIALS, DECK, SOLVER], DECK_PATH,
                      |f| run_spec("analyze", f)),
        "screen" => (&[PROFILE, SCREEN, DECK, SOLVER], DECK_PATH, cmd_screen),
        "fea" => (&[PRIMITIVE, FEA, SOLVER], None, |f| run_spec("fea", f)),
        "signoff" => (&[DECK, SIGNOFF], DECK_PATH, cmd_signoff),
        "sweep" => (&[SWEEP], Some("sweep spec path"), cmd_sweep),
        "validate" => (&[], Some("spec path"), cmd_validate),
        "serve" => (&[SERVE], None, cmd_serve),
        _ => return None,
    };
    Some(Command { knobs, positional, run })
}

/// A command's arguments, checked against its knob table.
struct Flags<'a> {
    knobs: &'static [&'static [Knob]],
    /// `(flag, value)` in command-line order; switches carry no value.
    set: Vec<(&'static str, Option<&'a str>)>,
    positional: Option<&'static str>,
    path: Option<&'a str>,
}

impl<'a> Flags<'a> {
    /// Splits `args` into flags (with their arity from the knob table) and
    /// the positional argument. Flags outside the table are errors.
    fn parse(name: &str, command: &Command, args: &'a [String]) -> Result<Flags<'a>, CliError> {
        let mut flags = Flags {
            knobs: command.knobs,
            set: Vec::new(),
            positional: command.positional,
            path: None,
        };
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            if !arg.starts_with("--") {
                if flags.positional.is_none() || flags.path.is_some() {
                    return Err(CliError(format!(
                        "unexpected argument `{arg}` for `{name}`"
                    )));
                }
                flags.path = Some(arg);
                continue;
            }
            let knob = flags.knob(arg).ok_or_else(|| {
                CliError(format!(
                    "unknown flag `{arg}` for `{name}` (see `emgrid help`)"
                ))
            })?;
            let value = match knob.switch {
                Some(_) => None,
                None => Some(
                    args.next()
                        .ok_or_else(|| CliError(format!("missing value for {arg}")))?
                        .as_str(),
                ),
            };
            flags.set.push((knob.flag, value));
        }
        Ok(flags)
    }

    fn knobs(&self) -> impl Iterator<Item = &'static Knob> {
        self.knobs.iter().flat_map(|group| group.iter())
    }

    fn knob(&self, flag: &str) -> Option<&'static Knob> {
        std::iter::once(&TRACE)
            .chain(self.knobs())
            .find(|k| k.flag == flag)
    }

    fn has(&self, flag: &str) -> bool {
        self.set.iter().any(|(f, _)| *f == flag)
    }

    /// The value of the first occurrence of `flag`.
    fn get(&self, flag: &str) -> Option<&'a str> {
        self.set
            .iter()
            .find(|(f, _)| *f == flag)
            .and_then(|(_, v)| *v)
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, CliError> {
        match self.get(flag) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError(format!("invalid value `{v}` for {flag}"))),
        }
    }

    /// A count flag, which must be at least 1.
    fn count(&self, flag: &str, default: usize) -> Result<usize, CliError> {
        match self.parsed(flag, default)? {
            0 => Err(CliError(format!("{flag} must be at least 1"))),
            n => Ok(n),
        }
    }

    fn path(&self) -> Result<&'a str, CliError> {
        self.path
            .ok_or_else(|| CliError(format!("missing {}", self.positional.unwrap_or("argument"))))
    }
}

/// Where each key of a CLI-built job spec came from: the flag or the
/// environment variable that set it; unset keys took the spec default.
struct Sources(Vec<(&'static str, &'static str)>);

impl Sources {
    fn of(&self, key: &str) -> &'static str {
        self.0
            .iter()
            .find(|(k, _)| *k == key)
            .map_or("default", |(_, source)| source)
    }

    /// Re-attributes a spec error to the flag or variable that set the
    /// offending key.
    fn attribute(&self, e: SpecError) -> CliError {
        CliError(match e.field.as_deref() {
            Some(field) if self.0.iter().any(|(k, _)| *k == field) => {
                format!("{}: {e}", self.of(field))
            }
            _ => return spec_error("job", e),
        })
    }
}

/// A spec validation failure, naming the field at fault.
fn spec_error(kind: &str, e: SpecError) -> CliError {
    CliError(match &e.field {
        Some(field) => format!("invalid {kind} spec at `{field}`: {e}"),
        None => format!("invalid {kind} spec: {e}"),
    })
}

/// Spells a job spec of `kind` from `flags`: each knob with a spec key
/// takes the flag's value, else its environment variable's (looked up
/// through `env`), else stays unset so the spec default applies. A deck
/// path becomes the inline `netlist` of an `analyze` spec (`screen` may
/// name a benchmark `--profile` instead). The spec is then validated as
/// the daemon validates a submission.
fn job_spec(
    kind: &str,
    flags: &Flags<'_>,
    env: &dyn Fn(&str) -> Option<String>,
) -> Result<(JobSpec, Sources), CliError> {
    let mut doc = vec![("kind".to_owned(), Json::s(kind))];
    let mut sources = Sources(Vec::new());
    for knob in flags.knobs().filter(|k| !k.key.is_empty()) {
        let (raw, source) = if flags.has(knob.flag) {
            (
                flags.get(knob.flag).unwrap_or_default().to_owned(),
                knob.flag,
            )
        } else if let Some((var, raw)) = knob.env.and_then(|var| Some((var, env(var)?))) {
            (raw, var)
        } else {
            continue;
        };
        let value = match knob.switch {
            Some(on) => Json::Bool(on),
            None => {
                let alias = knob.aliases.iter().find(|(alias, _)| *alias == raw);
                let raw = alias.map_or(raw.as_str(), |(_, label)| label);
                raw.parse().map_or_else(|_| Json::s(raw), Json::n)
            }
        };
        insert(&mut doc, knob.key, value);
        sources.0.push((knob.key, source));
    }
    if kind == "analyze" && !flags.has("--profile") {
        doc.push(("netlist".into(), Json::s(read_text(flags.path()?)?)));
    }
    let spec = JobSpec::from_json(&Json::Obj(doc)).map_err(|e| sources.attribute(e))?;
    Ok((spec, sources))
}

/// Sets a key, or a `block.key` inside a nested object, in `pairs`.
fn insert(pairs: &mut Vec<(String, Json)>, key: &str, value: Json) {
    let Some((block, key)) = key.split_once('.') else {
        return pairs.push((key.to_owned(), value));
    };
    if !pairs.iter().any(|(k, _)| k == block) {
        pairs.push((block.to_owned(), Json::Obj(Vec::new())));
    }
    if let Some((_, Json::Obj(inner))) = pairs.iter_mut().find(|(k, _)| k == block) {
        inner.push((key.to_owned(), value));
    }
}

/// Local decks are the user's own files: no ingest size caps.
const LOCAL_FILES: IngestLimits = IngestLimits {
    max_bytes: usize::MAX,
    max_lines: usize::MAX,
};

/// `characterize`, `analyze` and `fea`: the flags spell a job spec, which
/// runs through the daemon's pipeline — resolve, execute (with no hooks),
/// result document — and is then rendered as text.
fn run_spec(kind: &str, flags: &Flags<'_>) -> Result<String, CliError> {
    let (spec, sources) = job_spec(kind, flags, &|var| std::env::var(var).ok())?;
    let job = spec.resolve().map_err(|e| sources.attribute(e))?;
    let hooks = Hooks {
        limits: LOCAL_FILES,
        cache_dir: flags.get("--cache-dir").map(Path::new),
        ..Hooks::default()
    };
    let outcome = execute(&job, &hooks).map_err(|halt| match halt {
        Halt::Failed(e) => CliError(e),
        Halt::Cancelled => CliError("run cancelled".to_owned()),
    })?;
    // The text reports the result document's statistics, so it can never
    // disagree with the daemon's answer for the same spec.
    let doc = result_doc(&outcome).map_err(CliError)?;
    let stat = |key| stat(&doc, key);
    let mut out = String::new();
    match &outcome {
        Outcome::Characterize {
            mc,
            result,
            variance,
        } => {
            let _ = writeln!(
                out,
                "array {} ({} pattern), criterion {}, {} trials",
                mc.array, mc.config.pattern, mc.criterion, mc.trials
            );
            variation_line(&mut out, mc);
            let _ = write!(
                out,
                "TTF median     : {:.2} years\nTTF 0.3%ile    : {:.2} years\n\
                 lognormal fit  : median {:.2} years, sigma {:.3} (KS {:.3})\n",
                stat("ttf_median_years"),
                stat("ttf_p03_years"),
                stat("lognormal_median_years"),
                stat("lognormal_sigma"),
                stat("ks")
            );
            variance_line(&mut out, variance);
            let _ = writeln!(out, "{}", format_report(result.report()));
        }
        Outcome::Analyze {
            mc,
            grid_trials,
            sites,
            result,
            variance,
            ..
        } => {
            let _ = writeln!(
                out,
                "{sites} via arrays as {}/{}; {grid_trials} grid trials",
                mc.array, mc.criterion
            );
            variation_line(&mut out, mc);
            let _ = write!(
                out,
                "system TTF median   : {:.2} years\nsystem TTF 0.3%ile  : {:.2} years\n\
                 mean failures/trial : {:.1}\nmost critical sites :\n",
                stat("ttf_median_years"),
                stat("ttf_p03_years"),
                stat("mean_failures")
            );
            for (site, count) in result.critical_sites(5) {
                let _ = writeln!(out, "  site {site:>5}  failed in {count} trials");
            }
            variance_line(&mut out, variance);
            let _ = writeln!(out, "{}", format_report(result.report()));
        }
        Outcome::Fea {
            job,
            table,
            report,
            cache,
        } => {
            let prim = &report.primitives[0];
            let _ = write!(
                out,
                "array {} ({} pattern), resolution {} um (from {})\ncache          : {}\n\
                 ordering       : {} (from {})\nkernels        : {} (from {})\n\
                 solve          : {} ({} unknowns, {} iterations), {} thread(s), {:.0} ms\n\
                 per-via peak tensile stress (MPa, row-major):\n",
                job.array,
                job.intersection,
                job.resolution,
                sources.of("resolution"),
                cache
                    .as_ref()
                    .map_or("disabled".into(), |dir| dir.display().to_string()),
                job.ordering.label(),
                sources.of("solver.ordering"),
                job.kernels.label(),
                sources.of("solver.kernels"),
                prim.solver,
                prim.unknowns,
                prim.iterations,
                job.threads,
                report.total_time.as_secs_f64() * 1e3
            );
            let entry = &table.entries()[0];
            for row in entry.per_via_stress.chunks(entry.cols) {
                let row: Vec<String> = row.iter().map(|s| format!("{:7.1}", s / 1e6)).collect();
                let _ = writeln!(out, "  {}", row.join(" "));
            }
        }
    }
    Ok(out)
}

/// A number of a finite-checked result document, by dotted key.
fn stat(doc: &Json, key: &str) -> f64 {
    key.split('.')
        .try_fold(doc, |d, k| d.get(k))
        .and_then(Json::as_f64)
        .unwrap_or(f64::NAN)
}

fn variation_line(out: &mut String, mc: &ResolvedMc) {
    if let Some(v) = &mc.variation {
        let _ = writeln!(
            out,
            "variation      : edge factor {}, sigma_T {} degC, sigma_w {}",
            v.edge_current_factor, v.temperature_sigma_c, v.linewidth_sigma
        );
    }
}

fn variance_line(out: &mut String, variance: &Option<VarianceDecomposition>) {
    if let Some(d) = variance {
        let _ = writeln!(
            out,
            "ln-TTF variance: total {:.4} (void {:.4} + environment {:.4})",
            d.total, d.void, d.environment
        );
    }
}

/// One-line execution summary appended to Monte Carlo reports.
fn format_report(report: &RunReport) -> String {
    let mut line = format!(
        "execution      : {}/{} trials, {} thread(s), {:.0} ms, {:.0} trials/s",
        report.trials_run,
        report.trials_requested,
        report.threads,
        report.wall.as_secs_f64() * 1e3,
        report.throughput(),
    );
    if report.stopped_early {
        let _ = write!(
            line,
            " (stopped early: 95% CI half-width {:.4})",
            report.achieved_half_width(0.95)
        );
    }
    line
}

fn read_text(path: &str) -> Result<String, CliError> {
    std::fs::read_to_string(path).map_err(|e| CliError(format!("cannot read `{path}`: {e}")))
}

/// Parses the deck at the positional path as-is (`lint` must see a broken
/// deck's findings rather than have it rejected), with the optional
/// shorted-via repair.
fn load_deck(flags: &Flags<'_>) -> Result<emgrid_spice::Netlist, CliError> {
    let text = read_text(flags.path()?)?;
    let mut netlist = parse(&text).map_err(|e| CliError(format!("parse error: {e}")))?;
    if flags.has("--repair-vias") {
        repair_shorted_vias(&mut netlist, flags.parsed("--repair-vias", 0.0)?);
    }
    Ok(netlist)
}

fn cmd_generate(flags: &Flags<'_>) -> Result<String, CliError> {
    let name = flags.get("--profile").unwrap_or("pg1");
    let spec = GridSpec::profile(name).ok_or_else(|| {
        CliError(format!(
            "unknown profile `{name}` (expected {})",
            GridSpec::PROFILES.join(", ")
        ))
    })?;
    Ok(write_string(&spec.generate()))
}

fn cmd_lint(flags: &Flags<'_>) -> Result<String, CliError> {
    let netlist = load_deck(flags)?;
    let issues = lint(&netlist);
    let mut out = String::new();
    let (r, v, i) = netlist.counts();
    let _ = writeln!(
        out,
        "{} nodes, {r} resistors, {v} voltage sources, {i} current sources",
        netlist.node_count()
    );
    if issues.is_empty() {
        out.push_str("no issues found\n");
    } else {
        for issue in &issues {
            let _ = writeln!(out, "warning: {issue}");
        }
        let _ = writeln!(out, "{} issue(s)", issues.len());
    }
    Ok(out)
}

fn cmd_irdrop(flags: &Flags<'_>) -> Result<String, CliError> {
    let netlist = load_deck(flags)?;
    let grid = PowerGrid::from_netlist(netlist).map_err(|e| CliError(e.to_string()))?;
    let report = IrDropReport::evaluate(&grid, grid.nominal_solution());
    let mut out = String::new();
    let _ = writeln!(out, "vdd            : {:.3} V", report.vdd);
    let _ = writeln!(
        out,
        "worst IR drop  : {:.1} mV ({:.2}% of Vdd)",
        report.worst_drop * 1e3,
        report.worst_fraction * 100.0
    );
    let _ = writeln!(out, "via arrays     : {}", grid.via_sites().len());
    let _ = writeln!(
        out,
        "10% budget     : {}",
        if report.violates(0.10) {
            "VIOLATED"
        } else {
            "met"
        }
    );
    Ok(out)
}

fn cmd_screen(flags: &Flags<'_>) -> Result<String, CliError> {
    // The flags spell an `analyze` spec's deck, `screening` and `solver`
    // blocks; the deck comes from either a benchmark profile (generated in
    // memory, no 65 MB chip-scale file round-trip) or a positional path.
    let (spec, sources) = job_spec("analyze", flags, &|var| std::env::var(var).ok())?;
    let ResolvedJob::Analyze(job) = spec.resolve().map_err(|e| sources.attribute(e))? else {
        return Err(CliError("screen needs an analyze spec".to_owned()));
    };
    let (netlist, _) =
        runner::load_deck(&job.deck, job.repair_vias, LOCAL_FILES).map_err(CliError)?;
    let grid = PowerGrid::from_netlist(netlist).map_err(|e| CliError(e.to_string()))?;
    let report = screen_grid(&grid, &Technology::default(), &screen_options(&job))
        .map_err(|e| CliError(e.to_string()))?;
    if flags.has("--json") {
        let mut out = report.to_json();
        out.push('\n');
        Ok(out)
    } else {
        Ok(report.render())
    }
}

fn cmd_signoff(flags: &Flags<'_>) -> Result<String, CliError> {
    let netlist = load_deck(flags)?;
    let target_years: f64 = flags.parsed("--target-years", 10.0)?;
    let tech = Technology::default();
    let black = BlackModel::from_accelerated_test(&tech, 3e10, 300.0);
    let grid = PowerGrid::from_netlist(netlist).map_err(|e| CliError(e.to_string()))?;
    let report = current_density_signoff(
        &grid,
        &tech,
        &black,
        &WireGeometry::default(),
        target_years * SECONDS_PER_YEAR,
    );
    let mut out = String::new();
    let _ = writeln!(
        out,
        "traditional (Black's-law) signoff at a {target_years}-year target"
    );
    let _ = writeln!(out, "current-density limit : {:.3e} A/m^2", report.limit);
    let _ = writeln!(
        out,
        "peak current density  : {:.3e} A/m^2 over {} elements",
        report.peak_current_density, report.checked
    );
    if report.passes() {
        out.push_str(
            "verdict               : PASS (no element above the limit)
",
        );
        out.push_str(
            "note: this check ignores thermomechanical stress and via-array
",
        );
        out.push_str(
            "redundancy; run `analyze` for the stress-aware lifetime.
",
        );
    } else {
        let _ = writeln!(
            out,
            "verdict               : FAIL ({} element(s) above the limit)",
            report.violations.len()
        );
        for v in report.violations.iter().take(5) {
            let _ = writeln!(
                out,
                "  {:<12} {:.3e} A/m^2 (limit {:.3e})",
                v.name, v.current_density, v.limit
            );
        }
    }
    Ok(out)
}

/// Parses the `serve` flags into a daemon configuration.
fn serve_config(flags: &Flags<'_>) -> Result<ServeConfig, CliError> {
    let defaults = ServeConfig::default();
    Ok(ServeConfig {
        addr: flags.get("--addr").unwrap_or("127.0.0.1:8080").to_owned(),
        workers: flags.count("--workers", defaults.workers)?,
        queue_depth: flags.count("--queue-depth", defaults.queue_depth)?,
        checkpoint_every: flags.parsed("--checkpoint-every", defaults.checkpoint_every)?,
        state_dir: flags
            .get("--state-dir")
            .map_or(defaults.state_dir, Into::into),
        cache_dir: flags.get("--cache-dir").map(Into::into),
        max_body_bytes: flags.parsed("--max-body-bytes", defaults.max_body_bytes)?,
        max_netlist_lines: flags.count("--max-netlist-lines", defaults.max_netlist_lines)?,
        max_connections: flags.count("--max-connections", defaults.max_connections)?,
        request_deadline: defaults.request_deadline,
        debug_panic_route: flags.has("--debug-panic-route"),
        dispatchers: flags.count("--dispatchers", defaults.dispatchers)?,
        max_in_flight_per_client: flags.parsed(
            "--max-in-flight-per-client",
            defaults.max_in_flight_per_client,
        )?,
        shutdown_grace: defaults.shutdown_grace,
    })
}

/// Runs one sweep spec to completion on an in-process backend and prints
/// where the aggregated report landed. Sharing `--state-dir` with a prior
/// interrupted run resumes it from the completed jobs.
fn cmd_sweep(flags: &Flags<'_>) -> Result<String, CliError> {
    use emgrid_batch::{LocalBackend, SweepEngine};

    let text = read_text(flags.path()?)?;

    let workers = flags.count("--workers", 2)?;
    let checkpoint_every = flags.parsed("--checkpoint-every", 64)?;
    let max_in_flight = flags.count("--max-in-flight", 2 * workers)?;
    let state_dir: std::path::PathBuf = flags.get("--state-dir").unwrap_or("results/jobs").into();

    let backend = LocalBackend::open(&state_dir, workers, checkpoint_every)
        .map_err(|e| CliError(format!("cannot open state dir: {e}")))?;
    let engine = SweepEngine::new(
        std::sync::Arc::new(backend),
        state_dir.join("sweeps"),
        max_in_flight,
    )
    .map_err(|e| CliError(format!("cannot open sweep store: {e}")))?;
    let submission = engine
        .submit_text(&text)
        .map_err(|e| spec_error("sweep", e))?;
    engine.wait_idle();

    let status = engine
        .status(&submission.sweep)
        .ok_or_else(|| CliError("sweep state disappeared".to_owned()))?;
    let report = engine.store().report_path(&submission.sweep);
    if engine.report_bytes(&submission.sweep).is_none() {
        return Err(CliError(format!(
            "sweep {} was interrupted before completing; re-run to resume",
            submission.sweep
        )));
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "sweep          : {} ({})",
        submission.sweep, submission.name
    );
    let _ = writeln!(
        out,
        "jobs           : {} total, {} done, {} failed, {} cancelled",
        status.total, status.done, status.failed, status.cancelled
    );
    let _ = writeln!(out, "report         : {}", report.display());
    Ok(out)
}

/// Validates one job or sweep spec offline and prints the canonical
/// (persisted) document to stdout — the same strict checks the HTTP API
/// and the sweep engine apply, including full axis expansion, with the
/// same field attribution, but with no daemon and no state directory.
fn cmd_validate(flags: &Flags<'_>) -> Result<String, CliError> {
    use emgrid_scenarios::SweepSpec;

    let path = flags.path()?;
    let text = read_text(path)?;
    let doc =
        json::parse(&text).map_err(|e| CliError(format!("`{path}` is not valid JSON: {e}")))?;
    // A `kind` key marks a job spec; everything else is tried as a sweep.
    let is_job = matches!(&doc, Json::Obj(pairs) if pairs.iter().any(|(k, _)| k == "kind"));
    let mut canonical = if is_job {
        let spec = JobSpec::from_json(&doc).map_err(|e| spec_error("job", e))?;
        spec.resolve().map_err(|e| spec_error("job", e))?;
        spec.to_json().to_string()
    } else {
        let spec = SweepSpec::from_json(&doc).map_err(|e| spec_error("sweep", e))?;
        spec.expand().map_err(|e| spec_error("sweep", e))?;
        spec.canonical_string()
    };
    canonical.push('\n');
    Ok(canonical)
}

/// Runs the daemon in the foreground until the process is killed. Prints
/// the bound address before blocking so scripts can discover an ephemeral
/// port (`--addr 127.0.0.1:0`).
fn cmd_serve(flags: &Flags<'_>) -> Result<String, CliError> {
    use emgrid_batch::SweepEngine;
    use std::sync::Arc;

    let config = serve_config(flags)?;
    let state_dir = config.state_dir.clone();
    let workers = config.workers;
    let server =
        Server::start(config).map_err(|e| CliError(format!("cannot start daemon: {e}")))?;
    // Mount the sweep API over the job engine and resume any sweep that
    // was interrupted (spec on disk, no report) by a previous daemon.
    let engine = SweepEngine::new(
        Arc::new(server.jobs_api()),
        state_dir.join("sweeps"),
        2 * workers,
    )
    .map_err(|e| CliError(format!("cannot open sweep store: {e}")))?;
    let hook_engine = Arc::clone(&engine);
    server.set_route_hook(Arc::new(move |req| {
        emgrid_batch::http::route(req, &hook_engine)
    }));
    engine.resume_all();
    println!("emgrid-serve listening on {}", server.local_addr());
    println!("state dir      : {}", state_dir.display());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    server.wait();
    Ok(String::new())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    fn serve(s: &str) -> Result<ServeConfig, CliError> {
        let args = argv(s);
        serve_config(&Flags::parse("serve", &command("serve").unwrap(), &args)?)
    }

    #[test]
    fn no_args_prints_usage() {
        let err = run(&[]).unwrap_err();
        assert!(err.0.contains("USAGE"));
    }

    #[test]
    fn unknown_command_is_rejected() {
        let err = run(&argv("frobnicate")).unwrap_err();
        assert!(err.0.contains("unknown command"));
    }

    #[test]
    fn help_prints_usage() {
        let out = run(&argv("help")).unwrap();
        assert!(out.contains("characterize"));
    }

    #[test]
    fn serve_flags_parse_into_a_config() {
        let cfg = serve(
            "--addr 127.0.0.1:0 --workers 3 --queue-depth 9 --checkpoint-every 5 \
             --state-dir /tmp/emgrid-jobs --cache-dir /tmp/emgrid-cache --max-body-bytes 4096 \
             --max-netlist-lines 3000000 --max-connections 17 --debug-panic-route \
             --dispatchers 3 --max-in-flight-per-client 8",
        )
        .unwrap();
        assert_eq!(cfg.addr, "127.0.0.1:0");
        assert_eq!(
            (cfg.workers, cfg.queue_depth, cfg.checkpoint_every),
            (3, 9, 5)
        );
        assert_eq!(cfg.state_dir, std::path::PathBuf::from("/tmp/emgrid-jobs"));
        assert_eq!(
            cfg.cache_dir.as_deref(),
            Some(std::path::Path::new("/tmp/emgrid-cache"))
        );
        assert_eq!(cfg.max_body_bytes, 4096);
        assert_eq!(cfg.max_netlist_lines, 3_000_000);
        assert_eq!(cfg.max_connections, 17);
        assert!(cfg.debug_panic_route);
        assert_eq!(cfg.dispatchers, 3);
        assert_eq!(cfg.max_in_flight_per_client, 8);

        let defaults = serve("").unwrap();
        assert_eq!(defaults.addr, "127.0.0.1:8080");
        assert_eq!(defaults.max_netlist_lines, 400_000);
        assert!(defaults.cache_dir.is_none());
        assert!(!defaults.debug_panic_route);
        assert!(serve("--workers 0").is_err());
        assert!(serve("--queue-depth 0").is_err());
        assert!(serve("--max-connections 0").is_err());
        assert!(serve("--max-netlist-lines 0").is_err());
        assert!(serve("--dispatchers 0").is_err());
    }

    #[test]
    fn generate_produces_parsable_deck() {
        let out = run(&argv("generate --profile pg1")).unwrap();
        let n = parse(&out).unwrap();
        assert!(n.node_count() > 1000);
        assert!(run(&argv("generate --profile nope")).is_err());
    }

    #[test]
    fn lint_and_irdrop_on_a_temp_deck() {
        let deck = run(&argv("generate --profile pg1")).unwrap();
        let path = std::env::temp_dir().join("emgrid_cli_test_pg1.sp");
        std::fs::write(&path, deck).unwrap();
        let path = path.to_string_lossy().into_owned();

        let out = run(&[String::from("lint"), path.clone()]).unwrap();
        assert!(out.contains("no issues found"), "{out}");

        let out = run(&[String::from("irdrop"), path.clone()]).unwrap();
        assert!(out.contains("worst IR drop"));
        assert!(out.contains("met"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn characterize_reports_fit() {
        let out = run(&argv(
            "characterize --array 4x4 --pattern plus --criterion r2x --trials 200 --seed 3",
        ))
        .unwrap();
        assert!(out.contains("lognormal fit"));
        assert!(out.contains("R=2x"));
    }

    #[test]
    fn characterize_rejects_bad_options() {
        assert!(run(&argv("characterize --array 3x3")).is_err());
        assert!(run(&argv("characterize --pattern round")).is_err());
        assert!(run(&argv("characterize --criterion maybe")).is_err());
        assert!(run(&argv("characterize --trials many")).is_err());
        assert!(run(&argv("characterize --threads 0")).is_err());
        assert!(run(&argv("characterize --target-ci 0")).is_err());
        assert!(run(&argv("characterize --target-ci tight")).is_err());
        // The CLI inherits the spec bounds, naming the flag at fault.
        let err = run(&argv("characterize --trials 2000000")).unwrap_err();
        assert!(err.0.starts_with("--trials: "), "{}", err.0);
        let err = run(&argv("characterize --threads 65")).unwrap_err();
        assert!(err.0.starts_with("--threads: "), "{}", err.0);
        assert!(run(&argv("characterize --trials 0")).is_err());
        assert!(run(&argv("characterize --seed")).is_err(), "missing value");
    }

    #[test]
    fn characterize_is_thread_count_invariant() {
        let base = "characterize --trials 120 --seed 5 --threads";
        let one = run(&argv(&format!("{base} 1"))).unwrap();
        let four = run(&argv(&format!("{base} 4"))).unwrap();
        // Identical modulo the execution telemetry line (timing/threads).
        let strip = |s: &str| {
            s.lines()
                .filter(|l| !l.starts_with("execution"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(strip(&one), strip(&four));
        assert!(four.contains("4 thread(s)"), "{four}");
    }

    #[test]
    fn characterize_stops_early_at_a_loose_target() {
        let out = run(&argv(
            "characterize --trials 100000 --seed 5 --target-ci 0.2",
        ))
        .unwrap();
        assert!(out.contains("stopped early"), "{out}");
    }

    #[test]
    fn analyze_runs_end_to_end_on_a_small_deck() {
        let deck = write_string(&GridSpec::custom("cli", 8, 8).generate());
        let path = std::env::temp_dir().join("emgrid_cli_test_small.sp");
        std::fs::write(&path, deck).unwrap();
        let path = path.to_string_lossy().into_owned();
        let out = run(&[
            "analyze".into(),
            path.clone(),
            "--trials".into(),
            "150".into(),
            "--grid-trials".into(),
            "10".into(),
        ])
        .unwrap();
        assert!(out.contains("system TTF median"), "{out}");
        assert!(out.contains("most critical sites"));

        // Variation flags thread through both Monte Carlo levels.
        let varied = run(&[
            "analyze".into(),
            path.clone(),
            "--trials".into(),
            "150".into(),
            "--grid-trials".into(),
            "10".into(),
            "--edge-current-factor".into(),
            "0.5".into(),
            "--temperature-sigma".into(),
            "8".into(),
        ])
        .unwrap();
        assert!(
            varied.contains("variation      : edge factor 0.5, sigma_T 8 degC, sigma_w 0"),
            "{varied}"
        );
        assert!(varied.contains("system TTF median"), "{varied}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn screen_ranks_a_profile_without_monte_carlo() {
        let out = run(&argv("screen --profile pg1 --top-k 8")).unwrap();
        assert!(out.contains("via arrays"), "{out}");
        assert!(out.contains("stress"), "{out}");

        // The JSON document is deterministic run to run.
        let a = run(&argv("screen --profile pg1 --top-k 8 --json")).unwrap();
        let b = run(&argv("screen --profile pg1 --top-k 8 --json")).unwrap();
        assert_eq!(a, b);
        assert!(a.starts_with("{\"kind\":\"screen\""), "{a}");
        assert!(a.contains("\"selected\":8"), "{a}");

        // Both engines rank; an explicit method is honoured.
        let cg = run(&argv("screen --profile pg1 --top-k 8 --method cg --json")).unwrap();
        assert!(cg.contains("\"selected\":8"), "{cg}");

        assert!(run(&argv("screen --profile nope")).is_err());
        assert!(run(&argv("screen --profile pg1 --top-k 0")).is_err());
        assert!(run(&argv("screen --profile pg1 --stress-threshold -4")).is_err());
        assert!(run(&argv("screen --profile pg1 --method simplex")).is_err());
        assert!(run(&argv("screen")).is_err(), "missing deck path");
    }

    #[test]
    fn screen_reads_a_deck_file_too() {
        let deck = write_string(&GridSpec::custom("cli-screen", 8, 8).generate());
        let path = std::env::temp_dir().join("emgrid_cli_test_screen.sp");
        std::fs::write(&path, deck).unwrap();
        let path = path.to_string_lossy().into_owned();
        let out = run(&["screen".into(), path.clone(), "--json".into()]).unwrap();
        assert!(out.contains("\"kind\":\"screen\""), "{out}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn signoff_command_reports_verdict() {
        let deck = run(&argv("generate --profile pg1")).unwrap();
        let path = std::env::temp_dir().join("emgrid_cli_test_signoff.sp");
        std::fs::write(&path, deck).unwrap();
        let path = path.to_string_lossy().into_owned();
        let out = run(&[
            "signoff".into(),
            path.clone(),
            "--target-years".into(),
            "1".into(),
        ])
        .unwrap();
        assert!(out.contains("verdict"), "{out}");
        assert!(out.contains("current-density limit"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn sweep_runs_a_small_spec_and_writes_a_report() {
        let dir = std::env::temp_dir().join(format!("emgrid-cli-sweep-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let spec = dir.join("spec.json");
        std::fs::write(
            &spec,
            r#"{
                "name": "cli-sweep",
                "job": {"kind": "characterize", "trials": 32, "threads": 1, "array": "1x1"},
                "axes": {"seed": [1, 2]}
            }"#,
        )
        .unwrap();
        let out = run(&[
            "sweep".into(),
            spec.to_string_lossy().into_owned(),
            "--state-dir".into(),
            dir.join("jobs").to_string_lossy().into_owned(),
        ])
        .unwrap();
        assert!(out.contains("2 total, 2 done, 0 failed"), "{out}");
        let report = out
            .lines()
            .find(|l| l.starts_with("report"))
            .and_then(|l| l.split_once(':').map(|x| x.1))
            .map(str::trim)
            .unwrap();
        assert!(std::path::Path::new(report).exists(), "{out}");
        assert!(run(&argv("sweep")).is_err(), "missing spec path");
        assert!(run(&argv("sweep nope.json --workers 0")).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn validate_canonicalizes_job_and_sweep_specs() {
        let dir = std::env::temp_dir().join(format!("emgrid-cli-validate-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        // Job spec (has `kind`): defaults materialize, `schema` renders first.
        let job = dir.join("job.json");
        std::fs::write(&job, r#"{"schema": 1, "kind": "characterize"}"#).unwrap();
        let out = run(&["validate".into(), job.to_string_lossy().into_owned()]).unwrap();
        assert_eq!(
            out,
            "{\"schema\":1,\"kind\":\"characterize\",\"array\":\"4x4\",\"pattern\":\"plus\",\
             \"criterion\":\"rinf\",\"trials\":2000,\"seed\":1,\"threads\":1}\n"
        );

        // Sweep spec (no `kind`): validated through full axis expansion,
        // dotted variation axes included.
        let sweep = dir.join("sweep.json");
        std::fs::write(
            &sweep,
            r#"{
                "name": "v",
                "job": {"kind": "characterize", "trials": 8},
                "axes": {"variation.edge_current_factor": [0, 0.5]}
            }"#,
        )
        .unwrap();
        let out = run(&["validate".into(), sweep.to_string_lossy().into_owned()]).unwrap();
        assert!(out.starts_with("{\"name\":\"v\""), "{out}");
        assert!(out.contains("variation.edge_current_factor"), "{out}");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn validate_names_the_offending_field() {
        let dir =
            std::env::temp_dir().join(format!("emgrid-cli-validate-bad-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let bad_job = dir.join("bad-job.json");
        std::fs::write(&bad_job, r#"{"kind": "characterize", "schema": 7}"#).unwrap();
        let err = run(&["validate".into(), bad_job.to_string_lossy().into_owned()]).unwrap_err();
        assert!(err.0.contains("`schema`"), "{}", err.0);
        assert!(err.0.contains("unsupported spec schema 7"), "{}", err.0);

        let bad_sweep = dir.join("bad-sweep.json");
        std::fs::write(
            &bad_sweep,
            r#"{"name": "b", "job": {"kind": "characterize", "trials": 8},
                "axes": {"array": ["1x1", "9x9"]}}"#,
        )
        .unwrap();
        let err = run(&["validate".into(), bad_sweep.to_string_lossy().into_owned()]).unwrap_err();
        assert!(err.0.contains("`axes.array[1]`"), "{}", err.0);

        let not_json = dir.join("not.json");
        std::fs::write(&not_json, "nope").unwrap();
        let err = run(&["validate".into(), not_json.to_string_lossy().into_owned()]).unwrap_err();
        assert!(err.0.contains("not valid JSON"), "{}", err.0);

        assert!(run(&argv("validate")).is_err(), "missing spec path");
        assert!(run(&argv("validate /nonexistent/spec.json")).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn characterize_variation_flags_report_fields_and_variance() {
        let base = "characterize --array 4x4 --trials 64 --seed 9";
        let nominal = run(&argv(base)).unwrap();
        let varied = run(&argv(&format!(
            "{base} --edge-current-factor 0.5 --temperature-sigma 8 \
             --linewidth-sigma 0.1 --variance-analysis"
        )))
        .unwrap();
        assert!(
            varied.contains("variation      : edge factor 0.5, sigma_T 8 degC, sigma_w 0.1"),
            "{varied}"
        );
        assert!(varied.contains("ln-TTF variance: total "), "{varied}");
        assert!(!nominal.contains("variation"), "{nominal}");
        assert_ne!(nominal, varied);
    }

    #[test]
    fn variation_flags_are_bounded() {
        assert!(run(&argv("characterize --edge-current-factor -1")).is_err());
        assert!(run(&argv("characterize --edge-current-factor lots")).is_err());
        assert!(run(&argv("characterize --temperature-sigma 1000")).is_err());
        assert!(run(&argv("characterize --linewidth-sigma 0.9")).is_err());
    }

    #[test]
    fn varied_characterize_is_thread_count_invariant() {
        let base = "characterize --trials 96 --seed 7 --edge-current-factor 0.4 \
                    --temperature-sigma 6 --linewidth-sigma 0.05 --threads";
        let one = run(&argv(&format!("{base} 1"))).unwrap();
        let four = run(&argv(&format!("{base} 4"))).unwrap();
        let strip = |s: &str| {
            s.lines()
                .filter(|l| !l.starts_with("execution"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(strip(&one), strip(&four));
    }

    #[test]
    fn missing_deck_path_reported() {
        let err = run(&argv("irdrop --repair-vias 0.5")).unwrap_err();
        assert!(err.0.contains("missing deck path"));
    }

    #[test]
    fn fea_solves_a_coarse_primitive() {
        let out = run(&argv(
            "fea --array 1x1 --pattern plus --resolution 0.5 --no-cache",
        ))
        .unwrap();
        assert!(
            out.contains("resolution 0.5 um (from --resolution)"),
            "{out}"
        );
        assert!(out.contains("cache          : disabled"), "{out}");
        assert!(out.contains("per-via peak tensile stress"), "{out}");
    }

    #[test]
    fn fea_cache_dir_flag_redirects_the_cache() {
        let dir = std::env::temp_dir().join(format!("emgrid-cli-cache-{}", std::process::id()));
        let out = run(&argv(&format!(
            "fea --array 1x1 --pattern plus --resolution 0.5 --cache-dir {}",
            dir.display()
        )))
        .unwrap();
        assert!(
            out.contains(&format!("cache          : {}", dir.display())),
            "{out}"
        );
        // The run populated the redirected cache on disk.
        assert!(
            std::fs::read_dir(&dir)
                .map(|mut d| d.next().is_some())
                .unwrap_or(false),
            "expected a cache entry under {}",
            dir.display()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fea_rejects_bad_options() {
        assert!(run(&argv("fea --array 3x3")).is_err());
        assert!(run(&argv("fea --pattern round")).is_err());
        assert!(run(&argv("fea --resolution 0")).is_err());
        assert!(run(&argv("fea --resolution coarse")).is_err());
        assert!(run(&argv("fea --fea-threads 0")).is_err());
        assert!(run(&argv("fea --ordering best")).is_err());
        assert!(run(&argv("fea --kernels simd")).is_err());
        let err = run(&argv("fea --resolution 6")).unwrap_err();
        assert!(
            err.0.contains("--resolution: resolution 6 out of range"),
            "{}",
            err.0
        );
        assert!(run(&argv("fea --fea-threads 65")).is_err());
    }

    /// The canonical spec `cmd` builds from `args` (with no environment).
    fn cli_spec(cmd: &str, args: &[String]) -> JobSpec {
        let flags = Flags::parse(cmd, &command(cmd).unwrap(), args).unwrap();
        job_spec(cmd, &flags, &|_| None).unwrap().0
    }

    /// The daemon's result document for `spec`, from `run_job` on a
    /// one-worker engine.
    fn daemon_doc(spec: &JobSpec, tag: &str) -> Json {
        use emgrid_runtime::JobEngine;
        use emgrid_serve::metrics::Metrics;
        use emgrid_serve::runner::{run_job, RunEnv};
        use emgrid_serve::JobStore;

        let root = std::env::temp_dir().join(format!("emgrid-cli-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let store = JobStore::open(&root).unwrap();
        let engine: JobEngine<String> = JobEngine::new(1, 1);
        let spec = spec.clone();
        let store2 = store.clone();
        let id = engine
            .submit(move |ctx| {
                let metrics = Metrics::default();
                let env = RunEnv {
                    store: &store2,
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
        engine
            .wait_terminal(id, std::time::Duration::from_secs(120))
            .unwrap();
        let snap = engine.snapshot(id).unwrap();
        let _ = std::fs::remove_dir_all(&root);
        json::parse(&snap.result.unwrap_or_else(|| panic!("{:?}", snap.error))).unwrap()
    }

    #[test]
    fn cli_specs_are_pinned_and_report_the_daemons_numbers() {
        let deck = write_string(&GridSpec::custom("cli-parity", 8, 8).generate());
        let path =
            std::env::temp_dir().join(format!("emgrid_cli_parity_{}.sp", std::process::id()));
        std::fs::write(&path, &deck).unwrap();
        let path = path.to_string_lossy().into_owned();
        let cases = [
            (
                "characterize",
                "--array 8x8 --pattern t --criterion weakest-link --trials 300 --seed 4 \
                 --edge-current-factor 0.5 --variance-analysis",
                r#"{"kind":"characterize","array":"8x8","pattern":"tee","criterion":"wl","trials":300,"seed":4,"threads":1,"variation":{"edge_current_factor":0.5,"temperature_sigma_c":0,"linewidth_sigma":0,"variance_analysis":true}}"#,
                &[
                    ("TTF median     : ", "ttf_median_years", 2),
                    ("TTF 0.3%ile    : ", "ttf_p03_years", 2),
                    ("lognormal fit  : median ", "lognormal_median_years", 2),
                    (" sigma ", "lognormal_sigma", 3),
                    ("(KS ", "ks", 3),
                    ("ln-TTF variance: total ", "variation.variance.total", 4),
                ][..],
            ),
            (
                "analyze",
                "--pattern l --criterion open --trials 120 --grid-trials 6 --seed 2 \
                 --ordering rcm --repair-vias 0.5 --threads 2",
                r#"{"kind":"analyze","array":"4x4","pattern":"ell","criterion":"rinf","trials":120,"seed":2,"threads":2,"grid_trials":6,"netlist":"<deck>","repair_vias":0.5,"solver":{"ordering":"rcm","supernodal":true}}"#,
                &[
                    ("system TTF median   : ", "ttf_median_years", 2),
                    ("system TTF 0.3%ile  : ", "ttf_p03_years", 2),
                    ("mean failures/trial : ", "mean_failures", 1),
                ][..],
            ),
            (
                "fea",
                "--array 1x1 --resolution 0.5 --no-cache --kernels scalar --fea-threads 2",
                r#"{"kind":"fea","array":"1x1","pattern":"plus","resolution":0.5,"threads":2,"use_cache":false,"solver":{"ordering":"amd","kernels":"scalar"}}"#,
                &[("  ", "per_via_stress_mpa", 1)][..],
            ),
        ];
        for (cmd, flags, pinned, numbers) in cases {
            let mut args = argv(flags);
            if cmd == "analyze" {
                args.insert(0, path.clone());
            }
            let spec = cli_spec(cmd, &args);
            let canonical = spec
                .to_json()
                .to_string()
                .replace(&Json::s(&deck).to_string(), "\"<deck>\"");
            assert_eq!(canonical, pinned, "{cmd}");

            args.insert(0, cmd.to_owned());
            let text = run(&args).unwrap();
            let doc = daemon_doc(&spec, cmd);
            for (prefix, key, decimals) in numbers {
                let value = match doc.get(key) {
                    Some(Json::Arr(items)) => items[0].as_f64().unwrap(),
                    _ => stat(&doc, key),
                };
                let expected = format!("{prefix}{value:.decimals$}");
                let expected = expected.trim_start_matches(' ');
                assert!(
                    text.contains(expected),
                    "{cmd}: `{expected}` not in\n{text}"
                );
            }
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn env_backed_knobs_resolve_flag_then_env_then_default() {
        // Per variable: (flag value, env value, bad env value, default).
        let values = [
            ("EMGRID_RESOLUTION", "0.5", "0.7", "junk", "0.25"),
            ("EMGRID_ORDERING", "natural", "rcm", "fastest", "amd"),
            ("EMGRID_KERNELS", "blocked", "scalar", "fastest", "auto"),
        ];
        let deck = std::env::temp_dir().join(format!("emgrid_cli_env_{}.sp", std::process::id()));
        std::fs::write(
            &deck,
            write_string(&GridSpec::custom("cli-env", 4, 4).generate()),
        )
        .unwrap();
        let deck = deck.to_string_lossy().into_owned();
        // The resolved value of an env-backed key.
        let resolved = |job: &ResolvedJob, key: &str| -> String {
            let (ordering, kernels, resolution) = match job {
                ResolvedJob::Fea(f) => (f.ordering, f.kernels, f.resolution.to_string()),
                ResolvedJob::Analyze(a) => (a.factor.ordering, a.factor.kernels, String::new()),
                ResolvedJob::Characterize(_) => unreachable!("no env-backed knobs"),
            };
            match key {
                "resolution" => resolution,
                "solver.ordering" => ordering.label().to_owned(),
                "solver.kernels" => kernels.label().to_owned(),
                other => panic!("untested env-backed key `{other}`"),
            }
        };
        let mut seen = Vec::new();
        for (cmd, base) in [
            ("analyze", deck.clone()),
            ("screen", "--profile pg1".to_owned()),
            ("fea", String::new()),
        ] {
            let kind = if cmd == "fea" { "fea" } else { "analyze" };
            let cmd_knobs = command(cmd).unwrap().knobs;
            for knob in cmd_knobs.iter().flat_map(|g| g.iter()) {
                let Some(var) = knob.env else { continue };
                let (_, flag_value, env_value, bad, default) = *values
                    .iter()
                    .find(|v| v.0 == var)
                    .expect("a case per variable");
                seen.push(var);
                let spell = |args: &str, env: Option<&str>| {
                    let args = argv(&format!("{base} {args}"));
                    let env = |name: &str| (name == var).then(|| env.map(str::to_owned)).flatten();
                    let flags = Flags::parse(cmd, &command(cmd).unwrap(), &args)?;
                    let (spec, sources) = job_spec(kind, &flags, &env)?;
                    let job = spec.resolve().map_err(|e| sources.attribute(e))?;
                    Ok::<_, CliError>((resolved(&job, knob.key), sources.of(knob.key)))
                };
                let flag_args = format!("{} {flag_value}", knob.flag);
                // Flag beats env, env beats default.
                assert_eq!(
                    spell(&flag_args, Some(env_value)).unwrap(),
                    (flag_value.to_owned(), knob.flag),
                    "{cmd} {var}"
                );
                assert_eq!(
                    spell("", Some(env_value)).unwrap(),
                    (env_value.to_owned(), var),
                    "{cmd}"
                );
                assert_eq!(
                    spell("", None).unwrap(),
                    (default.to_owned(), "default"),
                    "{cmd}"
                );
                // A bad env value is an error naming the variable, unless
                // the flag overrides it.
                let err = spell("", Some(bad)).unwrap_err();
                assert!(err.0.starts_with(&format!("{var}: ")), "{cmd}: {}", err.0);
                assert!(spell(&flag_args, Some(bad)).is_ok(), "{cmd} {var}");
            }
        }
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(
            seen,
            ["EMGRID_KERNELS", "EMGRID_ORDERING", "EMGRID_RESOLUTION"]
        );
        std::fs::remove_file(deck).ok();
    }

    #[test]
    fn switches_before_the_path_do_not_swallow_it() {
        for (cmd, switch) in [
            ("screen", "--json"),
            ("analyze", "--trace"),
            ("analyze", "--variance-analysis"),
            ("lint", "--trace"),
        ] {
            let args = argv(&format!("{switch} deck.sp --repair-vias 0.5"));
            let flags = Flags::parse(cmd, &command(cmd).unwrap(), &args).unwrap();
            assert_eq!(flags.path().unwrap(), "deck.sp", "{cmd} {switch}");
            assert!(flags.has(switch));
            assert_eq!(flags.get("--repair-vias"), Some("0.5"));
        }
        let args = argv("--no-cache --resolution 0.5");
        let flags = Flags::parse("fea", &command("fea").unwrap(), &args).unwrap();
        assert_eq!(flags.get("--resolution"), Some("0.5"));

        // End to end: a switch ahead of the deck path.
        let deck = write_string(&GridSpec::custom("cli-switch", 8, 8).generate());
        let path =
            std::env::temp_dir().join(format!("emgrid_cli_switch_{}.sp", std::process::id()));
        std::fs::write(&path, deck).unwrap();
        let path = path.to_string_lossy().into_owned();
        let out = run(&["screen".into(), "--json".into(), path.clone()]).unwrap();
        assert!(out.contains("\"kind\":\"screen\""), "{out}");
        let out = run(&argv(&format!(
            "analyze --variance-analysis {path} --trials 60 --grid-trials 4"
        )))
        .unwrap();
        assert!(out.contains("ln-TTF variance: total "), "{out}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn unknown_flags_are_rejected_by_name() {
        for (args, flag) in [
            ("characterize --trails 50 --trials 100", "--trails"),
            ("analyze deck.sp --grid-trails 10", "--grid-trails"),
            ("fea --reslution 1", "--reslution"),
            ("screen --profile pg1 --topk 3", "--topk"),
            ("sweep spec.json --out /tmp/x", "--out"),
            ("lint deck.sp --fix", "--fix"),
            ("generate --profle pg1", "--profle"),
            ("serve --port 80", "--port"),
            ("validate spec.json --strict", "--strict"),
        ] {
            let err = run(&argv(args)).unwrap_err();
            assert!(
                err.0.contains(&format!("unknown flag `{flag}`")),
                "{args}: {}",
                err.0
            );
        }
        // A flag of another command is unknown here too.
        assert!(run(&argv("characterize --grid-trials 5")).is_err());
        assert!(run(&argv("characterize stray")).is_err());
        // `--trace` is global.
        let args = argv("--trace");
        assert!(Flags::parse("validate", &command("validate").unwrap(), &args).is_ok());
    }

    #[test]
    fn analyze_rejects_decks_with_fatal_lint_findings() {
        // A resistor to a node nothing else touches leaves it floating.
        let mut deck = write_string(&GridSpec::custom("cli-lint", 4, 4).generate());
        deck.push_str("Rdangle n_dangling_a n_dangling_b 1.0\n");
        let path = std::env::temp_dir().join(format!("emgrid_cli_lint_{}.sp", std::process::id()));
        std::fs::write(&path, deck).unwrap();
        let path = path.to_string_lossy().into_owned();
        let err = run(&argv(&format!(
            "analyze {path} --trials 20 --grid-trials 2"
        )))
        .unwrap_err();
        assert!(err.0.contains("netlist rejected"), "{}", err.0);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn usage_documents_every_spec_knob() {
        for cmd in ["characterize", "analyze", "screen", "fea"] {
            for knob in command(cmd).unwrap().knobs.iter().flat_map(|g| g.iter()) {
                assert!(USAGE.contains(knob.flag), "{}", knob.flag);
                let key = knob.key.rsplit('.').next().unwrap();
                assert!(USAGE.contains(key), "{cmd} {} -> {}", knob.flag, knob.key);
            }
        }
    }
}
