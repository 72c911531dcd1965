//! `omc` — the ObjectMath-rs compiler driver.
//!
//! A command-line front door over the whole pipeline, in the spirit of
//! the interactive environment of paper Figure 2 / the batch flow of
//! Figure 7:
//!
//! ```text
//! omc MODEL.om analyze                  # SCCs, pipeline levels, DOT
//! omc MODEL.om lint [--json] [--deny warnings|info]   # static analysis
//! omc MODEL.om emit --lang f90|cpp|mma  # generated code on stdout
//! omc MODEL.om tasks --workers N        # task table + LPT schedule
//! omc MODEL.om simulate --tend T [--workers N] [--solver dopri5|rk4|abm|bdf|lsoda]
//!               [--set state=value]...  # run, print final state
//! ```

use objectmath::analysis::{build_dependency_graph, partition_by_scc, to_dot};
use objectmath::codegen::task::{cluster_assignment, TaskGraph};
use objectmath::codegen::{emit_cpp, emit_fortran, BatchScratch, CodeGenerator, ModelRegistry};
use objectmath::ir::{causalize, OdeIr};
use objectmath::runtime::ensemble::json;
use objectmath::runtime::serve::protocol::{self, ModelRef, RunRequest};
use objectmath::runtime::{
    model_sparsity, run_sweep, ExecutorPool, FaultConfig, FaultPlan, ModelSystem, ParallelRhs,
    RuntimeError, ScenarioRunConfig, ScenarioSpec, ServeConfig, Server, Strategy, SweepConfig,
    SweepError, SweepFaultPlan, RESCHED_EVERY,
};
use objectmath::solver::{
    abm4, bdf, dopri5, lsoda, rk4, BdfOptions, FnSystem, LsodaOptions, OdeSystem, SolveError,
    Tolerances,
};
use std::fmt;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

/// Typed CLI failure; each class maps to a distinct exit code so scripts
/// can tell a user error from a numerical failure from a runtime fault.
#[derive(Debug)]
enum CliError {
    /// Bad command line (exit 2).
    Usage(String),
    /// File system problem (exit 1).
    Io(String),
    /// Model does not compile (exit 1).
    Compile(String),
    /// The integration failed numerically (exit 3).
    Solve(SolveError),
    /// The parallel runtime failed (exit 4).
    Runtime(RuntimeError),
    /// `lint` found problems; the code separates errors (5) from denied
    /// warnings (6) and denied info (7) so CI can gate on each class.
    Lint { code: u8, summary: String },
    /// The sweep driver could not run at all (bad checkpoint, bad
    /// config): exit 2 for configuration, 1 for checkpoint I/O.
    Sweep(SweepError),
    /// The sweep ran to the end but not every scenario completed: the
    /// documented partial-failure exit code 8. The manifest (written
    /// before this error is raised) accounts for every scenario.
    SweepPartial { summary: String },
    /// `omc request` was shed by the service's admission control: the
    /// documented load-shedding exit code 9. Nothing executed; the
    /// typed reason says which quota tripped.
    Overloaded { reason: String },
}

impl CliError {
    fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Io(_) | CliError::Compile(_) => 1,
            CliError::Solve(_) => 3,
            CliError::Runtime(_) => 4,
            CliError::Lint { code, .. } => *code,
            CliError::Sweep(SweepError::Config(_)) => 2,
            CliError::Sweep(_) => 1,
            CliError::SweepPartial { .. } => 8,
            CliError::Overloaded { .. } => 9,
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "{m}"),
            CliError::Io(m) => write!(f, "{m}"),
            CliError::Compile(m) => write!(f, "error: {m}"),
            CliError::Solve(e) => write!(f, "solver error: {e}"),
            CliError::Runtime(e) => write!(f, "runtime error: {e}"),
            CliError::Lint { summary, .. } => write!(f, "lint: {summary}"),
            CliError::Sweep(e) => write!(f, "{e}"),
            CliError::SweepPartial { summary } => write!(f, "sweep partial failure: {summary}"),
            CliError::Overloaded { reason } => write!(f, "request shed by service: {reason}"),
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(error) => {
            eprintln!("omc: {error}");
            ExitCode::from(error.exit_code())
        }
    }
}

fn usage() -> String {
    "usage: omc <model.om> <analyze|lint|emit|tasks|simulate|sweep|request> [options]\n\
     \x20      omc serve <--socket PATH|--stdio> [options]\n\
     \n\
     model: a .om file path, or a parameterized builtin name\n\
            (heat1d | bearing2d | bearing3d)\n\
       --size N                    override the builtin's size: heat1d\n\
                                   interior cells, bearing roller count\n\
       --array-aware               keep instance arrays symbolic (array\n\
                                   classes + loop tasks); default fully\n\
                                   scalarizes, the bitwise oracle (a usage\n\
                                   error for sweep/request: the registry\n\
                                   compiles scalarized)\n\
     \n\
     commands:\n\
       analyze                     dependency graph, SCCs, pipeline levels\n\
         --dot                     print Graphviz instead of the table\n\
       lint                        static analysis + schedule race detection;\n\
                                   with --array-aware, lints the symbolic\n\
                                   array pipeline and verifies loop-task\n\
                                   schedules with the affine dependence\n\
                                   engine (no expansion on clean schedules)\n\
         --json                    machine-readable JSON report on stdout\n\
         --deny warnings|info      also fail on warnings (exit 6) or on\n\
                                   warnings+info (exit 7); errors always exit 5\n\
       lint --explain OM0xx        describe a diagnostic code: severity,\n\
                                   summary, explanation, minimal example\n\
                                   (no model operand)\n\
       emit                        generated code on stdout\n\
         --lang f90|cpp|mma        target language (default f90)\n\
         --serial                  serial code with global CSE\n\
         --workers N               workers for the parallel version (default 4)\n\
       tasks                       task partitioning and LPT schedule\n\
         --workers N               (default 4)\n\
       simulate                    integrate and print the final state\n\
         --tend T                  end time (default 1.0)\n\
         --solver NAME             dopri5|rk4|abm|bdf|lsoda (default dopri5)\n\
         --workers N               RHS workers (default 1: the generated code\n\
                                   evaluated in-thread, no pool; N > 1 runs the\n\
                                   same code on a pool; output is identical)\n\
         --executor ws             the worker pool's one policy, dependency-driven\n\
                                   work stealing (accepted, not needed)\n\
         --set state=value         override a start value (repeatable)\n\
         --rtol R --atol A         tolerances (default 1e-6 / 1e-9; every solver\n\
                                   but rk4)\n\
         --h H                     fixed step (rk4 only; default (tend-t0)/1000)\n\
         --fault-seed SEED         seeded fault plan on the pool's RHS calls (chaos\n\
                                   runs; recovered in place on the pool;\n\
                                   requires --workers > 1)\n\
       sweep                       run N parameter scenarios over one compiled model\n\
         --params FILE             scenario vectors: .json (array of objects) or\n\
                                   .csv (header = state names)\n\
         --grid state=a:b:n        linspace scenarios (repeatable; flags combine\n\
                                   as a cartesian product)\n\
         --tend T --h H            fixed-step RK4 span per scenario (bit-reproducible;\n\
                                   the only integrator here: --solver is a\n\
                                   usage error for sweep/request)\n\
         --concurrency N           scenario workers (default 4), the one parallel\n\
                                   axis: each scenario runs in its worker's\n\
                                   thread (--workers is a usage error)\n\
         --batch K                 evaluate K scenarios per batched integration\n\
                                   (SoA lanes, bitwise-identical to --batch 1)\n\
         --deadline-ms MS          per-scenario wall-clock deadline\n\
         --max-rhs N               per-scenario RHS call budget\n\
         --retries N               retries for transient faults (default 2)\n\
         --checkpoint FILE         append-only JSONL checkpoint\n\
         --resume                  carry terminal outcomes forward from --checkpoint\n\
         --manifest FILE           write the deterministic manifest JSON\n\
         --stop-after N            admit only N scenarios (interruption test hook)\n\
         --fault-seed SEED         seeded per-scenario fault plan (panic/straggle/NaN)\n\
         --fault-rates P,S,N       per-mille rates for the seeded plan (default 60,40,50;\n\
                                   with --fault-seed)\n\
         --straggle-ms MS          injected straggler sleep (default 50; with\n\
                                   --fault-seed)\n\
       serve                       resident ensemble service: JSONL requests over\n\
                                   a Unix socket, compiled models stay warm across\n\
                                   requests (no model operand; SIGTERM drains\n\
                                   gracefully: in-flight requests finish, exit 0)\n\
         --socket PATH             listen on a Unix socket at PATH\n\
         --stdio                   serve stdin/stdout instead (CI and scripting;\n\
                                   EOF drains)\n\
         --concurrency N           resident scenario workers (default 4)\n\
         --registry-cap N          warm compiled models kept (LRU eviction past\n\
                                   this; 0 = unbounded; default 32)\n\
         --max-scenarios N         per-request scenario quota (default 1024)\n\
         --max-inflight N          service-wide in-flight scenario cap (default 4096)\n\
         --rate-burst B            per-client token-bucket burst, in requests\n\
                                   (0 = no rate limit; default 0)\n\
         --rate-per-sec R          per-client sustained request rate (default 0)\n\
       request                     client for `omc serve`: send the model + a\n\
                                   scenario batch, print the JSONL response\n\
                                   transcript on stdout\n\
         --socket PATH             connect to a serving `omc serve --socket PATH`\n\
         --grid/--params/--tend/--h/--deadline-ms/--max-rhs/--retries/\n\
         --batch                   exactly as for sweep\n\
         --repeat N                send the request N times on one connection\n\
                                   (the 2nd+ hit the warm registry; default 1)\n\
         --stats                   also send an op:\"stats\" request at the end\n\
                                   (`omc request --stats --socket PATH` alone\n\
                                   queries stats without running anything and\n\
                                   takes no other flag)\n\
     \n\
     observability (any command):\n\
       --trace FILE.json           write a chrome://tracing / Perfetto trace\n\
       --metrics                   print span totals and metrics to stderr\n\
     \n\
     a flag the command does not take, or one this run's other options leave\n\
     unread, is a usage error (exit 2), never ignored\n\
     \n\
     exit codes: 0 ok; 1 io/compile/checkpoint; 2 usage; 3 solver; 4 runtime;\n\
                 5/6/7 lint errors/denied warnings/denied info;\n\
                 8 sweep/request partial failure (some scenarios quarantined,\n\
                 past deadline, or skipped — see the manifest/transcript);\n\
                 9 request shed by service admission control (typed reason)"
        .to_owned()
}

/// Resolve a builtin model name (`heat1d`, `bearing2d`, `bearing3d`) to
/// generated source, applying the `--size` override. A path that names a
/// real file always wins, so a model file called `heat1d` still loads.
fn builtin_source(path: &str, opts: &Flags) -> Result<Option<String>, CliError> {
    if std::path::Path::new(path).exists() {
        return Ok(None);
    }
    if matches!(path, "heat1d" | "bearing2d" | "bearing3d") && opts.size == Some(0) {
        return Err(CliError::Usage("--size must be >= 1".to_owned()));
    }
    let source = match path {
        "heat1d" => {
            // The builtin uses the *distributed* stencil with advection on
            // (the E15 configuration): its sibling terms are ordered by
            // pairwise-distinct constant coefficients, so `--array-aware`
            // classifies the interior rows into one array class. The
            // nested form from `source()` deliberately falls back to
            // scalarization (tied neighbor coefficients).
            let mut cfg = objectmath::models::heat1d::HeatConfig {
                velocity: 0.4,
                ..Default::default()
            };
            if let Some(n) = opts.size {
                cfg.cells = n;
            }
            objectmath::models::heat1d::source_distributed(&cfg)
        }
        "bearing2d" => {
            let mut cfg = objectmath::models::bearing2d::BearingConfig::default();
            if let Some(n) = opts.size {
                cfg.rollers = n;
            }
            objectmath::models::bearing2d::source(&cfg)
        }
        "bearing3d" => {
            let mut cfg = objectmath::models::bearing3d::Bearing3dConfig::default();
            if let Some(n) = opts.size {
                cfg.rollers = n;
            }
            objectmath::models::bearing3d::source(&cfg)
        }
        _ => return Ok(None),
    };
    Ok(Some(source))
}

fn run(args: &[String]) -> Result<(), CliError> {
    if args.len() < 2 {
        return Err(CliError::Usage(usage()));
    }
    // `omc lint --explain OM0xx` takes no model operand: the first arg
    // IS the command.
    if args[0] == "lint" && args[1] == "--explain" {
        let code = args.get(2).ok_or_else(|| {
            CliError::Usage("lint --explain needs a diagnostic code (e.g. OM040)".to_owned())
        })?;
        return explain(code);
    }

    // `omc serve` is a resident process, not a per-model invocation: no
    // model operand (models arrive inside requests).
    if args[0] == "serve" {
        let opts = command_flags("serve", &args[1..])?;
        if opts.trace.is_some() || opts.metrics {
            om_obs::init(&om_obs::ObsConfig::enabled());
        }
        let result = serve_cmd(&opts);
        let export = export_obs(&opts);
        return result.and(export);
    }

    // `omc request --stats --socket PATH` queries service stats without
    // a model operand; `omc MODEL request ...` (below) runs scenarios.
    if args[0] == "request" {
        let opts = command_flags("request", &args[1..])?;
        if !opts.stats {
            return Err(CliError::Usage(
                "request without a model operand needs --stats (to run scenarios: \
                 omc MODEL request --socket PATH ...)"
                    .into(),
            ));
        }
        check_values("request", &opts, false)?;
        return request_cmd(None, &opts);
    }

    let path = &args[0];
    let command = args[1].as_str();
    if !MODEL_COMMANDS.contains(&command) {
        return Err(CliError::Usage(format!(
            "unknown command `{command}`\n{}",
            usage()
        )));
    }
    let opts = command_flags(command, &args[2..])?;
    check_values(command, &opts, true)?;

    // Switch recording on before any instrumented object is built (pools
    // cache their metric handles at construction time).
    if opts.trace.is_some() || opts.metrics {
        om_obs::init(&om_obs::ObsConfig::enabled());
    }

    let source = match builtin_source(path, &opts)? {
        Some(generated) => generated,
        None => std::fs::read_to_string(path)
            .map_err(|e| CliError::Io(format!("cannot read `{path}`: {e}")))?,
    };

    // `lint` runs before (and instead of) the normal compile: its whole
    // point is producing diagnostics for models the pipeline rejects.
    if command == "lint" {
        let result = lint(path, &source, &opts);
        let export = export_obs(&opts);
        return result.and(export);
    }

    // `sweep` compiles through the content-hashed model registry (compile
    // once, reuse across scenarios) instead of the one-shot path below.
    if command == "sweep" {
        let result = sweep(&source, &opts);
        let export = export_obs(&opts);
        return result.and(export);
    }

    // `request` ships the raw source to a resident `omc serve` process —
    // the service compiles (or reuses) it, not this client.
    if command == "request" {
        let result = request_cmd(Some(&source), &opts);
        let export = export_obs(&opts);
        return result.and(export);
    }

    // The source text and the flat model are dead once the IR exists:
    // free them before the command allocates (they count towards the
    // peak RSS of a `simulate`).
    let ir = {
        use objectmath::lang::{flatten, flatten_arrays, parse_unit, scope};
        let unit = phase("lang.parse", || parse_unit(&source)).map_err(compile_error)?;
        drop(source);
        phase("lang.scope", || scope::check(&unit)).map_err(compile_error)?;
        let flatten = if opts.array_aware {
            flatten_arrays
        } else {
            flatten
        };
        let flat = phase("lang.flatten", || flatten(&unit)).map_err(compile_error)?;
        drop(unit);
        phase("ir.causalize", || causalize(&flat)).map_err(compile_error)?
    };
    phase("ir.verify", || objectmath::ir::verify_compilable(&ir)).map_err(compile_error)?;

    let result = match command {
        "analyze" => analyze(&ir, &opts),
        "emit" => emit(&ir, &opts),
        "tasks" => tasks(&ir, &opts),
        // The last of MODEL_COMMANDS: the others have returned above.
        _ => simulate(ir, &opts),
    };
    // Export even after a failed command — a trace of a failing run is
    // exactly when you want one — but keep the command's error.
    let export = export_obs(&opts);
    result.and(export)
}

/// Run one compile phase under its `om-obs` span (`--metrics` / `--trace`).
fn phase<T>(name: &'static str, run: impl FnOnce() -> T) -> T {
    let _span = om_obs::span(name, "compile");
    run()
}

fn compile_error(error: impl fmt::Display) -> CliError {
    CliError::Compile(error.to_string())
}

/// Write `--trace` / print `--metrics` output. Worker pools have been
/// dropped by the time the command returns, so every worker thread has
/// flushed its span buffer.
fn export_obs(opts: &Flags) -> Result<(), CliError> {
    if opts.trace.is_none() && !opts.metrics {
        return Ok(());
    }
    om_obs::flush_thread();
    let trace = om_obs::collect();
    if let Some(path) = &opts.trace {
        let json = om_obs::chrome::to_chrome_json(&trace);
        std::fs::write(path, &json)
            .map_err(|e| CliError::Io(format!("cannot write `{path}`: {e}")))?;
        eprintln!(
            "[trace: {} events on {} threads -> {path}]",
            trace.events.len(),
            trace.threads.len()
        );
    }
    if opts.metrics {
        if let Some(kb) = peak_rss_kb() {
            om_obs::metrics()
                .gauge("process.peak_rss_kb")
                .set(kb as f64);
        }
        eprint!("{}", om_obs::summary(&trace));
    }
    Ok(())
}

/// This process's peak resident set (`VmHWM`) in kilobytes; `None` where
/// `/proc/self/status` does not exist or does not carry it.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[derive(Default)]
struct Flags {
    dot: bool,
    serial: bool,
    json: bool,
    deny: Option<String>,
    lang: String,
    solver: String,
    workers: usize,
    tend: f64,
    rtol: f64,
    atol: f64,
    h: f64,
    sets: Vec<(String, f64)>,
    trace: Option<String>,
    metrics: bool,
    // sweep / chaos options
    params: Option<String>,
    grid: Vec<String>,
    concurrency: usize,
    batch: usize,
    deadline_ms: u64,
    max_rhs: u64,
    retries: u32,
    checkpoint: Option<String>,
    resume: bool,
    manifest: Option<String>,
    stop_after: Option<usize>,
    fault_seed: Option<u64>,
    fault_rates: (u32, u32, u32),
    straggle_ms: u64,
    size: Option<usize>,
    array_aware: bool,
    // serve / request options
    socket: Option<String>,
    stdio: bool,
    registry_cap: usize,
    max_scenarios: usize,
    max_inflight: usize,
    rate_burst: f64,
    rate_per_sec: f64,
    repeat: usize,
    stats: bool,
    /// The table row of every flag given, in command-line order.
    given: Vec<&'static FlagRow>,
}

/// A flag, the commands that take it, and what to say when an ensemble
/// command (`sweep`, `request`, `serve`) is given it anyway.
type FlagRow = (&'static str, &'static [&'static str], &'static str);

/// The commands that take a model operand.
const MODEL_COMMANDS: [&str; 7] = [
    "analyze", "lint", "emit", "tasks", "simulate", "sweep", "request",
];
const ANY: &[&str] = &[
    "analyze", "lint", "emit", "tasks", "simulate", "sweep", "request", "serve",
];
/// The commands that compile through `omc`'s own pipeline (the ensemble
/// commands compile through the model registry).
const COMPILED: &[&str] = &["analyze", "lint", "emit", "tasks", "simulate"];

/// Which commands take each flag: the one place a flag composes with a
/// command or is refused. A flag outside its row is a usage error
/// before anything runs, never a quiet no-op.
const FLAGS: &[FlagRow] = &[
    ("--size", &MODEL_COMMANDS, ""),
    (
        "--array-aware",
        COMPILED,
        "ensemble models compile scalarized through the model registry",
    ),
    ("--dot", &["analyze"], ""),
    ("--serial", &["emit"], ""),
    ("--json", &["lint"], ""),
    ("--deny", &["lint"], ""),
    ("--metrics", ANY, ""),
    ("--trace", ANY, ""),
    ("--lang", &["emit"], ""),
    (
        "--solver",
        &["simulate"],
        "every scenario integrates with fixed-step RK4; set the step with --h",
    ),
    ("--executor", &["simulate"], ""),
    (
        "--workers",
        &["emit", "tasks", "simulate"],
        "each scenario runs in one thread; parallelize across scenarios with --concurrency",
    ),
    ("--tend", &["simulate", "sweep", "request"], ""),
    ("--rtol", &["simulate"], ""),
    ("--atol", &["simulate"], ""),
    ("--h", &["simulate", "sweep", "request"], ""),
    ("--set", &["simulate"], ""),
    ("--params", &["sweep", "request"], ""),
    ("--grid", &["sweep", "request"], ""),
    ("--concurrency", &["sweep", "serve"], ""),
    ("--batch", &["sweep", "request"], ""),
    ("--deadline-ms", &["sweep", "request"], ""),
    ("--max-rhs", &["sweep", "request"], ""),
    ("--retries", &["sweep", "request"], ""),
    ("--checkpoint", &["sweep"], ""),
    ("--resume", &["sweep"], ""),
    ("--manifest", &["sweep"], ""),
    ("--stop-after", &["sweep"], ""),
    ("--fault-seed", &["simulate", "sweep"], ""),
    ("--fault-rates", &["sweep"], ""),
    ("--straggle-ms", &["sweep"], ""),
    ("--socket", &["request", "serve"], ""),
    ("--stdio", &["serve"], ""),
    ("--registry-cap", &["serve"], ""),
    ("--max-scenarios", &["serve"], ""),
    ("--max-inflight", &["serve"], ""),
    ("--rate-burst", &["serve"], ""),
    ("--rate-per-sec", &["serve"], ""),
    ("--repeat", &["request"], ""),
    ("--stats", &["request"], ""),
];

/// Parse `rest` as `command`'s flags, refusing the first one given that
/// `command` does not take.
fn command_flags(command: &str, rest: &[String]) -> Result<Flags, CliError> {
    let opts = parse_flags(rest)?;
    let Some((flag, takers, hint)) = opts.given.iter().find(|row| !row.1.contains(&command)) else {
        return Ok(opts);
    };
    let hint = match command {
        "sweep" | "request" | "serve" if !hint.is_empty() => format!(" ({hint})"),
        _ => String::new(),
    };
    Err(CliError::Usage(format!(
        "{command} does not take {flag}; {flag} is for {}{hint}",
        takers.join(", ")
    )))
}

/// The value half of composing flags: a flag that `command` takes but
/// that this invocation's other values leave unread is a usage error
/// naming the option that would read it, never a quiet no-op.
/// `has_model` is false for the model-less `omc request --stats`.
fn check_values(command: &str, opts: &Flags, has_model: bool) -> Result<(), CliError> {
    // The first of `flags` given on the command line.
    let given = |flags: &[&'static str]| {
        let given = |flag: &&str| opts.given.iter().any(|row| row.0 == *flag);
        flags.iter().copied().find(given)
    };
    let unread = match command {
        "simulate" if opts.solver == "rk4" => given(&["--rtol", "--atol"]).map(|flag| {
            format!(
                "simulate --solver rk4 does not read {flag}; {flag} is read by the adaptive \
                 solvers (--solver dopri5|abm|bdf|lsoda)"
            )
        }),
        "simulate" => given(&["--h"]).map(|_| {
            format!(
                "simulate --solver {} does not read --h; --h is the fixed step of --solver rk4",
                opts.solver
            )
        }),
        "sweep" if opts.fault_seed.is_none() => {
            given(&["--fault-rates", "--straggle-ms"]).map(|flag| {
                format!(
                    "sweep plans no faults without --fault-seed; {flag} is read by \
                     --fault-seed SEED"
                )
            })
        }
        "request" if !has_model => opts
            .given
            .iter()
            .find(|row| !matches!(row.0, "--socket" | "--stats"))
            .map(|row| {
                format!(
                    "request --stats without a model operand only queries the service; {} is \
                     read by the running form (omc MODEL request ...)",
                    row.0
                )
            }),
        _ => None,
    };
    if let Some(message) = unread {
        return Err(CliError::Usage(message));
    }
    if command == "simulate" && opts.fault_seed.is_some() && opts.workers <= 1 {
        return Err(CliError::Usage(
            "simulate: --fault-seed plans faults on a pool's RHS calls and needs \
             --workers N > 1 (the in-thread run has no pool to fault)"
                .into(),
        ));
    }
    Ok(())
}

fn parse_flags(rest: &[String]) -> Result<Flags, CliError> {
    let mut f = Flags {
        lang: "f90".into(),
        solver: "dopri5".into(),
        workers: 0,
        tend: 1.0,
        rtol: 1e-6,
        atol: 1e-9,
        h: 0.0,
        concurrency: 4,
        batch: 1,
        retries: 2,
        fault_rates: (60, 40, 50),
        straggle_ms: 50,
        registry_cap: 32,
        max_scenarios: 1024,
        max_inflight: 4096,
        repeat: 1,
        ..Flags::default()
    };
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        let Some(row) = FLAGS.iter().find(|row| row.0 == arg) else {
            return Err(CliError::Usage(format!(
                "unknown flag `{arg}`\n{}",
                usage()
            )));
        };
        f.given.push(row);
        let flag = row.0;
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| CliError::Usage(format!("flag {flag} needs a value")))
        };
        match flag {
            "--size" => f.size = Some(parsed(flag, &value()?)?),
            "--array-aware" => f.array_aware = true,
            "--dot" => f.dot = true,
            "--serial" => f.serial = true,
            "--json" => f.json = true,
            "--deny" => f.deny = Some(value()?),
            "--metrics" => f.metrics = true,
            "--trace" => f.trace = Some(value()?),
            "--lang" => f.lang = value()?,
            "--solver" => f.solver = value()?,
            // The pool's one policy; the token is checked, not stored.
            "--executor" => {
                parsed::<Strategy>(flag, &value()?)?;
            }
            "--workers" => f.workers = parsed(flag, &value()?)?,
            "--tend" => f.tend = positive_finite(flag, &value()?)?,
            "--rtol" => f.rtol = parsed(flag, &value()?)?,
            "--atol" => f.atol = parsed(flag, &value()?)?,
            "--h" => f.h = positive_finite(flag, &value()?)?,
            "--set" => {
                let spec = value()?;
                let (name, val) = spec.split_once('=').ok_or_else(|| {
                    CliError::Usage(format!("--set expects state=value, got `{spec}`"))
                })?;
                let val: f64 = parsed(&format!("--set {name}"), val)?;
                f.sets.push((name.to_owned(), val));
            }
            "--params" => f.params = Some(value()?),
            "--grid" => f.grid.push(value()?),
            "--concurrency" => f.concurrency = at_least_one(flag, &value()?)?,
            "--batch" => f.batch = at_least_one(flag, &value()?)?,
            "--deadline-ms" => f.deadline_ms = parsed(flag, &value()?)?,
            "--max-rhs" => f.max_rhs = parsed(flag, &value()?)?,
            "--retries" => f.retries = parsed(flag, &value()?)?,
            "--checkpoint" => f.checkpoint = Some(value()?),
            "--resume" => f.resume = true,
            "--manifest" => f.manifest = Some(value()?),
            "--stop-after" => f.stop_after = Some(parsed(flag, &value()?)?),
            "--fault-seed" => f.fault_seed = Some(parsed(flag, &value()?)?),
            "--fault-rates" => {
                let spec = value()?;
                let rates = spec
                    .split(',')
                    .map(|s| parsed(&format!("--fault-rates `{spec}`"), s.trim()))
                    .collect::<Result<Vec<u32>, _>>()?;
                let [p, s, n] = rates[..] else {
                    return Err(CliError::Usage(format!(
                        "--fault-rates expects panic,straggle,nan per-mille, got `{spec}`"
                    )));
                };
                f.fault_rates = (p, s, n);
            }
            "--straggle-ms" => f.straggle_ms = parsed(flag, &value()?)?,
            "--socket" => f.socket = Some(value()?),
            "--stdio" => f.stdio = true,
            "--registry-cap" => f.registry_cap = parsed(flag, &value()?)?,
            "--max-scenarios" => f.max_scenarios = parsed(flag, &value()?)?,
            "--max-inflight" => f.max_inflight = parsed(flag, &value()?)?,
            "--rate-burst" => f.rate_burst = parsed(flag, &value()?)?,
            "--rate-per-sec" => f.rate_per_sec = parsed(flag, &value()?)?,
            "--repeat" => f.repeat = at_least_one(flag, &value()?)?,
            "--stats" => f.stats = true,
            _ => return Err(CliError::Usage(format!("flag {flag} has no parser"))),
        }
    }
    // The fixed step of rk4 and of every ensemble scenario defaults to a
    // thousandth of the span.
    if f.h == 0.0 {
        f.h = f.tend / 1000.0;
        if f.h == 0.0 {
            return Err(CliError::Usage(format!(
                "--tend {} is too short for the default step; give --h",
                f.tend
            )));
        }
    }
    Ok(f)
}

/// A flag's value; one that does not parse is a usage error naming the
/// flag.
fn parsed<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, CliError>
where
    T::Err: fmt::Display,
{
    text.parse()
        .map_err(|e| CliError::Usage(format!("{flag}: {e}")))
}

/// A count of workers, lanes or repeats: 0 would run nothing.
fn at_least_one(flag: &str, text: &str) -> Result<usize, CliError> {
    match parsed(flag, text)? {
        0 => Err(CliError::Usage(format!(
            "{flag} must be at least 1, got `{text}`"
        ))),
        n => Ok(n),
    }
}

/// A `--tend` or `--h` value. Every solver integrates forward from
/// t = 0 with a positive step, so anything but a positive finite number
/// is a usage error here rather than a solver panic later.
fn positive_finite(flag: &str, text: &str) -> Result<f64, CliError> {
    let v: f64 = parsed(flag, text)?;
    if v.is_finite() && v > 0.0 {
        Ok(v)
    } else {
        Err(CliError::Usage(format!(
            "{flag} must be a positive finite number, got `{text}`"
        )))
    }
}

/// Run the whole-model static analyzer and the generated-schedule race
/// detector, print the report (text or `--json`), and turn the severity
/// classes into exit codes: errors → 5; with `--deny warnings` any
/// warning → 6; with `--deny info` any warning or info → 6/7.
fn lint(path: &str, source: &str, opts: &Flags) -> Result<(), CliError> {
    use objectmath::lint::Severity;

    let deny_warnings = matches!(opts.deny.as_deref(), Some("warnings") | Some("info"));
    let deny_info = opts.deny.as_deref() == Some("info");
    if let Some(other) = opts.deny.as_deref() {
        if other != "warnings" && other != "info" {
            return Err(CliError::Usage(format!(
                "--deny expects `warnings` or `info`, got `{other}`"
            )));
        }
    }

    let report = objectmath::lint::lint_source_with(
        source,
        objectmath::lint::LintOptions {
            array_aware: opts.array_aware,
        },
    );
    if opts.json {
        println!("{}", report.render_json(path));
    } else {
        print!("{}", report.render_text(path));
    }

    let errors = report.count(Severity::Error);
    let warnings = report.count(Severity::Warn);
    let info = report.count(Severity::Info);
    if errors > 0 {
        Err(CliError::Lint {
            code: 5,
            summary: format!("{errors} error(s)"),
        })
    } else if deny_warnings && warnings > 0 {
        Err(CliError::Lint {
            code: 6,
            summary: format!("{warnings} warning(s) denied by --deny"),
        })
    } else if deny_info && info > 0 {
        Err(CliError::Lint {
            code: 7,
            summary: format!("{info} info diagnostic(s) denied by --deny info"),
        })
    } else {
        Ok(())
    }
}

/// `omc lint --explain OM0xx`: print a code's registered severity,
/// summary, longer explanation, owning pass, and minimal example — all
/// straight from the registry, so the help cannot drift from the
/// analyzer.
fn explain(code: &str) -> Result<(), CliError> {
    let Some(info) = objectmath::lint::code_info(code) else {
        let known: Vec<&str> = objectmath::lint::CODES.iter().map(|c| c.code).collect();
        return Err(CliError::Usage(format!(
            "unknown diagnostic code `{code}`; known codes: {}",
            known.join(", ")
        )));
    };
    println!("{} ({}): {}", info.code, info.severity, info.summary);
    if let Some(p) = objectmath::lint::PASSES
        .iter()
        .find(|p| p.codes.contains(&info.code))
    {
        println!("pass: {} — {}", p.name, p.description);
    }
    println!();
    println!("{}", info.explain);
    println!();
    println!("example:");
    for line in info.example.lines() {
        println!("  {line}");
    }
    Ok(())
}

/// Write a command's whole report to stdout in one locked write. A closed
/// stdout (`omc … | head -1`) is an I/O error, not a panic.
fn write_stdout(text: &str) -> Result<(), CliError> {
    use std::io::Write as _;
    let mut stdout = std::io::stdout().lock();
    stdout
        .write_all(text.as_bytes())
        .and_then(|()| stdout.flush())
        .map_err(|e| CliError::Io(format!("writing results to stdout: {e}")))
}

fn analyze(ir: &OdeIr, opts: &Flags) -> Result<(), CliError> {
    use std::fmt::Write as _;
    let dep = build_dependency_graph(ir);
    if opts.dot {
        return write_stdout(&to_dot(&dep, &ir.name));
    }
    let part = partition_by_scc(&dep);
    let mut report = format!(
        "model `{}`: {} states, {} algebraic equations, {} dependencies\n",
        ir.name,
        ir.dim(),
        ir.algebraics.len(),
        dep.graph.edge_count()
    );
    let _ = writeln!(report, "SCC sizes (largest first): {:?}", part.scc_sizes());
    // What an implicit solver (`--solver bdf|lsoda`) will work with.
    let sparsity = model_sparsity(ir);
    let (kl, ku) = sparsity.bandwidth();
    let colours = sparsity.groups().len();
    let _ = writeln!(
        report,
        "Jacobian: nnz {} of {}, bandwidth ({kl}, {ku}), {colours} colour{}",
        sparsity.nnz(),
        ir.dim() * ir.dim(),
        if colours == 1 { "" } else { "s" }
    );
    for (lvl, subs) in part.levels.iter().enumerate() {
        let summary: Vec<String> = subs
            .iter()
            .map(|&s| {
                let sub = &part.subsystems[s];
                let size = sub.states.len() + sub.algebraics.len();
                let head = sub
                    .states
                    .first()
                    .or(sub.algebraics.first())
                    .map(|x| x.name())
                    .unwrap_or("?");
                format!("[{size}: {head}…]")
            })
            .collect();
        let _ = writeln!(report, "level {lvl}: {}", summary.join(" "));
    }
    write_stdout(&report)
}

fn emit(ir: &OdeIr, opts: &Flags) -> Result<(), CliError> {
    let generator = CodeGenerator::default();
    let workers = if opts.workers == 0 { 4 } else { opts.workers };
    let cost_model = &generator.options.cost_model;
    let text = match (opts.lang.as_str(), opts.serial) {
        ("mma", _) => generator.intermediate_code(ir),
        ("f90", true) => emit_fortran::emit_serial(ir, cost_model).text,
        ("cpp", true) => emit_cpp::emit_serial(ir, cost_model).text,
        ("f90", false) | ("cpp", false) => {
            // The schedule reads the symbolic tasks' costs: nothing is
            // compiled to bytecode.
            let tasks = generator.tasks(ir);
            let sched = generator.costs(&tasks).schedule(workers);
            let emit_parallel = if opts.lang == "f90" {
                emit_fortran::emit_parallel
            } else {
                emit_cpp::emit_parallel
            };
            emit_parallel(&tasks, &sched.assignment, workers, ir, cost_model).text
        }
        (other, _) => {
            return Err(CliError::Usage(format!(
                "unknown --lang `{other}` (f90|cpp|mma)"
            )))
        }
    };
    write_stdout(&text)
}

fn tasks(ir: &OdeIr, opts: &Flags) -> Result<(), CliError> {
    use std::fmt::Write as _;
    let workers = if opts.workers == 0 { 4 } else { opts.workers };
    let generator = CodeGenerator::default();
    let program = generator.generate(ir);
    let sched = program.schedule(workers);
    let mut report = format!(
        "{} tasks, total {} flops, schedule on {workers} workers \
         (makespan {}, imbalance {:.3}):\n",
        program.graph.tasks.len(),
        program.graph.total_cost(),
        sched.makespan,
        sched.imbalance()
    );
    let _ = writeln!(
        report,
        "{:<5} {:<28} {:>10} {:>7}",
        "id", "label", "flops", "worker"
    );
    for task in &program.graph.tasks {
        let _ = writeln!(
            report,
            "{:<5} {:<28} {:>10} {:>7}",
            task.id,
            truncate(&task.label, 28),
            task.static_cost,
            sched.assignment[task.id]
        );
    }
    let placed = generator.place(ir, &program.tasks, workers).graph;
    let _ = writeln!(
        report,
        "placed on {workers} workers: {} clusters, {} instrs (equation-level {})",
        placed.tasks.len(),
        placed.instrs(),
        program.graph.instrs()
    );
    write_stdout(&report)
}

fn truncate(s: &str, n: usize) -> String {
    if s.chars().count() <= n {
        s.to_owned()
    } else {
        let cut: String = s.chars().take(n - 1).collect();
        format!("{cut}…")
    }
}

/// Parse `--grid state=a:b:n` into `(name, linspace)`.
fn parse_grid(spec: &str) -> Result<(String, Vec<f64>), CliError> {
    let err = || {
        CliError::Usage(format!(
            "--grid expects state=start:end:count, got `{spec}`"
        ))
    };
    let (name, range) = spec.split_once('=').ok_or_else(err)?;
    let parts: Vec<&str> = range.split(':').collect();
    if parts.len() != 3 {
        return Err(err());
    }
    let a: f64 = parts[0].parse().map_err(|_| err())?;
    let b: f64 = parts[1].parse().map_err(|_| err())?;
    let n: usize = parts[2].parse().map_err(|_| err())?;
    if n == 0 {
        return Err(err());
    }
    let values = if n == 1 {
        vec![a]
    } else {
        (0..n)
            .map(|i| a + (b - a) * i as f64 / (n - 1) as f64)
            .collect()
    };
    Ok((name.to_owned(), values))
}

/// Scenario vectors from `--grid` flags: the cartesian product of the
/// per-state linspaces, in flag order (last flag varies fastest).
fn grid_scenarios(grids: &[String]) -> Result<Vec<Vec<(String, f64)>>, CliError> {
    let axes: Vec<(String, Vec<f64>)> = grids
        .iter()
        .map(|g| parse_grid(g))
        .collect::<Result<_, _>>()?;
    let mut combos: Vec<Vec<(String, f64)>> = vec![Vec::new()];
    for (name, values) in &axes {
        let mut next = Vec::with_capacity(combos.len() * values.len());
        for combo in &combos {
            for v in values {
                let mut extended = combo.clone();
                extended.push((name.clone(), *v));
                next.push(extended);
            }
        }
        combos = next;
    }
    Ok(combos)
}

/// Scenario vectors from a `--params` file: JSON (array of objects) or
/// CSV (header row of state names).
fn params_scenarios(path: &str) -> Result<Vec<Vec<(String, f64)>>, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Io(format!("cannot read `{path}`: {e}")))?;
    if path.ends_with(".json") {
        let doc =
            json::parse(&text).map_err(|e| CliError::Usage(format!("--params {path}: {e}")))?;
        let rows = doc
            .as_arr()
            .ok_or_else(|| CliError::Usage(format!("--params {path}: expected a JSON array")))?;
        rows.iter()
            .map(|row| {
                let fields = row.as_obj().ok_or_else(|| {
                    CliError::Usage(format!("--params {path}: each element must be an object"))
                })?;
                fields
                    .iter()
                    .map(|(k, v)| {
                        v.as_f64().map(|x| (k.clone(), x)).ok_or_else(|| {
                            CliError::Usage(format!("--params {path}: `{k}` must be a number"))
                        })
                    })
                    .collect()
            })
            .collect()
    } else {
        // CSV: header = state names, one scenario per row.
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let header: Vec<&str> = lines
            .next()
            .ok_or_else(|| CliError::Usage(format!("--params {path}: empty file")))?
            .split(',')
            .map(str::trim)
            .collect();
        lines
            .enumerate()
            .map(|(row, line)| {
                let cells: Vec<&str> = line.split(',').map(str::trim).collect();
                if cells.len() != header.len() {
                    return Err(CliError::Usage(format!(
                        "--params {path}: row {} has {} cells, header has {}",
                        row + 2,
                        cells.len(),
                        header.len()
                    )));
                }
                header
                    .iter()
                    .zip(&cells)
                    .map(|(name, cell)| {
                        cell.parse::<f64>()
                            .map(|x| (name.to_string(), x))
                            .map_err(|e| {
                                CliError::Usage(format!("--params {path}: row {}: {e}", row + 2))
                            })
                    })
                    .collect()
            })
            .collect()
    }
}

/// The run `sweep` and `request` describe: the scenarios (`--params`
/// rows, then the `--grid` product), the per-scenario settings and the
/// lane width. `command` names the caller in the empty-set error.
fn ensemble_run(
    command: &str,
    opts: &Flags,
) -> Result<(Vec<ScenarioSpec>, ScenarioRunConfig, usize), CliError> {
    let mut vectors = Vec::new();
    if let Some(path) = &opts.params {
        vectors.extend(params_scenarios(path)?);
    }
    if !opts.grid.is_empty() {
        vectors.extend(grid_scenarios(&opts.grid)?);
    }
    if vectors.is_empty() {
        return Err(CliError::Usage(format!(
            "{command} needs scenarios: --params FILE and/or --grid state=a:b:n"
        )));
    }
    let scenarios = vectors
        .into_iter()
        .enumerate()
        .map(|(i, overrides)| ScenarioSpec::new(i, overrides))
        .collect();
    let run = ScenarioRunConfig {
        tend: opts.tend,
        h: opts.h,
        deadline: (opts.deadline_ms > 0).then(|| Duration::from_millis(opts.deadline_ms)),
        max_rhs_calls: opts.max_rhs,
        max_retries: opts.retries,
        ..ScenarioRunConfig::default()
    };
    Ok((scenarios, run, opts.batch))
}

/// The resilient ensemble driver: compile once through the registry, run
/// every scenario to a terminal typed state, account for all of them.
fn sweep(source: &str, opts: &Flags) -> Result<(), CliError> {
    let registry = ModelRegistry::new();
    let model = registry
        .get_or_compile(source)
        .map_err(|e| CliError::Compile(e.to_string()))?;
    let (scenarios, run, batch) = ensemble_run("sweep", opts)?;
    let faults = match opts.fault_seed {
        Some(seed) => {
            let (p, s, n) = opts.fault_rates;
            SweepFaultPlan::seeded(
                seed,
                scenarios.len(),
                p,
                s,
                n,
                Duration::from_millis(opts.straggle_ms),
            )
        }
        None => SweepFaultPlan::none(),
    };
    let cfg = SweepConfig {
        run,
        concurrency: opts.concurrency,
        batch,
        faults,
        checkpoint: opts.checkpoint.as_ref().map(std::path::PathBuf::from),
        resume: opts.resume,
        stop_after: opts.stop_after,
        ..SweepConfig::default()
    };

    let result = run_sweep(&model, &scenarios, &cfg).map_err(CliError::Sweep)?;
    let manifest = &result.manifest;
    let report = &result.report;

    if let Some(path) = &opts.manifest {
        std::fs::write(path, manifest.render_json())
            .map_err(|e| CliError::Io(format!("cannot write `{path}`: {e}")))?;
    }
    println!(
        "sweep `{}` [{}]: {} scenarios = {} completed, {} quarantined, \
         {} deadline-exceeded, {} skipped ({} unaccounted)",
        model.ir().name,
        model.key(),
        manifest.scenarios(),
        manifest.completed(),
        manifest.quarantined(),
        manifest.deadline_exceeded(),
        manifest.skipped(),
        manifest.unaccounted(),
    );
    println!(
        "  {} fresh + {} from checkpoint in {:.3}s ({:.1} scenarios/s, p50 {:.2}ms, \
         p99 {:.2}ms, batch {}, registry {} hit(s) {} miss(es))",
        report.fresh,
        report.from_checkpoint,
        report.wall.as_secs_f64(),
        report.throughput_per_sec(),
        report.latency_percentile_ns(0.50) as f64 / 1e6,
        report.latency_percentile_ns(0.99) as f64 / 1e6,
        report.effective_batch,
        registry.hits(),
        registry.misses(),
    );
    if report.degraded {
        eprintln!(
            "[sweep degraded: concurrency shed to {} after deadline storms]",
            report.final_concurrency
        );
    }

    if manifest.completed() == manifest.scenarios() {
        Ok(())
    } else {
        Err(CliError::SweepPartial {
            summary: format!(
                "{} of {} scenarios did not complete ({} quarantined, {} past deadline, {} skipped)",
                manifest.scenarios() - manifest.completed(),
                manifest.scenarios(),
                manifest.quarantined(),
                manifest.deadline_exceeded(),
                manifest.skipped(),
            ),
        })
    }
}

/// `omc serve`: run the resident ensemble service until SIGTERM/SIGINT
/// (graceful drain) or, in `--stdio` mode, stdin EOF.
fn serve_cmd(opts: &Flags) -> Result<(), CliError> {
    let cfg = ServeConfig {
        pool_threads: opts.concurrency,
        registry_capacity: opts.registry_cap,
        max_scenarios_per_request: opts.max_scenarios,
        max_inflight: opts.max_inflight,
        rate_burst: opts.rate_burst,
        rate_per_sec: opts.rate_per_sec,
    };
    let server = Server::new(cfg);
    sigterm::install(server.drain_flag());

    if opts.stdio {
        eprintln!("[omc serve: stdio mode, {} workers]", opts.concurrency);
        return server
            .run_stdio()
            .map_err(|e| CliError::Io(format!("serve: {e}")));
    }
    let socket = opts
        .socket
        .as_deref()
        .ok_or_else(|| CliError::Usage("serve needs --socket PATH or --stdio".into()))?;
    eprintln!(
        "[omc serve: listening on {socket}, {} workers, registry cap {}]",
        opts.concurrency, opts.registry_cap
    );
    server
        .run_unix(std::path::Path::new(socket))
        .map_err(|e| CliError::Io(format!("serve `{socket}`: {e}")))
}

/// Raw-FFI SIGTERM/SIGINT hook — the workspace has no libc crate, so
/// `signal(2)` is declared directly. The handler only flips an atomic
/// (async-signal-safe); the serve accept/read loops poll it.
mod sigterm {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, OnceLock};

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    static DRAIN: OnceLock<Arc<AtomicBool>> = OnceLock::new();

    extern "C" fn on_term(_signum: i32) {
        if let Some(flag) = DRAIN.get() {
            flag.store(true, Ordering::Relaxed);
        }
    }

    /// Route SIGTERM and SIGINT to a store into `flag`. Idempotent; a
    /// second call keeps the first flag (one server per process).
    pub fn install(flag: Arc<AtomicBool>) {
        let _ = DRAIN.set(flag);
        unsafe {
            signal(SIGTERM, on_term);
            signal(SIGINT, on_term);
        }
    }
}

/// `omc [MODEL] request`: a thin JSONL client for `omc serve`. Prints
/// every response line to stdout (the transcript IS the output) and maps
/// the terminal line to an exit code: `done` with all scenarios
/// completed → 0, partial → 8, `overloaded` → 9, `error` → 1.
fn request_cmd(source: Option<&str>, opts: &Flags) -> Result<(), CliError> {
    use std::io::{BufRead, BufReader, Write};

    // The run line, rendered by the protocol that parses it.
    let mut request = match source {
        Some(source) => {
            let (scenarios, run, batch) = ensemble_run("request", opts)?;
            Some(RunRequest {
                id: String::new(),
                model: ModelRef::Source(source.to_owned()),
                scenarios,
                run,
                batch,
            })
        }
        None => None,
    };
    let socket = opts
        .socket
        .as_deref()
        .ok_or_else(|| CliError::Usage("request needs --socket PATH".into()))?;
    let stream = std::os::unix::net::UnixStream::connect(socket)
        .map_err(|e| CliError::Io(format!("cannot connect to `{socket}`: {e}")))?;
    let mut writer = stream
        .try_clone()
        .map_err(|e| CliError::Io(format!("socket clone: {e}")))?;
    let mut reader = BufReader::new(stream);
    let io = |e: std::io::Error| CliError::Io(format!("request `{socket}`: {e}"));

    let mut shed: Option<String> = None;
    let mut failed: Option<String> = None;
    let mut incomplete = 0usize;
    let mut scenarios_sent = 0usize;

    if let Some(request) = &mut request {
        for rep in 0..opts.repeat {
            request.id = format!("\"r{rep}\"");
            let line = protocol::render_run(request);
            writer.write_all(line.as_bytes()).map_err(io)?;
            writer.write_all(b"\n").map_err(io)?;
            // Read this request's response stream to its terminal line.
            let mut reply = String::new();
            loop {
                reply.clear();
                if reader.read_line(&mut reply).map_err(io)? == 0 {
                    return Err(CliError::Io(format!(
                        "service closed `{socket}` mid-response"
                    )));
                }
                let trimmed = reply.trim_end();
                println!("{trimmed}");
                let doc = json::parse(trimmed)
                    .map_err(|e| CliError::Io(format!("unparseable response: {e}")))?;
                match doc.get("type").and_then(json::Json::as_str) {
                    Some("accepted") => {
                        scenarios_sent += doc
                            .get("scenarios")
                            .and_then(json::Json::as_usize)
                            .unwrap_or(0);
                    }
                    Some("scenario") => {}
                    Some("done") => {
                        let completed = doc
                            .get("completed")
                            .and_then(json::Json::as_usize)
                            .unwrap_or(0);
                        incomplete += scenarios_sent.saturating_sub(completed);
                        scenarios_sent = 0;
                        break;
                    }
                    Some("overloaded") => {
                        let reason = doc
                            .get("reason")
                            .and_then(json::Json::as_str)
                            .unwrap_or("unknown")
                            .to_string();
                        shed.get_or_insert(reason);
                        break;
                    }
                    Some("error") => {
                        let message = doc
                            .get("message")
                            .and_then(json::Json::as_str)
                            .unwrap_or("unknown error")
                            .to_string();
                        failed.get_or_insert(message);
                        break;
                    }
                    other => {
                        return Err(CliError::Io(format!("unexpected response type {other:?}")));
                    }
                }
            }
        }
    }

    if opts.stats {
        writer
            .write_all(b"{\"id\":\"stats\",\"op\":\"stats\"}\n")
            .map_err(io)?;
        let mut reply = String::new();
        if reader.read_line(&mut reply).map_err(io)? == 0 {
            return Err(CliError::Io(format!(
                "service closed `{socket}` before stats reply"
            )));
        }
        println!("{}", reply.trim_end());
    }

    if let Some(message) = failed {
        return Err(CliError::Io(format!("service error: {message}")));
    }
    if let Some(reason) = shed {
        return Err(CliError::Overloaded { reason });
    }
    if incomplete > 0 {
        return Err(CliError::SweepPartial {
            summary: format!("{incomplete} scenario(s) did not complete"),
        });
    }
    Ok(())
}

fn simulate(mut ir: OdeIr, opts: &Flags) -> Result<(), CliError> {
    use std::fmt::Write as _;
    for (name, value) in &opts.sets {
        if !ir.set_start(name, *value) {
            return Err(CliError::Usage(format!("--set: no state named `{name}`")));
        }
    }
    let tol = Tolerances {
        rtol: opts.rtol,
        atol: opts.atol,
        ..Tolerances::default()
    };
    let y0 = ir.initial_state();
    let tend = opts.tend;

    let solve = |sys: &mut dyn OdeSystem| -> Result<objectmath::solver::Solution, CliError> {
        match opts.solver.as_str() {
            "dopri5" => dopri5(sys, 0.0, &y0, tend, &tol).map_err(CliError::Solve),
            "rk4" => rk4(sys, 0.0, &y0, tend, opts.h).map_err(CliError::Solve),
            "abm" => abm4(sys, 0.0, &y0, tend, &tol).map_err(CliError::Solve),
            "bdf" => bdf(
                sys,
                0.0,
                &y0,
                tend,
                &BdfOptions {
                    tol,
                    ..BdfOptions::default()
                },
            )
            .map_err(CliError::Solve),
            "lsoda" => lsoda(
                sys,
                0.0,
                &y0,
                tend,
                &LsodaOptions {
                    tol,
                    ..LsodaOptions::default()
                },
            )
            .map(|s| s.solution)
            .map_err(CliError::Solve),
            other => Err(CliError::Usage(format!("unknown --solver `{other}`"))),
        }
    };

    // One RHS at every worker count, compiled for its placement: the
    // equation-level tasks fused into one cluster per worker. Up to one
    // worker evaluates the one-cluster (global-CSE) graph in this thread
    // with the one-lane `eval_batch`. More build one kind of pool, fault
    // plan or not: born serial, it runs the same graph in thread and
    // compiles the per-worker clusters only on the first call that a
    // helper would finish sooner. Every placement is bitwise the
    // equation-level graph and is wrapped with the model, so an implicit
    // solver makes the same RHS calls wherever the graph runs.
    let ir = Arc::new(ir);
    let generator = CodeGenerator::default();
    let tasks = generator.tasks(&ir);
    let sol = if opts.workers <= 1 {
        let graph = generator.place(&ir, &tasks, 1).graph;
        drop(tasks);
        let mut scratch = BatchScratch::new(&graph, 1);
        let rhs = FnSystem::new(graph.dim, move |t, y: &[f64], d: &mut [f64]| {
            graph.eval_batch(t, y, d, &mut scratch);
        });
        solve(&mut ModelSystem::new(rhs, &ir))?
    } else {
        let m = opts.workers;
        let one = generator.place(&ir, &tasks, 1);
        let schedule = one.costs.schedule(m);
        let (assignment, clusters) = cluster_assignment(&tasks, &schedule.assignment, m);
        drop(tasks);
        let placed_ir = Arc::clone(&ir);
        let place = move |solo: &Arc<TaskGraph>| {
            // With at most one cluster formed (an array-aware model's loop
            // tasks pass through), the placement is the one-cluster graph
            // under a new assignment.
            if clusters <= 1 {
                return (Arc::clone(solo), assignment);
            }
            let placement = generator.place(&placed_ir, &generator.tasks(&placed_ir), m);
            (Arc::new(placement.graph), placement.assignment)
        };
        let plan = opts
            .fault_seed
            .map_or_else(FaultPlan::none, |s| FaultPlan::from_seed(s, m, m));
        let config = FaultConfig::default();
        let pool = ExecutorPool::born_serial(one.graph, m, plan, config, &schedule, place)
            .map_err(CliError::Runtime)?;
        let mut sys = ModelSystem::new(ParallelRhs::new(pool, RESCHED_EVERY), &ir);
        let sol = match solve(&mut sys) {
            Ok(sol) => sol,
            Err(e) => {
                // A solver failure caused by the pool dying is more usefully
                // reported as the underlying runtime fault.
                if let Some(runtime_error) = sys.inner.last_error.take() {
                    return Err(CliError::Runtime(runtime_error));
                }
                return Err(e);
            }
        };
        let rhs = sys.inner;
        let solo = rhs.pool.solo_graph();
        let placed = match rhs.pool.graph().tasks.len() {
            _ if !rhs.pool.placed() => "no helper seeded".to_owned(),
            1 => "1 cluster".to_owned(),
            n => format!("{n} clusters"),
        };
        eprintln!(
            "[parallel RHS (ws): {placed}, {} calls, {:.0} calls/s, \
             scheduler overhead {:.3}%, {} supervisor-only, hand-off ≈ {:.1} µs, \
             supervisor-only on {} cluster{} / {} instrs]",
            rhs.calls,
            rhs.rhs_calls_per_sec(),
            100.0 * rhs.scheduler.overhead_fraction(rhs.rhs_time),
            rhs.pool.supervisor_only_calls(),
            rhs.pool.handoff_ns() * 1e-3,
            solo.tasks.len(),
            if solo.tasks.len() == 1 { "" } else { "s" },
            solo.instrs(),
        );
        sol
    };

    // One buffer, one write (a large model has thousands of states). The
    // end time prints in shortest round-trip form: a span of 1e-8 must
    // not read as 0.
    let mut report = format!(
        "t = {:?}: {} steps, {} RHS calls{}\n",
        sol.t_end(),
        sol.stats.steps,
        sol.stats.rhs_calls,
        if sol.stats.newton_iters > 0 {
            format!(", {} Newton iterations", sol.stats.newton_iters)
        } else {
            String::new()
        }
    );
    for (state, y) in ir.states.iter().zip(sol.y_end()) {
        let _ = writeln!(report, "  {:<24} = {:+.9e}", state.sym.name(), y);
    }
    write_stdout(&report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_flags_executor() {
        parse_flags(&args(&["--executor", "ws"])).expect("ws executor");
        for token in ["barrier", "hybrid"] {
            match parse_flags(&args(&["--executor", token])) {
                Err(CliError::Usage(e)) => assert!(e.contains("'ws'"), "{token}: {e}"),
                Err(other) => panic!("{token}: expected a usage error, got {other}"),
                Ok(_) => panic!("{token}: expected a usage error"),
            }
        }
    }

    #[test]
    fn parse_flags_defaults() {
        let f = parse_flags(&[]).expect("empty flags");
        assert_eq!(f.lang, "f90");
        assert_eq!(f.solver, "dopri5");
        assert_eq!(f.workers, 0);
        assert_eq!(f.batch, 1);
        assert!(f.trace.is_none());
        assert!(!f.metrics);
    }

    #[test]
    fn parse_flags_batch_width() {
        let f = parse_flags(&args(&["--batch", "8"])).expect("parse");
        assert_eq!(f.batch, 8);
        assert!(matches!(
            parse_flags(&args(&["--batch", "wide"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_flags(&args(&["--batch"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn parse_flags_observability() {
        let f = parse_flags(&args(&["--trace", "out.json", "--metrics"])).expect("parse");
        assert_eq!(f.trace.as_deref(), Some("out.json"));
        assert!(f.metrics);
    }

    #[test]
    fn parse_flags_simulate_options() {
        let f = parse_flags(&args(&[
            "--workers",
            "4",
            "--tend",
            "2.5",
            "--set",
            "x=1.5",
            "--set",
            "y=-2",
        ]))
        .expect("parse");
        assert_eq!(f.workers, 4);
        assert_eq!(f.tend, 2.5);
        assert_eq!(f.sets, vec![("x".to_owned(), 1.5), ("y".to_owned(), -2.0)]);
    }

    #[test]
    fn parse_flags_lint_options() {
        let f = parse_flags(&args(&["--json", "--deny", "warnings"])).expect("parse");
        assert!(f.json);
        assert_eq!(f.deny.as_deref(), Some("warnings"));
        assert!(matches!(
            parse_flags(&args(&["--deny"])),
            Err(CliError::Usage(_))
        ));
    }

    /// Every (flag, command) cell of [`FLAGS`]: inside the flag's row it
    /// parses; outside it, it is the usage error that names the flag.
    #[test]
    fn every_cell_of_the_flag_table_composes_or_refuses() {
        let switches = [
            "--array-aware",
            "--dot",
            "--serial",
            "--json",
            "--metrics",
            "--resume",
            "--stdio",
            "--stats",
        ];
        let sample = |flag: &str| match flag {
            "--deny" => "warnings",
            "--lang" => "cpp",
            "--solver" => "rk4",
            "--executor" => "ws",
            "--set" => "x=1",
            "--grid" => "x=0:1:2",
            "--fault-rates" => "1,2,3",
            "--trace" | "--params" | "--checkpoint" | "--manifest" | "--socket" => "out",
            _ => "2",
        };
        let mut cells = 0;
        for (flag, takers, _) in FLAGS {
            let mut given = args(&[flag]);
            if !switches.contains(flag) {
                given.push(sample(flag).to_owned());
            }
            for command in ANY {
                cells += 1;
                match command_flags(command, &given) {
                    Ok(f) if takers.contains(command) => assert_eq!(f.given.len(), 1),
                    Err(CliError::Usage(m)) if !takers.contains(command) => {
                        assert!(
                            m.starts_with(&format!("{command} does not take {flag};")),
                            "{command} {flag}: {m}"
                        )
                    }
                    Ok(_) => panic!("{command} {flag}: ran outside the flag's row"),
                    Err(e) => panic!("{command} {flag}: {e}"),
                }
            }
        }
        assert_eq!(cells, 40 * 8);
    }

    #[test]
    fn a_count_of_zero_is_a_usage_error() {
        for flag in ["--concurrency", "--batch", "--repeat"] {
            match parse_flags(&args(&[flag, "0"])) {
                Err(CliError::Usage(m)) => assert!(m.contains("at least 1"), "{flag}: {m}"),
                Err(e) => panic!("{flag}: {e}"),
                Ok(_) => panic!("{flag} 0 parsed"),
            }
        }
    }

    #[test]
    fn parse_flags_rejects_bad_input() {
        assert!(matches!(
            parse_flags(&args(&["--trace"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_flags(&args(&["--workers", "no"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_flags(&args(&["--set", "novalue"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_flags(&args(&["--bogus"])),
            Err(CliError::Usage(_))
        ));
    }
}
