//! The six workloads: what one op is, how its seeded inputs are made,
//! and how its output is checked. README.md records why each exists.
//!
//! The program under test only ever receives the files written here; the
//! seed never reaches it.

use crate::layers::{self, Solver};
use om_models::{bearing2d, heat1d};
use om_runtime::{ScenarioRunConfig, ScenarioSpec, SweepConfig};
use std::path::{Path, PathBuf};

pub const DEFAULT_SEED: u64 = 1995;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    EmitBearing96,
    StiffHeat128,
    Ws2Bearing10,
    LoopHeat8192,
    SweepBatch8,
    ServeWarm,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::EmitBearing96,
        Workload::StiffHeat128,
        Workload::Ws2Bearing10,
        Workload::LoopHeat8192,
        Workload::SweepBatch8,
        Workload::ServeWarm,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::EmitBearing96 => "emit_bearing96",
            Workload::StiffHeat128 => "stiff_heat128",
            Workload::Ws2Bearing10 => "ws2_bearing10",
            Workload::LoopHeat8192 => "loop_heat8192",
            Workload::SweepBatch8 => "sweep_batch8",
            Workload::ServeWarm => "serve_warm",
        }
    }

    /// One line: the layer that does most of the work, and what the
    /// workload bypasses (mirrored in BENCHMARK.json).
    pub fn why(self) -> &'static str {
        match self {
            Workload::EmitBearing96 => {
                "compile-bound: om-codegen generate+emit of a 96-roller bearing; no solver, VM or executor"
            }
            Workload::StiffHeat128 => {
                "serial stiff path: BDF + finite-difference Jacobian + dense LU over the tree-walking evaluator; no codegen VM, no executor"
            }
            Workload::Ws2Bearing10 => {
                "executor-bound: 24 small tasks per RHS on the 2-worker work-stealing pool; explicit solver, so no Jacobian or LU"
            }
            Workload::LoopHeat8192 => {
                "same executor, 9 giant loop tasks from the array-aware flatten path; dispatch latency is noise here"
            }
            Workload::SweepBatch8 => {
                "batched SoA VM + ensemble driver + registry miss + manifest write in a cold process; no executor pool"
            }
            Workload::ServeWarm => {
                "same ensemble layer on a resident server: registry hit, scalar VM, socket transport instead of process spawn"
            }
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The `omc simulate` shape of the three simulate workloads.
    pub fn sim(self) -> Option<Sim> {
        match self {
            Workload::StiffHeat128 => Some(Sim {
                array_aware: false,
                solver: Solver::Bdf,
                tend: 0.02,
                workers: 1,
            }),
            Workload::Ws2Bearing10 => Some(Sim {
                array_aware: false,
                solver: Solver::Dopri5 { rtol: 1e-6 },
                tend: 0.04,
                workers: 2,
            }),
            Workload::LoopHeat8192 => Some(Sim {
                array_aware: true,
                solver: Solver::Rk4 { h: 1e-10 },
                tend: 1e-8,
                workers: 2,
            }),
            _ => None,
        }
    }

    /// The scenario batch of the two ensemble workloads.
    pub fn batch(self) -> Option<Batch> {
        match self {
            Workload::SweepBatch8 => Some(Batch {
                scenarios: 64,
                lanes: 8,
            }),
            Workload::ServeWarm => Some(Batch {
                scenarios: 32,
                lanes: 1,
            }),
            _ => None,
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Sim {
    pub array_aware: bool,
    pub solver: Solver,
    pub tend: f64,
    /// 1 = the serial tree-walking evaluator; 2 = the work-stealing pool.
    pub workers: usize,
}

#[derive(Clone, Copy, Debug)]
pub struct Batch {
    pub scenarios: usize,
    /// `--batch` / `"batch"`: SoA lane width.
    pub lanes: usize,
}

impl Batch {
    /// Fixed-step span per scenario. The bearing contact dynamics
    /// diverge (and quarantine) with fixed steps much above 1e-5 s.
    pub const TEND: f64 = 1e-3;
    pub const H: f64 = 1e-5;
    /// `--concurrency` of both `omc sweep` and `omc serve`: the host has
    /// two cores and the program never runs more threads of work.
    pub const CONCURRENCY: usize = 2;

    pub fn specs(&self, inputs: &Inputs) -> Vec<ScenarioSpec> {
        inputs
            .scenario_y
            .iter()
            .enumerate()
            .map(|(i, y)| ScenarioSpec::new(i, vec![("y".to_owned(), *y)]))
            .collect()
    }

    pub fn sweep_config(&self, lanes: usize, concurrency: usize) -> SweepConfig {
        SweepConfig {
            run: ScenarioRunConfig {
                tend: Batch::TEND,
                h: Batch::H,
                ..ScenarioRunConfig::default()
            },
            concurrency,
            batch: lanes,
            ..SweepConfig::default()
        }
    }
}

/// splitmix64: small, seedable, and good enough to jitter a few
/// constants.
struct Rng(u64);

impl Rng {
    fn unit(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `base` moved by at most ±5 %.
    fn jitter(&mut self, base: f64) -> f64 {
        base * (0.95 + 0.10 * self.unit())
    }
}

/// The generated inputs of one run, on disk under `dir`.
#[derive(Clone)]
pub struct Inputs {
    pub dir: PathBuf,
    pub source: String,
    pub model_path: PathBuf,
    /// Start values of state `y`, one per scenario (ensemble workloads).
    pub scenario_y: Vec<f64>,
    pub params_path: PathBuf,
    pub manifest_path: PathBuf,
}

fn bearing_source(rng: &mut Rng, rollers: usize) -> String {
    let base = bearing2d::BearingConfig::default();
    bearing2d::source(&bearing2d::BearingConfig {
        rollers,
        load: rng.jitter(base.load),
        drive_torque: rng.jitter(base.drive_torque),
        shaft_speed: rng.jitter(base.shaft_speed),
        ..base
    })
}

fn heat_source(rng: &mut Rng, cells: usize) -> String {
    let base = heat1d::HeatConfig::default();
    heat1d::source_distributed(&heat1d::HeatConfig {
        cells,
        alpha: rng.jitter(base.alpha),
        velocity: 0.4,
        ..base
    })
}

/// Write the seeded inputs of `workload` into `dir`.
pub fn generate(workload: Workload, seed: u64, dir: &Path) -> std::io::Result<Inputs> {
    let mut rng = Rng(seed);
    let source = match workload {
        Workload::EmitBearing96 => bearing_source(&mut rng, 96),
        Workload::StiffHeat128 => heat_source(&mut rng, 128),
        Workload::LoopHeat8192 => heat_source(&mut rng, 8192),
        Workload::Ws2Bearing10 | Workload::SweepBatch8 | Workload::ServeWarm => {
            bearing_source(&mut rng, 10)
        }
    };
    // Micron-scale offsets around the physical y(start = -4e-5)
    // equilibrium; larger ones blow up the contact forces.
    let scenario_y: Vec<f64> = (0..workload.batch().map_or(0, |b| b.scenarios))
        .map(|_| -5e-5 + 2e-5 * rng.unit())
        .collect();

    std::fs::create_dir_all(dir)?;
    let inputs = Inputs {
        dir: dir.to_owned(),
        model_path: dir.join("model.om"),
        params_path: dir.join("params.json"),
        manifest_path: dir.join("manifest.json"),
        source,
        scenario_y,
    };
    std::fs::write(&inputs.model_path, &inputs.source)?;
    if workload == Workload::SweepBatch8 {
        std::fs::write(&inputs.params_path, scenarios_json(&inputs.scenario_y))?;
    }
    Ok(inputs)
}

/// `[{"y":-4.1e-5},...]` — the `--params` file and the request's
/// `scenarios` array share this rendering.
pub fn scenarios_json(ys: &[f64]) -> String {
    let rows: Vec<String> = ys.iter().map(|y| format!("{{\"y\":{y:e}}}")).collect();
    format!("[{}]", rows.join(","))
}

/// Arguments of the one `omc` child a cold op spawns.
pub fn argv(workload: Workload, inputs: &Inputs) -> Vec<String> {
    let path = |p: &Path| p.to_string_lossy().into_owned();
    let mut args = vec![path(&inputs.model_path)];
    let mut push = |items: &[&str]| args.extend(items.iter().map(|s| (*s).to_owned()));
    if let Some(sim) = workload.sim() {
        push(&["simulate", "--tend", &sim.tend.to_string()]);
        match sim.solver {
            Solver::Bdf => push(&["--solver", "bdf"]),
            Solver::Dopri5 { .. } => push(&["--solver", "dopri5"]),
            Solver::Rk4 { h } => push(&["--solver", "rk4", "--h", &h.to_string()]),
        }
        if sim.array_aware {
            push(&["--array-aware"]);
        }
        if sim.workers > 1 {
            push(&["--workers", &sim.workers.to_string(), "--executor", "ws"]);
        }
    } else if let Some(batch) = workload.batch() {
        push(&[
            "sweep",
            "--params",
            &path(&inputs.params_path),
            "--tend",
            &Batch::TEND.to_string(),
            "--h",
            &Batch::H.to_string(),
            "--batch",
            &batch.lanes.to_string(),
            "--concurrency",
            &Batch::CONCURRENCY.to_string(),
            "--manifest",
            &path(&inputs.manifest_path),
        ]);
    } else {
        push(&["emit", "--lang", "f90", "--workers", "2"]);
    }
    args
}

/// What a correct op must produce. Never computed by the path being
/// timed: see [`reference`].
#[derive(Clone, Debug)]
pub enum Reference {
    /// `emit`: structural check, identical bytes on every op, and for
    /// the default seed the committed length + hash.
    Emit {
        states: usize,
        pinned: Option<(usize, u64)>,
        first: Option<u64>,
    },
    /// `simulate`, bitwise: the `  name = value` lines of the oracle.
    FinalStateExact(String),
    /// `simulate`, stiff: an independent high-accuracy solution.
    FinalStateNear { values: Vec<f64>, tolerance: f64 },
    /// `sweep`: the manifest file, byte for byte.
    Manifest(String),
    /// `serve`: the `record` of each scenario line, in index order.
    Records(Vec<String>),
}

/// Length and FNV-1a hash of the default-seed `emit_bearing96` output.
fn pinned_emit() -> (usize, u64) {
    let text = include_str!("expected/emit_bearing96.txt");
    let field = |key: &str| {
        text.lines()
            .find_map(|line| line.strip_prefix(key))
            .map(str::trim)
            .unwrap_or_else(|| panic!("expected/emit_bearing96.txt lacks `{key}`"))
    };
    (
        field("bytes").parse().expect("pinned byte count"),
        u64::from_str_radix(field("fnv1a64"), 16).expect("pinned hash"),
    )
}

/// The `  name = value` lines `omc simulate` prints for a final state.
pub fn render_final_state(ir: &om_ir::OdeIr, y_end: &[f64]) -> String {
    ir.states
        .iter()
        .zip(y_end)
        .map(|(state, y)| format!("  {:<24} = {:+.9e}\n", state.sym.name(), y))
        .collect()
}

/// Scalarizing compile — the oracle pipeline.
fn compile_scalarized(source: &str) -> om_ir::OdeIr {
    let unit = layers::parse_unit(source);
    layers::scope_check(&unit);
    let ir = layers::causalize(&layers::flatten(&unit));
    layers::verify_compilable(&ir);
    ir
}

/// How far BDF at the CLI's default tolerances may sit from the
/// reference, relative to the largest state: measured 4.7e-6 with the
/// default constants, so this leaves a decade and still catches a wrong
/// Jacobian or a lost step.
const STIFF_TOLERANCE: f64 = 5e-5;

/// Compute the reference for `workload` in-process. Charged to set-up.
pub fn reference(workload: Workload, seed: u64, inputs: &Inputs) -> Reference {
    if let Some(sim) = workload.sim() {
        // Both references run the scalarized model on the pool-free
        // serial bytecode VM, which neither timed path touches: the
        // stiff op walks expression trees, the parallel ops dispatch
        // tasks to an executor pool (from array classes, for the loop
        // workload).
        let ir = compile_scalarized(&inputs.source);
        let y0 = ir.initial_state();
        let mut sys = layers::serial_vm_system(layers::generate(&ir).graph);
        return if sim.workers == 1 {
            // Stiff: a different, much tighter solver.
            let solver = Solver::Dopri5 { rtol: 1e-9 };
            let sol = layers::solve(solver, &mut sys, &y0, sim.tend);
            Reference::FinalStateNear {
                values: sol.y_end().to_vec(),
                tolerance: STIFF_TOLERANCE,
            }
        } else {
            // Parallel executors: the same solver call on the sequential
            // oracle must match digit for digit.
            let sol = layers::solve(sim.solver, &mut sys, &y0, sim.tend);
            Reference::FinalStateExact(render_final_state(&ir, sol.y_end()))
        };
    }
    if let Some(batch) = workload.batch() {
        let registry = om_codegen::ModelRegistry::new();
        let model = layers::registry_get_or_compile(&registry, &inputs.source);
        let result = layers::run_sweep(&model, &batch.specs(inputs), &batch.sweep_config(1, 1));
        let manifest = layers::manifest_render(&result.manifest);
        return if workload == Workload::SweepBatch8 {
            Reference::Manifest(manifest)
        } else {
            Reference::Records(manifest_records(&manifest))
        };
    }
    Reference::Emit {
        states: compile_scalarized(&inputs.source).dim(),
        pinned: (seed == DEFAULT_SEED).then(pinned_emit),
        first: None,
    }
}

/// The record objects of a rendered manifest, in entry order.
fn manifest_records(manifest: &str) -> Vec<String> {
    manifest
        .lines()
        .map(str::trim)
        .filter(|line| line.starts_with("{\"index\":"))
        .map(|line| line.trim_end_matches(',').to_owned())
        .collect()
}

/// Id of every timed request; fixed so the expected line prefix is too.
pub const REQUEST_ID: &str = "op";

/// The request that ships the source and makes the registry warm.
pub fn priming_request(inputs: &Inputs) -> String {
    let source = layers::json::escape(&inputs.source);
    request_line(inputs, &format!("{{\"source\":\"{source}\"}}"))
}

/// The request of every `serve_warm` op: the model named by the key the
/// priming request's `accepted` line reported. `None` if it was not
/// accepted.
pub fn keyed_request(inputs: &Inputs, accepted: &str) -> Option<String> {
    let doc = layers::json::parse(accepted).ok()?;
    let key = doc.get("model_key")?.as_str()?;
    Some(request_line(inputs, &format!("{{\"key\":\"{key}\"}}")))
}

fn request_line(inputs: &Inputs, model: &str) -> String {
    format!(
        "{{\"id\":\"{REQUEST_ID}\",\"op\":\"run\",\"model\":{model},\"scenarios\":{},\
         \"tend\":{:e},\"h\":{:e},\"batch\":1}}",
        scenarios_json(&inputs.scenario_y),
        Batch::TEND,
        Batch::H,
    )
}

impl Reference {
    /// Check one op's output (stdout, manifest file or response lines,
    /// as the workload defines) against the reference.
    pub fn check(&mut self, output: &str) -> Result<(), String> {
        match self {
            Reference::Emit {
                states,
                pinned,
                first,
            } => {
                let hash = om_codegen::fnv1a64(output.as_bytes());
                let mut assigned = vec![0usize; *states + 1];
                for line in output.lines() {
                    let index = line
                        .trim_start()
                        .strip_prefix("yout(")
                        .and_then(|rest| rest.split_once(") = "))
                        .and_then(|(index, _)| index.parse::<usize>().ok());
                    if let Some(slot) = index.and_then(|i| assigned.get_mut(i)) {
                        *slot += 1;
                    }
                }
                if let Some(state) = (1..=*states).find(|s| assigned[*s] != 1) {
                    return Err(format!(
                        "{} assignments to yout({state}), expected 1",
                        assigned[state]
                    ));
                }
                if let Some((bytes, pinned_hash)) = *pinned {
                    if (output.len(), hash) != (bytes, pinned_hash) {
                        return Err(format!(
                            "emit is {} bytes / {hash:016x}, committed reference is {bytes} / {pinned_hash:016x}",
                            output.len()
                        ));
                    }
                }
                match *first.get_or_insert(hash) {
                    same if same == hash => Ok(()),
                    other => Err(format!("emit hash {hash:016x} differs from {other:016x}")),
                }
            }
            Reference::FinalStateExact(expected) => {
                let got: String = state_lines(output).map(|l| format!("{l}\n")).collect();
                if got == *expected {
                    Ok(())
                } else {
                    Err("final state differs from the sequential oracle".to_owned())
                }
            }
            Reference::FinalStateNear { values, tolerance } => {
                let got: Vec<f64> = state_lines(output)
                    .filter_map(|l| l.rsplit_once("= ")?.1.trim().parse().ok())
                    .collect();
                if got.len() != values.len() {
                    return Err(format!(
                        "{} states printed, expected {}",
                        got.len(),
                        values.len()
                    ));
                }
                let scale = values.iter().fold(0.0f64, |m, v| m.max(v.abs()));
                // A NaN difference sticks (`f64::max` would drop it) and
                // then counts as too far.
                let worst = got.iter().zip(values.iter()).fold(0.0f64, |m, (a, b)| {
                    let d = (a - b).abs();
                    if d.is_nan() || d > m {
                        d
                    } else {
                        m
                    }
                });
                if worst.is_nan() || worst > *tolerance * scale {
                    return Err(format!(
                        "final state is {:.3e} of scale from the reference (limit {tolerance:.1e})",
                        worst / scale
                    ));
                }
                Ok(())
            }
            Reference::Manifest(expected) => {
                if output == expected {
                    Ok(())
                } else {
                    Err("manifest differs from the serial batch-1 sweep".to_owned())
                }
            }
            Reference::Records(expected) => {
                let prefix = format!("{{\"type\":\"scenario\",\"id\":\"{REQUEST_ID}\",\"record\":");
                let got: Vec<&str> = output
                    .lines()
                    .filter_map(|line| line.strip_prefix(&prefix)?.strip_suffix('}'))
                    .collect();
                if got == *expected {
                    Ok(())
                } else {
                    Err(format!(
                        "{} scenario records, {} match the serial batch-1 sweep",
                        got.len(),
                        got.iter()
                            .zip(expected.iter())
                            .filter(|(a, b)| a == b)
                            .count()
                    ))
                }
            }
        }
    }
}

/// The `  name = value` lines of `omc simulate` output.
fn state_lines(output: &str) -> impl Iterator<Item = &str> {
    output.lines().filter(|line| line.starts_with("  "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
            // Exactly one op shape per workload.
            let shapes = usize::from(w.sim().is_some()) + usize::from(w.batch().is_some());
            assert_eq!(shapes, usize::from(w != Workload::EmitBearing96));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let dir = std::env::temp_dir().join(format!("ledger-test-{}", std::process::id()));
        let a = generate(Workload::SweepBatch8, 7, &dir).expect("write inputs");
        let b = generate(Workload::SweepBatch8, 7, &dir).expect("write inputs");
        let c = generate(Workload::SweepBatch8, 8, &dir).expect("write inputs");
        assert_eq!(a.source, b.source);
        assert_eq!(a.scenario_y, b.scenario_y);
        assert_ne!(a.source, c.source);
        assert_ne!(a.scenario_y, c.scenario_y);
        assert_eq!(a.scenario_y.len(), 64);
        assert!(a.scenario_y.iter().all(|y| (-5e-5..-3e-5).contains(y)));
        let params = std::fs::read_to_string(&a.params_path).expect("params written");
        let rows = layers::json::parse(&params).expect("params parse");
        assert_eq!(rows.as_arr().map(<[_]>::len), Some(64));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn argv_matches_the_documented_commands() {
        let inputs = Inputs {
            dir: PathBuf::from("d"),
            source: String::new(),
            model_path: PathBuf::from("d/model.om"),
            scenario_y: Vec::new(),
            params_path: PathBuf::from("d/params.json"),
            manifest_path: PathBuf::from("d/manifest.json"),
        };
        let joined = |w| argv(w, &inputs).join(" ");
        assert_eq!(
            joined(Workload::EmitBearing96),
            "d/model.om emit --lang f90 --workers 2"
        );
        assert_eq!(
            joined(Workload::StiffHeat128),
            "d/model.om simulate --tend 0.02 --solver bdf"
        );
        assert_eq!(
            joined(Workload::Ws2Bearing10),
            "d/model.om simulate --tend 0.04 --solver dopri5 --workers 2 --executor ws"
        );
        assert_eq!(
            joined(Workload::LoopHeat8192),
            "d/model.om simulate --tend 0.00000001 --solver rk4 --h 0.0000000001 \
             --array-aware --workers 2 --executor ws"
        );
        assert_eq!(
            joined(Workload::SweepBatch8),
            "d/model.om sweep --params d/params.json --tend 0.001 --h 0.00001 --batch 8 \
             --concurrency 2 --manifest d/manifest.json"
        );
    }

    /// A corrupted reference must fail every op, or `failed` could never
    /// move. One intact/corrupted pair per kind of reference.
    #[test]
    fn corrupted_reference_fails_every_op() {
        let emit = "    yout(1) = a\n    yout(2) = b\n";
        let hash = om_codegen::fnv1a64(emit.as_bytes());
        let emit_ref = |pinned| Reference::Emit {
            states: 2,
            pinned,
            first: None,
        };
        let state = "t = 1: 3 steps\n  x                        = +1.000000000e0\n";
        let records = vec!["{\"index\":0,\"status\":\"completed\"}".to_owned()];
        let response = format!(
            "{{\"type\":\"accepted\",\"id\":\"op\"}}\n\
             {{\"type\":\"scenario\",\"id\":\"op\",\"record\":{}}}\n",
            records[0]
        );
        let cases: Vec<(Reference, Reference, &str)> = vec![
            (
                emit_ref(Some((emit.len(), hash))),
                emit_ref(Some((emit.len(), hash ^ 1))),
                emit,
            ),
            (
                emit_ref(None),
                Reference::Emit {
                    states: 3,
                    pinned: None,
                    first: None,
                },
                emit,
            ),
            (
                Reference::FinalStateExact(
                    "  x                        = +1.000000000e0\n".to_owned(),
                ),
                Reference::FinalStateExact(
                    "  x                        = +1.000000001e0\n".to_owned(),
                ),
                state,
            ),
            (
                Reference::FinalStateNear {
                    values: vec![1.0 + 1e-6],
                    tolerance: STIFF_TOLERANCE,
                },
                Reference::FinalStateNear {
                    values: vec![1.001],
                    tolerance: STIFF_TOLERANCE,
                },
                state,
            ),
            (
                Reference::Manifest("{}\n".to_owned()),
                Reference::Manifest("{ }\n".to_owned()),
                "{}\n",
            ),
            (
                Reference::Records(records.clone()),
                Reference::Records(vec![records[0].replace("completed", "quarantined")]),
                &response,
            ),
        ];
        for (mut intact, mut corrupted, output) in cases {
            for _op in 0..3 {
                assert_eq!(intact.check(output), Ok(()), "{intact:?}");
                assert!(corrupted.check(output).is_err(), "{corrupted:?}");
            }
        }
        // A changed emit on a later op is caught even without a pin.
        let mut drifting = emit_ref(None);
        assert!(drifting.check(emit).is_ok());
        assert!(drifting.check(&emit.replace("= a", "= c")).is_err());
        // A NaN state is a failure, not a pass.
        let mut near = Reference::FinalStateNear {
            values: vec![1.0],
            tolerance: STIFF_TOLERANCE,
        };
        assert!(near.check("  x = NaN\n").is_err());
    }

    #[test]
    fn manifest_records_are_the_entry_objects() {
        let manifest = "{\n  \"scenarios\": 2,\n  \"entries\": [\n    {\"index\":0,\"status\":\"completed\"},\n    {\"index\":1,\"status\":\"skipped\"}\n  ]\n}\n";
        assert_eq!(
            manifest_records(manifest),
            vec![
                "{\"index\":0,\"status\":\"completed\"}",
                "{\"index\":1,\"status\":\"skipped\"}"
            ]
        );
    }

    #[test]
    fn final_state_rendering_matches_the_cli_format() {
        let ir = compile_scalarized(
            "model M; Real x(start=1.0); Real v; equation der(x) = v; der(v) = -x; end M;",
        );
        assert_eq!(
            render_final_state(&ir, &[3.727520223e-6, -2.5]),
            "  x                        = +3.727520223e-6\n  v                        = -2.500000000e0\n"
        );
    }
}
