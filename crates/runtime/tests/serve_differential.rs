//! Differential suite: `omc serve` responses are **byte-identical** to
//! `omc sweep` manifest rows.
//!
//! The serve handler embeds [`render_record`] output verbatim in every
//! `scenario` response line and executes through the same
//! `run_scenario`/`run_scenario_batch` envelope as the sweep driver, so
//! for identical scenario batches the `record` fragments must equal the
//! sweep manifest rows byte for byte — across every execution substrate
//! (serial, executor pools of 2 and 3 workers, SoA batch). This is the
//! load-bearing guarantee that lets the sweep differential suites act
//! as the serve oracle.

use om_codegen::registry::ModelRegistry;
use om_runtime::ensemble::checkpoint::render_record;
use om_runtime::ensemble::json;
use om_runtime::{run_sweep, ScenarioRunConfig, ScenarioSpec, ServeConfig, Server, SweepConfig};

const OSC: &str = "model Osc;
  Real x(start = 1.0);
  Real y;
  equation
    der(x) = y;
    der(y) = -x;
end Osc;
";

/// A model source and the scenario batch run on it.
struct Case {
    source: String,
    vectors: Vec<Vec<(String, f64)>>,
    tend: f64,
    h: f64,
}

fn osc() -> Case {
    Case {
        source: OSC.to_owned(),
        vectors: (0..12)
            .map(|i| {
                vec![
                    ("x".to_string(), 0.8 + 0.05 * i as f64),
                    ("y".to_string(), -0.1 + 0.02 * i as f64),
                ]
            })
            .collect(),
        tend: 0.3,
        h: 0.01,
    }
}

/// The 3-roller bearing: enough equation groups that 2 and 3 workers
/// get one cluster each, so every placement compiles a different graph.
fn bearing() -> Case {
    let cfg = om_models::bearing2d::BearingConfig {
        rollers: 3,
        ..Default::default()
    };
    Case {
        source: om_models::bearing2d::source(&cfg),
        vectors: (0..6)
            .map(|i| vec![("y".to_string(), -5e-5 + 0.4e-5 * i as f64)])
            .collect(),
        tend: 2e-4,
        h: 1e-5,
    }
}

/// Sweep-side truth: run the library sweep and render each outcome the
/// way the manifest does.
fn sweep_records(case: &Case, workers: usize, batch: usize) -> Vec<String> {
    let registry = ModelRegistry::new();
    let model = registry.get_or_compile(&case.source).expect("compile");
    let scenarios: Vec<ScenarioSpec> = case
        .vectors
        .iter()
        .enumerate()
        .map(|(i, overrides)| ScenarioSpec::new(i, overrides.clone()))
        .collect();
    let cfg = SweepConfig {
        run: ScenarioRunConfig {
            tend: case.tend,
            h: case.h,
            ..ScenarioRunConfig::default()
        },
        concurrency: 2,
        workers,
        batch,
        ..SweepConfig::default()
    };
    let result = run_sweep(&model, &scenarios, &cfg).expect("sweep");
    (0..scenarios.len())
        .map(|i| render_record(i, result.manifest.outcome(i).expect("terminal outcome")))
        .collect()
}

/// Serve-side observation: drive the socket-free request handler and
/// pull the `record` fragments out of the `scenario` response lines.
fn serve_records(case: &Case, workers: usize, batch: usize) -> Vec<String> {
    let server = Server::new(ServeConfig {
        pool_threads: 2,
        ..ServeConfig::default()
    });
    let mut client = server.new_client();
    let scenarios: Vec<String> = case
        .vectors
        .iter()
        .map(|overrides| {
            let fields: Vec<String> = overrides
                .iter()
                .map(|(name, v)| format!("\"{name}\":{v}"))
                .collect();
            format!("{{{}}}", fields.join(","))
        })
        .collect();
    let request = format!(
        "{{\"id\":\"d\",\"op\":\"run\",\"model\":{{\"source\":\"{}\"}},\
         \"scenarios\":[{}],\"tend\":{},\"h\":{},\
         \"workers\":{workers},\"executor\":\"ws\",\"batch\":{batch}}}",
        json::escape(&case.source),
        scenarios.join(","),
        case.tend,
        case.h,
    );
    let lines = server.handle_line(&request, &mut client, 0);
    assert!(
        lines
            .last()
            .expect("response lines")
            .contains("\"type\":\"done\""),
        "request must complete: {lines:?}"
    );
    lines
        .iter()
        .filter(|l| l.contains("\"type\":\"scenario\""))
        .map(|l| {
            let start = l.find("\"record\":").expect("record field") + "\"record\":".len();
            l[start..l.len() - 1].to_string()
        })
        .collect()
}

fn assert_identical(workers: usize, batch: usize) {
    let case = osc();
    let sweep = sweep_records(&case, workers, batch);
    let serve = serve_records(&case, workers, batch);
    assert_eq!(sweep.len(), serve.len());
    for (i, (a, b)) in sweep.iter().zip(&serve).enumerate() {
        assert_eq!(
            a, b,
            "scenario {i} diverged (workers={workers}, batch={batch})"
        );
    }
}

#[test]
fn serve_matches_sweep_serial() {
    assert_identical(1, 1);
}

#[test]
fn serve_matches_sweep_three_worker_pool() {
    assert_identical(3, 1);
}

#[test]
fn serve_matches_sweep_two_worker_pool() {
    assert_identical(2, 1);
}

#[test]
fn serve_matches_sweep_batch8() {
    assert_identical(1, 8);
}

/// Pools are built from the registry's per-worker-count placement, so
/// 1, 2 and 3 workers run three different clustered graphs of the
/// bearing: sweep and serve records are byte-identical to the in-thread
/// one-cluster sweep at every worker count.
#[test]
fn every_placement_of_the_bearing_is_byte_identical() {
    let case = bearing();
    let oracle = sweep_records(&case, 1, 1);
    assert!(oracle.iter().all(|r| r.contains("completed")), "{oracle:?}");
    for workers in [1, 2, 3] {
        assert_eq!(
            sweep_records(&case, workers, 1),
            oracle,
            "sweep workers={workers}"
        );
        assert_eq!(
            serve_records(&case, workers, 1),
            oracle,
            "serve workers={workers}"
        );
    }
}

/// The warm path must be just as identical as the cold path: resending
/// by content key returns the cached model, and its records still match
/// the sweep rows bit for bit.
#[test]
fn warm_key_requests_stay_byte_identical() {
    let server = Server::new(ServeConfig::default());
    let mut client = server.new_client();
    let request = format!(
        "{{\"id\":1,\"op\":\"run\",\"model\":{{\"source\":\"{}\"}},\
         \"scenarios\":[{{\"x\":1.25}}],\"tend\":0.3,\"h\":0.01}}",
        json::escape(OSC)
    );
    let cold = server.handle_line(&request, &mut client, 0);
    let accepted = &cold[0];
    let key_start = accepted.find("\"model_key\":\"").unwrap() + "\"model_key\":\"".len();
    let key = &accepted[key_start..key_start + 16];

    let by_key = format!(
        "{{\"id\":2,\"op\":\"run\",\"model\":{{\"key\":\"{key}\"}},\
         \"scenarios\":[{{\"x\":1.25}}],\"tend\":0.3,\"h\":0.01}}"
    );
    let warm = server.handle_line(&by_key, &mut client, 0);
    assert!(warm[0].contains("\"registry\":\"warm\""), "{warm:?}");

    let record = |lines: &[String]| -> String {
        lines
            .iter()
            .find(|l| l.contains("\"type\":\"scenario\""))
            .map(|l| {
                let start = l.find("\"record\":").unwrap() + "\"record\":".len();
                l[start..l.len() - 1].to_string()
            })
            .expect("scenario line")
    };
    assert_eq!(record(&cold), record(&warm));
}
