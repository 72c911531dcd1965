//! Golden bytes of the compile pipeline.
//!
//! Every `omc … emit` rendering (parallel and `--serial` Fortran 90 and
//! C++, the prefix intermediate form) and every compiled task graph's
//! registry identity, pinned as length + FNV-1a for the models the
//! experiments use. The values were recorded on the commit *before* the
//! compile path was made linear in model size (PR 23): the simplifier's
//! canonical form, the inliner, the causalizer's matching and the task
//! costing may change how they get there, never what they print.
//!
//! On a mismatch the failure message lists the whole actual table in
//! source form, so a deliberate pipeline change re-records in one paste.

use objectmath::codegen::{fnv1a64, CompiledModel};
use objectmath::models::{bearing2d, bearing3d, heat1d};
use std::process::Command;

/// Model operands (and their size flags) as `omc` takes them.
const MODELS: &[&str] = &[
    "bearing2d --size 3",
    "bearing2d --size 10",
    "bearing2d --size 96",
    "bearing3d",
    "bearing3d --size 24",
    "heat1d --size 64",
    "heat1d --size 64 --array-aware",
    "examples/bearing2d.om",
    "examples/cascade.om",
    "examples/oscillator.om",
];

const RENDERINGS: &[&str] = &[
    "--lang f90",
    "--lang f90 --serial",
    "--lang cpp",
    "--lang cpp --serial",
    "--lang mma",
];

/// `(model, rendering) -> (bytes, fnv1a64)`, row-major over
/// `MODELS × RENDERINGS`.
const EMIT_GOLDEN: &[(usize, u64)] = &[
    (6809, 0xed9e7e3f0f91442b),   // bearing2d --size 3 emit --lang f90
    (3144, 0x551ada19b6487919),   // bearing2d --size 3 emit --lang f90 --serial
    (7110, 0xc6e2e5675654061b),   // bearing2d --size 3 emit --lang cpp
    (2632, 0x26935f1664f25420),   // bearing2d --size 3 emit --lang cpp --serial
    (6144, 0x81682f4a8431eec7),   // bearing2d --size 3 emit --lang mma
    (20872, 0x8f7d375c9d3d31ca),  // bearing2d --size 10 emit --lang f90
    (8907, 0x494dc472c2fb537b),   // bearing2d --size 10 emit --lang f90 --serial
    (21562, 0xba84bdd8465057ee),  // bearing2d --size 10 emit --lang cpp
    (7325, 0x1d1349575c0826ee),   // bearing2d --size 10 emit --lang cpp --serial
    (18449, 0x6785af64538c1e95),  // bearing2d --size 10 emit --lang mma
    (201195, 0x7e9360a251d484d1), // bearing2d --size 96 emit --lang f90
    (83945, 0xeb243fd5b4d21429),  // bearing2d --size 96 emit --lang f90 --serial
    (205631, 0xe5446714bc66d4ea), // bearing2d --size 96 emit --lang cpp
    (68294, 0x65f47a63d0709978),  // bearing2d --size 96 emit --lang cpp --serial
    (172647, 0x429b0c08be252ca6), // bearing2d --size 96 emit --lang mma
    (81905, 0x0520dcacea21a657),  // bearing3d emit --lang f90
    (24570, 0xb484757b33fbf668),  // bearing3d emit --lang f90 --serial
    (78012, 0x928825dae509a71a),  // bearing3d emit --lang cpp
    (19747, 0xce852e036ec16aa7),  // bearing3d emit --lang cpp --serial
    (47181, 0xdcf40e2d04cab034),  // bearing3d emit --lang mma
    (198628, 0x4f8757bc3228bc5e), // bearing3d --size 24 emit --lang f90
    (59166, 0xc6ae997d53d083ad),  // bearing3d --size 24 emit --lang f90 --serial
    (188628, 0x19f72c52d0d8ac87), // bearing3d --size 24 emit --lang cpp
    (47437, 0x8404f754c9d640d7),  // bearing3d --size 24 emit --lang cpp --serial
    (113023, 0xd3b47abdf6f70fc4), // bearing3d --size 24 emit --lang mma
    (10748, 0xa038592947e4ee09),  // heat1d --size 64 emit --lang f90
    (9423, 0xc286d2f14d216af0),   // heat1d --size 64 emit --lang f90 --serial
    (9544, 0xc0bc9aaf4b26ff08),   // heat1d --size 64 emit --lang cpp
    (7353, 0xb8a6f0e9ce1113c2),   // heat1d --size 64 emit --lang cpp --serial
    (13085, 0x38ba07c555a0fe06),  // heat1d --size 64 emit --lang mma
    (1853, 0x52455118354eef5c),   // heat1d --size 64 --array-aware emit --lang f90
    (9423, 0xc286d2f14d216af0),   // heat1d --size 64 --array-aware emit --lang f90 --serial
    (2017, 0x0441efc7150beb36),   // heat1d --size 64 --array-aware emit --lang cpp
    (7353, 0xb8a6f0e9ce1113c2),   // heat1d --size 64 --array-aware emit --lang cpp --serial
    (13085, 0x38ba07c555a0fe06),  // heat1d --size 64 --array-aware emit --lang mma
    (20872, 0x8f7d375c9d3d31ca),  // examples/bearing2d.om emit --lang f90
    (8907, 0x494dc472c2fb537b),   // examples/bearing2d.om emit --lang f90 --serial
    (21562, 0xba84bdd8465057ee),  // examples/bearing2d.om emit --lang cpp
    (7325, 0x1d1349575c0826ee),   // examples/bearing2d.om emit --lang cpp --serial
    (18449, 0x6785af64538c1e95),  // examples/bearing2d.om emit --lang mma
    (1014, 0xb5bc9a8fb32f9efa),   // examples/cascade.om emit --lang f90
    (748, 0x7f0960139e8af1c5),    // examples/cascade.om emit --lang f90 --serial
    (1180, 0x5dd2a68881a85fec),   // examples/cascade.om emit --lang cpp
    (692, 0xf08311ede9abdda0),    // examples/cascade.om emit --lang cpp --serial
    (1174, 0x3b13ddf002288af9),   // examples/cascade.om emit --lang mma
    (551, 0x86d767c116bc2019),    // examples/oscillator.om emit --lang f90
    (416, 0x8d6bdfa99b3c7b46),    // examples/oscillator.om emit --lang f90 --serial
    (636, 0x6e095c1ba2ab6300),    // examples/oscillator.om emit --lang cpp
    (414, 0xfb71314d3fe4d93e),    // examples/oscillator.om emit --lang cpp --serial
    (470, 0xb24f2222d8b4e890),    // examples/oscillator.om emit --lang mma
];

/// `(ModelKey, graph_identity)` per scalarized model, in `MODELS` order
/// (the `--array-aware` row is skipped: the registry compiles scalarized).
const IDENTITY_GOLDEN: &[(u64, u64)] = &[
    (0x968b5fff440feac0, 0xae845371dc3bd506), // bearing2d --size 3
    (0xce6560c25afb8419, 0x0deb31a345bcb104), // bearing2d --size 10
    (0xfc73b4d2d298bf2a, 0x50a5de0c8521c016), // bearing2d --size 96
    (0x0d7e49ccbef94ce6, 0xa5abd23ddcfdec9f), // bearing3d
    (0x908c03d0e75eb85e, 0x34a9aeda23932358), // bearing3d --size 24
    (0x277e0ef6a396ed40, 0x65d0f6e90a1f6496), // heat1d --size 64
    (0xce6560c25afb8419, 0x0deb31a345bcb104), // examples/bearing2d.om
    (0x34fd1a67944a8d24, 0x783dca704299b842), // examples/cascade.om
    (0x815d5da1298289b2, 0x1b69f7810ec0c703), // examples/oscillator.om
];

fn emit(model: &str, rendering: &str) -> Vec<u8> {
    let mut words = model.split_whitespace();
    let operand = words.next().expect("model operand");
    let out = Command::new(env!("CARGO_BIN_EXE_omc"))
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .arg(operand)
        .arg("emit")
        .args(words)
        .args(rendering.split_whitespace())
        .output()
        .expect("run omc");
    assert!(
        out.status.success(),
        "omc {model} emit {rendering}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

#[test]
fn emitted_code_is_byte_identical_to_the_recorded_parent() {
    let mut actual = Vec::new();
    let mut listing = String::new();
    for model in MODELS {
        for rendering in RENDERINGS {
            let bytes = emit(model, rendering);
            let row = (bytes.len(), fnv1a64(&bytes));
            listing.push_str(&format!(
                "    ({}, 0x{:016x}), // {model} emit {rendering}\n",
                row.0, row.1
            ));
            actual.push(row);
        }
    }
    assert!(
        actual == EMIT_GOLDEN,
        "emitted bytes differ from the recorded table; actual:\n{listing}"
    );
}

/// The source text `omc` generates for a builtin operand, or the file.
fn source_of(model: &str) -> String {
    let words: Vec<&str> = model.split_whitespace().collect();
    let size = words
        .iter()
        .position(|w| *w == "--size")
        .map(|i| words[i + 1].parse::<usize>().expect("size"));
    match words[0] {
        "bearing2d" => {
            let mut cfg = bearing2d::BearingConfig::default();
            cfg.rollers = size.unwrap_or(cfg.rollers);
            bearing2d::source(&cfg)
        }
        "bearing3d" => {
            let mut cfg = bearing3d::Bearing3dConfig::default();
            cfg.rollers = size.unwrap_or(cfg.rollers);
            bearing3d::source(&cfg)
        }
        "heat1d" => {
            let mut cfg = heat1d::HeatConfig {
                velocity: 0.4,
                ..Default::default()
            };
            cfg.cells = size.unwrap_or(cfg.cells);
            heat1d::source_distributed(&cfg)
        }
        path => std::fs::read_to_string(format!("{}/{path}", env!("CARGO_MANIFEST_DIR")))
            .expect("read example model"),
    }
}

#[test]
fn registry_keys_and_graph_identities_are_unchanged() {
    let mut actual = Vec::new();
    let mut listing = String::new();
    for model in MODELS.iter().filter(|m| !m.contains("--array-aware")) {
        let compiled = CompiledModel::compile(&source_of(model)).expect("model compiles");
        let row = (compiled.key().0, compiled.identity());
        listing.push_str(&format!(
            "    (0x{:016x}, 0x{:016x}), // {model}\n",
            row.0, row.1
        ));
        actual.push(row);
    }
    assert!(
        actual == IDENTITY_GOLDEN,
        "registry identities differ from the recorded table; actual:\n{listing}"
    );
}
