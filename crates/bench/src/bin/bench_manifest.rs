//! Emit `BENCH_manifest.json`: one index over every `BENCH_*.json` the
//! bench binaries produced, so CI uploads a single self-describing
//! artifact set instead of loose files.
//!
//! Each indexed entry re-parses its JSON (with the in-tree parser — the
//! workspace carries no serde) and lifts out the `experiment` and
//! `mode` fields; a bench JSON that fails to parse fails the run, which
//! makes this binary double as a hygiene gate over the bench output
//! format.
//!
//! Flags: `--dir PATH` (where the BENCH files live, default `.`),
//! `--out PATH` (default `<dir>/BENCH_manifest.json`).

use om_obs::json::{self, Json};
use std::fmt::Write as _;
use std::path::PathBuf;

const SCHEMA_VERSION: u32 = 1;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let dir = args
        .iter()
        .position(|a| a == "--dir")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| ".".to_owned());
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(&dir).join("BENCH_manifest.json"));

    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| {
            eprintln!("bench_manifest: cannot read `{dir}`: {e}");
            std::process::exit(1);
        })
        .flatten()
        .map(|entry| entry.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .map(|n| {
                    n.starts_with("BENCH_") && n.ends_with(".json") && n != "BENCH_manifest.json"
                })
                .unwrap_or(false)
        })
        .collect();
    files.sort();

    if files.is_empty() {
        eprintln!("bench_manifest: no BENCH_*.json files under `{dir}`");
        std::process::exit(1);
    }

    let mut entries = Vec::with_capacity(files.len());
    let mut failed = false;
    for path in &files {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("bench_manifest: cannot read {name}: {e}");
                failed = true;
                continue;
            }
        };
        let doc = match json::parse(&text) {
            Ok(doc) => doc,
            Err(e) => {
                eprintln!("bench_manifest: {name} is not valid JSON: {e}");
                failed = true;
                continue;
            }
        };
        let experiment = doc
            .get("experiment")
            .and_then(Json::as_str)
            .unwrap_or("unknown")
            .to_owned();
        let mode = doc
            .get("mode")
            .and_then(Json::as_str)
            .unwrap_or("unknown")
            .to_owned();
        entries.push((name, experiment, mode, text.len()));
    }
    if failed {
        std::process::exit(1);
    }

    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema_version\": {SCHEMA_VERSION},");
    let _ = writeln!(out, "  \"benches\": [");
    for (i, (name, experiment, mode, bytes)) in entries.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"file\": \"{}\", \"experiment\": \"{}\", \"mode\": \"{}\", \
             \"bytes\": {bytes}}}{}",
            json::escape(name),
            json::escape(experiment),
            json::escape(mode),
            if i + 1 < entries.len() { "," } else { "" }
        );
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");

    std::fs::write(&out_path, &out).unwrap_or_else(|e| {
        eprintln!("bench_manifest: cannot write {}: {e}", out_path.display());
        std::process::exit(1);
    });
    eprintln!(
        "bench_manifest: indexed {} bench file(s) into {}",
        entries.len(),
        out_path.display()
    );
}
