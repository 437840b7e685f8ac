//! The benchmark's own test: every workload at a tiny size emits every
//! metric `BENCHMARK.json` names, with its unit; one seed gives identical
//! deterministic values on two runs; and a second seed runs clean, so a
//! claim can be held out on a seed nobody tuned against.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

const WORKLOADS: [&str; 3] = ["dup-serve", "session-edit", "cli-boards"];

/// Values that depend only on the inputs, never on timing or scheduling.
const DETERMINISTIC: [&str; 9] = [
    "max_err_pct",
    "avg_err_pct",
    "failed_frac",
    "drc.violations",
    "core.patterns",
    "fleet.session.units_dirty",
    "fleet.session.units_skipped",
    "fleet.session.cells_dirty",
    "fleet.session.boards_replanned",
];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives inside the repository")
        .to_path_buf()
}

struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, (f64, String)>,
}

/// Reads every `"name": {"value": v, "unit": "u"}` entry of `text`.
fn metric_entries(text: &str) -> BTreeMap<String, (f64, String)> {
    let mut out = BTreeMap::new();
    let mut rest = text;
    while let Some(i) = rest.find(": {\"value\": ") {
        let name = rest[..i].rsplit('"').nth(1).expect("quoted name");
        let after = &rest[i + ": {\"value\": ".len()..];
        let value = after[..after.find(',').expect("value, unit")]
            .parse()
            .expect("number");
        let u0 = after.find("\"unit\": \"").expect("unit") + "\"unit\": \"".len();
        let u1 = u0 + after[u0..].find('"').expect("closing quote");
        out.insert(name.to_string(), (value, after[u0..u1].to_string()));
        rest = &after[u1..];
    }
    out
}

/// Scalar field `key` of the result line.
fn field<'a>(line: &'a str, key: &str) -> &'a str {
    let start = line.find(&format!("\"{key}\": ")).expect("field present") + key.len() + 4;
    let end = start + line[start..].find(',').expect("more fields follow");
    &line[start..end]
}

fn run(workload: &str, seed: u64, trace: bool) -> Outcome {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "1",
        ])
        .args([
            "--trace",
            if trace { "1" } else { "0" },
            "--tiny",
            "--rounds",
            "8",
        ])
        .current_dir(repo_root())
        .output()
        .expect("the benchmark binary runs");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let line = stdout.lines().last().expect("a result line");
    Outcome {
        correct: field(line, "correct") == "true",
        attempted: field(line, "attempted").parse().expect("count"),
        failed: field(line, "failed").parse().expect("count"),
        metrics: metric_entries(&line[line.find("\"metrics\"").expect("metrics")..]),
    }
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let json = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let start = json
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &json[start..start + json[start..].find(']').expect("array end")];
    body.split('{')
        .skip(1)
        .map(|entry| {
            let get = |key: &str| {
                let s = entry.find(&format!("\"{key}\": \"")).expect("key") + key.len() + 5;
                entry[s..s + entry[s..].find('"').expect("quote")].to_string()
            };
            (get("name"), get("unit"))
        })
        .collect()
}

fn assert_emits(o: &Outcome, want: &[(String, String)], what: &str) {
    let got: Vec<(String, String)> = o
        .metrics
        .iter()
        .map(|(k, (_, u))| (k.clone(), u.clone()))
        .collect();
    let mut want = want.to_vec();
    want.sort();
    assert_eq!(got, want, "{what}: metric names and units");
    for (name, (v, _)) in &o.metrics {
        assert!(v.is_finite(), "{what}: {name} = {v}");
    }
}

#[test]
fn every_metric_is_emitted_with_its_unit() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    for w in WORKLOADS {
        let plain = run(w, 1, false);
        assert!(
            plain.correct && plain.attempted >= 1,
            "{w}: checked outputs"
        );
        assert_emits(&plain, &end_to_end, w);
        for (name, (v, _)) in &plain.metrics {
            assert!(*v > 0.0, "{w}: end-to-end {name} must never be 0");
        }
        let traced = run(w, 1, true);
        assert!(
            traced.correct,
            "{w}: the traced run checks out and its layers add up"
        );
        assert_emits(&traced, &per_layer, w);
    }
}

#[test]
fn one_seed_gives_identical_deterministic_values() {
    for w in WORKLOADS {
        let (a, b) = (run(w, 7, true), run(w, 7, true));
        assert_eq!((a.attempted, a.failed), (b.attempted, b.failed), "{w}");
        for name in DETERMINISTIC {
            assert_eq!(a.metrics[name].0, b.metrics[name].0, "{w}: {name}");
        }
    }
}

#[test]
fn a_second_seed_runs_clean() {
    for w in WORKLOADS {
        let o = run(w, 2, false);
        assert!(o.correct, "{w}: outputs match the references");
        assert_eq!(o.failed, 0, "{w}: no op fails");
    }
}

#[test]
fn cli_boards_counts_the_known_table1_case5_drc_failure() {
    // Table I case 5 starts DRC-clean and ends with one violation.
    let o = run("cli-boards", 1, true);
    assert!(
        o.metrics["failed_frac"].0 >= 1.0 / 8.0,
        "{}",
        o.metrics["failed_frac"].0
    );
}
