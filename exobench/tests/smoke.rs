//! Runs the built binary at a tiny scale, with and without `--trace`, and
//! checks its output against what `BENCHMARK.json` promises. Numbers at this
//! scale mean nothing; names, units, sample counts, oracles and span structure
//! must already be right.

#[allow(dead_code)]
#[path = "../src/json.rs"]
mod json;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use json::Json;

const EXOBENCH: &str = env!("CARGO_BIN_EXE_exobench");

fn manifest_file() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json parses")
}

fn names(manifest: &Json, key: &str) -> Vec<(String, String)> {
    manifest
        .get(key)
        .and_then(Json::as_arr)
        .expect("a list")
        .iter()
        .map(|m| {
            let field = |k: &str| match m.get(k) {
                Some(Json::Str(s)) => s.clone(),
                other => panic!("{key}: '{k}' is {other:?}"),
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Run `exobench run` at scale 0.02 into a directory of its own; the results
/// document it wrote there.
fn run(label: &str, extra: &[&str]) -> (Json, PathBuf) {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join(label);
    let _ = std::fs::remove_dir_all(&out);
    let output = Command::new(EXOBENCH)
        .args(["run", "--scale", "0.02", "--seconds", "0.3", "--out"])
        .arg(&out)
        .args(extra)
        .output()
        .expect("exobench starts");
    assert!(
        output.status.success(),
        "exobench {extra:?} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let file = if extra.contains(&"--trace") {
        "results-traced.json"
    } else {
        "results.json"
    };
    let text = std::fs::read_to_string(out.join(file)).expect("results file");
    (Json::parse(&text).expect("results parse"), out)
}

/// Every promised metric is there for `workload`, in the promised unit, finite
/// and with a sample count; nothing failed.
fn check_workload(doc: &Json, workload: &str, promised: &[(String, String)]) {
    let w = doc
        .get("workloads")
        .and_then(|ws| ws.get(workload))
        .unwrap_or_else(|| panic!("no results for {workload}"));
    assert_eq!(w.get("correct"), Some(&Json::Bool(true)), "{workload}");
    assert_eq!(
        w.get("failed").and_then(Json::as_f64),
        Some(0.0),
        "{workload}"
    );
    assert!(
        w.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0,
        "{workload}"
    );
    for (name, unit) in promised {
        let m = w
            .get("metrics")
            .and_then(|ms| ms.get(name))
            .unwrap_or_else(|| panic!("{workload}: metric {name} is missing"));
        assert!(
            m.get("value").and_then(Json::as_f64).unwrap().is_finite(),
            "{workload} {name}"
        );
        assert_eq!(
            m.get("unit"),
            Some(&Json::Str(unit.clone())),
            "{workload} {name}"
        );
        assert!(
            m.get("n").and_then(Json::as_f64).unwrap() >= 1.0,
            "{workload} {name}"
        );
    }
}

#[test]
fn benchmark_json_is_the_printed_manifest() {
    let printed = Command::new(EXOBENCH)
        .arg("manifest")
        .output()
        .expect("exobench starts");
    assert!(printed.status.success());
    let printed = Json::parse(&String::from_utf8(printed.stdout).unwrap()).unwrap();
    assert_eq!(
        printed,
        manifest_file(),
        "regenerate with `exobench manifest > BENCHMARK.json`"
    );
}

#[test]
fn untraced_run_reports_every_end_to_end_metric_on_every_workload() {
    let manifest = manifest_file();
    let (doc, _) = run("untraced", &[]);
    assert!(
        doc.get("host").and_then(|h| h.get("nproc")).is_some(),
        "host fingerprint"
    );
    let workloads = manifest.get("workloads").and_then(Json::as_arr).unwrap();
    assert_eq!(workloads.len(), 6);
    for w in workloads {
        let Some(Json::Str(name)) = w.get("name") else {
            panic!("workload without a name")
        };
        check_workload(&doc, name, &names(&manifest, "end_to_end"));
    }
}

#[test]
fn traced_run_reports_every_layer_metric_and_well_formed_spans() {
    let manifest = manifest_file();
    // One workload behind the wire protocol, one durable one.
    for workload in ["point_wire", "write_mix"] {
        let (doc, out) = run(
            &format!("traced-{workload}"),
            &["--trace", "--workload", workload],
        );
        check_workload(&doc, workload, &names(&manifest, "per_layer"));

        let spans =
            std::fs::read_to_string(out.join("trace").join(format!("{workload}.spans.jsonl")))
                .expect("span file");
        let spans: BTreeMap<u64, Json> = spans
            .lines()
            .map(|line| {
                let span = Json::parse(line).expect("span line parses");
                (num(&span, "id"), span)
            })
            .collect();
        assert!(spans.len() > 10, "{workload}: only {} spans", spans.len());
        for span in spans.values() {
            assert!(num(span, "start_ns") <= num(span, "end_ns"));
            let parent = num(span, "parent");
            if parent != 0 {
                let parent = spans.get(&parent).expect("a span's parent is in the file");
                assert_eq!(
                    num(parent, "op"),
                    num(span, "op"),
                    "spans of one operation share its id"
                );
                assert!(
                    num(parent, "start_ns") <= num(span, "start_ns")
                        && num(span, "end_ns") <= num(parent, "end_ns"),
                    "a span lies inside its parent"
                );
            }
        }
    }
}

fn num(span: &Json, key: &str) -> u64 {
    span.get(key)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("span without {key}")) as u64
}
