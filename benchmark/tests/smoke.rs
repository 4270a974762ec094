//! Runs the built `rowbench` small and checks what it prints and writes
//! against `BENCHMARK.json`.

use rowsort_testkit::json::Json;
use std::path::Path;
use std::process::{Command, Output};

const ROWBENCH: &str = env!("CARGO_BIN_EXE_rowbench");

fn rowbench(args: &[&str]) -> Output {
    Command::new(ROWBENCH)
        .args(args)
        .env_remove("ROWSORT_THREADS")
        .output()
        .expect("rowbench starts")
}

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn entries<'j>(json: &'j Json, key: &str) -> &'j [Json] {
    json.get(key).and_then(Json::as_arr).expect(key)
}

fn text<'j>(entry: &'j Json, key: &str) -> &'j str {
    entry.get(key).and_then(Json::as_str).expect(key)
}

fn number(entry: &Json, key: &str) -> f64 {
    entry.get(key).and_then(Json::as_f64).expect(key)
}

#[test]
fn benchmark_json_is_what_the_binary_describes() {
    let described = rowbench(&["describe"]);
    assert!(described.status.success());
    let described = Json::parse(&String::from_utf8_lossy(&described.stdout)).expect("parses");
    assert_eq!(described, benchmark_json());
}

#[test]
fn refuses_to_start_with_a_rowsort_variable_set() {
    let out = Command::new(ROWBENCH)
        .args([
            "--workload",
            "small_sort",
            "--seconds",
            "0.1",
            "--scale",
            "0.01",
        ])
        .env("ROWSORT_THREADS", "1")
        .output()
        .expect("rowbench starts");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "no result may be printed");
}

/// One run: the result object's metrics are exactly `expected`, each
/// finite and carrying its unit.
fn check_run(workload: &str, trace: &str, expected: &[Json]) {
    let out = rowbench(&[
        "--workload",
        workload,
        "--seed",
        "7",
        "--seconds",
        "0.3",
        "--trace",
        trace,
        "--scale",
        "0.01",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{workload} --trace {trace}: {stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let result = Json::parse(stdout.lines().last().expect("a result line")).expect("parses");
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{stdout}");
    assert_eq!(number(&result, "failed"), 0.0);
    assert!(number(&result, "attempted") >= 3.0);
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("no metrics object: {stdout}");
    };
    let printed: Vec<&str> = metrics.iter().map(|(name, _)| name.as_str()).collect();
    let named: Vec<&str> = expected.iter().map(|m| text(m, "name")).collect();
    assert_eq!(printed, named, "{workload} --trace {trace}");
    for (metric, (name, value)) in expected.iter().zip(metrics) {
        assert!(number(value, "value").is_finite(), "{workload} {name}");
        assert_eq!(
            text(value, "unit"),
            text(metric, "unit"),
            "{workload} {name}"
        );
        // Each metric is also printed by name, on a line of its own.
        assert!(stdout.contains(&format!("{name} ")), "{workload} {name}");
    }
}

/// The span file: every line parses, every parent resolves, and children
/// lie inside their parent's interval.
fn check_trace(workload: &str) {
    let path = Path::new(ROWBENCH).with_file_name(format!("trace-{workload}.jsonl"));
    let lines = std::fs::read_to_string(&path).expect("the traced run wrote its spans");
    let spans: Vec<Json> = lines
        .lines()
        .map(|line| Json::parse(line).expect("span parses"))
        .collect();
    assert!(spans.len() > 20, "{workload}: {} spans", spans.len());
    for span in &spans {
        let (start, end) = (number(span, "start_ns"), number(span, "end_ns"));
        assert!(start <= end);
        let parent = number(span, "parent");
        if parent == 0.0 {
            continue;
        }
        let parent = spans
            .iter()
            .find(|p| number(p, "id") == parent)
            .expect("parent id resolves");
        assert_eq!(number(parent, "query"), number(span, "query"));
        assert!(number(parent, "start_ns") <= start && end <= number(parent, "end_ns"));
    }
    for name in [
        "query",
        "engine.exec",
        "replay",
        "row.scatter",
        "vector.split",
    ] {
        assert!(
            spans.iter().any(|s| text(s, "name") == name),
            "{workload}: no {name} span"
        );
    }
}

#[test]
fn every_workload_prints_every_metric_and_a_well_formed_trace() {
    let benchmark = benchmark_json();
    for workload in entries(&benchmark, "workloads") {
        let workload = text(workload, "name");
        check_run(workload, "0", entries(&benchmark, "end_to_end"));
        check_run(workload, "1", entries(&benchmark, "per_layer"));
        check_trace(workload);
    }
}
