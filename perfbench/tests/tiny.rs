//! The benchmark's own tests, in tiny mode (small topologies): metric names
//! and units match `BENCHMARK.json`, output digests repeat across runs, and
//! an injected check failure fails the run.

use perfbench::{Workload, END_TO_END, PER_LAYER};
use serde::Value;
use std::process::Command;

struct Run {
    code: i32,
    stdout: String,
    result: Value,
}

fn run(workload: Workload, trace: bool, extra: &[&str]) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload.name(),
            "--seed",
            "7",
            "--seconds",
            "0",
        ])
        .args(["--trace", if trace { "1" } else { "0" }, "--tiny"])
        .args(extra)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().unwrap_or_default().to_string();
    Run {
        code: out.status.code().unwrap_or(-1),
        result: serde_json::from_str(&last).unwrap_or_else(|e| panic!("{last}: {e:?}")),
        stdout,
    }
}

fn line_value<'a>(stdout: &'a str, key: &str) -> &'a str {
    stdout
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .unwrap_or_else(|| panic!("no `{key}` line in:\n{stdout}"))
        .split_whitespace()
        .next()
        .expect("a value")
}

fn str_list(v: &Value, key: &str) -> Vec<(String, String)> {
    let Some(Value::Array(items)) = v.get(key) else {
        panic!("BENCHMARK.json has no {key} list");
    };
    items
        .iter()
        .map(|m| {
            let s = |k: &str| match m.get(k) {
                Some(Value::Str(s)) => s.clone(),
                _ => String::new(),
            };
            (s("name"), s("unit"))
        })
        .collect()
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn metric_keys(result: &Value) -> Vec<(String, String, f64)> {
    let Some(Value::Object(metrics)) = result.get("metrics") else {
        panic!("no metrics object");
    };
    metrics
        .iter()
        .map(|(name, m)| {
            let unit = match m.get("unit") {
                Some(Value::Str(u)) => u.clone(),
                _ => String::new(),
            };
            let value = match m.get("value") {
                Some(Value::Float(f)) => *f,
                Some(Value::UInt(u)) => *u as f64,
                Some(Value::Int(i)) => *i as f64,
                other => panic!("{name}: value {other:?}"),
            };
            (name.clone(), unit, value)
        })
        .collect()
}

#[test]
fn metric_names_and_units_match_the_contract() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let contract: Value =
        serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
    let declared = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(str_list(&contract, "end_to_end"), declared(&END_TO_END));
    assert_eq!(str_list(&contract, "per_layer"), declared(&PER_LAYER));
    for (name, _) in str_list(&contract, "workloads") {
        assert!(Workload::parse(&name).is_some(), "unknown workload {name}");
    }
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(valid_name(name), "metric name {name}");
        assert!(!unit.is_empty() && unit.len() <= 16, "{name}: unit {unit}");
    }

    for w in Workload::ALL {
        for (trace, list) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let r = run(w, trace, &[]);
            assert_eq!(r.code, 0, "{}:\n{}", w.name(), r.stdout);
            assert_eq!(r.result.get("correct"), Some(&Value::Bool(true)));
            let got = metric_keys(&r.result);
            let names: Vec<(String, String)> =
                got.iter().map(|(n, u, _)| (n.clone(), u.clone())).collect();
            assert_eq!(names, declared(list), "{} trace={trace}", w.name());
            for (name, _, value) in &got {
                assert!(value.is_finite(), "{} {name} = {value}", w.name());
                if !trace {
                    assert!(*value > 0.0, "{} {name} = {value}", w.name());
                }
            }
        }
    }
}

#[test]
fn outputs_digest_repeats_across_runs() {
    for w in Workload::ALL {
        let a = run(w, false, &[]);
        let b = run(w, false, &[]);
        let traced = run(w, true, &[]);
        let digest = line_value(&a.stdout, "outputs_digest ");
        assert_eq!(
            digest,
            line_value(&b.stdout, "outputs_digest "),
            "{}",
            w.name()
        );
        assert_eq!(
            digest,
            line_value(&traced.stdout, "outputs_digest "),
            "{}",
            w.name()
        );
    }
}

#[test]
fn injected_check_failure_shows_in_failed_frac() {
    let r = run(Workload::Shard2, false, &["--inject-check-failure"]);
    assert_eq!(r.code, 0, "{}", r.stdout);
    assert_eq!(r.result.get("correct"), Some(&Value::Bool(false)));
    assert_eq!(r.result.get("failed"), Some(&Value::UInt(1)));
    let frac: f64 = line_value(&r.stdout, "failed_frac ").parse().unwrap();
    assert!(frac > 0.0, "{}", r.stdout);
}
