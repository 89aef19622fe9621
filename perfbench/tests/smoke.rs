//! Smoke test of the benchmark at tiny sizes: 8 nodes, 12 windows, a
//! 16-core socket. Every workload, untraced and traced, must pass its
//! output checks and print every metric `BENCHMARK.json` lists, with the
//! listed unit.

use std::process::Command;

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn listed(json: &str, section: &str) -> Vec<(String, String)> {
    let start = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |obj: &str, key: &str| -> String {
        let at = obj.find(&format!("\"{key}\"")).expect("metric has the key") + key.len() + 2;
        let rest = &obj[at..];
        let open = rest.find('"').expect("string value") + 1;
        let close = rest[open..].find('"').expect("closed string") + open;
        rest[open..close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

fn run(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0"])
        .args(["--trace", trace, "--tiny"])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("a result line").to_string()
}

#[test]
fn every_listed_metric_is_printed_and_checks_pass() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let metrics = listed(&json, section);
        assert!(!metrics.is_empty(), "{section} lists metrics");
        for workload in ["fleet-churn", "fleet-steady", "socket-wide"] {
            let line = run(workload, trace);
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{line}"
            );
            assert!(line.contains("\"failed\": 0, \"metrics\": {"), "{line}");
            assert_eq!(
                line.matches("\"value\": ").count(),
                metrics.len(),
                "{workload} prints exactly the listed {section} metrics: {line}"
            );
            for (name, unit) in &metrics {
                let at = line
                    .find(&format!("\"{name}\": {{\"value\": "))
                    .unwrap_or_else(|| panic!("{workload} does not print {name}: {line}"));
                let rest = &line[at..];
                let entry = &rest[..rest.find('}').expect("closed entry")];
                assert!(
                    entry.ends_with(&format!("\"unit\": \"{unit}\"")),
                    "{workload}: {name} needs unit {unit}: {entry}"
                );
                let value = entry
                    .split("\"value\": ")
                    .nth(1)
                    .and_then(|v| v.split(',').next())
                    .expect("a value");
                assert!(
                    value.parse::<f64>().is_ok_and(f64::is_finite),
                    "{workload}: {name} = {value}"
                );
            }
        }
    }
}
