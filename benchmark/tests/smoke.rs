//! The whole benchmark at `--scale smoke`: every workload, untraced and
//! traced, checked against `BENCHMARK.json`.

use std::collections::BTreeMap;

use amnesia_benchmark::report::{is_count, result_json};
use amnesia_benchmark::{
    out_dir, run_workload, Inputs, Report, RunConfig, Scale, Workload, END_TO_END, PER_LAYER,
};

fn run(workload: Workload, seed: u64, trace: bool) -> Report {
    let report = run_workload(&RunConfig {
        workload,
        seed,
        seconds: 0.0,
        trace,
        scale: Scale::Smoke,
    })
    .unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
    assert_eq!(report.failed, 0, "{}: failed operations", workload.name());
    assert!(report.attempted > 0);
    report
}

/// `(name, unit, better, bound)` of every object in the array under `key`
/// of `BENCHMARK.json` (a scan, not a JSON parser: the file is ours).
fn declared(json: &str, key: &str) -> Vec<(String, String, String, Option<f64>)> {
    let start = json.find(&format!("\"{key}\"")).expect(key);
    let body = &json[start..];
    let body = &body[..body.find(']').expect("array end")];
    let field = |obj: &str, name: &str| -> Option<String> {
        let at = obj.find(&format!("\"{name}\""))? + name.len() + 2;
        let rest = obj[at..].trim_start_matches([':', ' ']);
        Some(
            rest.trim_start_matches('"')
                .split(['"', ',', '\n', '}'])
                .next()?
                .trim()
                .to_string(),
        )
    };
    body.split('{')
        .skip(1)
        .map(|obj| {
            (
                field(obj, "name").expect("name"),
                field(obj, "unit").unwrap_or_default(),
                field(obj, "better").unwrap_or_default(),
                field(obj, "bound").and_then(|b| b.parse().ok()),
            )
        })
        .collect()
}

fn benchmark_json() -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn benchmark_json_declares_exactly_the_registry() {
    let json = benchmark_json();
    let e2e = declared(&json, "end_to_end");
    assert_eq!(e2e.len(), END_TO_END.len());
    for (d, m) in e2e.iter().zip(&END_TO_END) {
        assert_eq!(
            (d.0.as_str(), d.1.as_str(), d.2.as_str(), d.3),
            (m.name, m.unit, m.better.word(), Some(m.bound))
        );
        assert!(
            m.bound <= 0.25,
            "{}: bound above the contract's cap",
            m.name
        );
    }
    let layers = declared(&json, "per_layer");
    assert_eq!(layers.len(), PER_LAYER.len());
    for (d, (name, unit, better)) in layers.iter().zip(PER_LAYER) {
        assert_eq!(
            (d.0.as_str(), d.1.as_str(), d.2.as_str()),
            (*name, *unit, better.word())
        );
    }
    let workloads: Vec<String> = declared(&json, "workloads")
        .into_iter()
        .map(|w| w.0)
        .collect();
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, names);
    assert!(END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s"));
}

#[test]
fn every_workload_prints_every_declared_metric_with_its_unit() {
    let json = benchmark_json();
    for workload in Workload::ALL {
        let plain = run(workload, 1, false);
        let line = result_json(&plain, false);
        for (name, unit, _, _) in declared(&json, "end_to_end") {
            assert!(
                line.contains(&format!("\"{name}\": {{\"value\": "))
                    && line.contains(&format!(", \"unit\": \"{unit}\"}}")),
                "{}: {name} [{unit}] missing from {line}",
                workload.name()
            );
        }
        for (m, v) in END_TO_END.iter().zip(&plain.end_to_end) {
            assert!(
                v.is_finite() && *v > 0.0,
                "{}: {} = {v}: end-to-end metrics are never zero",
                workload.name(),
                m.name
            );
        }
        assert!(line.starts_with("{\"correct\": true, \"attempted\": "));

        let traced = run(workload, 1, true);
        let line = result_json(&traced, true);
        for (name, unit, _, _) in declared(&json, "per_layer") {
            assert!(
                traced.per_layer.contains_key(&name),
                "{}: {name} has no value after a traced run",
                workload.name()
            );
            assert!(
                line.contains(&format!("\"{name}\": {{\"value\": ")),
                "{}: {name} [{unit}] missing",
                workload.name()
            );
        }
        let trace = out_dir().join(format!("trace-{}.jsonl", workload.name()));
        let spans = std::fs::read_to_string(&trace).expect("trace file");
        assert_eq!(
            spans.lines().count() as f64,
            traced.per_layer["trace.spans"],
            "one line per span"
        );
        assert!(spans.lines().all(|l| l.contains("\"op_id\": ")));
        if workload == Workload::SqlFrozen {
            assert_eq!(traced.per_layer["compress.block_decodes"], 0.0);
            assert!(traced.per_layer["compress.filter_ns_per_row"] > 0.0);
        }
        if workload == Workload::SqlHot {
            assert_eq!(traced.per_layer["tier.blocks_frozen"], 0.0);
            assert_eq!(traced.per_layer["compress.filter_ns_per_row"], 0.0);
        }
    }
}

/// The values that must repeat exactly under one seed.
fn counts(r: &Report) -> BTreeMap<String, u64> {
    let mut out: BTreeMap<String, u64> = r
        .per_layer
        .iter()
        .filter(|(k, _)| is_count(k))
        .map(|(k, v)| (k.clone(), v.to_bits()))
        .collect();
    for name in ["write_amp", "resident_bytes_per_row"] {
        out.insert(name.to_string(), r.e2e(name).expect(name).to_bits());
    }
    out.insert("result_checksum".to_string(), r.result_checksum);
    out.insert("attempted".to_string(), r.attempted);
    out
}

#[test]
fn one_seed_gives_identical_counts_and_another_gives_other_inputs() {
    for workload in Workload::ALL {
        let (a, b) = (run(workload, 5, false), run(workload, 5, false));
        assert_eq!(counts(&a), counts(&b), "{}", workload.name());
        assert!(counts(&a).len() > 20, "{:?}", counts(&a).keys());
        let other = run(workload, 6, false);
        assert_ne!(a.result_checksum, other.result_checksum);
        assert_ne!(
            Inputs::generate(workload, Scale::Smoke, 5).checksum(),
            Inputs::generate(workload, Scale::Smoke, 6).checksum()
        );
    }
}
