//! Self-tests: every workload at a tiny size emits every metric
//! `BENCHMARK.json` declares, with its unit and direction, and the
//! exact counts repeat across runs and executor thread counts.

use ema_e2ebench::workloads::{Size, Workload};
use ema_e2ebench::{run, Options, Report};
use ema_obs::Json;
use std::sync::Mutex;
use std::time::Instant;

/// The allocator statistics, the obs recorder and the kernel counters
/// are process-wide, so the self-tests take turns.
static SERIAL: Mutex<()> = Mutex::new(());

fn tiny(workload: Workload, trace: bool, threads: usize) -> Report {
    let opts = Options {
        workload,
        seed: 5,
        seconds: 0.0,
        trace,
        size: Size::TINY,
        threads,
    };
    let report = run(&opts, Instant::now());
    assert!(
        report.correct,
        "{} failed its checks: {:?}",
        workload.name(),
        report.problems
    );
    report
}

fn value(report: &Report, name: &str) -> f64 {
    report
        .metrics
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.value)
        .expect(name)
}

/// `(name, unit, better)` of every metric in one `BENCHMARK.json` section.
fn declared(section: &str) -> Vec<(String, String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let json = Json::parse(&text).expect("BENCHMARK.json is valid JSON");
    let field = |m: &Json, key: &str| m.get(key).and_then(Json::as_str).expect(key).to_string();
    json.get(section)
        .and_then(Json::as_arr)
        .expect(section)
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
        .collect()
}

#[test]
fn every_declared_metric_is_emitted_with_its_unit_and_direction() {
    let _turn = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    for workload in Workload::ALL {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let report = tiny(workload, trace, 2);
            let declared = declared(section);
            assert_eq!(
                report.metrics.len(),
                declared.len(),
                "{} {section}",
                workload.name()
            );
            for (name, unit, better) in declared {
                let m = report
                    .metrics
                    .iter()
                    .find(|m| m.name == name)
                    .unwrap_or_else(|| panic!("{} does not emit {name}", workload.name()));
                assert_eq!(m.unit, unit, "{name} unit");
                assert_eq!(m.better.label(), better, "{name} direction");
            }
            let line = Json::parse(&report.result_json()).expect("result line is JSON");
            let metrics = line.get("metrics").expect("metrics");
            for m in &report.metrics {
                let entry = metrics.get(&m.name).expect("metric in the result line");
                assert_eq!(entry.get("unit").and_then(Json::as_str), Some(m.unit));
                assert!(
                    entry.get("value").and_then(Json::as_f64).is_some(),
                    "{}",
                    m.name
                );
            }
        }
    }
}

#[test]
fn exact_counts_repeat_across_runs_and_thread_counts() {
    const EXACT: [&str; 5] = [
        "core.train_epochs",
        "tensor.matmul_calls",
        "tensor.matmul_gflop",
        "similarity.build_graph_calls",
        "core.cluster.cache_hits",
    ];
    let _turn = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    for workload in Workload::ALL {
        let counts = |threads| {
            let report = tiny(workload, true, threads);
            (EXACT.map(|name| value(&report, name)), report.digest)
        };
        let first = counts(2);
        assert!(
            first.0[0] > 0.0 && first.0[1] > 0.0,
            "{}: {:?}",
            workload.name(),
            first.0
        );
        assert_eq!(
            first,
            counts(2),
            "{}: a second run differs",
            workload.name()
        );
        assert_eq!(
            first,
            counts(1),
            "{}: one thread differs from two",
            workload.name()
        );
    }
}
