//! Self-tests of the benchmark: every workload runs and passes its
//! output checks, a wrong expectation is counted as a failed operation,
//! and tracing does not change what is simulated.

use metal_util::json::Json;
use perfbench::{run, Options, Outcome, Workload};

fn fast(workload: Workload, trace: bool) -> Options {
    Options {
        workload,
        seed: perfbench::expect::DEFAULT_SEED,
        seconds: 0.0,
        trace,
        max_ops: Some(2),
        wrong_expectation: false,
    }
}

fn run_ok(opts: &Options) -> Outcome {
    run(opts).unwrap_or_else(|e| panic!("{} set-up failed: {e}", opts.workload.name()))
}

#[test]
fn fast_mode_runs_every_workload_correctly() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let out = run_ok(&fast(workload, trace));
            assert!(
                out.correct(),
                "{} (trace {trace}): {:?}",
                workload.name(),
                out.errors
            );
            assert_eq!(out.attempted, if trace { 4 } else { 2 });
            assert!(out.metrics.iter().all(|m| m.value.is_finite()));
        }
    }
}

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `key`.
fn declared(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
        .iter()
        .map(|m| {
            let field = |f| m.get(f).and_then(Json::as_str).expect("name and unit");
            (field("name").to_owned(), field("unit").to_owned())
        })
        .collect()
}

#[test]
fn every_workload_reports_the_metrics_benchmark_json_declares() {
    for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
        let want = declared(key);
        for workload in Workload::ALL {
            let got: Vec<(String, String)> = run_ok(&fast(workload, trace))
                .metrics
                .iter()
                .map(|m| (m.name.to_owned(), m.unit.to_owned()))
                .collect();
            assert_eq!(got, want, "{} {key}", workload.name());
        }
    }
    for workload in Workload::ALL {
        for m in run_ok(&fast(workload, false)).metrics {
            assert!(
                m.value > 0.0,
                "{}: {} is {}",
                workload.name(),
                m.name,
                m.value
            );
        }
    }
}

#[test]
fn wrong_expectation_counts_as_failed_operations() {
    for workload in Workload::ALL {
        let out = run_ok(&Options {
            wrong_expectation: true,
            ..fast(workload, false)
        });
        assert_eq!(out.attempted, 2, "{}", workload.name());
        assert_eq!(out.failed, 2, "{}: {:?}", workload.name(), out.errors);
        assert!(!out.correct());
    }
}

#[test]
fn traced_and_untraced_runs_simulate_the_same_counts() {
    for workload in Workload::ALL {
        let plain = run_ok(&fast(workload, false));
        let traced = run_ok(&fast(workload, true));
        assert_eq!(plain.simulated_ops, traced.simulated_ops);
        assert!(!plain.simulated.is_empty());
        for (name, value) in &plain.simulated {
            assert_eq!(
                traced.simulated.get(name),
                Some(value),
                "{}: {name}",
                workload.name()
            );
        }
    }
}
