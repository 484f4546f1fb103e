//! Drift guard and smoke test of the benchmark itself.
//!
//! - `BENCHMARK.json` at the repository root is what `ppbench describe`
//!   prints, and a `--check` run (horizons ÷ 10, one second) emits every
//!   workload and metric it names with a finite value and a unit.
//! - The benchmark's own composition of workloads 2–4 produces the same
//!   simulation as `experiments::{flowsched,coflowsched,hyperscale}::run`
//!   on the same config, so it cannot silently stop measuring what the
//!   figure binaries run.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::rc::Rc;
use std::time::Instant;

use ppbench::json::Json;
use ppbench::metrics::benchmark_json;
use ppbench::runner::SCRUBBED_ENV;
use ppbench::scenarios::{
    coflow_configs, flowsched_configs, hyperscale_config, run_coflow, run_flowsched,
    run_hyperscale, Jitter,
};
use ppbench::span::Tracer;

const PPBENCH: &str = env!("CARGO_BIN_EXE_ppbench");

fn repo_file(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join(name)
}

fn names(contract: &Json, key: &str) -> Vec<(String, String)> {
    contract
        .get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}`"))
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

#[test]
fn committed_contract_is_what_describe_prints() {
    let text = std::fs::read_to_string(repo_file("BENCHMARK.json")).expect("BENCHMARK.json");
    let committed = Json::parse(&text).expect("BENCHMARK.json parses");
    assert_eq!(
        committed,
        benchmark_json(),
        "regenerate with `ppbench describe > BENCHMARK.json`"
    );
}

fn ppbench(args: &[&str]) -> std::process::Output {
    let mut cmd = Command::new(PPBENCH);
    cmd.args(args);
    for var in SCRUBBED_ENV {
        cmd.env_remove(var);
    }
    cmd.output().expect("ppbench starts")
}

#[test]
fn check_run_emits_every_named_workload_and_metric() {
    let contract = benchmark_json();
    let dir = Path::new(PPBENCH).parent().unwrap().join("ppbench-smoke");
    std::fs::create_dir_all(&dir).unwrap();
    let timed = dir.join("timed.json");
    let traced = dir.join("traced.json");

    for (out, trace) in [(&timed, "0"), (&traced, "1")] {
        let out = out.to_str().unwrap();
        let args = [
            "run", "--check", "--seconds", "1", "--trace", trace, "--out", out,
        ];
        let o = ppbench(&args);
        assert!(
            o.status.success(),
            "ppbench {args:?} failed:\n{}",
            String::from_utf8_lossy(&o.stderr)
        );
    }
    let read = |p: &Path| Json::parse(&std::fs::read_to_string(p).unwrap()).unwrap();
    let (timed_json, traced_json) = (read(&timed), read(&traced));

    for (workload, _) in names(&contract, "workloads") {
        for (file, key, run) in [
            (&timed_json, "end_to_end", "timed"),
            (&traced_json, "per_layer", "traced"),
        ] {
            let w = file
                .get("workloads")
                .and_then(|ws| ws.get(&workload))
                .unwrap_or_else(|| panic!("{run} run has no workload {workload}"));
            assert_eq!(
                w.get("ops_failed").and_then(Json::as_u64),
                Some(0),
                "{workload}: {:?}",
                w.get("notes")
            );
            let notes = w.get("notes").and_then(Json::as_arr).unwrap();
            assert!(notes.is_empty(), "{workload} ({run}): {notes:?}");
            for (metric, unit) in names(&contract, key) {
                let m = w
                    .get(key)
                    .and_then(|ms| ms.get(&metric))
                    .unwrap_or_else(|| panic!("{workload}: {metric} missing from the {run} run"));
                let value = m.get("value").and_then(Json::as_f64);
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{workload}: {metric} = {value:?}"
                );
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()));
            }
        }
        // Self times of a traced rep add up to its wall time, the shares to 1.
        let pl = |name: &str| {
            traced_json
                .get("workloads")
                .and_then(|ws| ws.get(&workload))
                .and_then(|w| w.get("per_layer"))
                .and_then(|p| p.get(name))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
                .unwrap()
        };
        let shares: f64 = [
            "simcore.sched.share",
            "netsim.switch.share",
            "netsim.arena.share",
            "transport.share",
            "netsim.pump_residual_share",
        ]
        .iter()
        .map(|n| pl(n))
        .sum();
        assert!(
            (shares - 1.0).abs() < 1e-9,
            "{workload}: shares sum to {shares}"
        );
    }

    // Same seed, same counts, in both kinds of run.
    let counts = |file: &Json| {
        file.get("workloads")
            .and_then(|ws| ws.get("coflow_lossy"))
            .and_then(|w| w.get("counts"))
            .cloned()
    };
    assert_eq!(counts(&timed_json), counts(&traced_json));
    assert!(counts(&timed_json).is_some());

    // A run compares clean against itself.
    let o = ppbench(&["compare", timed.to_str().unwrap(), timed.to_str().unwrap()]);
    assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stdout));
}

#[test]
fn single_workload_run_ends_with_the_contract_line() {
    let contract = benchmark_json();
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let o = ppbench(&[
            "run",
            "--check",
            "--workload",
            "incast_pp",
            "--seed",
            "5",
            "--seconds",
            "1",
            "--trace",
            trace,
        ]);
        assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));
        let stdout = String::from_utf8_lossy(&o.stdout);
        let last = stdout.lines().last().expect("output");
        let line = Json::parse(last).expect("last line is JSON");
        let keys: Vec<&str> = line
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)), "{stdout}");
        assert_eq!(line.get("failed").and_then(Json::as_u64), Some(0));
        assert!(line.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
        let got: Vec<(String, String)> = line
            .get("metrics")
            .and_then(Json::as_obj)
            .unwrap()
            .iter()
            .map(|(k, v)| {
                assert!(v
                    .get("value")
                    .and_then(Json::as_f64)
                    .is_some_and(f64::is_finite));
                (
                    k.clone(),
                    v.get("unit").and_then(Json::as_str).unwrap().to_string(),
                )
            })
            .collect();
        assert_eq!(got, names(&contract, key), "--trace {trace}");
    }
}

#[test]
fn a_crashing_child_is_a_failed_operation_not_a_crashed_benchmark() {
    // `true` exits 0 without printing a rep record; `false` exits non-zero.
    for exe in ["true", "false"] {
        let r = ppbench::runner::spawn_rep(
            Path::new(exe),
            ppbench::scenarios::Workload::IncastPp,
            1,
            10,
            false,
        );
        assert!(r.is_err(), "{exe}: {r:?}");
    }
    let o = ppbench(&["rep", "--workload", "incast_pp", "--div", "0"]);
    assert!(!o.status.success());
}

fn tracer() -> Rc<Tracer> {
    Rc::new(Tracer::new(false, Instant::now()))
}

/// Horizons ÷ 3: long enough for PFC pauses to occur.
const DRIFT_DIV: u64 = 3;

#[test]
fn flowsched_composition_matches_the_experiment_harness() {
    let t = tracer();
    let mut pauses = 0;
    for cfg in flowsched_configs(DRIFT_DIV) {
        let ours = run_flowsched(&cfg, Jitter::none(), &t);
        let theirs = experiments::flowsched::run(&cfg);
        let label = cfg.scheme.label();
        assert_eq!(ours.counters.events, theirs.events, "{label}: events");
        assert_eq!(
            ours.counters.pfc_pauses, theirs.pfc_pauses,
            "{label}: pauses"
        );
        assert_eq!(ours.counters.drops, theirs.drops, "{label}: drops");
        assert_eq!(ours.completion, theirs.completion, "{label}: completion");
        let finished = theirs.flows.iter().filter(|f| f.fct_us.is_some()).count() as u64;
        assert_eq!(ours.flows_finished, finished, "{label}: finished");
        assert_eq!(
            Some(ours.fct_p99_us),
            theirs.p99_fct_us(|_| true),
            "{label}: p99 FCT"
        );
        pauses += theirs.pfc_pauses;
    }
    assert!(pauses > 0, "the PFC workload no longer pauses");
}

#[test]
fn coflow_composition_matches_the_experiment_harness() {
    let t = tracer();
    let mut retransmits = 0;
    // Full horizon: the RTO path only fires once the large coflows arrive.
    for cfg in coflow_configs(1) {
        let ours = run_coflow(&cfg, Jitter::none(), &t);
        let theirs = experiments::coflowsched::run(&cfg);
        let label = cfg.scheme.label();
        assert_eq!(ours.completion, theirs.completion, "{label}: completion");
        assert_eq!(ours.counters.drops, theirs.drops, "{label}: drops");
        assert_eq!(ours.retransmits, theirs.retransmits, "{label}: retransmits");
        retransmits += theirs.retransmits;
    }
    assert!(retransmits > 0, "the lossy workload no longer retransmits");
}

#[test]
fn hyperscale_composition_matches_the_experiment_harness() {
    let cfg = hyperscale_config(DRIFT_DIV);
    let ours = run_hyperscale(&cfg, Jitter::none(), &tracer());
    let theirs = experiments::hyperscale::run(&cfg);
    assert_eq!(ours.counters.events, theirs.events);
    assert_eq!(ours.counters.flows_total, theirs.flows_total);
    assert_eq!(ours.flows_finished, theirs.finished);
    assert_eq!(ours.counters.flows_reclaimed, theirs.flows_reclaimed);
    assert_eq!(ours.fct_p99_us, theirs.fct_us.p99);
    assert_eq!(ours.top_class_fct_p99_us, theirs.fct_top_class_us.p99);
}
