//! `ppbench calibrate`: the benchmark's own noise floor, from which the
//! bounds in `BENCHMARK.json` are derived (`metrics::bound_from`).
//!
//! It does what a checker of this benchmark does, with the contract's own
//! command (`run --workload W --seed S --seconds RUN_SECONDS --trace 0`):
//! one run per workload for each of the seeds `1..=sets`, and that whole
//! pass [`PASSES`] times. Per workload × end-to-end metric it records every
//! run's value and
//!
//! - `iqr_frac`, per pass: interquartile range ÷ median of the pass's
//!   values — the spread a checker sees, which includes what another seed
//!   does to the metric;
//! - `pass_drift_frac`: how much worse the last pass's median is than the
//!   first's;
//! - `same_seed_repeat_frac`: median over seeds of |last ÷ first − 1| for
//!   the two runs of one seed — the simulator is deterministic per seed, so
//!   this is host noise alone.

use std::path::PathBuf;

use crate::compare::worse_by;
use crate::json::Json;
use crate::metrics::{bound_from, worst_spread, END_TO_END, RUN_SECONDS};
use crate::runner::{run, RunOptions};
use crate::scenarios::Workload;
use crate::stats::{median, Summary};

/// Passes over the seeds: a checker measures twice and compares medians.
const PASSES: usize = 2;

/// Run the calibration with seeds `1..=sets`; returns the file to commit
/// as `CALIBRATION.json`.
pub fn calibrate(sets: u64, exe: PathBuf) -> Json {
    // values[pass][workload][metric] = one value per seed
    let mut values =
        vec![vec![vec![Vec::<f64>::new(); END_TO_END.len()]; Workload::ALL.len()]; PASSES];
    let mut failed = 0u64;
    for (pass, by_workload) in values.iter_mut().enumerate() {
        for seed in 1..=sets {
            for (wi, w) in Workload::ALL.into_iter().enumerate() {
                let r = run(RunOptions {
                    workloads: vec![w],
                    seed,
                    seconds: RUN_SECONDS as f64,
                    div: 1,
                    trace: false,
                    exe: exe.clone(),
                });
                let wr = &r.workloads[0];
                failed += wr.ops_failed;
                for (mi, (_, s, _)) in wr.end_to_end.iter().enumerate() {
                    // A metric this host cannot measure stays out of the file.
                    by_workload[wi][mi].extend(s.map(|s| s.median));
                }
                eprintln!(
                    "calibrate: pass {pass} seed {seed} {:<20} wall_s {:.4} ({} reps)",
                    w.name(),
                    wr.end_to_end[0].1.map_or(f64::NAN, |s| s.median),
                    wr.end_to_end[0].2.len()
                );
            }
        }
    }

    let arr = |v: &[f64]| Json::Arr(v.iter().map(|v| Json::from(*v)).collect());
    let noise = Json::obj(Workload::ALL.into_iter().enumerate().map(|(wi, w)| {
        let metrics = Json::obj(END_TO_END.iter().enumerate().map(|(mi, m)| {
            let passes: Vec<&[f64]> = values.iter().map(|p| p[wi][mi].as_slice()).collect();
            let summaries: Vec<Summary> = passes.iter().filter_map(|v| Summary::of(v)).collect();
            let iqr: Vec<f64> = summaries.iter().map(Summary::iqr_frac).collect();
            let (first, last) = (passes[0], passes[PASSES - 1]);
            let drift = match (summaries.first(), summaries.last()) {
                (Some(a), Some(b)) => worse_by(a.median, b.median, m.lower_is_better()),
                _ => 0.0,
            };
            let repeats: Vec<f64> = first
                .iter()
                .zip(last)
                .map(|(a, b)| (b / a - 1.0).abs())
                .collect();
            (
                m.name,
                Json::obj([
                    ("unit", Json::from(m.unit)),
                    ("values", Json::Arr(passes.iter().map(|v| arr(v)).collect())),
                    ("iqr_frac", arr(&iqr)),
                    ("pass_drift_frac", Json::from(drift)),
                    ("same_seed_repeat_frac", Json::from(median(&repeats))),
                ]),
            )
        }));
        (w.name(), metrics)
    }));

    let mut file = vec![
        ("schema".to_string(), Json::from("ppbench-calibration-1")),
        (
            "protocol".to_string(),
            Json::from(format!(
                "run --workload W --seed 1..={sets} --seconds {RUN_SECONDS} --trace 0, \
                 workloads interleaved, {PASSES} passes"
            )),
        ),
        ("sets".to_string(), Json::from(sets)),
        ("passes".to_string(), Json::from(PASSES as u64)),
        (
            "nproc".to_string(),
            Json::from(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        ("ops_failed".to_string(), Json::from(failed)),
        ("noise".to_string(), noise),
    ];
    // What the rule in `metrics` makes of these numbers, for the reader;
    // the code derives it again from `noise` and never reads this block.
    let so_far = Json::Obj(file.clone());
    let bounds = Json::obj(END_TO_END.iter().map(|m| {
        (
            m.name,
            Json::obj([
                ("worst_spread", Json::from(worst_spread(&so_far, m.name))),
                ("bound", Json::from(bound_from(&so_far, m.name))),
            ]),
        )
    }));
    file.push(("bounds".to_string(), bounds));
    Json::Obj(file)
}
