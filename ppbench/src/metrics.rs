//! Every metric the benchmark reports, by name, with its unit and
//! direction — the single list behind `BENCHMARK.json` (`ppbench describe`
//! prints the file; `tests/smoke.rs` pins the committed copy to it), the
//! printed tables and `ppbench compare`.

use crate::json::Json;
use crate::kernels;
use crate::scenarios::Workload;

/// An end-to-end metric: host time or memory a user of the simulator sees.
///
/// Its reported value is the **median over the reps** of a run; first and
/// third quartile, minimum and sample count are stored beside it.
pub struct EndToEnd {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

impl EndToEnd {
    /// Lower is better.
    pub fn lower_is_better(&self) -> bool {
        self.better == "lower"
    }

    /// Share of the parent's median by which the metric may worsen,
    /// derived from the committed calibration.
    pub fn bound(&self) -> f64 {
        let calibration = Json::parse(CALIBRATION).expect("CALIBRATION.json parses");
        bound_from(&calibration, self.name)
    }
}

/// The five end-to-end metrics.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: "lower",
    },
    EndToEnd {
        name: "events_per_s",
        unit: "events/s",
        better: "higher",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        better: "lower",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
    },
];

/// How long one run measures one workload: `run_seconds` of the contract
/// file, the default of `--seconds`, and what `calibrate` uses.
pub const RUN_SECONDS: u64 = 25;

/// The noise floor `ppbench calibrate` measured with the contract's own
/// command, as committed.
const CALIBRATION: &str = include_str!("../CALIBRATION.json");

/// No bound is tighter than the 5 % the issue set out with; the contract
/// allows no more than 25 %.
const BOUND_RANGE: (f64, f64) = (0.05, 0.25);

/// A difference in `setup_s` below this many seconds is never a regression
/// (`compare`); set-up takes 0.3–6 ms, where a page fault is a few percent.
pub const SETUP_FLOOR_S: f64 = 0.001;

/// The bound a measured spread supports: three times the spread (a checker
/// wants the spread below a third of the bound), in whole percent, inside
/// [`BOUND_RANGE`].
pub fn bound_for_spread(worst_spread: f64) -> f64 {
    let percent = (300.0 * worst_spread - 1e-9).ceil();
    (percent / 100.0).clamp(BOUND_RANGE.0, BOUND_RANGE.1)
}

/// The widest spread a calibration file records for `metric`: over every
/// workload, the run-to-run spread of each pass (interquartile range ÷
/// median) and the drift of the median between passes.
pub fn worst_spread(calibration: &Json, metric: &str) -> Option<f64> {
    let noise = calibration.get("noise")?.as_obj()?;
    let mut worst: Option<f64> = None;
    for (_, metrics) in noise {
        let m = metrics.get(metric)?;
        let drift = m.get("pass_drift_frac")?.as_f64()?.abs();
        let spreads = m.get("iqr_frac")?.as_arr()?.iter().filter_map(Json::as_f64);
        worst = spreads.chain([drift]).fold(worst, |w, v| Some(w.map_or(v, |w| w.max(v))));
    }
    worst
}

/// The bound of `metric` under `calibration`. `setup_s` is a few hundred
/// microseconds to a few milliseconds, so it carries the largest bound
/// whatever a quiet calibration saw; a metric the file does not cover does
/// too.
pub fn bound_from(calibration: &Json, metric: &str) -> f64 {
    match worst_spread(calibration, metric) {
        Some(w) if metric != "setup_s" => bound_for_spread(w),
        _ => BOUND_RANGE.1,
    }
}

/// A per-layer metric.
pub struct PerLayer {
    /// `<layer>.<name>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Must repeat bit-for-bit across reps and invocations.
    pub exact: bool,
}

const fn span(name: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "s",
        better: "lower",
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: true,
    }
}

const fn timed(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: "lower",
        exact: false,
    }
}

/// Span self times, one per layer boundary the benchmark calls through.
pub const SPANS: [&str; 9] = [
    "workloads.generate_s",
    "netsim.topology_s",
    "netsim.sim_new_s",
    "netsim.add_flow_s",
    "netsim.pump_s",
    "netsim.finish_s",
    "netsim.digest_s",
    "experiments.fold_s",
    "bench.glue_s",
];

/// Name of the root span: the benchmark's own code between layer calls.
pub const ROOT_SPAN: &str = "bench.glue_s";

/// Every per-layer metric, in reporting order.
pub const PER_LAYER: [PerLayer; 53] = [
    span("workloads.generate_s"),
    span("netsim.topology_s"),
    span("netsim.sim_new_s"),
    span("netsim.add_flow_s"),
    span("netsim.pump_s"),
    span("netsim.finish_s"),
    span("netsim.digest_s"),
    span("experiments.fold_s"),
    span("bench.glue_s"),
    timed("bench.trace_overhead_frac", "frac"),
    timed("bench.wall_iqr_frac", "frac"),
    count("netsim.events", "count", "lower"),
    count("simcore.sched_pops", "count", "lower"),
    count("simcore.batch_avg", "events/pop", "higher"),
    count("netsim.arena_allocs", "count", "lower"),
    count("netsim.arena_slab_slots", "count", "lower"),
    count("netsim.arena_int_allocs", "count", "lower"),
    count("netsim.data_delivered", "count", "higher"),
    count("netsim.ecn_marks", "count", "lower"),
    count("netsim.pfc_pauses", "count", "lower"),
    count("netsim.drops", "count", "lower"),
    count("netsim.max_buffer_used", "B", "lower"),
    count("netsim.flows_total", "count", "higher"),
    count("netsim.flows_finished", "count", "higher"),
    count("netsim.flow_live_peak", "count", "lower"),
    count("transport.retransmits", "count", "lower"),
    count("prioplus.probes", "count", "lower"),
    timed("netsim.ns_per_event", "ns/event"),
    count("sim.fct_p50_us", "us", "lower"),
    count("sim.fct_p99_us", "us", "lower"),
    count("sim.top_class_fct_p99_us", "us", "lower"),
    // An identity, not a quantity: it has no better direction; compare
    // reports it as same or DIFFERENT.
    count("sim.fingerprint32", "id", "lower"),
    timed("simcore.sched.ns_per_push_pop", "ns/op"),
    timed("simcore.sched.ns_per_cancel", "ns/op"),
    timed("simcore.sketch.ns_per_add", "ns/op"),
    timed("netsim.arena.ns_per_alloc_release", "ns/op"),
    timed("netsim.switch.ns_per_hop", "ns/op"),
    timed("netsim.routing.ns_per_lookup", "ns/op"),
    timed("netsim.noise.ns_per_sample", "ns/op"),
    timed("transport.swift.ns_per_ack", "ns/op"),
    timed("transport.dctcp.ns_per_ack", "ns/op"),
    timed("transport.prioplus_swift.ns_per_ack", "ns/op"),
    timed("prioplus.ns_per_data_ack", "ns/op"),
    timed("workloads.ns_per_flow", "ns/op"),
    timed("simcore.sched.share", "frac"),
    timed("netsim.switch.share", "frac"),
    timed("netsim.arena.share", "frac"),
    timed("transport.share", "frac"),
    timed("netsim.pump_residual_share", "frac"),
    // Exact op counts the shares are computed from.
    count("netsim.switch_hops_est", "count", "lower"),
    count("transport.acks_swift", "count", "lower"),
    count("transport.acks_dctcp", "count", "lower"),
    count("transport.acks_prioplus_swift", "count", "lower"),
];

/// Unit of a metric of either kind.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
        .unwrap_or("")
}

/// Why each workload is in the benchmark (one line, ≤ 200 characters).
pub fn why(w: Workload) -> &'static str {
    match w {
        Workload::IncastPp => {
            "one switch hop, no routing, a few hundred pending events: transport on_ack/pacing, \
             the PrioPlus state machine and sparse scheduling dominate; forwarding does little"
        }
        Workload::FattreeFlowsched => {
            "the fig11/14/16 path: five-hop fat-tree under three queueing disciplines (1 queue, \
             8 queues with per-priority PFC, ECN marking): switch forwarding, ECMP and the arena dominate"
        }
        Workload::CoflowLossy => {
            "the fig12/17/18 path with PFC off: tail drop, RTO timers re-armed per ACK (scheduler \
             cancel path), hundreds of concurrent member flows, per-coflow folding"
        }
        Workload::HyperscaleOpenloop => {
            "k=8 fat-tree with streamed arrivals: tens of thousands of pending events, working set \
             beyond L2: dense calendar queue, route tables, sketches, lazy injection, slab reuse"
        }
    }
}

/// The contract file at the root of the repository.
pub fn benchmark_json() -> Json {
    debug_assert!(kernels::NAMES
        .iter()
        .all(|k| PER_LAYER.iter().any(|m| m.name == *k)));
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "ppbench/Cargo.toml",
        "--bin",
        "ppbench",
        "--",
        "run",
    ];
    Json::obj([
        (
            "command",
            Json::Arr(command.into_iter().map(Json::from).collect()),
        ),
        ("paths", Json::Arr(vec![Json::from("ppbench")])),
        ("run_seconds", Json::from(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                Workload::ALL
                    .into_iter()
                    .map(|w| {
                        Json::obj([("name", Json::from(w.name())), ("why", Json::from(why(w)))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::from(m.name)),
                            ("unit", Json::from(m.unit)),
                            ("better", Json::from(m.better)),
                            ("bound", Json::from(m.bound())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::from(m.name)),
                            ("unit", Json::from(m.unit)),
                            ("better", Json::from(m.better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(Workload::ALL.into_iter().map(Workload::name))
            .collect();
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        for n in &names {
            assert!(n.len() <= 64 && n.chars().all(ok), "{n}");
            assert!(n.chars().next().unwrap().is_ascii_alphanumeric(), "{n}");
        }
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "duplicate metric or workload name");

        let unit_ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
        for u in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(u.len() <= 16 && u.chars().all(unit_ok), "{u}");
        }
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound() >= 0.05 && m.bound() <= 0.25));
        assert!(Workload::ALL
            .into_iter()
            .all(|w| why(w).len() <= 200 && !why(w).contains('\n')));
        for k in kernels::NAMES.iter().chain(SPANS.iter()) {
            assert!(PER_LAYER.iter().any(|m| m.name == *k), "{k} not listed");
        }
    }

    #[test]
    fn bounds_follow_the_calibration() {
        assert_eq!(bound_for_spread(0.004), 0.05); // never below the floor
        assert_eq!(bound_for_spread(0.02), 0.06);
        assert_eq!(bound_for_spread(0.031), 0.10); // 9.3 % → whole percent, up
        assert_eq!(bound_for_spread(0.2), 0.25); // never above the cap

        let cal = Json::parse(
            r#"{"noise": {
                "a": {"wall_s": {"iqr_frac": [0.01, 0.02], "pass_drift_frac": 0.005},
                      "setup_s": {"iqr_frac": [0.01, 0.01], "pass_drift_frac": 0.0}},
                "b": {"wall_s": {"iqr_frac": [0.015, 0.01], "pass_drift_frac": -0.04},
                      "setup_s": {"iqr_frac": [0.01, 0.01], "pass_drift_frac": 0.0}}
            }}"#,
        )
        .unwrap();
        // The worst of every workload's spreads and drifts, either sign.
        assert_eq!(worst_spread(&cal, "wall_s"), Some(0.04));
        assert_eq!(bound_from(&cal, "wall_s"), 0.12);
        // Set-up time and anything uncalibrated carry the largest bound.
        assert_eq!(bound_from(&cal, "setup_s"), 0.25);
        assert_eq!(worst_spread(&cal, "cpu_s"), None);
        assert_eq!(bound_from(&cal, "cpu_s"), 0.25);
    }

    #[test]
    fn contract_file_has_exactly_the_contract_keys() {
        let j = benchmark_json();
        let keys: Vec<&str> = j
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert!(j.pretty().len() < 64 * 1024);
    }
}
