//! One rep: what the child process measures and hands back to its parent.
//!
//! The child (`ppbench rep`) runs the workload's simulations once, checks
//! each simulation's own invariants, and prints a [`RepRecord`] as one JSON
//! line. The parent parses it, compares it with the workload's first rep
//! (determinism) and folds the timings into medians.

use std::rc::Rc;
use std::time::Instant;

use crate::json::Json;
use crate::metrics::ROOT_SPAN;
use crate::procstat;
use crate::scenarios::{combined_fingerprint, run_rep, CcKind, SimOutcome, Workload};
use crate::span::{Span, Tracer};

/// Per-simulation part of a rep record.
#[derive(Clone, Debug, PartialEq)]
pub struct SimReport {
    /// Scheme label.
    pub label: String,
    /// Events processed.
    pub events: u64,
    /// Result fingerprint.
    pub fingerprint: u64,
    /// `Sim::state_digest` when the pump stopped.
    pub digest: u64,
    /// Invariants of this simulation that did not hold (empty = passed).
    pub violations: Vec<String>,
}

/// Everything a child reports about one rep.
#[derive(Clone, Debug, PartialEq)]
pub struct RepRecord {
    /// Workload name.
    pub workload: String,
    /// Whether spans were recorded.
    pub traced: bool,
    /// Whole rep inside the child, host seconds.
    pub wall_s: f64,
    /// Set-up (everything before each simulation's pump), host seconds.
    pub setup_s: f64,
    /// Time inside the pump, host seconds.
    pub pump_s: f64,
    /// On-CPU seconds of the child.
    pub cpu_s: Option<f64>,
    /// Peak resident set of the child, MB.
    pub peak_rss_mb: Option<f64>,
    /// One entry per simulation.
    pub sims: Vec<SimReport>,
    /// Exact per-layer counts of the rep, by metric name.
    pub counts: Vec<(String, f64)>,
    /// Spans (traced reps only).
    pub spans: Vec<Span>,
}

impl RepRecord {
    /// Events of all simulations of the rep.
    pub fn events(&self) -> u64 {
        self.sims.iter().map(|s| s.events).sum()
    }
}

/// Invariants of one finished simulation; the strings name what broke.
pub fn violations(w: Workload, s: &SimOutcome) -> Vec<String> {
    let c = &s.counters;
    let mut out = Vec::new();
    let mut require = |ok: bool, what: String| {
        if !ok {
            out.push(what);
        }
    };
    require(
        s.flows_finished <= c.flows_total && c.flows_reclaimed <= s.flows_finished,
        format!(
            "flow accounting: reclaimed {} <= finished {} <= total {} does not hold",
            c.flows_reclaimed, s.flows_finished, c.flows_total
        ),
    );
    // A flow is live until its sender sees the last ACK, so everything not
    // reclaimed by the end was live when the pump stopped.
    require(
        c.flows_total - c.flows_reclaimed.min(c.flows_total) <= s.flows_unfinished,
        format!(
            "flow slab: {} flows never reclaimed but only {} live at the horizon",
            c.flows_total - c.flows_reclaimed.min(c.flows_total),
            s.flows_unfinished
        ),
    );
    require(
        c.arena_slab_slots == c.arena_peak_live,
        format!(
            "arena grew without a new live peak: {} slots, peak {}",
            c.arena_slab_slots, c.arena_peak_live
        ),
    );
    require(
        !s.pfc || c.drops == 0,
        format!("{} drops with PFC on", c.drops),
    );
    require(c.events > 0, "no events processed".to_string());
    if w == Workload::IncastPp {
        require(
            s.flows_finished == c.flows_total,
            format!(
                "incast finished {} of {} flows",
                s.flows_finished, c.flows_total
            ),
        );
    }
    out
}

/// Fold the simulations of one rep into the exact per-layer counts.
pub fn rep_counts(sims: &[SimOutcome]) -> Vec<(String, f64)> {
    let sum = |f: fn(&SimOutcome) -> u64| sims.iter().map(f).sum::<u64>() as f64;
    let max = |f: fn(&SimOutcome) -> u64| sims.iter().map(f).max().unwrap_or(0) as f64;
    let events = sum(|s| s.counters.events);
    let pops = sum(|s| s.counters.sched_pops);
    let allocs = sum(|s| s.counters.arena_allocs);
    // The FCT view is the PrioPlus configuration's (every workload has
    // one), so the three numbers describe one simulation.
    let pp = sims
        .iter()
        .find(|s| s.cc == CcKind::PrioPlusSwift)
        .unwrap_or(&sims[0]);
    let fp = combined_fingerprint(sims);
    let acks = |kind: CcKind| {
        sims.iter()
            .filter(|s| s.cc == kind)
            .map(|s| s.counters.data_delivered)
            .sum::<u64>() as f64
    };
    [
        ("netsim.events", events),
        ("simcore.sched_pops", pops),
        ("simcore.batch_avg", events / pops.max(1.0)),
        ("netsim.arena_allocs", allocs),
        (
            "netsim.arena_slab_slots",
            max(|s| s.counters.arena_slab_slots),
        ),
        (
            "netsim.arena_int_allocs",
            sum(|s| s.counters.arena_int_allocs),
        ),
        ("netsim.data_delivered", sum(|s| s.counters.data_delivered)),
        ("netsim.ecn_marks", sum(|s| s.counters.ecn_marks)),
        ("netsim.pfc_pauses", sum(|s| s.counters.pfc_pauses)),
        ("netsim.drops", sum(|s| s.counters.drops)),
        (
            "netsim.max_buffer_used",
            max(|s| s.counters.max_buffer_used),
        ),
        ("netsim.flows_total", sum(|s| s.counters.flows_total)),
        ("netsim.flows_finished", sum(|s| s.flows_finished)),
        ("netsim.flow_live_peak", max(|s| s.counters.flow_live_peak)),
        ("transport.retransmits", sum(|s| s.retransmits)),
        ("prioplus.probes", sum(|s| s.counters.probes)),
        ("sim.fct_p50_us", pp.fct_p50_us),
        ("sim.fct_p99_us", pp.fct_p99_us),
        ("sim.top_class_fct_p99_us", pp.top_class_fct_p99_us),
        ("sim.fingerprint32", (fp & 0xFFFF_FFFF) as f64),
        // Every packet costs one PortFree and one Arrive per link it
        // crosses, and crosses one link more than it visits switches;
        // timer and poke events are ignored, so this overestimates a little.
        (
            "netsim.switch_hops_est",
            ((events / 2.0).floor() - allocs).max(0.0),
        ),
        ("transport.acks_swift", acks(CcKind::Swift)),
        ("transport.acks_dctcp", acks(CcKind::Dctcp)),
        ("transport.acks_prioplus_swift", acks(CcKind::PrioPlusSwift)),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect()
}

/// Run one rep in this process. `origin` is the process's first instant:
/// users pay process start on every figure binary, so the rep starts there.
pub fn execute(w: Workload, seed: u64, div: u64, traced: bool, origin: Instant) -> RepRecord {
    let tracer = Rc::new(Tracer::new(traced, origin));
    let sims = tracer.span(ROOT_SPAN, || run_rep(w, seed, div, &tracer));
    let wall_s = origin.elapsed().as_secs_f64();
    let cpu_s = procstat::cpu_ns().map(|ns| ns as f64 / 1e9);
    let peak_rss_mb = procstat::peak_rss_kb().map(|kb| kb as f64 / 1024.0);
    let spans = Rc::try_unwrap(tracer)
        .unwrap_or_else(|_| panic!("arrival sources are dropped with their simulator"))
        .into_spans();
    RepRecord {
        workload: w.name().to_string(),
        traced,
        wall_s,
        setup_s: sims.iter().map(|s| s.setup_ns).sum::<u64>() as f64 / 1e9,
        pump_s: sims.iter().map(|s| s.pump_ns).sum::<u64>() as f64 / 1e9,
        cpu_s,
        peak_rss_mb,
        counts: rep_counts(&sims),
        sims: sims
            .iter()
            .map(|s| SimReport {
                label: s.label.to_string(),
                events: s.counters.events,
                fingerprint: s.fingerprint,
                digest: s.digest,
                violations: violations(w, s),
            })
            .collect(),
        spans,
    }
}

fn hex(v: u64) -> Json {
    Json::from(format!("{v:016x}"))
}

fn unhex(j: Option<&Json>) -> Result<u64, String> {
    j.and_then(Json::as_str)
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or_else(|| "rep record: bad hex field".to_string())
}

impl RepRecord {
    /// Serialize (one line with [`Json::compact`]).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::from(self.workload.as_str())),
            ("traced", Json::from(self.traced)),
            ("wall_s", Json::from(self.wall_s)),
            ("setup_s", Json::from(self.setup_s)),
            ("pump_s", Json::from(self.pump_s)),
            ("cpu_s", Json::from(self.cpu_s)),
            ("peak_rss_mb", Json::from(self.peak_rss_mb)),
            (
                "sims",
                Json::Arr(
                    self.sims
                        .iter()
                        .map(|s| {
                            Json::obj([
                                ("label", Json::from(s.label.as_str())),
                                ("events", Json::from(s.events)),
                                ("fingerprint", hex(s.fingerprint)),
                                ("digest", hex(s.digest)),
                                (
                                    "violations",
                                    Json::Arr(
                                        s.violations
                                            .iter()
                                            .map(|v| Json::from(v.as_str()))
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "counts",
                Json::obj(
                    self.counts
                        .iter()
                        .map(|(k, v)| (k.as_str(), Json::from(*v))),
                ),
            ),
            (
                "spans",
                Json::Arr(
                    self.spans
                        .iter()
                        .map(|s| {
                            Json::obj([
                                ("name", Json::from(s.name.as_str())),
                                ("start_ns", Json::from(s.start_ns)),
                                ("end_ns", Json::from(s.end_ns)),
                                ("parent", Json::from(s.parent.map(u64::from))),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Parse what [`Self::to_json`] wrote.
    pub fn from_json(j: &Json) -> Result<RepRecord, String> {
        let bad = |what: &str| format!("rep record: missing or malformed `{what}`");
        let num = |k: &str| j.get(k).and_then(Json::as_f64).ok_or_else(|| bad(k));
        let arr = |k: &str| j.get(k).and_then(Json::as_arr).ok_or_else(|| bad(k));
        let sims = arr("sims")?
            .iter()
            .map(|s| {
                Ok(SimReport {
                    label: s
                        .get("label")
                        .and_then(Json::as_str)
                        .ok_or_else(|| bad("label"))?
                        .to_string(),
                    events: s
                        .get("events")
                        .and_then(Json::as_u64)
                        .ok_or_else(|| bad("events"))?,
                    fingerprint: unhex(s.get("fingerprint"))?,
                    digest: unhex(s.get("digest"))?,
                    violations: s
                        .get("violations")
                        .and_then(Json::as_arr)
                        .ok_or_else(|| bad("violations"))?
                        .iter()
                        .filter_map(|v| v.as_str().map(str::to_string))
                        .collect(),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let counts = j
            .get("counts")
            .and_then(Json::as_obj)
            .ok_or_else(|| bad("counts"))?
            .iter()
            .map(|(k, v)| Ok((k.clone(), v.as_f64().ok_or_else(|| bad(k))?)))
            .collect::<Result<Vec<_>, String>>()?;
        let spans = arr("spans")?
            .iter()
            .map(|s| {
                Ok(Span {
                    name: s
                        .get("name")
                        .and_then(Json::as_str)
                        .ok_or_else(|| bad("span name"))?
                        .to_string(),
                    start_ns: s
                        .get("start_ns")
                        .and_then(Json::as_u64)
                        .ok_or_else(|| bad("start_ns"))?,
                    end_ns: s
                        .get("end_ns")
                        .and_then(Json::as_u64)
                        .ok_or_else(|| bad("end_ns"))?,
                    parent: s.get("parent").and_then(Json::as_u64).map(|p| p as u32),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(RepRecord {
            workload: j
                .get("workload")
                .and_then(Json::as_str)
                .ok_or_else(|| bad("workload"))?
                .to_string(),
            traced: j
                .get("traced")
                .and_then(Json::as_bool)
                .ok_or_else(|| bad("traced"))?,
            wall_s: num("wall_s")?,
            setup_s: num("setup_s")?,
            pump_s: num("pump_s")?,
            cpu_s: j.get("cpu_s").and_then(Json::as_f64),
            peak_rss_mb: j.get("peak_rss_mb").and_then(Json::as_f64),
            sims,
            counts,
            spans,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rep_record_round_trips_through_one_json_line() {
        let rec = RepRecord {
            workload: "coflow_lossy".into(),
            traced: true,
            wall_s: 2.534_117_9,
            setup_s: 0.004_211,
            pump_s: 2.41,
            cpu_s: Some(2.52),
            peak_rss_mb: None,
            sims: vec![SimReport {
                label: "Swift (no prio)".into(),
                events: 3_141_592,
                fingerprint: 0xDEAD_BEEF_0123_4567,
                digest: u64::MAX,
                violations: vec!["12 drops with PFC on".into()],
            }],
            counts: vec![
                ("netsim.events".into(), 3_141_592.0),
                ("simcore.batch_avg".into(), 1.17),
            ],
            spans: vec![
                Span {
                    name: "bench.glue_s".into(),
                    start_ns: 12,
                    end_ns: 2_534_117_900,
                    parent: None,
                },
                Span {
                    name: "netsim.pump_s".into(),
                    start_ns: 4_211_000,
                    end_ns: 2_414_211_000,
                    parent: Some(0),
                },
            ],
        };
        let line = rec.to_json().compact();
        assert!(!line.contains('\n'));
        let back = RepRecord::from_json(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(back, rec);
        assert_eq!(back.events(), 3_141_592);
        assert!(RepRecord::from_json(&Json::parse("{}").unwrap()).is_err());
    }
}
