//! The measurement protocol: one workload at a time, one fresh child
//! process per rep until `--seconds` have passed, every metric the median
//! over reps.
//!
//! Users pay process start and cold caches on every figure binary, so both
//! are inside a rep. The simulator is a batch program, so each rep is a
//! closed loop with one client: the next child starts when the previous
//! one has exited, and nothing else runs meanwhile. Whoever runs several
//! workloads or commits against each other interleaves the invocations
//! (README, "Why process-per-rep, interleaved invocations, and the median").

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use crate::json::Json;
use crate::kernels;
use crate::metrics::{unit_of, END_TO_END, PER_LAYER, ROOT_SPAN, SPANS};
use crate::rep::RepRecord;
use crate::scenarios::Workload;
use crate::span::{self_time_by_name, Span};
use crate::stats::{median, Summary};

/// Environment variables that change what the simulator does; a child
/// never inherits them.
pub const SCRUBBED_ENV: [&str; 5] = [
    "PRIOPLUS_SCHED",
    "PRIOPLUS_JOBS",
    "PRIOPLUS_AUDIT",
    "PRIOPLUS_AUDIT_PANIC",
    "PRIOPLUS_AUDIT_DEEP",
];

/// What to run.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Workloads, measured one after the other.
    pub workloads: Vec<Workload>,
    /// Input seed.
    pub seed: u64,
    /// Host seconds each workload is measured for: no rep starts later.
    pub seconds: f64,
    /// Divide every horizon and kernel op count by this (`--check`: 10).
    pub div: u64,
    /// Traced run: the kernels, then untraced and traced reps alternating.
    pub trace: bool,
    /// The `ppbench` executable to spawn children from.
    pub exe: PathBuf,
}

/// A workload gets at least this many reps however short `seconds` is: the
/// determinism check needs a second rep to compare with the first.
const MIN_REPS: usize = 2;

/// Spawn one child and wait for it. `Err` is a failed operation, with the
/// reason: a panic, a non-zero exit, or output that is not a rep record.
pub fn spawn_rep(
    exe: &Path,
    w: Workload,
    seed: u64,
    div: u64,
    traced: bool,
) -> Result<RepRecord, String> {
    let mut cmd = Command::new(exe);
    cmd.arg("rep")
        .args(["--workload", w.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--div", &div.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    for var in SCRUBBED_ENV {
        cmd.env_remove(var);
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
    if !out.status.success() {
        let stderr = String::from_utf8_lossy(&out.stderr);
        let last = stderr.lines().rev().find(|l| !l.trim().is_empty());
        return Err(format!(
            "child exited with {}: {}",
            out.status,
            last.unwrap_or("(no message)")
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("child printed nothing")?;
    RepRecord::from_json(&Json::parse(line)?)
}

/// What one workload measured.
#[derive(Clone, Debug)]
pub struct WorkloadResult {
    /// The workload.
    pub workload: Workload,
    /// Simulations attempted.
    pub ops_attempted: u64,
    /// Simulations that crashed, broke an invariant or were not
    /// deterministic.
    pub ops_failed: u64,
    /// Why operations failed, and any missing measurement.
    pub notes: Vec<String>,
    /// End-to-end metrics over the untraced reps: name → (summary, samples).
    pub end_to_end: Vec<(&'static str, Option<Summary>, Vec<f64>)>,
    /// Per-layer metrics (traced runs only): name → value.
    pub per_layer: Vec<(&'static str, Option<f64>)>,
    /// Exact counts of the reference rep (both kinds of run).
    pub counts: Vec<(String, f64)>,
    /// Spans of the traced reps, tagged with their rep index.
    pub spans: Vec<(usize, Span)>,
}

impl WorkloadResult {
    /// All operations passed and every metric has a value.
    pub fn correct(&self, trace: bool) -> bool {
        self.ops_failed == 0
            && self.ops_attempted > 0
            && self
                .end_to_end
                .iter()
                .all(|(_, s, _)| s.is_some_and(|s| s.median.is_finite()))
            && (!trace
                || self
                    .per_layer
                    .iter()
                    .all(|(_, v)| v.is_some_and(f64::is_finite)))
    }
}

/// One rep's sample of an end-to-end metric.
fn end_to_end_sample(name: &str, r: &RepRecord) -> Option<f64> {
    match name {
        "wall_s" => Some(r.wall_s),
        "events_per_s" => Some(r.events() as f64 / r.pump_s),
        "setup_s" => Some(r.setup_s),
        "cpu_s" => r.cpu_s,
        "peak_rss_mb" => r.peak_rss_mb,
        other => unreachable!("{other} is not an end-to-end metric"),
    }
}

/// Collects the reps of one workload as they come in.
struct Collector {
    workload: Workload,
    reference: Option<RepRecord>,
    untraced: Vec<RepRecord>,
    traced: Vec<RepRecord>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Collector {
    fn new(workload: Workload) -> Collector {
        Collector {
            workload,
            reference: None,
            untraced: Vec::new(),
            traced: Vec::new(),
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
        }
    }

    /// Account one rep. A rep with any failed simulation contributes no
    /// timing.
    fn add(&mut self, rep: usize, outcome: Result<RepRecord, String>) {
        let sims = self.workload.sims();
        self.attempted += sims;
        let rec = match outcome {
            Ok(rec) => rec,
            Err(why) => {
                self.failed += sims;
                self.notes.push(format!("rep {rep}: {why}"));
                return;
            }
        };
        let reference = self.reference.get_or_insert_with(|| rec.clone());
        let mut failed = 0;
        if rec.sims.len() as u64 != sims {
            failed = sims;
            self.notes.push(format!(
                "rep {rep}: {} simulations reported",
                rec.sims.len()
            ));
        }
        for (s, r) in rec.sims.iter().zip(&reference.sims) {
            let same = (s.events, s.fingerprint, s.digest) == (r.events, r.fingerprint, r.digest);
            if !same {
                self.notes.push(format!(
                    "rep {rep} {}: not deterministic (events {} vs {}, fingerprint {:08x} vs {:08x})",
                    s.label, s.events, r.events, s.fingerprint as u32, r.fingerprint as u32
                ));
            }
            for v in &s.violations {
                self.notes.push(format!("rep {rep} {}: {v}", s.label));
            }
            if !same || !s.violations.is_empty() {
                failed += 1;
            }
        }
        if failed == 0 && rec.counts != reference.counts {
            failed = sims;
            self.notes
                .push(format!("rep {rep}: exact counts differ from the first rep"));
        }
        self.failed += failed.min(sims);
        if failed == 0 {
            if rec.traced {
                self.traced.push(rec);
            } else {
                self.untraced.push(rec);
            }
        }
    }

    fn finish(mut self, kernels: Option<Vec<(&'static str, f64)>>) -> WorkloadResult {
        let mut end_to_end = Vec::with_capacity(END_TO_END.len());
        for m in &END_TO_END {
            let samples: Vec<f64> = self
                .untraced
                .iter()
                .filter_map(|r| end_to_end_sample(m.name, r))
                .collect();
            if samples.len() < self.untraced.len() {
                self.notes.push(format!(
                    "{}: not measurable here (/proc file absent)",
                    m.name
                ));
            }
            end_to_end.push((m.name, Summary::of(&samples), samples));
        }

        let per_layer = match kernels {
            Some(k) => self.per_layer(&k),
            None => Vec::new(),
        };
        let spans = self
            .traced
            .iter()
            .enumerate()
            .flat_map(|(i, r)| r.spans.iter().cloned().map(move |s| (i, s)))
            .collect();
        WorkloadResult {
            workload: self.workload,
            ops_attempted: self.attempted,
            ops_failed: self.failed,
            notes: self.notes,
            end_to_end,
            per_layer,
            counts: self.reference.map(|r| r.counts).unwrap_or_default(),
            spans,
        }
    }

    /// Per-layer metrics of a traced run, in [`PER_LAYER`] order.
    fn per_layer(&mut self, kernels: &[(&'static str, f64)]) -> Vec<(&'static str, Option<f64>)> {
        // Span self times: per traced rep, summed by name; median over reps.
        let per_rep: Vec<_> = self
            .traced
            .iter()
            .map(|r| self_time_by_name(&r.spans))
            .collect();
        let mut timed: Vec<(&'static str, Option<f64>)> = SPANS
            .into_iter()
            .map(|name| {
                let samples: Vec<f64> = per_rep
                    .iter()
                    .map(|by| by.get(name).copied().unwrap_or(0) as f64 / 1e9)
                    .collect();
                (name, median(&samples))
            })
            .collect();
        // Acceptance: the self times of a rep add up to its wall time.
        for (r, by) in self.traced.iter().zip(&per_rep) {
            let sum = by.values().sum::<u64>() as f64 / 1e9;
            if (sum - r.wall_s).abs() > 0.01 * r.wall_s {
                self.notes.push(format!(
                    "span self times sum to {sum:.6} s but the rep took {:.6} s",
                    r.wall_s
                ));
            }
            if !r.spans.first().is_some_and(|s| s.name == ROOT_SPAN) {
                self.notes.push("trace has no root span".to_string());
            }
        }
        let walls = |reps: &[RepRecord]| -> Vec<f64> { reps.iter().map(|r| r.wall_s).collect() };
        let untraced = Summary::of(&walls(&self.untraced));
        let traced = Summary::of(&walls(&self.traced));
        timed.push((
            "bench.trace_overhead_frac",
            untraced.zip(traced).map(|(u, t)| t.median / u.median - 1.0),
        ));
        timed.push(("bench.wall_iqr_frac", untraced.map(|u| u.iqr_frac())));

        let counts = self
            .reference
            .as_ref()
            .map(|r| r.counts.clone())
            .unwrap_or_default();
        let count = |name: &str| counts.iter().find(|(k, _)| k == name).map(|(_, v)| *v);
        let pump: Vec<f64> = self.traced.iter().map(|r| r.pump_s * 1e9).collect();
        let pump_ns = median(&pump);
        timed.push((
            "netsim.ns_per_event",
            pump_ns.zip(count("netsim.events")).map(|(p, e)| p / e),
        ));
        let kernel = |name: &str| kernels.iter().find(|(k, _)| *k == name).map(|(_, v)| *v);
        timed.extend(attribution(&count, &kernel, pump_ns));

        PER_LAYER
            .iter()
            .map(|m| {
                let v = match timed.iter().find(|(k, _)| *k == m.name) {
                    Some((_, v)) => *v,
                    None => count(m.name).or_else(|| kernel(m.name)),
                };
                (m.name, v)
            })
            .collect()
    }
}

/// Kernel ns/op × op counts taken from the run, as shares of the pump.
///
/// - scheduler: one push + pop per event, one cancel + re-arm per ACK;
/// - switch: one hop per estimated switch visit;
/// - arena: one alloc + release per packet that existed;
/// - transport: one ACK cycle per delivered data packet, by CC family,
///   less the timer re-arm already charged to the scheduler;
/// - residual: what no kernel explains — links, host NIC polling, ACK
///   generation, PFC frames, cache misses the warm kernels do not see. It
///   is whatever it is, and may be negative where kernels overestimate.
fn attribution(
    count: &dyn Fn(&str) -> Option<f64>,
    kernel: &dyn Fn(&str) -> Option<f64>,
    pump_ns: Option<f64>,
) -> Vec<(&'static str, Option<f64>)> {
    let share = || -> Option<[f64; 5]> {
        let pump = pump_ns?;
        let cancel = kernel("simcore.sched.ns_per_cancel")?;
        let acks: f64 = ["swift", "dctcp", "prioplus_swift"]
            .iter()
            .map(|cc| count(&format!("transport.acks_{cc}")))
            .sum::<Option<f64>>()?;
        let sched =
            kernel("simcore.sched.ns_per_push_pop")? * count("netsim.events")? + cancel * acks;
        let switch = kernel("netsim.switch.ns_per_hop")? * count("netsim.switch_hops_est")?;
        let arena = kernel("netsim.arena.ns_per_alloc_release")? * count("netsim.arena_allocs")?;
        let mut transport = 0.0;
        for cc in ["swift", "dctcp", "prioplus_swift"] {
            let per_ack = kernel(&format!("transport.{cc}.ns_per_ack"))?;
            transport += (per_ack - cancel).max(0.0) * count(&format!("transport.acks_{cc}"))?;
        }
        let parts = [sched / pump, switch / pump, arena / pump, transport / pump];
        let residual = 1.0 - parts.iter().sum::<f64>();
        Some([parts[0], parts[1], parts[2], parts[3], residual])
    };
    let s = share();
    [
        "simcore.sched.share",
        "netsim.switch.share",
        "netsim.arena.share",
        "transport.share",
        "netsim.pump_residual_share",
    ]
    .into_iter()
    .enumerate()
    .map(|(i, name)| (name, s.map(|s| s[i])))
    .collect()
}

/// A finished run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// What was asked for.
    pub options: RunOptions,
    /// Per workload, in the order asked for.
    pub workloads: Vec<WorkloadResult>,
}

/// Measure one workload for `o.seconds`.
fn measure(w: Workload, o: &RunOptions) -> WorkloadResult {
    let started = Instant::now();
    // The kernels cost the same every time, so they go first and the reps
    // get what is left of the budget.
    let kernels = o.trace.then(|| kernels::run_all(w, o.div));
    let mut c = Collector::new(w);
    let mut rep = 0;
    while rep < MIN_REPS || started.elapsed().as_secs_f64() < o.seconds {
        c.add(rep, spawn_rep(&o.exe, w, o.seed, o.div, false));
        if o.trace {
            c.add(rep, spawn_rep(&o.exe, w, o.seed, o.div, true));
        }
        rep += 1;
    }
    c.finish(kernels)
}

/// Run the protocol on every workload asked for.
pub fn run(options: RunOptions) -> RunResult {
    let workloads = options
        .workloads
        .iter()
        .map(|w| measure(*w, &options))
        .collect();
    RunResult { options, workloads }
}

fn git_rev() -> Option<String> {
    let out = Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

impl RunResult {
    /// The result file.
    pub fn to_json(&self) -> Json {
        let o = &self.options;
        Json::obj([
            ("schema", Json::from("ppbench-result-1")),
            ("git_rev", Json::from(git_rev())),
            (
                "nproc",
                Json::from(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
            ),
            ("seed", Json::from(o.seed)),
            ("seconds", Json::from(o.seconds)),
            ("horizon_div", Json::from(o.div)),
            ("trace", Json::from(o.trace)),
            (
                "workloads",
                Json::obj(self.workloads.iter().map(|w| {
                    let e2e = w.end_to_end.iter().map(|(name, s, samples)| {
                        (
                            *name,
                            Json::obj([
                                ("unit", Json::from(unit_of(name))),
                                ("value", Json::from(s.map(|s| s.median))),
                                ("q1", Json::from(s.map(|s| s.q1))),
                                ("q3", Json::from(s.map(|s| s.q3))),
                                ("min", Json::from(s.map(|s| s.min))),
                                ("n", Json::from(samples.len() as u64)),
                                (
                                    "samples",
                                    Json::Arr(samples.iter().map(|v| Json::from(*v)).collect()),
                                ),
                            ]),
                        )
                    });
                    let per_layer = w.per_layer.iter().map(|(name, v)| {
                        (
                            *name,
                            Json::obj([
                                ("unit", Json::from(unit_of(name))),
                                ("value", Json::from(*v)),
                            ]),
                        )
                    });
                    (
                        w.workload.name(),
                        Json::obj([
                            ("ops_attempted", Json::from(w.ops_attempted)),
                            ("ops_failed", Json::from(w.ops_failed)),
                            (
                                "notes",
                                Json::Arr(w.notes.iter().map(|n| Json::from(n.as_str())).collect()),
                            ),
                            ("end_to_end", Json::obj(e2e)),
                            ("per_layer", Json::obj(per_layer)),
                            (
                                "counts",
                                Json::obj(
                                    w.counts.iter().map(|(k, v)| (k.as_str(), Json::from(*v))),
                                ),
                            ),
                        ]),
                    )
                })),
            ),
        ])
    }

    /// Every metric by name with its unit, one table per workload.
    pub fn print(&self) {
        for w in &self.workloads {
            println!(
                "== {}  seed {}  ops {}/{} ok",
                w.workload.name(),
                self.options.seed,
                w.ops_attempted - w.ops_failed,
                w.ops_attempted
            );
            for (name, s, _) in &w.end_to_end {
                match s {
                    Some(s) => println!(
                        "  {name:<38} {:>14.6} {:<9} q1 {:.6}  q3 {:.6}  min {:.6}  n {}",
                        s.median,
                        unit_of(name),
                        s.q1,
                        s.q3,
                        s.min,
                        s.n
                    ),
                    None => println!("  {name:<38} {:>14} {}", "null", unit_of(name)),
                }
            }
            for (name, v) in &w.per_layer {
                match v {
                    Some(v) => println!("  {name:<38} {v:>14.6} {}", unit_of(name)),
                    None => println!("  {name:<38} {:>14} {}", "null", unit_of(name)),
                }
            }
            for n in &w.notes {
                println!("  note: {n}");
            }
        }
    }

    /// The checker's line for one workload: exactly `correct`, `attempted`,
    /// `failed`, `metrics` — the end-to-end metrics of a timed run, the
    /// per-layer metrics of a traced one.
    pub fn contract_line(&self, w: &WorkloadResult) -> Json {
        let metric = |name: &str, v: Option<f64>| {
            (
                name.to_string(),
                Json::obj([
                    ("value", Json::from(v)),
                    ("unit", Json::from(unit_of(name))),
                ]),
            )
        };
        let metrics: Vec<(String, Json)> = if self.options.trace {
            w.per_layer.iter().map(|(n, v)| metric(n, *v)).collect()
        } else {
            w.end_to_end
                .iter()
                .map(|(n, s, _)| metric(n, s.map(|s| s.median)))
                .collect()
        };
        Json::obj([
            ("correct", Json::from(w.correct(self.options.trace))),
            ("attempted", Json::from(w.ops_attempted)),
            ("failed", Json::from(w.ops_failed)),
            ("metrics", Json::Obj(metrics)),
        ])
    }

    /// The trace file of one workload: every span of every traced rep.
    pub fn trace_json(w: &WorkloadResult) -> Json {
        Json::obj([
            ("workload", Json::from(w.workload.name())),
            (
                "spans",
                Json::Arr(
                    w.spans
                        .iter()
                        .map(|(rep, s)| {
                            Json::obj([
                                ("rep", Json::from(*rep as u64)),
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rep::SimReport;

    fn rec(events: u64, wall_s: f64, violations: Vec<String>) -> RepRecord {
        RepRecord {
            workload: "incast_pp".into(),
            traced: false,
            wall_s,
            setup_s: 0.001,
            pump_s: wall_s * 0.9,
            cpu_s: Some(wall_s),
            peak_rss_mb: Some(10.0),
            sims: vec![SimReport {
                label: "PrioPlus+Swift".into(),
                events,
                fingerprint: events ^ 0xABCD,
                digest: 7,
                violations,
            }],
            counts: vec![("netsim.events".into(), events as f64)],
            spans: Vec::new(),
        }
    }

    #[test]
    fn failed_operations_are_counted_and_contribute_no_timing() {
        let mut c = Collector::new(Workload::IncastPp);
        c.add(0, Ok(rec(1000, 1.0, vec![])));
        c.add(1, Ok(rec(1000, 3.0, vec![])));
        c.add(2, Err("child exited with signal 6".into())); // crash
        c.add(3, Ok(rec(1001, 9.0, vec![]))); // not deterministic
        c.add(4, Ok(rec(1000, 9.0, vec!["12 drops with PFC on".into()])));
        let r = c.finish(None);
        assert_eq!((r.ops_attempted, r.ops_failed), (5, 3));
        assert_eq!(r.notes.len(), 3, "{:?}", r.notes);
        let (name, wall, samples) = &r.end_to_end[0];
        assert_eq!(*name, "wall_s");
        assert_eq!(samples, &vec![1.0, 3.0]);
        assert_eq!(wall.unwrap().median, 2.0);
        assert!(!r.correct(false));
    }

    #[test]
    fn missing_proc_file_is_null_with_a_note() {
        let mut c = Collector::new(Workload::IncastPp);
        let mut r = rec(1000, 1.0, vec![]);
        r.cpu_s = None;
        c.add(0, Ok(r));
        let r = c.finish(None);
        let cpu = r.end_to_end.iter().find(|(n, _, _)| *n == "cpu_s").unwrap();
        assert!(cpu.1.is_none());
        assert!(r.notes.iter().any(|n| n.contains("cpu_s")));
        assert!(!r.correct(false));
    }

    #[test]
    fn shares_and_residual_sum_to_one() {
        let count = |name: &str| {
            Some(match name {
                "netsim.events" => 8.0e6,
                "netsim.switch_hops_est" => 2.0e6,
                "netsim.arena_allocs" => 2.0e6,
                "transport.acks_prioplus_swift" => 1.0e6,
                _ => 0.0,
            })
        };
        let kernel = |name: &str| {
            Some(match name {
                "simcore.sched.ns_per_push_pop" => 40.0,
                "simcore.sched.ns_per_cancel" => 20.0,
                "netsim.switch.ns_per_hop" => 50.0,
                "netsim.arena.ns_per_alloc_release" => 10.0,
                "transport.prioplus_swift.ns_per_ack" => 120.0,
                _ => 30.0,
            })
        };
        let s = attribution(&count, &kernel, Some(2.0e9));
        let total: f64 = s.iter().map(|(_, v)| v.unwrap()).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert_eq!(
            s[0],
            ("simcore.sched.share", Some((320.0e6 + 20.0e6) / 2.0e9))
        );
        assert_eq!(s[3], ("transport.share", Some(100.0e6 / 2.0e9)));
        // No pump time, no shares — but still five named entries.
        assert!(attribution(&count, &kernel, None)
            .iter()
            .all(|(_, v)| v.is_none()));
    }
}
