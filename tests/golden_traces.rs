//! Golden-trace pinning: each scenario in [`experiments::golden`] must
//! reproduce its checked-in summary byte-for-byte, and must reproduce it
//! again with the invariant audit enabled (proving the audit is purely
//! observational) with zero violations.
//!
//! On an intentional behavior change, regenerate the files with
//! `GOLDEN_BLESS=1 cargo test -p experiments --test golden_traces --
//! --nocapture` and review the diff like any other code change: the run
//! prints, per file, how many `flow`, `counters` and `digest` lines it is
//! about to change (the report a mismatch fails with), so a re-bless that
//! moves no flow can be seen to be one.

use experiments::golden::{cases, summarize_case, GoldenOpts};
use simcore::Time;
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

fn blessing() -> bool {
    std::env::var_os("GOLDEN_BLESS").is_some_and(|v| v == "1")
}

/// What differs between a pinned summary and a fresh one: lines paired by
/// position and grouped by their first word (`flow`, `counters`, `digest`;
/// a `== label ==` header or a missing line is `other`), each under the
/// section it belongs to, below a one-line tally that names the counter
/// fields that moved. `None` when the two are equal.
fn drift_report(name: &str, want: &str, got: &str) -> Option<String> {
    const KINDS: [&str; 4] = ["flow", "counters", "digest", "other"];
    if want == got {
        return None;
    }
    fn first_word(line: &str) -> &str {
        line.split(' ').next().unwrap_or("")
    }
    let mut groups: [Vec<String>; 4] = Default::default();
    let mut fields = std::collections::BTreeSet::new();
    let mut section = "";
    let (mut want, mut got) = (want.lines(), got.lines());
    loop {
        let (w, g) = match (want.next(), got.next()) {
            (None, None) => break,
            (w, g) => (w.unwrap_or("<no line>"), g.unwrap_or("<no line>")),
        };
        if let Some(label) = g.strip_prefix("== ") {
            section = label.trim_end_matches(" ==");
        }
        if w == g {
            continue;
        }
        let kind = KINDS
            .iter()
            .position(|k| first_word(w) == *k && first_word(g) == *k)
            .unwrap_or(3);
        if KINDS[kind] == "counters" {
            let moved = w.split(' ').zip(g.split(' ')).filter(|(a, b)| a != b);
            fields.extend(moved.map(|(_, b)| b.split('=').next().unwrap_or(b)));
        }
        let tag = if section.is_empty() {
            String::new()
        } else {
            format!("[{section}] ")
        };
        groups[kind].push(format!("  {tag}- {w}\n  {tag}+ {g}"));
    }
    let fields: Vec<&str> = fields.into_iter().collect();
    let mut out = format!(
        "== {name}: {} flow, {} counters (fields: {}), {} digest, {} other lines changed ==",
        groups[0].len(),
        groups[1].len(),
        fields.join(" "),
        groups[2].len(),
        groups[3].len(),
    );
    for (kind, lines) in KINDS.iter().zip(&groups) {
        if !lines.is_empty() {
            out.push_str(&format!("\n {kind}:\n{}", lines.join("\n")));
        }
    }
    Some(out)
}

#[test]
fn golden_traces_match_the_pinned_summaries() {
    let dir = golden_dir();
    let mut mismatches = Vec::new();
    for case in cases() {
        let got = summarize_case(&(case.run)(GoldenOpts::default()));
        let path = dir.join(format!("{}.txt", case.name));
        let pinned = std::fs::read_to_string(&path);
        if blessing() {
            let drift = drift_report(case.name, pinned.as_deref().unwrap_or(""), &got);
            println!(
                "{}",
                drift.unwrap_or_else(|| format!("== {}: unchanged ==", case.name))
            );
            std::fs::create_dir_all(&dir).expect("create tests/golden");
            std::fs::write(&path, &got).expect("write golden file");
            continue;
        }
        let want = pinned.unwrap_or_else(|e| {
            panic!(
                "missing golden file {} ({e}); run with GOLDEN_BLESS=1 to create it",
                path.display()
            )
        });
        mismatches.extend(drift_report(case.name, &want, &got));
    }
    assert!(
        mismatches.is_empty(),
        "behavioral drift against golden traces \
         (GOLDEN_BLESS=1 regenerates after review):\n{}",
        mismatches.join("\n")
    );
}

/// The drift report groups by line kind, names the section and the moved
/// counter fields, and leaves equal lines out.
#[test]
fn drift_report_groups_the_lines_that_differ() {
    let pinned = "== a ==\ndigest fnv1a64=01\nflow 0 finish_ps=5 rtx=0\ncounters events=10 drops=2\n\
                  == b ==\ndigest fnv1a64=02\nflow 0 finish_ps=7 rtx=1\ncounters events=20 drops=0\n";
    assert_eq!(drift_report("same", pinned, pinned), None);
    let benign = pinned
        .replace("fnv1a64=02", "fnv1a64=03")
        .replace("events=20", "events=21");
    let report = drift_report("case", pinned, &benign).expect("two lines differ");
    assert!(
        report.starts_with(
            "== case: 0 flow, 1 counters (fields: events), 1 digest, 0 other lines changed =="
        ),
        "{report}"
    );
    assert!(
        report.contains("[b] + counters events=21 drops=0"),
        "{report}"
    );
    assert!(
        !report.contains("[a]"),
        "equal lines are left out: {report}"
    );
    let moved = pinned
        .replace("finish_ps=5", "finish_ps=6")
        .replace("drops=2", "drops=3");
    let report = drift_report("case", pinned, &moved).expect("two lines differ");
    assert!(
        report.contains("1 flow, 1 counters (fields: drops), 0 digest"),
        "{report}"
    );
    assert!(
        report.contains("[a] - flow 0 finish_ps=5 rtx=0"),
        "{report}"
    );
    let shorter = drift_report("case", pinned, "== a ==\n").expect("lines are missing");
    assert!(shorter.contains("7 other lines changed"), "{shorter}");
}

#[test]
fn golden_traces_are_identical_and_clean_under_audit() {
    for case in cases() {
        let plain = summarize_case(&(case.run)(GoldenOpts::default()));
        let runs = (case.run)(GoldenOpts::audited(true));
        assert_eq!(
            plain,
            summarize_case(&runs),
            "{}: enabling the audit changed the simulation",
            case.name
        );
        for (label, res) in &runs {
            let report = res.audit.as_ref().expect("audit enabled");
            assert_eq!(
                report.total_violations, 0,
                "{} {label}: audit violations {:?}",
                case.name, report.violations
            );
        }
    }
}

/// Snapshot/resume is bit-exact: interrupting each golden case mid-run,
/// snapshotting, and finishing on the restored simulator must reproduce
/// the uninterrupted summary byte-for-byte — at an early horizon (probing
/// the slow-start / PFC ramp) and a late one (deep steady state).
#[test]
fn golden_traces_survive_snapshot_resume() {
    for case in cases() {
        let straight = summarize_case(&(case.run)(GoldenOpts::default()));
        for at_ms in [1u64, 6] {
            let resumed = summarize_case(&(case.run)(GoldenOpts::resumed(Time::from_ms(at_ms))));
            assert_eq!(
                straight, resumed,
                "{}: snapshot/resume at {at_ms} ms changed the simulation",
                case.name
            );
        }
    }
}

/// The event queue holds no garbage: on the lossy cases, the most entries
/// it ever stored is bounded by what can be *live* at once —
///
/// `sched_pending_peak ≤ arena_peak_live + ports + k · flow_live_peak + c`
///
/// — a live packet has at most one `Arrive` pending and a port one
/// `PortFree`; `k` is the entries a flow can own: 1 for a plain sender (its
/// `FlowStart`, then the one RTO entry), 3 under PrioPlus (RTO entry, probe
/// timer, probe-RTO timer); `c` is a `HostPoke` per host plus `End`. The
/// right-hand side adds peaks reached at different instants (most of
/// `arena_peak_live` sits in the switch buffer with no entry at all), so it
/// is 109–140 above the measured peaks (367–434), and that margin is where
/// the few tombstones live: an RTO entry re-pushed because `rto()` shrank,
/// a cancelled probe timer. A timer re-armed on every ACK leaves one
/// tombstone per ACK an RTO deep instead and breaks it 4–5× over (2,265
/// against 535 on `lossy_dt_incast` at the commit before the lazy deadline).
#[test]
fn the_queue_holds_no_garbage_on_the_lossy_cases() {
    // `Micro` with 8 senders: 9 hosts on one switch, two egress ports a link.
    let (hosts, ports) = (9, 18);
    for case in cases() {
        if !["lossy_dt_incast", "cc_matrix"].contains(&case.name) {
            continue;
        }
        for (label, res) in (case.run)(GoldenOpts::default()) {
            let c = &res.counters;
            let k = if label.starts_with("prioplus") { 3 } else { 1 };
            let bound = c.arena_peak_live + ports + k * c.flow_live_peak + hosts + 1;
            assert!(
                c.sched_pending_peak <= bound,
                "{} {label}: the queue held {} entries at once, above {bound} = \
                 {} packets + {ports} ports + {k} x {} flows + {hosts} hosts + End",
                case.name,
                c.sched_pending_peak,
                c.arena_peak_live,
                c.flow_live_peak,
            );
        }
    }
}

/// The mechanism of the FIFO lanes as an exact count: the share of queue
/// pushes scheduled at a declared link delay, which never enter the
/// queue's heap. `Sim::new` declares each link's serialization and
/// propagation delays, so on every case whose links are plain it is nearly
/// all of them — what is left is RTO and pacing timers, flow starts, each
/// flow's short last packet and PFC frames. `fig13_nc_delay` is the bypass:
/// every data packet leaving the switch carries a random extra delay and
/// must miss, one push in eight. Drop a declaration in `Sim::new` and the
/// first bound fails; route a randomly delayed arrival into a lane and the
/// second does (and `prop_lanes` long before it).
///
/// (`sched_ops` is pushes plus pops, and all but the entries still pending
/// at `End` are popped, so half of it, rounded up, is the push count to
/// within `sched_pending_peak / 2` — under 0.6 % on every case.)
#[test]
fn lanes_carry_the_constant_delay_traffic() {
    for case in cases() {
        for (label, res) in (case.run)(GoldenOpts::default()) {
            let c = &res.counters;
            let pushes = c.sched_ops.div_ceil(2);
            assert!(c.sched_pending_peak * 80 < pushes, "{} {label}", case.name);
            let share = c.sched_lane_pushes as f64 / pushes as f64;
            let expected = if case.name == "fig13_nc_delay" {
                0.86..0.89 // measured 0.8735: 14,040 of 16,074
            } else {
                0.95..1.0 // measured 0.9816 (fig10_staircase) .. 0.9983
            };
            assert!(
                expected.contains(&share),
                "{} {label}: {} of {pushes} pushes ({share:.4}) went through a lane, expected {expected:?}",
                case.name,
                c.sched_lane_pushes,
            );
        }
    }
}
