//! Golden-trace pinning: small deterministic scenarios whose integer
//! summaries (per-flow finish times, delivered bytes, retransmits, global
//! counters) are checked into `tests/golden/` and diffed by the tier-1
//! tests.
//!
//! The summaries are pure integers — no floats — so the files are stable
//! across platforms and rustc versions; any diff is a behavioral change of
//! the simulator, not formatting noise. Regenerate intentionally with
//! `GOLDEN_BLESS=1 cargo test -p experiments --test golden_traces --
//! --nocapture` (prints what it is about to change, by line kind).

use crate::micro::{testbed_env, Micro, MicroEnv};
use netsim::{NoiseModel, Sim, SimResult, SwitchConfig};
use simcore::Time;
use transport::{CcSpec, PrioPlusPolicy};

/// 64-bit FNV-1a digest, used to headline each golden file.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Per-run switches for a pinned scenario. None may change the summary:
/// the audit is observational and snapshot/resume is bit-exact — exactly
/// what the golden suite pins.
#[derive(Clone, Copy, Debug, Default)]
pub struct GoldenOpts {
    /// Enable the invariant audit.
    pub audit: bool,
    /// Interrupt the run at this horizon, snapshot, restore, and finish on
    /// the restored simulator ([`netsim::Sim::snapshot`] round-trip) —
    /// instead of running straight through.
    pub resume_at: Option<Time>,
}

impl GoldenOpts {
    /// Audit-only toggle.
    pub fn audited(audit: bool) -> Self {
        GoldenOpts {
            audit,
            ..Default::default()
        }
    }

    /// Snapshot/resume round-trip at `at`.
    pub fn resumed(at: Time) -> Self {
        GoldenOpts {
            resume_at: Some(at),
            ..Default::default()
        }
    }
}

/// Finish a fully-registered scenario according to `opts`: either run
/// straight through, or — when [`GoldenOpts::resume_at`] is set — advance
/// to the horizon, snapshot, rebuild from the snapshot, and run the
/// restored simulator to completion. Golden cases route every run through
/// this helper so the snapshot round-trip is pinned against the exact
/// scenarios the suite already pins.
pub fn finish(mut sim: Sim, opts: GoldenOpts) -> SimResult {
    match opts.resume_at {
        None => sim.run(),
        Some(at) => {
            sim.run_until(at);
            let snap = sim.snapshot();
            drop(sim);
            Sim::restore(&snap).run()
        }
    }
}

/// One pinned scenario: a name (the golden file stem) and a runner.
pub struct Golden {
    /// Golden file stem under `tests/golden/`.
    pub name: &'static str,
    /// Build and run the scenario: one labelled result per simulation it
    /// consists of (a single one for all but the matrix case).
    pub run: fn(opts: GoldenOpts) -> Vec<(&'static str, SimResult)>,
}

/// All pinned scenarios.
pub fn cases() -> Vec<Golden> {
    vec![
        Golden {
            name: "fig10_staircase",
            run: staircase,
        },
        Golden {
            name: "fig13_nc_delay",
            run: nc_delay,
        },
        Golden {
            name: "lossy_dt_incast",
            run: lossy_incast,
        },
        Golden {
            name: "cc_matrix",
            run: cc_matrix,
        },
    ]
}

/// Fig 10a in miniature: 4 virtual priorities x 2 flows with staggered
/// starts over one PrioPlus+Swift bottleneck, testbed noise.
fn staircase(opts: GoldenOpts) -> Vec<(&'static str, SimResult)> {
    let mut m = Micro::build(&MicroEnv {
        senders: 8,
        end: Time::from_ms(10),
        trace: false,
        noise: NoiseModel::testbed(),
        seed: 3,
        ..Default::default()
    });
    if opts.audit {
        m.sim.enable_audit();
    }
    let cc = CcSpec::PrioPlusSwift {
        policy: PrioPlusPolicy::paper_default(4),
    };
    for p in 0..4u8 {
        let start = Time::from_ms(p as u64);
        for f in 0..2usize {
            let sender = 1 + (p as usize * 2 + f);
            m.add_flow(sender, 400_000 * (p as u64 + 1), start, 0, p, &cc);
        }
    }
    vec![("", finish(m.sim, opts))]
}

/// Fig 13 in miniature: the testbed environment with 10 µs of uniform
/// non-congestive delay at the bottleneck; PrioPlus widened to tolerate it.
fn nc_delay(opts: GoldenOpts) -> Vec<(&'static str, SimResult)> {
    let mut env = testbed_env();
    env.end = Time::from_ms(8);
    env.trace = false;
    env.seed = 5;
    env.switch.nc_delay = Some(NoiseModel::Uniform {
        range_ps: Time::from_us(10).as_ps(),
    });
    let mut m = Micro::build(&env);
    if opts.audit {
        m.sim.enable_audit();
    }
    let policy = PrioPlusPolicy {
        noise: Time::from_us(10),
        ..PrioPlusPolicy::paper_default(4)
    };
    let cc = CcSpec::PrioPlusSwift { policy };
    for (i, prio) in [1u8, 3].iter().enumerate() {
        for f in 0..2usize {
            let sender = 1 + (i * 2 + f);
            m.add_flow(
                sender,
                500_000,
                Time::from_ms(i as u64),
                0,
                *prio,
                &cc,
            );
        }
    }
    vec![("", finish(m.sim, opts))]
}

/// Lossy-mode incast: a small shared buffer forces Dynamic-Threshold drops
/// and Swift retransmissions, pinning the DT/drop/RTO paths.
fn lossy_incast(opts: GoldenOpts) -> Vec<(&'static str, SimResult)> {
    let mut m = Micro::build(&MicroEnv {
        senders: 8,
        end: Time::from_ms(10),
        trace: false,
        seed: 9,
        switch: SwitchConfig {
            pfc_enabled: false,
            buffer_bytes: 200_000,
            ..Default::default()
        },
        ..Default::default()
    });
    if opts.audit {
        m.sim.enable_audit();
    }
    let cc = CcSpec::Swift {
        queuing: Time::from_us(4),
        scaling: false,
    };
    for s in 1..=8 {
        m.add_flow(s, 500_000, Time::ZERO, 0, 0, &cc);
    }
    vec![("", finish(m.sim, opts))]
}

/// One lossy, ECN-marking, INT-enabled incast per [`CcSpec`] variant: the
/// 200 KB buffer tail-drops whole windows, so every transport's NACK and
/// RTO recovery — and its window reaction to a timeout — is pinned, not
/// only Swift's.
fn cc_matrix(opts: GoldenOpts) -> Vec<(&'static str, SimResult)> {
    let queuing = Time::from_us(4);
    let policy = PrioPlusPolicy::paper_default(4);
    let ccs: [(&'static str, CcSpec); 9] = [
        (
            "swift",
            CcSpec::Swift {
                queuing,
                scaling: false,
            },
        ),
        ("prioplus-swift", CcSpec::PrioPlusSwift { policy }),
        ("ledbat", CcSpec::Ledbat { queuing }),
        ("prioplus-ledbat", CcSpec::PrioPlusLedbat { policy }),
        (
            "dctcp",
            CcSpec::D2tcp {
                deadline_factor: None,
            },
        ),
        (
            "d2tcp",
            CcSpec::D2tcp {
                deadline_factor: Some(2.0),
            },
        ),
        (
            "swift-weighted",
            CcSpec::SwiftWeighted {
                queuing,
                weight: 2.0,
            },
        ),
        ("hpcc", CcSpec::Hpcc),
        ("blast", CcSpec::Blast),
    ];
    ccs.into_iter()
        .map(|(label, cc)| {
            let mut m = Micro::build(&MicroEnv {
                senders: 8,
                end: Time::from_ms(10),
                trace: false,
                seed: 13,
                switch: SwitchConfig {
                    pfc_enabled: false,
                    buffer_bytes: 200_000,
                    ecn_kmin: 20_000,
                    ecn_kmax: 80_000,
                    int_enabled: true,
                    ..Default::default()
                },
                ..Default::default()
            });
            if opts.audit {
                m.sim.enable_audit();
            }
            for s in 1..=8usize {
                // Two virtual priorities, so the PrioPlus rows also pin
                // suspension and probing under loss; the two-packet flows
                // arrive into the full queue and lose their whole window,
                // which only a timeout recovers.
                let prio = (s % 2) as u8 * 3;
                m.add_flow(s, 1_000_000, Time::ZERO, 0, prio, &cc);
                m.add_flow(s, 2_000, Time::from_us(4), 0, prio, &cc);
            }
            let res = finish(m.sim, opts);
            let rtx: u64 = res.records.iter().map(|r| r.retransmits).sum();
            assert!(
                res.counters.drops > 0 && rtx > 0,
                "cc_matrix/{label}: the run must lose and retransmit packets \
                 (drops {}, retransmits {rtx})",
                res.counters.drops
            );
            (label, res)
        })
        .collect()
}

/// The pinned text of one golden case: its run's [`summarize`] output, or,
/// for a case of several runs, each under a `== label ==` header.
pub fn summarize_case(runs: &[(&'static str, SimResult)]) -> String {
    match runs {
        [(_, only)] => summarize(only),
        many => many
            .iter()
            .map(|(label, res)| format!("== {label} ==\n{}", summarize(res)))
            .collect(),
    }
}

/// Render the integer summary that gets pinned: one line per flow plus the
/// global counters, digest in the header.
pub fn summarize(res: &SimResult) -> String {
    let mut body = String::new();
    for r in &res.records {
        body.push_str(&format!(
            "flow {} src={} dst={} size={} prio={}/{} finish_ps={} delivered={} rtx={}\n",
            r.flow,
            r.src,
            r.dst,
            r.size,
            r.phys_prio,
            r.virt_prio,
            // simlint::allow(lossy-time-cast, ps counts fit i64 for any sim horizon; -1 is the censored-flow sentinel)
            r.finish.map(|t| t.as_ps() as i64).unwrap_or(-1),
            r.delivered,
            r.retransmits,
        ));
    }
    let c = &res.counters;
    body.push_str(&format!(
        "counters events={} data_delivered={} pfc_pauses={} pfc_resumes={} \
         drops={} ecn_marks={} probes={} max_buffer_used={}\n",
        c.events,
        c.data_delivered,
        c.pfc_pauses,
        c.pfc_resumes,
        c.drops,
        c.ecn_marks,
        c.probes,
        c.max_buffer_used,
    ));
    format!("digest fnv1a64={:016x}\n{}", fnv1a64(body.as_bytes()), body)
}
