//! Fault-regime comparison scenario: how congestion-control schemes hold
//! virtual-priority ordering when the fabric misbehaves.
//!
//! An 8-sender incast over four virtual priorities runs under three
//! regimes — fault-free, seed-driven bottleneck link flaps
//! ([`netsim::FaultSchedule::random_flaps`]), and periodic PFC pause
//! storms on the bottleneck egress. The scenario reports completion, FCT
//! slowdowns and the number of *priority inversions* (pairs where the
//! higher virtual-priority flow ends up with the larger slowdown) so
//! EXPERIMENTS.md can table PrioPlus against priority-blind baselines
//! under failure.

use netsim::{FaultSchedule, Sim, SimResult};
use simcore::Time;
use transport::{CcSpec, PrioPlusPolicy};

use crate::micro::{Micro, MicroEnv};

/// Virtual priorities used by the scenario (flow `i` gets `i % PRIOS`).
pub const PRIOS: u8 = 4;
/// Sender hosts (the switch is node `SENDERS + 1`, its port 0 faces the
/// receiver).
pub const SENDERS: usize = 8;

/// Which fault regime to apply to the incast.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultRegime {
    /// Fault-free reference.
    None,
    /// Seed-driven flaps of the bottleneck link (MTBF 600 µs, MTTR
    /// 60 µs): in-flight loss plus repeated blackout epochs.
    Flap,
    /// Periodic 100 µs pause storms pinning the bottleneck egress every
    /// 400 µs: lossless stalls without packet loss.
    Storm,
}

impl FaultRegime {
    /// All regimes, table order.
    pub const ALL: [FaultRegime; 3] = [FaultRegime::None, FaultRegime::Flap, FaultRegime::Storm];

    /// Row label.
    pub fn name(self) -> &'static str {
        match self {
            FaultRegime::None => "none",
            FaultRegime::Flap => "flap",
            FaultRegime::Storm => "storm",
        }
    }

    /// The fault schedule for this regime on `switch` node's port 0
    /// (the bottleneck) over `[0, horizon)`.
    pub fn schedule(self, switch: u32, horizon: Time, seed: u64) -> Option<FaultSchedule> {
        match self {
            FaultRegime::None => None,
            FaultRegime::Flap => Some(FaultSchedule::random_flaps(
                &[(switch, 0)],
                seed,
                horizon,
                Time::from_us(600),
                Time::from_us(60),
            )),
            FaultRegime::Storm => {
                let mut sched = FaultSchedule::new();
                let mut t = Time::from_us(100);
                while t < horizon {
                    sched.pause_storm(switch, 0, 0, t, t + Time::from_us(100));
                    t += Time::from_us(400);
                }
                Some(sched)
            }
        }
    }
}

/// Congestion-control schemes compared by the scenario.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultCc {
    /// PrioPlus over Swift (virtual priorities active).
    PrioPlus,
    /// DCTCP (priority-blind ECN baseline).
    Dctcp,
}

impl FaultCc {
    /// All schemes, table order.
    pub const ALL: [FaultCc; 2] = [FaultCc::PrioPlus, FaultCc::Dctcp];

    /// Row label.
    pub fn name(self) -> &'static str {
        match self {
            FaultCc::PrioPlus => "prioplus-swift",
            FaultCc::Dctcp => "dctcp",
        }
    }

    /// The transport spec.
    pub fn spec(self) -> CcSpec {
        match self {
            FaultCc::PrioPlus => CcSpec::PrioPlusSwift {
                policy: PrioPlusPolicy::paper_default(PRIOS),
            },
            FaultCc::Dctcp => CcSpec::D2tcp {
                deadline_factor: None,
            },
        }
    }
}

/// Aggregated outcome of one (scheme, regime) cell.
#[derive(Clone, Debug)]
pub struct FaultOutcome {
    /// Fraction of flows that finished within the horizon.
    pub completion: f64,
    /// Mean FCT slowdown over finished flows.
    pub mean_slowdown: f64,
    /// Worst FCT slowdown over finished flows.
    pub max_slowdown: f64,
    /// Priority inversions: finished pairs where the strictly higher
    /// virtual-priority flow has the strictly larger slowdown.
    pub inversions: usize,
    /// Pairs compared (finished pairs with distinct virtual priorities).
    pub pairs: usize,
    /// Fault transitions applied.
    pub fault_events: u64,
    /// Data + control packets dropped on dead links.
    pub fault_drops: u64,
}

/// Count priority inversions over the finished flows of `res`: for every
/// pair with distinct virtual priorities, the higher-priority flow
/// should not have the strictly larger slowdown.
pub fn count_inversions(res: &SimResult) -> (usize, usize) {
    let done: Vec<(u8, f64)> = res
        .finished()
        .filter_map(|r| Some((r.virt_prio, r.slowdown_auto()?)))
        .collect();
    let mut inversions = 0;
    let mut pairs = 0;
    for (i, &(pi, si)) in done.iter().enumerate() {
        for &(pj, sj) in &done[i + 1..] {
            if pi == pj {
                continue;
            }
            pairs += 1;
            let (hi, lo) = if pi > pj { (si, sj) } else { (sj, si) };
            if hi > lo {
                inversions += 1;
            }
        }
    }
    (inversions, pairs)
}

/// Build one (scheme, regime) cell, flows registered and not yet run: an
/// 8-sender, four-virtual-priority incast of 2 MB flows (≈ 1.3 ms of
/// bottleneck work, so the incast stays active across several fault
/// cycles) with the regime's schedule installed.
pub fn prepare(cc: FaultCc, regime: FaultRegime, seed: u64) -> Sim {
    let horizon = Time::from_ms(10);
    let switch = SENDERS as u32 + 1;
    let mut m = Micro::build(&MicroEnv {
        senders: SENDERS,
        end: horizon,
        seed,
        faults: regime.schedule(switch, Time::from_ms(4), seed),
        ..Default::default()
    });
    let spec = cc.spec();
    for s in 1..=SENDERS {
        let virt = ((s - 1) % PRIOS as usize) as u8;
        m.add_flow(s, 2_000_000, Time::ZERO, 0, virt, &spec);
    }
    m.sim
}

/// Run one (scheme, regime) cell ([`prepare`]) and fold its outcome.
pub fn run_cell(cc: FaultCc, regime: FaultRegime, seed: u64) -> FaultOutcome {
    let res = prepare(cc, regime, seed).run();
    let slowdowns: Vec<f64> = res.finished().filter_map(|r| r.slowdown_auto()).collect();
    let (inversions, pairs) = count_inversions(&res);
    FaultOutcome {
        completion: res.completion_rate(),
        mean_slowdown: slowdowns.iter().sum::<f64>() / slowdowns.len().max(1) as f64,
        max_slowdown: slowdowns.iter().copied().fold(0.0, f64::max),
        inversions,
        pairs,
        fault_events: res.counters.fault_events,
        fault_drops: res.counters.fault_link_drops + res.counters.fault_ctrl_drops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regimes_produce_schedules_with_matched_transitions() {
        let horizon = Time::from_ms(4);
        assert!(FaultRegime::None.schedule(9, horizon, 1).is_none());
        for regime in [FaultRegime::Flap, FaultRegime::Storm] {
            let sched = regime.schedule(9, horizon, 1).expect("schedule");
            assert!(!sched.is_empty(), "{}: empty schedule", regime.name());
            assert_eq!(
                sched.len() % 2,
                0,
                "{}: unpaired transitions",
                regime.name()
            );
        }
    }

    #[test]
    fn fault_free_cell_completes_without_inversions_blowing_up() {
        let out = run_cell(FaultCc::PrioPlus, FaultRegime::None, 1);
        assert_eq!(out.completion, 1.0);
        assert_eq!(out.fault_events, 0);
        assert!(out.pairs > 0, "distinct-priority pairs must exist");
    }

    #[test]
    fn flap_cell_applies_faults_and_still_completes() {
        let out = run_cell(FaultCc::Dctcp, FaultRegime::Flap, 1);
        assert!(out.fault_events > 0, "flap regime must apply transitions");
        assert!(out.fault_drops > 0, "flap regime must drop in-flight data");
        assert_eq!(out.completion, 1.0, "retransmission must recover");
    }
}
