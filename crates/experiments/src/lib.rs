//! Experiment harness for the PrioPlus reproduction.
//!
//! Every paper figure/table is a value in [`registry::FIGURES`], run by the
//! one binary `repro` (`repro list | run <name>… | all`); the figure bodies
//! live in `src/figures/` on top of the shared scenario runners:
//!
//! - [`micro`]: single-bottleneck micro-benchmarks (§3 motivation, §5
//!   testbed, §6.1);
//! - [`flowsched`]: the fat-tree WebSearch flow-scheduling scenario
//!   (Fig 11, 16) and the fat-tree Fig 14 runs on too;
//! - [`coflowsched`]: the coflow + file-request scenario (Fig 12ab, 15,
//!   17, 18) and the leaf–spine [`mltrain`] runs on too;
//! - [`mltrain`]: the ring all-reduce ML-cluster scenario (Fig 12c);
//! - [`probe`]: port probes and per-flow goodput meters that read any of
//!   them mid-run, from outside the simulator;
//! - [`faults`]: the fault-regime comparison (link flaps and PFC pause
//!   storms vs the fault-free reference, FCT + priority inversions);
//! - [`hyperscale`]: the hyperscale scenario — large fat-tree / 3-tier+WAN
//!   fabrics, open-loop streamed arrivals, flow state reclaimed at completion, and
//!   streaming quantile sketches instead of per-flow records;
//! - [`report`]: the [`Table`] a figure returns — rows of typed [`Cell`]s
//!   that print one way, as aligned plain text plus JSON rows, so
//!   EXPERIMENTS.md entries can be regenerated and diffed;
//! - [`sweep`]: the parallel sweep runner that fans independent runs across
//!   `jobs` threads with input-order results; every figure sweeps with it.
//!
//! What a scheme means for a run is decided once, by [`Scheme`]; the
//! fat-tree and leaf–spine builders apply it. The four fabric scenarios
//! expose their steps: `prepare(cfg)` returns the ready `Sim`, the caller
//! pumps it, and `assemble` folds its `SimResult`; their `run` is the two
//! composed.
//!
//! Every figure takes a [`Scale`] so the default invocation finishes in
//! seconds while `--full` reproduces the paper-scale parameters.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coflowsched;
pub mod faults;
mod figures;
pub mod flowsched;
pub mod golden;
pub mod hyperscale;
pub mod micro;
pub mod mltrain;
pub mod probe;
pub mod registry;
pub mod report;
pub mod sweep;

pub use report::{Cell, Table};

use netsim::{AckPriority, SimConfig, SwitchConfig};
use simcore::Time;
use transport::{CcSpec, PrioPlusPolicy};

/// Run scale selector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Reduced topology/duration: every figure regenerates in seconds.
    Quick,
    /// Paper-scale parameters (minutes to hours of wall time).
    Full,
}

impl Scale {
    /// Pick a value by scale.
    pub fn pick<T>(self, quick: T, full: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}

/// The congestion-control + queueing scheme under test, shared by the
/// large-scale scenarios. Names follow the paper's legends.
///
/// A scheme owns its transport, data queues, lossless queues, INT and ACK
/// path; a fabric adds only its buffer, the PFC headroom a lossless queue
/// costs there, and the horizon and seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Swift in real physical priority queues (≤ 8, PFC headroom per
    /// lossless priority eats shared buffer).
    PhysicalSwift,
    /// Swift in *ideal* physical priorities ("Physical*": unlimited count,
    /// headroom-free).
    PhysicalStarSwift,
    /// PrioPlus+Swift in a single physical queue (the paper's system).
    PrioPlusSwift,
    /// PrioPlus+Swift with ACKs sharing the data queue ("PrioPlus*",
    /// Fig 16).
    PrioPlusSwiftAckData,
    /// PrioPlus+LEDBAT in a single physical queue (§6.2).
    PrioPlusLedbat,
    /// Blind line-rate senders in ideal physical priorities
    /// ("Physical* w/o CC").
    PhysicalStarNoCc,
    /// HPCC in ideal physical priorities.
    PhysicalStarHpcc,
    /// D2TCP in a single queue, deadlines assigned by priority.
    D2tcp,
    /// Plain Swift, single queue, no priorities (scenario baselines).
    BaselineSwift,
}

impl Scheme {
    /// Legend label.
    pub fn label(&self) -> &'static str {
        match self {
            Scheme::PhysicalSwift => "Physical+Swift",
            Scheme::PhysicalStarSwift => "Physical*+Swift",
            Scheme::PrioPlusSwift => "PrioPlus+Swift",
            Scheme::PrioPlusSwiftAckData => "PrioPlus*+Swift",
            Scheme::PrioPlusLedbat => "PrioPlus+LEDBAT",
            Scheme::PhysicalStarNoCc => "Physical* w/o CC",
            Scheme::PhysicalStarHpcc => "Physical*+HPCC",
            Scheme::D2tcp => "D2TCP",
            Scheme::BaselineSwift => "Swift (no prio)",
        }
    }

    /// Per-flow transport spec over `classes` priorities. `probe` is
    /// PrioPlus's probe-before-start — off where every class is latency
    /// sensitive (§4.4's exemption: tiered linear starts only);
    /// `deadline_factor` is D2TCP's deadline in ideal FCTs.
    pub fn cc(&self, classes: u8, probe: bool, deadline_factor: f64) -> CcSpec {
        let policy = PrioPlusPolicy {
            probe,
            ..PrioPlusPolicy::paper_default(classes)
        };
        match self {
            Scheme::PhysicalSwift | Scheme::PhysicalStarSwift | Scheme::BaselineSwift => {
                CcSpec::Swift {
                    queuing: Time::from_us(4),
                    scaling: false,
                }
            }
            Scheme::PrioPlusSwift | Scheme::PrioPlusSwiftAckData => {
                CcSpec::PrioPlusSwift { policy }
            }
            Scheme::PrioPlusLedbat => CcSpec::PrioPlusLedbat { policy },
            Scheme::PhysicalStarNoCc => CcSpec::Blast,
            Scheme::PhysicalStarHpcc => CcSpec::Hpcc,
            Scheme::D2tcp => CcSpec::D2tcp {
                deadline_factor: Some(deadline_factor),
            },
        }
    }

    /// Physical data queues the scheme uses for `classes` priority classes:
    /// one when it multiplexes them all in a single queue, at most the 8 a
    /// real switch has for real physical priorities, one per class for the
    /// ideal ("Physical*") ones.
    pub fn phys_queues(&self, classes: u8) -> u8 {
        match self {
            s if s.single_queue() => 1,
            Scheme::PhysicalSwift => classes.min(8),
            _ => classes,
        }
    }

    /// Physical queue a flow of priority `class` (of `classes`) travels in:
    /// its own, or the highest one there is.
    pub fn phys_prio(&self, class: u8, classes: u8) -> u8 {
        class.min(self.phys_queues(classes) - 1)
    }

    /// True when the scheme multiplexes all priorities in one physical
    /// queue.
    pub fn single_queue(&self) -> bool {
        matches!(
            self,
            Scheme::PrioPlusSwift
                | Scheme::PrioPlusSwiftAckData
                | Scheme::PrioPlusLedbat
                | Scheme::D2tcp
                | Scheme::BaselineSwift
        )
    }

    /// The simulator config of a run over `classes` classes, other fields
    /// at their defaults: [`Self::phys_queues`] data queues; ACKs in the
    /// control queue, except PrioPlus*'s, which share the data queue.
    pub(crate) fn sim_config(&self, classes: u8) -> SimConfig {
        SimConfig {
            num_prios: self.phys_queues(classes),
            ack_prio: if *self == Scheme::PrioPlusSwiftAckData {
                AckPriority::SameAsData
            } else {
                AckPriority::Control
            },
            ..Default::default()
        }
    }

    /// The switch of a run over `classes` classes with `buffer_bytes` shared,
    /// other fields at their defaults. Real physical priorities make each
    /// queue lossless and reserve `headroom_bytes` per (port, lossless
    /// queue); no other scheme reserves any. HPCC turns on INT.
    pub(crate) fn switch_config(
        &self,
        classes: u8,
        buffer_bytes: u64,
        headroom_bytes: u64,
    ) -> SwitchConfig {
        let mut sw = SwitchConfig {
            buffer_bytes,
            pfc_lossless_prios: 0,
            int_enabled: *self == Scheme::PhysicalStarHpcc,
            ..Default::default()
        };
        if *self == Scheme::PhysicalSwift {
            sw.pfc_lossless_prios = self.phys_queues(classes);
            sw.pfc_headroom_bytes = headroom_bytes;
        }
        sw
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coflowsched::{self, CoflowConfig};
    use crate::flowsched::{self, FlowSchedConfig};
    use AckPriority::{Control, SameAsData};
    use Scheme::*;

    /// What a scheme's recipe decides of a run's configs: `(num_prios,
    /// ack_prio, buffer_bytes, pfc_enabled, pfc_lossless_prios,
    /// pfc_headroom_bytes, int_enabled)`.
    type Recipe = (u8, AckPriority, u64, bool, u8, u64, bool);

    fn recipe((sim, sw): (SimConfig, SwitchConfig)) -> Recipe {
        (
            sim.num_prios,
            sim.ack_prio,
            sw.buffer_bytes,
            sw.pfc_enabled,
            sw.pfc_lossless_prios,
            sw.pfc_headroom_bytes,
            sw.int_enabled,
        )
    }

    /// Per scheme: data queues, ACK path, lossless queues, headroom per
    /// (port, lossless queue) and INT, for `classes` priority classes on a
    /// fabric that charges `headroom` per lossless queue.
    fn expected(classes: u8, headroom: u64) -> [(Scheme, u8, AckPriority, u8, u64, bool); 9] {
        let real = classes.min(8);
        [
            (PhysicalSwift, real, Control, real, headroom, false),
            (PhysicalStarSwift, classes, Control, 0, 100_000, false),
            (PrioPlusSwift, 1, Control, 0, 100_000, false),
            (PrioPlusSwiftAckData, 1, SameAsData, 0, 100_000, false),
            (PrioPlusLedbat, 1, Control, 0, 100_000, false),
            (PhysicalStarNoCc, classes, Control, 0, 100_000, false),
            (PhysicalStarHpcc, classes, Control, 0, 100_000, true),
            (D2tcp, 1, Control, 0, 100_000, false),
            (BaselineSwift, 1, Control, 0, 100_000, false),
        ]
    }

    #[test]
    fn fat_tree_recipe_is_pinned_per_scheme() {
        // Buffer: 4.4 MB/Tbps of k 100G ports.
        for (scale, k, buffer) in [(Scale::Quick, 4, 1_760_000), (Scale::Full, 6, 2_640_000)] {
            for classes in [8, 12] {
                for (scheme, queues, ack, lossless, headroom, int) in expected(classes, 50_000) {
                    let cfg = FlowSchedConfig::at(scheme, classes, scale);
                    assert_eq!(cfg.k, k);
                    assert_eq!(
                        recipe(flowsched::configs(&cfg)),
                        (queues, ack, buffer, true, lossless, headroom, int),
                        "{scheme:?}, {classes} classes, k = {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn leaf_spine_recipe_is_pinned_per_scheme() {
        for scale in [Scale::Quick, Scale::Full] {
            for lossless in [true, false] {
                for (scheme, queues, ack, lossless_queues, headroom, int) in expected(8, 100_000) {
                    let cfg = CoflowConfig {
                        lossless,
                        ..CoflowConfig::at(scheme, 0.7, scale)
                    };
                    let end = cfg.duration + cfg.duration;
                    assert_eq!(
                        recipe(coflowsched::configs(&cfg, end)),
                        (
                            queues,
                            ack,
                            32 << 20,
                            lossless,
                            lossless_queues,
                            headroom,
                            int
                        ),
                        "{scheme:?}, {scale:?}, lossless {lossless}"
                    );
                }
            }
        }
    }
}
