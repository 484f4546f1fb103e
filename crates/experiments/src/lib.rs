//! Experiment harness for the PrioPlus reproduction.
//!
//! Every paper figure/table is a value in [`registry::FIGURES`], run by the
//! one binary `repro` (`repro list | run <name>… | all`); the figure bodies
//! live in `src/figures/` on top of the shared scenario runners:
//!
//! - [`micro`]: single-bottleneck micro-benchmarks (§3 motivation, §5
//!   testbed, §6.1);
//! - [`flowsched`]: the fat-tree WebSearch flow-scheduling scenario
//!   (Fig 11, 14, 16);
//! - [`coflowsched`]: the coflow + file-request scenario (Fig 12ab, 15,
//!   17, 18);
//! - [`mltrain`]: the ring all-reduce ML-cluster scenario (Fig 12c);
//! - [`faults`]: the fault-regime comparison (link flaps and PFC pause
//!   storms vs the fault-free reference, FCT + priority inversions);
//! - [`hyperscale`]: the hyperscale scenario — large fat-tree / 3-tier+WAN
//!   fabrics, open-loop streamed arrivals, slab-reclaimed flow state, and
//!   streaming quantile sketches instead of per-flow records;
//! - [`report`]: the [`Table`] a figure returns — aligned plain text plus
//!   JSON rows, so EXPERIMENTS.md entries can be regenerated and diffed;
//! - [`sweep`]: the parallel sweep runner that fans independent runs across
//!   `jobs` threads with input-order results.
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
pub mod registry;
pub mod report;
pub mod sweep;

pub use report::Table;

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
}
