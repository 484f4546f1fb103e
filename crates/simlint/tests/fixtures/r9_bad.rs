//! R9 fixture: one edge of a module cycle in a sim-state crate. Linted as
//! netsim's `report` module, it reaches into `sim`, which reaches back.

use crate::sim::run;

pub fn summarize() -> u64 {
    run();
    0
}
