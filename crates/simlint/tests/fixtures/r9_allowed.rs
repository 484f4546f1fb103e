//! R9 fixture: the same cycle edge, annotated for a migration window.

// simlint::allow(layering, fixture - migration window while the summary moves into sim)
use crate::sim::run;

pub fn summarize() -> u64 {
    run();
    0
}
