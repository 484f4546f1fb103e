//! R1 bad example: hash collections in a simulation-state crate.

use std::collections::{HashMap, HashSet}; //~ clippy::disallowed_types

pub struct FlowTable {
    pub flows: HashMap<u32, u64>, //~ clippy::disallowed_types
    pub live: HashSet<u32>,       //~ clippy::disallowed_types
}

pub fn drain(t: &FlowTable) -> u64 {
    // Iterating a HashMap: the archetypal replay-breaking pattern.
    t.flows.values().sum()
}
