//! R1 allowed example: every hash-collection site carries an expectation.

#[expect(
    clippy::disallowed_types,
    reason = "imports only; every use site is annotated below"
)]
use std::collections::{HashMap, HashSet};

pub struct FlowTable {
    #[expect(
        clippy::disallowed_types,
        reason = "probed by key only and never iterated"
    )]
    pub flows: HashMap<u32, u64>,
    #[expect(clippy::disallowed_types, reason = "membership checks only")]
    pub live: HashSet<u32>,
}

pub fn probe(t: &FlowTable, id: u32) -> bool {
    t.live.contains(&id)
}
