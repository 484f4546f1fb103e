//! R10 fixture: interior mutability with a stated justification, plus
//! plain &mut state that must not be reported at all.

#[expect(
    clippy::disallowed_types,
    reason = "fixture - memoized pure lookup table never observed by sim state"
)]
use std::cell::RefCell;

pub struct Memo {
    #[expect(
        clippy::disallowed_types,
        reason = "fixture - memoized pure lookup table never observed by sim state"
    )]
    pub table: RefCell<Vec<u64>>,
}

pub fn plain_counter(c: &mut u64) {
    *c += 1;
}
