//! R5 allowed example: hot-path unwraps with the reason they hold.

#![deny(clippy::unwrap_used, clippy::expect_used)]

pub fn pop_checked(v: &mut Vec<u32>) -> u32 {
    assert!(!v.is_empty());
    #[expect(clippy::unwrap_used, reason = "guarded by the assert one line up")]
    v.pop().unwrap()
}

#[expect(
    clippy::expect_used,
    reason = "all call sites construct Some; see module docs"
)]
pub fn take_checked(o: Option<u32>) -> u32 {
    o.expect("constructed as Some")
}
