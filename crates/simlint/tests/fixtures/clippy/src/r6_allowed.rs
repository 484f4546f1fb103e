//! R6 allowed example: every lint attribute carries a reason.

#[allow(dead_code, reason = "kept for API parity with the vendored shim")]
fn reserved() {}

#[expect(
    clippy::too_many_arguments,
    reason = "violation records carry every reportable dimension"
)]
pub fn wide(_a: u8, _b: u8, _c: u8, _d: u8, _e: u8, _f: u8, _g: u8, _h: u8) {}
