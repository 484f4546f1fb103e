//! One module per rule and verdict. A trailing `//~ lint` marks a line
//! that must raise `lint`; a line without one must raise nothing.

// As in the five sim-state crate roots: R10's `static mut` arm and R11.
#![forbid(unsafe_code)]
#![deny(clippy::wildcard_enum_match_arm)]
#![deny(clippy::match_wildcard_for_single_variants)]

pub mod r10_allowed;
pub mod r10_bad;
pub mod r11_allowed;
pub mod r11_bad;
pub mod r1_allowed;
pub mod r1_bad;
pub mod r2_allowed;
pub mod r2_bad;
pub mod r5_allowed;
pub mod r5_bad;
pub mod r6_allowed;
pub mod r6_bad;
