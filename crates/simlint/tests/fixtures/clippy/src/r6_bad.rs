//! R6 bad example: lint attributes with no stated reason.

#![allow(clippy::too_many_arguments)] //~ clippy::allow_attributes_without_reason

#[allow(dead_code)] //~ clippy::allow_attributes_without_reason
fn unused() {}

#[expect(dead_code)] //~ clippy::allow_attributes_without_reason
fn also_unused() {}
