//! R2 bad example: wall-clock time in simulation code.

use std::time::{Instant, SystemTime};

pub fn profile() -> u128 {
    let t0 = Instant::now(); //~ clippy::disallowed_methods
    std::thread::sleep(std::time::Duration::from_millis(1)); //~ clippy::disallowed_methods
    let _ = SystemTime::now(); //~ clippy::disallowed_methods
    t0.elapsed().as_millis() //~ clippy::disallowed_methods
}

/// No `now()`, still the wall clock.
pub fn since_epoch(t0: Instant) -> (u128, bool) {
    let epoch = SystemTime::UNIX_EPOCH.elapsed().is_ok(); //~ clippy::disallowed_methods
    (t0.elapsed().as_micros(), epoch) //~ clippy::disallowed_methods
}
