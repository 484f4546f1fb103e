//! R2 allowed example: a wall-clock read with a stated justification.

use std::time::Instant;

pub fn log_progress(done: usize) {
    #[expect(
        clippy::disallowed_methods,
        reason = "operator-facing status line, not sim state"
    )]
    let t0 = Instant::now();
    eprintln!("{done} done at {t0:?}");
}
