//! R11 fixture: an expected wildcard (migration shim) and an exhaustive
//! dispatch that must not be reported at all.

pub enum Event {
    Arrive { pkt: u64 },
    End,
}

#[expect(
    clippy::match_wildcard_for_single_variants,
    reason = "fixture - migration shim until the new variants land"
)]
pub fn dispatch(ev: &Event) -> u32 {
    match ev {
        Event::Arrive { .. } => 1,
        _ => 0,
    }
}

pub fn exhaustive(ev: &Event) -> u32 {
    match ev {
        Event::Arrive { .. } => 1,
        Event::End => 2,
    }
}
