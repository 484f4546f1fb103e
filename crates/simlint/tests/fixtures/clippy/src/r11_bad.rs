//! R11 fixture: wildcard arms over enums, one lint for a wildcard that
//! stands for several variants and one for a wildcard that stands for a
//! single variant. A guarded `_ if ..` arm is a deliberate catch-some and
//! stays legal; test code is in scope.

pub enum Event {
    Arrive { pkt: u64 },
    Fault(u32),
    End,
}

pub enum FaultKind {
    LinkDown,
    LinkUp,
}

pub fn dispatch(ev: &Event) -> u32 {
    match ev {
        Event::Arrive { .. } => 1,
        _ => 0, //~ clippy::wildcard_enum_match_arm
    }
}

pub fn exhaustive(ev: &Event) -> u32 {
    match ev {
        Event::Arrive { .. } => 1,
        Event::Fault(_) => 3,
        Event::End => 2,
    }
}

pub fn guarded(ev: &Event, ready: bool) -> u32 {
    match ev {
        Event::End => 2,
        _ if ready => 1,
        _ => 0, //~ clippy::wildcard_enum_match_arm
    }
}

pub fn faults(k: &FaultKind) -> u32 {
    match k {
        FaultKind::LinkDown => 1,
        _ => 0, //~ clippy::match_wildcard_for_single_variants
    }
}

#[cfg(test)]
mod tests {
    use super::Event;

    #[test]
    fn test_wildcards_are_in_scope() {
        let n = match Event::End {
            Event::Arrive { .. } => 1,
            _ => 0, //~ clippy::wildcard_enum_match_arm
        };
        assert_eq!(n, 0);
    }
}
