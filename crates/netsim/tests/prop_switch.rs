//! Property-test fleet for the switch model: random admit/dequeue streams
//! checked against an independent shadow model of the buffer-accounting,
//! PFC, ECN, and Dynamic-Threshold invariants.
//!
//! The checks here are written from scratch (recounts of the actual queue
//! contents, explicit pause-state mirrors) rather than reusing the
//! `netsim::audit` implementation, so the audit layer and this fleet can
//! catch each other's mistakes. The `Buggify` fault injections must be
//! caught by at least one property each — that is the acceptance bar for
//! the audit subsystem.

use netsim::node::{queue_index, Admission, EgressPort, Switch};
use netsim::packet::{Packet, PacketArena};
use netsim::{Buggify, SwitchConfig};
use proptest::prelude::*;
use simcore::{Rate, SimRng, Time};

const NPORTS: usize = 2;
/// Two data priorities + one control queue.
const NQ: usize = 3;

fn mk_switch(pfc: bool, buffer: u64, buggify: Option<Buggify>) -> Switch {
    let cfg = SwitchConfig {
        buffer_bytes: buffer,
        pfc_enabled: pfc,
        pfc_lossless_prios: 0,
        buggify,
        ..Default::default()
    };
    let ports = (0..NPORTS)
        .map(|_| EgressPort::new(1, 0, Rate::from_gbps(100), Time::from_us(1), NQ))
        .collect();
    Switch::new(cfg, ports, (NQ - 1) as u8)
}

/// Every (ingress port, queue) pair of a switch built by [`mk_switch`].
fn pairs() -> impl Iterator<Item = (usize, usize)> {
    (0..NPORTS).flat_map(|ip| (0..NQ).map(move |q| (ip, q)))
}

/// One decoded operation against the switch.
#[derive(Clone, Copy, Debug)]
enum Op {
    Admit {
        port: u16,
        in_port: u16,
        prio: u8,
        payload: u32,
    },
    Dequeue {
        port: u16,
    },
}

/// Decode a raw 64-bit word into an operation. Two of four opcodes are
/// admits so streams grow queues faster than they drain them.
fn decode(w: u64) -> Op {
    let port = ((w >> 2) & 1) as u16;
    match w & 3 {
        0 | 1 => Op::Admit {
            port,
            in_port: ((w >> 3) & 1) as u16,
            prio: ((w >> 4) % 3) as u8, // 0,1 data; 2 control
            payload: 64 + ((w >> 8) % 1437) as u32,
        },
        _ => Op::Dequeue { port },
    }
}

fn data_pkt(prio: u8, payload: u32, seq: u64) -> Packet {
    Packet::data(0, 0, 1, prio, payload, seq, Time::ZERO)
}

/// Recount every queue of the switch from its actual contents and compare
/// against all cached byte counters. Independent of `Switch`'s own
/// bookkeeping and of `netsim::audit`.
fn recount_consistent(s: &Switch, arena: &PacketArena) -> Result<(), String> {
    let mut switch_total = 0u64;
    for (pi, port) in s.ports.iter().enumerate() {
        let mut port_total = 0u64;
        for (qi, queue) in port.queues.iter().enumerate() {
            let real: u64 = queue.ids.iter().map(|&id| arena.get(id).size as u64).sum();
            if real != queue.bytes {
                return Err(format!(
                    "port {pi} queue {qi}: recount {real} != cached {}",
                    queue.bytes
                ));
            }
            port_total += real;
        }
        if port_total != port.queued_bytes {
            return Err(format!(
                "port {pi}: recount {port_total} != cached {}",
                port.queued_bytes
            ));
        }
        switch_total += port_total;
    }
    if switch_total != s.total_buffered {
        return Err(format!(
            "switch: recount {switch_total} != total_buffered {}",
            s.total_buffered
        ));
    }
    let ingress_total: u64 = pairs().map(|(ip, q)| s.ingress_bytes(ip, q)).sum();
    if ingress_total != s.total_buffered {
        return Err(format!(
            "ingress counters {ingress_total} != total_buffered {}",
            s.total_buffered
        ));
    }
    Ok(())
}

/// Run one op against the switch, tracking PFC transition legality with a
/// shadow pause map. Returns the (in_port, queue) an admit landed on.
fn step(
    s: &mut Switch,
    arena: &mut PacketArena,
    op: Op,
    seq: &mut u64,
    shadow_paused: &mut [[bool; NQ]; NPORTS],
) -> Result<Option<(u16, usize)>, String> {
    let mut pauses = Vec::new();
    let mut resumes = Vec::new();
    let hit = match op {
        Op::Admit {
            port,
            in_port,
            prio,
            payload,
        } => {
            let pkt = data_pkt(prio, payload, *seq);
            *seq += 1;
            let q = queue_index(pkt.header.prio, NQ);
            let id = arena.alloc(pkt);
            s.admit(port, in_port, id, 0, arena, &mut pauses);
            Some((in_port, q))
        }
        Op::Dequeue { port } => {
            if let Some(id) = s.ports[port as usize].dequeue(arena) {
                s.on_dequeue(arena.get(id), 0, &mut resumes);
                arena.release(id);
            }
            None
        }
    };
    for &(ip, q) in &pauses {
        let slot = &mut shadow_paused[ip as usize][q as usize];
        if *slot {
            return Err(format!("double Xoff for ({ip}, {q})"));
        }
        *slot = true;
    }
    for &(ip, q) in &resumes {
        let slot = &mut shadow_paused[ip as usize][q as usize];
        if !*slot {
            return Err(format!("Xon without Xoff for ({ip}, {q})"));
        }
        *slot = false;
    }
    Ok(hit)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128 })]

    /// A correct lossless switch keeps every byte counter equal to a full
    /// recount, never double-pauses or spuriously resumes, and never leaves
    /// an over-threshold ingress counter unpaused after the admission that
    /// crossed it.
    #[test]
    fn correct_switch_holds_all_invariants(words in proptest::collection::vec(0u64..u64::MAX, 1..300)) {
        let mut s = mk_switch(true, 64_000, None);
        let mut arena = PacketArena::new();
        let mut seq = 0u64;
        let mut shadow = [[false; NQ]; NPORTS];
        for &w in &words {
            let hit = match step(&mut s, &mut arena, decode(w), &mut seq, &mut shadow) {
                Ok(h) => h,
                Err(e) => return Err(TestCaseError::fail(e)),
            };
            if let Err(e) = recount_consistent(&s, &arena) {
                return Err(TestCaseError::fail(e));
            }
            // The Xoff-at-crossing invariant, checked for the pair that just
            // received a packet (data priorities only; control is unpaused).
            if let Some((ip, q)) = hit {
                if q < NQ - 1 {
                    let over = s.ingress_bytes(ip as usize, q) > s.pfc_pause_threshold();
                    prop_assert!(
                        !over || s.ingress_paused(ip as usize, q),
                        "ingress ({ip}, {q}) above pause threshold but not paused"
                    );
                }
            }
            // The switch's own pause state must match the emitted frames.
            for (ip, row) in shadow.iter().enumerate() {
                for (q, &paused) in row.iter().enumerate() {
                    prop_assert_eq!(paused, s.ingress_paused(ip, q));
                }
            }
        }
    }

    /// Draining a correct switch returns every counter to exactly zero.
    #[test]
    fn full_drain_zeroes_all_counters(words in proptest::collection::vec(0u64..u64::MAX, 1..200)) {
        let mut s = mk_switch(true, 64_000, None);
        let mut arena = PacketArena::new();
        let mut seq = 0u64;
        let mut shadow = [[false; NQ]; NPORTS];
        for &w in &words {
            if let Err(e) = step(&mut s, &mut arena, decode(w), &mut seq, &mut shadow) {
                return Err(TestCaseError::fail(e));
            }
        }
        let mut resumes = Vec::new();
        for p in 0..NPORTS {
            while let Some(id) = s.ports[p].dequeue(&arena) {
                s.on_dequeue(arena.get(id), 0, &mut resumes);
                arena.release(id);
            }
        }
        prop_assert_eq!(s.total_buffered, 0);
        prop_assert!(pairs().all(|(ip, q)| s.ingress_bytes(ip, q) == 0));
        for p in &s.ports {
            prop_assert_eq!(p.queued_bytes, 0);
            prop_assert!(p.queues.iter().all(|q| q.bytes == 0));
        }
        // Every admitted packet came back out (or was dropped in admit), so
        // the arena must account for zero live handles.
        prop_assert_eq!(arena.live_count(), 0);
    }

    /// Lossy Dynamic-Threshold admission: a data packet is dropped exactly
    /// when its queue would exceed `DT_ALPHA * free_buffer`.
    #[test]
    fn dt_admission_matches_the_threshold_exactly(words in proptest::collection::vec(0u64..u64::MAX, 1..300)) {
        let mut s = mk_switch(false, 24_000, None);
        let mut arena = PacketArena::new();
        let mut seq = 0u64;
        for &w in &words {
            match decode(w) {
                Op::Admit { port, in_port, prio, payload } => {
                    let pkt = data_pkt(prio, payload, seq);
                    seq += 1;
                    let q = queue_index(pkt.header.prio, NQ);
                    let wire = pkt.header.size as u64;
                    let would_exceed =
                        s.ports[port as usize].queues[q].bytes + wire > s.dt_limit();
                    let mut pauses = Vec::new();
                    let id = arena.alloc(pkt);
                    let adm = s.admit(port, in_port, id, 0, &mut arena, &mut pauses);
                    prop_assert_eq!(
                        adm == Admission::Dropped,
                        would_exceed,
                        "admission {:?} disagrees with DT threshold (exceed={})",
                        adm, would_exceed
                    );
                }
                Op::Dequeue { port } => {
                    let mut resumes = Vec::new();
                    if let Some(id) = s.ports[port as usize].dequeue(&arena) {
                        s.on_dequeue(arena.get(id), 0, &mut resumes);
                        arena.release(id);
                    }
                }
            }
            if let Err(e) = recount_consistent(&s, &arena) {
                return Err(TestCaseError::fail(e));
            }
        }
    }

    /// ECN marking bounds: never below `kmin`, always at/above `kmax`
    /// (with `pmax` = 1 the in-between band is probabilistic and untested).
    #[test]
    fn ecn_marks_respect_kmin_kmax(fills in proptest::collection::vec(64u32..1501, 0..40), rng_seed in 0u64..1_000_000) {
        let mut s = mk_switch(true, 10_000_000, None);
        let mut arena = PacketArena::new();
        s.cfg.ecn_kmin = 5_000;
        s.cfg.ecn_kmax = 20_000;
        let mut rng = SimRng::new(rng_seed);
        for (seq, &payload) in fills.iter().enumerate() {
            let mut pauses = Vec::new();
            let id = arena.alloc(data_pkt(0, payload, seq as u64));
            s.admit(0, 1, id, 0, &mut arena, &mut pauses);
            let q = s.ports[0].queues[0].bytes;
            let marked = s.ecn_mark(0, 0, 0, 0, &mut rng);
            if q <= s.cfg.ecn_kmin {
                prop_assert!(!marked, "marked at {q} <= kmin");
            }
            if q >= s.cfg.ecn_kmax {
                prop_assert!(marked, "unmarked at {q} >= kmax");
            }
        }
    }

    /// Link flaps and pause storms interleaved with traffic: a downed link
    /// freezes its egress (no dequeues, modeling `Sim`'s dead-port early
    /// return), a storm pins an egress pause bit, and neither may disturb
    /// any byte counter, emit an illegal PFC transition, or let a pinned
    /// priority transmit. After clearing every fault, a full drain must
    /// return all counters to exactly zero — flaps never strand bytes.
    #[test]
    fn flapping_links_hold_all_invariants(words in proptest::collection::vec(0u64..u64::MAX, 1..300)) {
        let mut s = mk_switch(true, 64_000, None);
        let mut arena = PacketArena::new();
        let mut seq = 0u64;
        let mut shadow = [[false; NQ]; NPORTS];
        let mut link_up = [true; NPORTS];
        let mut storm = [[false; NQ - 1]; NPORTS];
        for &w in &words {
            let port = ((w >> 3) & 1) as usize;
            match w & 7 {
                // Flap: toggle the link under the egress port.
                0 => link_up[port] = !link_up[port],
                // Storm: toggle a pinned pause on a data priority, exactly
                // as `Sim::set_storm` drives the port (pin on, restore to
                // the peer's authority — unpaused here — on release).
                1 => {
                    let q = ((w >> 4) % (NQ as u64 - 1)) as usize;
                    storm[port][q] = !storm[port][q];
                    s.ports[port].set_paused(q, storm[port][q]);
                }
                2..=4 => {
                    let op = Op::Admit {
                        port: port as u16,
                        in_port: ((w >> 4) & 1) as u16,
                        prio: ((w >> 5) % 3) as u8,
                        payload: 64 + ((w >> 8) % 1437) as u32,
                    };
                    let hit = match step(&mut s, &mut arena, op, &mut seq, &mut shadow) {
                        Ok(h) => h,
                        Err(e) => return Err(TestCaseError::fail(e)),
                    };
                    if let Some((ip, q)) = hit {
                        if q < NQ - 1 {
                            let over = s.ingress_bytes(ip as usize, q) > s.pfc_pause_threshold();
                            prop_assert!(
                                !over || s.ingress_paused(ip as usize, q),
                                "ingress ({ip}, {q}) above pause threshold but not paused"
                            );
                        }
                    }
                }
                _ => {
                    // Dequeue, honoring the fault overlay: a dead link's
                    // egress is frozen, and a storm-pinned priority must
                    // never be the one transmitting.
                    if link_up[port] {
                        if let Some(id) = s.ports[port].dequeue(&arena) {
                            let q = queue_index(arena.get(id).prio, NQ);
                            prop_assert!(
                                !(q < NQ - 1 && storm[port][q]),
                                "storm-pinned queue {q} on port {port} transmitted"
                            );
                            let mut resumes = Vec::new();
                            s.on_dequeue(arena.get(id), 0, &mut resumes);
                            arena.release(id);
                            for &(ip, rq) in &resumes {
                                let slot = &mut shadow[ip as usize][rq as usize];
                                prop_assert!(*slot, "Xon without Xoff for ({ip}, {rq})");
                                *slot = false;
                            }
                        }
                    }
                }
            }
            if let Err(e) = recount_consistent(&s, &arena) {
                return Err(TestCaseError::fail(e));
            }
            for (ip, row) in shadow.iter().enumerate() {
                for (q, &paused) in row.iter().enumerate() {
                    prop_assert_eq!(paused, s.ingress_paused(ip, q));
                }
            }
        }
        // Clear every fault and drain: nothing may be stranded.
        for p in 0..NPORTS {
            link_up[p] = true;
            for (q, pinned) in storm[p].iter_mut().enumerate() {
                *pinned = false;
                s.ports[p].set_paused(q, false);
            }
        }
        let mut resumes = Vec::new();
        for p in 0..NPORTS {
            while let Some(id) = s.ports[p].dequeue(&arena) {
                s.on_dequeue(arena.get(id), 0, &mut resumes);
                arena.release(id);
            }
        }
        prop_assert_eq!(s.total_buffered, 0);
        prop_assert!(pairs().all(|(ip, q)| s.ingress_bytes(ip, q) == 0));
        for p in &s.ports {
            prop_assert_eq!(p.queued_bytes, 0);
            prop_assert!(p.queues.iter().all(|q| q.bytes == 0));
        }
        prop_assert_eq!(arena.live_count(), 0);
    }

    /// Fault injection: the PFC off-by-one must produce a state where the
    /// admission that crossed the pause threshold leaves the pair unpaused
    /// — the exact signature the audit layer's Xoff check looks for.
    #[test]
    fn buggified_pfc_off_by_one_is_caught(payloads in proptest::collection::vec(64u32..1501, 30..80)) {
        // With a 20 kB buffer, 0.125 * free < 3000, so the pause threshold
        // sits at its 3 kB floor; 30+ packets of >= 112 B wire size always
        // cross it and the off-by-one always misses the crossing packet.
        let mut s = mk_switch(true, 20_000, Some(Buggify::PfcPauseOffByOne));
        let mut arena = PacketArena::new();
        let mut violated = false;
        for (i, &payload) in payloads.iter().enumerate() {
            let mut pauses = Vec::new();
            let id = arena.alloc(data_pkt(0, payload, i as u64));
            s.admit(0, 1, id, 0, &mut arena, &mut pauses);
            if s.ingress_bytes(1, 0) > s.pfc_pause_threshold() && !s.ingress_paused(1, 0) {
                violated = true;
            }
        }
        prop_assert!(violated, "off-by-one fault was never observable");
    }

    /// Fault injection: the dequeue accounting leak must be visible as a
    /// recount mismatch after draining.
    #[test]
    fn buggified_dequeue_leak_is_caught(payloads in proptest::collection::vec(64u32..1501, 1..40)) {
        let mut s = mk_switch(true, 10_000_000, Some(Buggify::DequeueLeak));
        let mut arena = PacketArena::new();
        for (i, &payload) in payloads.iter().enumerate() {
            let mut pauses = Vec::new();
            let id = arena.alloc(data_pkt(0, payload, i as u64));
            s.admit(0, 1, id, 0, &mut arena, &mut pauses);
        }
        let mut resumes = Vec::new();
        while let Some(id) = s.ports[0].dequeue(&arena) {
            s.on_dequeue(arena.get(id), 0, &mut resumes);
            arena.release(id);
        }
        prop_assert!(
            recount_consistent(&s, &arena).is_err(),
            "leak must break the recount"
        );
        prop_assert!(s.total_buffered > 0, "leaked bytes must remain counted");
    }

    /// Fault injection: marking below `kmin` violates the ECN lower bound
    /// on the very first packet into an empty queue.
    #[test]
    fn buggified_ecn_below_kmin_is_caught(rng_seed in 0u64..1_000_000) {
        let s = mk_switch(true, 10_000_000, Some(Buggify::EcnMarkBelowKmin));
        let mut rng = SimRng::new(rng_seed);
        // Empty queue: 0 <= kmin, yet the buggified switch marks.
        prop_assert!(s.ecn_mark(0, 0, 0, 0, &mut rng), "buggify must force a mark");
        prop_assert!(s.ports[0].queues[0].bytes <= s.cfg.ecn_kmin);
    }
}
