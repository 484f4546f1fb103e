//! Simulation snapshot and warm-start.
//!
//! A [`Sim`] is an immutable, shared `Env` (configuration, switch
//! configuration, routing table) plus one `State` (everything events
//! change: nodes and ports, flows, packet arena, scheduler queue, counters,
//! monitors, traces, RNG streams, sketches, the audit mirror).
//! [`Sim::snapshot`] is `state.clone()` beside another handle on the same
//! `Env`; [`Sim::restore`] is the same clone in the other direction, any
//! number of times. The scheduler queue is cloned as it stands — heap,
//! lanes and counters included — so a restored simulator does not merely
//! pop the same events: it continues the original's queue, counts and all.
//! That restore-equals-straight-through property is pinned by the
//! `e2e_snapshot` suite.
//!
//! The intended use is prefix-sharing parameter sweeps
//! (`experiments::sweep::run_warm`): configs that share a warmup prefix
//! simulate it once, snapshot, then fork per-config instead of replaying
//! the prefix N times. Forks share the `Env`; only the `State` is copied.
//!
//! Two things keep this honest, both enforced by the compiler:
//!
//! - **Cloning cannot forget a field.** There is no list of fields to
//!   copy: `State` derives `Clone`, so a field that cannot be cloned does
//!   not compile, and one that can is cloned.
//! - **The digest cannot forget a field.** [`Sim::state_digest`] is
//!   `State::fold_digest`, which destructures `State` with every field
//!   named and no `..`, and hands each component to the `fold_digest`
//!   written next to its own fields (which destructure the same way). A
//!   new field does not compile until it is folded or named as left out,
//!   with the reason. The snapshot-completeness fleet then mutates one
//!   field class at a time (via [`StateTamper`]) and asserts the digest
//!   notices: a field the digest misses is a field a future snapshot bug
//!   could silently drop.
//!
//! Closed-loop [`crate::sim::App`]s and open-loop
//! [`crate::sim::ArrivalSource`]s hold arbitrary user state behind object
//! traits without a clone hook; they live on `Sim`, outside `State`, and
//! snapshotting is restricted to runs without them (both are asserted
//! `None`). That restriction is what makes `SimSnapshot` automatically
//! `Send + Sync`, which warm-start sweeps rely on to share one snapshot
//! across worker threads.

use std::sync::Arc;

use simcore::Time;

use crate::event::Event;
use crate::sim::Sim;
use crate::state::{Env, State};
use crate::transport_api::Transport;

/// An owned image of a [`Sim`] at one instant: a handle on its `Env` and
/// a copy of its `State`. Produced by [`Sim::snapshot`], consumed (any
/// number of times) by [`Sim::restore`]. `Send + Sync` by construction, so
/// sweep workers can fork from a shared snapshot concurrently.
pub struct SimSnapshot {
    env: Arc<Env>,
    state: State,
}

/// Which class of simulator state a completeness-fleet tamper mutates.
/// One variant per digest-covered field class that a snapshot bug could
/// plausibly drop; the `e2e_snapshot` fleet applies each in turn and
/// asserts [`Sim::state_digest`] diverges.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StateTamper {
    /// Bump one [`crate::SimCounters`] field.
    Counter,
    /// Advance one RNG stream by a draw.
    Rng,
    /// Fold a sample into the streaming quantile sketch (requires
    /// [`crate::SimConfig::streaming_stats`]).
    Sketch,
    /// Flip the priority-0 PFC pause bit on node 0's first egress port.
    PortState,
    /// Bump the first monitor's `last_tx`, the reading its next throughput
    /// sample is a delta from (requires a registered monitor).
    Monitor,
    /// Schedule one extra event, a host poke far in the future.
    Queue,
    /// Advance the reassembly point of one live flow (requires a flow in
    /// flight).
    FlowRecv,
}

impl Sim {
    /// Capture the simulator into an owned [`SimSnapshot`]. Cold path by
    /// design: deep-copies the arena, slab, queue, and node state.
    /// Outstanding [`simcore::ScheduledId`]s held by transports stay valid
    /// against a restored queue (it is a clone, slot table and all).
    ///
    /// # Panics
    /// Panics if a closed-loop [`crate::sim::App`] or an open-loop
    /// [`crate::sim::ArrivalSource`] is installed — both hold arbitrary
    /// user state the snapshot cannot capture.
    pub fn snapshot(&self) -> SimSnapshot {
        assert!(
            self.app.is_none(),
            "snapshot with a closed-loop App installed: App state is not capturable"
        );
        assert!(
            self.arrivals.is_none(),
            "snapshot with an ArrivalSource installed: source state is not capturable"
        );
        SimSnapshot {
            env: Arc::clone(&self.env),
            state: self.state.clone(),
        }
    }

    /// Rebuild a simulator from `snap`; the result continues bit-identically
    /// to the simulation the snapshot was taken from. May be called any
    /// number of times on the same snapshot (warm-start forks); every fork
    /// shares the snapshot's `Env`.
    pub fn restore(snap: &SimSnapshot) -> Sim {
        Sim {
            env: Arc::clone(&snap.env),
            state: snap.state.clone(),
            app: None,
            arrivals: None,
        }
    }

    /// FNV-1a fingerprint of the simulator's complete deterministic state
    /// (`State::fold_digest`): scheduler queue, counters, RNG streams,
    /// packet arena, nodes and their ports (link fault state included),
    /// flow table and slab, monitors, traces, and streaming sketches. Two
    /// simulators in the same `Env` with equal digests dispatch identically
    /// from here on, wherever their queues keep an entry; the
    /// snapshot-completeness fleet pins that every [`StateTamper`] class
    /// moves it.
    pub fn state_digest(&self) -> u64 {
        let mut h = 0xcbf29ce484222325u64;
        self.state.fold_digest(&mut |w: u64| {
            for b in w.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x100000001b3);
            }
        });
        h
    }

    /// Buggify-style hook for the snapshot-completeness fleet: mutate one
    /// class of deterministic state in place. Returns `false` when the run
    /// does not carry that state class (e.g. [`StateTamper::Sketch`]
    /// without streaming statistics), so tests can assert the tamper
    /// actually landed before asserting digest divergence.
    #[doc(hidden)]
    pub fn snap_mutate(&mut self, tamper: StateTamper) -> bool {
        let st = &mut self.state;
        match tamper {
            StateTamper::Counter => {
                st.counters.data_delivered += 1;
                true
            }
            StateTamper::Rng => {
                st.noise_rng.next();
                true
            }
            StateTamper::Sketch => match st.streaming.as_deref_mut() {
                Some(s) => {
                    s.fct_ps.add(1);
                    true
                }
                None => false,
            },
            StateTamper::PortState => {
                st.nodes[0].ports_mut()[0].paused ^= 1;
                true
            }
            StateTamper::Monitor => match st.monitors.first_mut() {
                Some(m) => {
                    m.last_tx += 1;
                    true
                }
                None => false,
            },
            StateTamper::Queue => {
                st.queue.schedule(Time::MAX, Event::HostPoke { node: 0 });
                true
            }
            StateTamper::FlowRecv => match st.live.slots.iter_mut().flatten().next() {
                Some(fl) => {
                    fl.recv.cum += 1;
                    true
                }
                None => false,
            },
        }
    }
}

// Compile-time proof that a snapshot can be shared across sweep workers.
// (Transports are `Send + Sync` by trait bound; everything else in `State`
// and `Env` is plain data. An App/ArrivalSource field would break this,
// which is exactly why they live on `Sim` and snapshot() excludes them.)
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SimSnapshot>();
    assert_send_sync::<Box<dyn Transport>>();
};
