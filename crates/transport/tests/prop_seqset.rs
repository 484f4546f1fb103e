//! Differential property test: [`SeqSet`], the sorted `VecDeque` a sender
//! keeps its outstanding sequences in, against the `BTreeSet<u64>` it
//! replaced.
//!
//! Random streams of what a sender does to the set — appends past the back
//! (new data), inserts at or below the front and into holes
//! (retransmissions), duplicate inserts, removes of the front (the in-order
//! ACK), of a middle element (an ACK past a hole) and of sequences not held
//! (a duplicate ACK), and `range` / `drain` over empty, inverted, partial and
//! `0..u64::MAX` bounds (NACKs and the RTO) — drive both. After every
//! operation the returned `bool`s, `iter()`, `first()`, `len()` and
//! `contains()` agree.

use std::collections::BTreeSet;
use std::ops::Range;

use proptest::prelude::*;
use transport::sender::SeqSet;

/// How often a stream took each path of [`SeqSet`].
#[derive(Debug, Default)]
struct Paths {
    back_appends: u64,
    low_inserts: u64,
    duplicate_inserts: u64,
    front_removes: u64,
    middle_removes: u64,
    absent_removes: u64,
    inverted_ranges: u64,
    drained: u64,
}

/// What `BTreeSet::range` yields, except that it panics on `start > end`
/// where [`SeqSet`] yields nothing.
fn model_range(model: &BTreeSet<u64>, r: Range<u64>) -> Vec<u64> {
    if r.start > r.end {
        return Vec::new();
    }
    model.range(r).copied().collect()
}

fn run(ops: &[u64]) -> Result<Paths, TestCaseError> {
    let (mut set, mut model) = (SeqSet::new(), BTreeSet::new());
    let mut paths = Paths::default();
    for (step, &w) in ops.iter().enumerate() {
        let arg = w >> 8;
        let (first, last) = (model.first().copied(), model.last().copied());
        // An element by rank, for ops that need one that is held.
        let held = model.iter().nth(arg as usize % model.len().max(1)).copied();
        // The sequence this op names; probed with `contains` afterwards.
        let mut seq = 0;
        match w & 7 {
            // New data: past the back, sometimes leaving a hole.
            0..=2 => {
                seq = last.map_or(arg % 4, |b| b + 1 + arg % 3);
                prop_assert_eq!(set.insert(seq), model.insert(seq), "step {}", step);
                paths.back_appends += 1;
            }
            // A retransmission: at or below the front, or into a hole near it.
            3 => {
                seq = (first.unwrap_or(8) + arg % 16).saturating_sub(8);
                let fresh = model.insert(seq);
                prop_assert_eq!(set.insert(seq), fresh, "step {}", step);
                paths.low_inserts += fresh as u64;
                paths.duplicate_inserts += !fresh as u64;
            }
            4 => {
                if let Some(s) = held {
                    seq = s;
                    prop_assert!(!set.insert(seq), "step {}: duplicate insert", step);
                    paths.duplicate_inserts += 1;
                }
            }
            5 => {
                seq = first.unwrap_or(0);
                prop_assert_eq!(set.remove(seq), model.remove(&seq), "step {}", step);
                paths.front_removes += first.is_some() as u64;
            }
            // A held element, or (odd `arg`) its successor, which may be absent.
            6 => {
                seq = held.unwrap_or(0) + (arg & 1);
                let was_held = model.remove(&seq);
                prop_assert_eq!(set.remove(seq), was_held, "step {}", step);
                paths.middle_removes += (was_held && Some(seq) != first) as u64;
                paths.absent_removes += !was_held as u64;
            }
            _ => {
                let (lo, hi) = (first.unwrap_or(0), last.unwrap_or(0) + 2);
                let at = |x: u64| lo.saturating_sub(2) + x % (hi - lo + 4);
                let r = match arg % 5 {
                    0 => at(arg >> 3)..at(arg >> 3),
                    1 => 0..u64::MAX,
                    _ => at(arg >> 3)..at(arg >> 23),
                };
                paths.inverted_ranges += (r.start > r.end) as u64;
                let want = model_range(&model, r.clone());
                let got: Vec<u64> = set.range(r.clone()).copied().collect();
                prop_assert_eq!(&got, &want, "step {}: range {:?}", step, r);
                if arg & (1 << 43) != 0 {
                    let got: Vec<u64> = set.drain(r.clone()).collect();
                    prop_assert_eq!(&got, &want, "step {}: drain {:?}", step, r);
                    model.retain(|s| !want.contains(s));
                    paths.drained += want.len() as u64;
                }
            }
        }
        prop_assert!(
            set.iter().eq(model.iter()),
            "step {}: {:?} != {:?}",
            step,
            set,
            model
        );
        prop_assert_eq!(set.first(), model.first(), "step {}", step);
        prop_assert_eq!(set.len(), model.len(), "step {}", step);
        prop_assert_eq!(set.is_empty(), model.is_empty(), "step {}", step);
        for probe in [seq.saturating_sub(1), seq, seq + 1] {
            prop_assert_eq!(
                set.contains(probe),
                model.contains(&probe),
                "step {}: contains({})",
                step,
                probe
            );
        }
    }
    Ok(paths)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256 })]

    #[test]
    fn seqset_is_a_btreeset(
        ops in proptest::collection::vec(0u64..u64::MAX, 0..400),
    ) {
        run(&ops)?;
    }
}

/// One fixed stream long enough to take every path, so the property above
/// cannot pass by only ever appending and popping.
#[test]
fn directed_stream_takes_every_path() {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let ops: Vec<u64> = (0..4000)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    let p = run(&ops).unwrap();
    let taken = [
        p.back_appends,
        p.low_inserts,
        p.duplicate_inserts,
        p.front_removes,
        p.middle_removes,
        p.absent_removes,
        p.inverted_ranges,
        p.drained,
    ];
    assert!(taken.iter().all(|&n| n > 0), "{p:?}");
}
