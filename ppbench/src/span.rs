//! Spans around the calls the benchmark makes into each layer.
//!
//! The recorder lives in the benchmark's own files: a span is opened just
//! before a layer's public function is called and closed when it returns,
//! and remembers which span was open at the time (its parent). A layer's
//! self time is its span's duration minus what its direct children cover,
//! so the self times of one rep add up to the root span — the rep's wall
//! time — with nothing counted twice. Spans stay in memory until the rep
//! ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the recorder's origin.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Metric name of the layer boundary, e.g. `netsim.pump_s`.
    pub name: String,
    /// Start.
    pub start_ns: u64,
    /// End.
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<u32>,
}

struct Open {
    spans: Vec<Span>,
    stack: Vec<u32>,
}

/// Span recorder. Disabled, [`Tracer::span`] is a plain call.
pub struct Tracer {
    origin: Instant,
    open: Option<RefCell<Open>>,
}

impl Tracer {
    /// A recorder whose clock starts at `origin`; records nothing unless
    /// `enabled`.
    pub fn new(enabled: bool, origin: Instant) -> Tracer {
        Tracer {
            origin,
            open: enabled.then(|| {
                RefCell::new(Open {
                    spans: Vec::new(),
                    stack: Vec::new(),
                })
            }),
        }
    }

    /// Run `f` inside a span called `name`. The recorder is not borrowed
    /// while `f` runs, so `f` may open spans of its own (they become
    /// children).
    pub fn span<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        let Some(open) = &self.open else {
            return f();
        };
        let id = {
            let mut o = open.borrow_mut();
            let id = o.spans.len() as u32;
            let parent = o.stack.last().copied();
            o.spans.push(Span {
                name: name.to_string(),
                start_ns: 0,
                end_ns: 0,
                parent,
            });
            o.stack.push(id);
            // Read the clock last, so the bookkeeping above is charged to
            // the parent and not to the layer being timed.
            o.spans[id as usize].start_ns = self.origin.elapsed().as_nanos() as u64;
            id
        };
        let r = f();
        let end = self.origin.elapsed().as_nanos() as u64;
        let mut o = open.borrow_mut();
        o.spans[id as usize].end_ns = end;
        let top = o.stack.pop();
        debug_assert_eq!(top, Some(id), "spans close in LIFO order");
        r
    }

    /// The recorded spans, in opening order.
    pub fn into_spans(self) -> Vec<Span> {
        self.open.map_or_else(Vec::new, |o| o.into_inner().spans)
    }
}

/// Self time of every span: duration minus the part its direct children
/// cover. Children of one parent never overlap (one thread), so their
/// clipped durations are summed.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut selfs: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let covered = s
                .end_ns
                .min(parent.end_ns)
                .saturating_sub(s.start_ns.max(parent.start_ns));
            selfs[p as usize] = selfs[p as usize].saturating_sub(covered);
        }
    }
    selfs
}

/// Self time summed per span name, in nanoseconds.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<String, u64> {
    let mut by_name = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *by_name.entry(s.name.clone()).or_insert(0) += t;
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn nested_and_adjacent_children_are_subtracted_once() {
        let spans = vec![
            span("root", 0, 1000, None),
            span("a", 100, 400, Some(0)),
            span("a.inner", 150, 250, Some(1)), // nested: comes off `a` only
            span("b", 400, 900, Some(0)),       // adjacent to `a`
            span("a", 900, 950, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![150, 200, 100, 500, 50]);
        // Self times add up to the root's duration exactly.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 1000);
        let by = self_time_by_name(&spans);
        assert_eq!(by["a"], 250);
        assert_eq!(by["root"], 150);
    }

    #[test]
    fn child_overhanging_its_parent_is_clipped() {
        let spans = vec![span("p", 100, 200, None), span("c", 150, 260, Some(0))];
        assert_eq!(self_times(&spans), vec![50, 110]);
    }

    #[test]
    fn recorder_tracks_parents_and_disabled_records_nothing() {
        let t = Tracer::new(true, Instant::now());
        let v = t.span("root", || {
            t.span("child", || 1) + t.span("child", || t.span("grandchild", || 2))
        });
        assert_eq!(v, 3);
        let spans = t.into_spans();
        let shape: Vec<(&str, Option<u32>)> =
            spans.iter().map(|s| (s.name.as_str(), s.parent)).collect();
        assert_eq!(
            shape,
            vec![
                ("root", None),
                ("child", Some(0)),
                ("child", Some(0)),
                ("grandchild", Some(2))
            ]
        );
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(spans[1].end_ns <= spans[2].start_ns);

        let off = Tracer::new(false, Instant::now());
        assert_eq!(off.span("x", || 7), 7);
        assert!(off.into_spans().is_empty());
    }
}
