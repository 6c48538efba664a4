//! Per-layer self time from a drained span tree.
//!
//! A span's self time is its duration minus the part of its interval that
//! its direct children cover. Children are clipped to the parent's interval
//! and their intervals are merged before subtracting, so two children that
//! ran at the same time on two worker threads are not subtracted twice, and
//! a child that outlives its parent removes only the overlapping part. An
//! orphan span (its parent was never recorded) keeps its full self time.

use std::collections::{BTreeMap, HashMap};
use telemetry::span::SpanRecord;

/// Self time and call count summed per span name.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct LayerTimes {
    /// Span name → summed self time, ns.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Span name → number of spans.
    pub calls: BTreeMap<&'static str, u64>,
}

impl LayerTimes {
    /// Summed self time of `name`, in seconds (0 when it never ran).
    pub fn self_s(&self, name: &str) -> f64 {
        self.self_ns.get(name).copied().unwrap_or(0) as f64 / 1e9
    }

    /// Number of `name` spans recorded.
    pub fn calls(&self, name: &str) -> u64 {
        self.calls.get(name).copied().unwrap_or(0)
    }
}

/// Length of the union of `intervals` after clipping each to `[lo, hi)`.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Aggregates self time per span name over `spans`.
pub fn aggregate(spans: &[SpanRecord]) -> LayerTimes {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.start_ns.saturating_add(s.dur_ns)));
        }
    }
    let mut out = LayerTimes::default();
    for s in spans {
        let end = s.start_ns.saturating_add(s.dur_ns);
        let busy = match children.get_mut(&s.id) {
            Some(kids) => covered(kids, s.start_ns, end),
            None => 0,
        };
        *out.self_ns.entry(s.name).or_insert(0) += s.dur_ns - busy;
        *out.calls.entry(s.name).or_insert(0) += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        id: u64,
        parent: u64,
        name: &'static str,
        start: u64,
        dur: u64,
        thread: u64,
    ) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name,
            disc: 0,
            start_ns: start,
            dur_ns: dur,
            thread,
        }
    }

    #[test]
    fn overlapping_children_on_two_threads_are_subtracted_once() {
        let spans = [
            span(1, 0, "parent", 0, 100, 1),
            span(2, 1, "child", 10, 50, 2),
            span(3, 1, "child", 30, 50, 3),
        ];
        let t = aggregate(&spans);
        // Union of [10, 60) and [30, 80) is 70 ns; a naive sum would be 100.
        assert_eq!(t.self_ns["parent"], 30);
        assert_eq!(t.self_ns["child"], 100);
        assert_eq!(t.calls("child"), 2);
    }

    #[test]
    fn child_spilling_past_parent_is_clipped() {
        let spans = [
            span(1, 0, "parent", 0, 100, 1),
            span(2, 1, "child", 50, 100, 2),
        ];
        let t = aggregate(&spans);
        assert_eq!(t.self_ns["parent"], 50);
        assert_eq!(t.self_ns["child"], 100);
    }

    #[test]
    fn orphans_keep_their_time() {
        let spans = [
            span(1, 0, "root", 0, 100, 1),
            span(2, 99, "orphan", 10, 40, 1),
            span(3, 2, "leaf", 20, 10, 1),
        ];
        let t = aggregate(&spans);
        assert_eq!(t.self_ns["root"], 100, "an orphan is not the root's child");
        assert_eq!(t.self_ns["orphan"], 30);
        assert_eq!(t.self_ns["leaf"], 10);
    }

    #[test]
    fn grandchildren_subtract_only_from_their_parent() {
        let spans = [
            span(1, 0, "a", 0, 100, 1),
            span(2, 1, "b", 10, 80, 1),
            span(3, 2, "c", 20, 60, 1),
        ];
        let t = aggregate(&spans);
        assert_eq!(t.self_ns["a"], 20);
        assert_eq!(t.self_ns["b"], 20);
        assert_eq!(t.self_ns["c"], 60);
        assert_eq!(t.self_s("c"), 60e-9);
        assert_eq!(t.self_s("missing"), 0.0);
    }

    #[test]
    fn real_spans_from_two_threads_aggregate() {
        // Drive the real tracing layer: a parent fans out to two scoped
        // threads whose children overlap in time (a barrier forces both to
        // be open at once).
        use std::sync::Barrier;
        use telemetry::span::{adopt_parent, current_span, drain_spans, set_tracing, Span};
        set_tracing(true);
        let barrier = Barrier::new(2);
        let parent = Span::enter("fan");
        let pid = current_span();
        std::thread::scope(|s| {
            for k in 0..2u64 {
                let barrier = &barrier;
                s.spawn(move || {
                    let _adopt = adopt_parent(pid);
                    let _child = Span::enter_keyed("work", k);
                    barrier.wait();
                    std::thread::sleep(std::time::Duration::from_millis(5));
                });
            }
        });
        drop(parent);
        let mut spans = Vec::new();
        drain_spans(&mut spans);
        set_tracing(false);
        let fan = spans.iter().find(|s| s.name == "fan").expect("parent span");
        let t = aggregate(&spans);
        assert_eq!(t.calls("work"), 2);
        assert!(spans
            .iter()
            .filter(|s| s.name == "work")
            .all(|s| s.parent == fan.id));
        // Both children cover the same ~5 ms; the parent keeps a
        // non-negative remainder no larger than its own duration.
        assert!(t.self_ns["fan"] <= fan.dur_ns);
        assert!(t.self_ns["work"] >= 2 * 5_000_000);
        assert!(fan.dur_ns - t.self_ns["fan"] < t.self_ns["work"]);
    }
}
