//! Hierarchical span summary: cumulative time per stage per AMR level.
//!
//! Spans are grouped by their parent chain and name, with `level = N`
//! fields split into separate rows, so a run prints as e.g.
//!
//! ```text
//! stage                                  time        %   count
//! compress                            1.204 s    54.1%       1
//!   compress.level [L0]              0.310 s    13.9%       1
//!   compress.level [L1]              0.871 s    39.1%       1
//! decompress                          0.514 s    23.1%       1
//! ```
//!
//! Percentages are of the total *root* span time. Spans running
//! concurrently on pool workers accumulate cumulative CPU-side wall time,
//! so sibling percentages can exceed their parent's on parallel stages —
//! that is the per-core cost, which is what a perf PR needs to see.

use std::collections::HashMap;

use crate::{events_snapshot, json_escape, SpanEvent};

/// One aggregated row of the summary tree.
#[derive(Debug, Clone)]
pub struct SummaryNode {
    /// Span name plus ` [L<n>]` when the spans carried a `level` field.
    pub key: String,
    /// Total wall time across all spans aggregated into this node.
    pub seconds: f64,
    /// Percent of the summary's root total.
    pub percent: f64,
    /// Number of spans aggregated.
    pub count: usize,
    pub children: Vec<SummaryNode>,
}

/// The aggregated span tree of one recording.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    pub roots: Vec<SummaryNode>,
    /// Sum of root-span wall time, the denominator of every percentage.
    pub total_seconds: f64,
}

/// One node of the keyed span tree: spans grouped by parent chain and key
/// (name plus ` [L<n>]` for a `level` field), children in first-seen
/// order. [`Summary`] and [`crate::flame::FlameNode`] are both views of it.
pub(crate) struct SpanAgg {
    pub(crate) key: String,
    pub(crate) total_ns: u64,
    pub(crate) count: usize,
    /// Largest `mem_peak_bytes` of any aggregated span.
    pub(crate) mem_peak_bytes: u64,
    pub(crate) children: Vec<SpanAgg>,
}

/// Aggregates span events into the keyed tree; returns its roots. Spans
/// with no recorded parent (including spans whose parent ran on another
/// thread) are roots.
pub(crate) fn aggregate(events: &[SpanEvent]) -> Vec<SpanAgg> {
    struct Slot {
        key: String,
        total_ns: u64,
        count: usize,
        mem_peak_bytes: u64,
        children: Vec<usize>,
        child_by_key: HashMap<String, usize>,
    }
    let slot = |key: String| Slot {
        key,
        total_ns: 0,
        count: 0,
        mem_peak_bytes: 0,
        children: Vec::new(),
        child_by_key: HashMap::new(),
    };
    // Index 0 is a virtual root.
    let mut slots: Vec<Slot> = vec![slot(String::new())];
    let mut slot_of_event: HashMap<u64, usize> = HashMap::new();

    // Parents always have smaller ids than their children.
    let mut sorted: Vec<&SpanEvent> = events.iter().collect();
    sorted.sort_by_key(|e| e.id);

    for e in sorted {
        let parent_idx = slot_of_event.get(&e.parent).copied().unwrap_or(0);
        let key = match e.level() {
            Some(l) => format!("{} [L{l}]", e.name),
            None => e.name.to_string(),
        };
        let idx = match slots[parent_idx].child_by_key.get(&key) {
            Some(&i) => i,
            None => {
                let i = slots.len();
                slots.push(slot(key.clone()));
                slots[parent_idx].children.push(i);
                slots[parent_idx].child_by_key.insert(key, i);
                i
            }
        };
        slots[idx].total_ns += e.dur_ns;
        slots[idx].count += 1;
        slots[idx].mem_peak_bytes = slots[idx].mem_peak_bytes.max(e.mem_peak_bytes);
        slot_of_event.insert(e.id, idx);
    }

    fn lift(slots: &mut [Slot], idx: usize) -> SpanAgg {
        let children = std::mem::take(&mut slots[idx].children);
        SpanAgg {
            key: std::mem::take(&mut slots[idx].key),
            total_ns: slots[idx].total_ns,
            count: slots[idx].count,
            mem_peak_bytes: slots[idx].mem_peak_bytes,
            children: children.into_iter().map(|c| lift(slots, c)).collect(),
        }
    }
    lift(&mut slots, 0).children
}

/// Builds a summary from a list of span events.
pub fn build(events: &[SpanEvent]) -> Summary {
    let roots = aggregate(events);
    let total_ns: u64 = roots.iter().map(|r| r.total_ns).sum();
    let denom = if total_ns == 0 { 1.0 } else { total_ns as f64 };

    // Stable sort over first-seen order, so equal times keep that order.
    fn view(nodes: Vec<SpanAgg>, denom: f64) -> Vec<SummaryNode> {
        let mut out: Vec<SummaryNode> = nodes
            .into_iter()
            .map(|n| SummaryNode {
                key: n.key,
                seconds: n.total_ns as f64 / 1e9,
                percent: 100.0 * n.total_ns as f64 / denom,
                count: n.count,
                children: view(n.children, denom),
            })
            .collect();
        out.sort_by(|a, b| {
            b.seconds
                .partial_cmp(&a.seconds)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        out
    }
    Summary {
        roots: view(roots, denom),
        total_seconds: total_ns as f64 / 1e9,
    }
}

/// Summary of everything recorded so far in the global recorder.
pub fn collect() -> Summary {
    build(&events_snapshot())
}

impl Summary {
    /// Plain-text rendering: indented stages, seconds, percent, count.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<42} {:>11} {:>8} {:>7}\n",
            "stage", "time", "%", "count"
        ));
        fn walk(node: &SummaryNode, depth: usize, out: &mut String) {
            let name = format!("{}{}", "  ".repeat(depth), node.key);
            out.push_str(&format!(
                "{:<42} {:>9.3} s {:>7.1}% {:>7}\n",
                name, node.seconds, node.percent, node.count
            ));
            for c in &node.children {
                walk(c, depth + 1, out);
            }
        }
        for r in &self.roots {
            walk(r, 0, &mut out);
        }
        out.push_str(&format!(
            "{:<42} {:>9.3} s {:>7.1}% {:>7}\n",
            "total (root spans)", self.total_seconds, 100.0, ""
        ));
        out
    }

    /// JSON rendering (hand-assembled; no serde dependency).
    pub fn to_json(&self) -> String {
        fn node_json(n: &SummaryNode) -> String {
            let children: Vec<String> = n.children.iter().map(node_json).collect();
            format!(
                "{{\"stage\":\"{}\",\"seconds\":{:e},\"percent\":{:e},\
                 \"count\":{},\"children\":[{}]}}",
                json_escape(&n.key),
                n.seconds,
                n.percent,
                n.count,
                children.join(",")
            )
        }
        let roots: Vec<String> = self.roots.iter().map(node_json).collect();
        format!(
            "{{\"total_seconds\":{:e},\"spans\":[{}]}}",
            self.total_seconds,
            roots.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FieldValue;

    fn ev(id: u64, parent: u64, name: &'static str, level: Option<i64>, dur_ns: u64) -> SpanEvent {
        let fields = match level {
            Some(l) => vec![("level", FieldValue::Int(l))],
            None => Vec::new(),
        };
        SpanEvent {
            id,
            parent,
            trace_id: 0xfeed,
            name,
            fields,
            thread: 0,
            start_ns: id * 10,
            dur_ns,
            mem_net_bytes: 0,
            mem_peak_bytes: 0,
        }
    }

    #[test]
    fn builds_level_split_tree() {
        let events = vec![
            ev(1, 0, "compress", None, 1_000_000_000),
            ev(2, 1, "compress.level", Some(0), 300_000_000),
            ev(3, 1, "compress.level", Some(1), 600_000_000),
            ev(4, 0, "extract", None, 1_000_000_000),
        ];
        let s = build(&events);
        assert_eq!(s.roots.len(), 2);
        assert!((s.total_seconds - 2.0).abs() < 1e-9);
        let compress = s.roots.iter().find(|r| r.key == "compress").unwrap();
        assert_eq!(compress.children.len(), 2);
        assert_eq!(compress.children[0].key, "compress.level [L1]");
        assert!((compress.percent - 50.0).abs() < 1e-9);
        assert!((compress.children[0].percent - 30.0).abs() < 1e-9);
    }

    #[test]
    fn repeated_spans_aggregate() {
        let events = vec![ev(1, 0, "stage", None, 100), ev(2, 0, "stage", None, 300)];
        let s = build(&events);
        assert_eq!(s.roots.len(), 1);
        assert_eq!(s.roots[0].count, 2);
        assert!((s.roots[0].percent - 100.0).abs() < 1e-9);
    }

    #[test]
    fn orphan_parent_falls_back_to_root() {
        // A child whose parent event was never recorded (e.g. pruned) lands
        // at the root rather than being dropped.
        let events = vec![ev(5, 3, "lost", None, 42)];
        let s = build(&events);
        assert_eq!(s.roots.len(), 1);
        assert_eq!(s.roots[0].key, "lost");
    }

    #[test]
    fn text_and_json_render() {
        let events = vec![
            ev(1, 0, "compress", None, 500_000_000),
            ev(2, 1, "compress.level", Some(0), 250_000_000),
        ];
        let s = build(&events);
        let txt = s.to_text();
        assert!(txt.contains("compress"));
        assert!(txt.contains("[L0]"));
        assert!(txt.contains('%'));
        let json = s.to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"stage\":\"compress\""));
    }

    #[test]
    fn empty_summary() {
        let s = build(&[]);
        assert!(s.roots.is_empty());
        assert_eq!(s.total_seconds, 0.0);
        assert!(s.to_text().contains("total"));
    }
}
