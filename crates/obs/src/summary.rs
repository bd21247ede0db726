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
//!
//! The tree underneath, [`SpanAgg`], is the one every span exporter
//! renders: this summary sorts each level by time, the flamegraph by key.

use std::cmp::Ordering;
use std::collections::HashMap;

use amrviz_json::Json;

use crate::SpanEvent;

/// One node of the span tree: spans grouped by parent chain and key (name
/// plus ` [L<n>]` for a `level` field). It is the one tree every span
/// exporter renders — the `--timing` text and a manifest's `span_summary`
/// through [`build`], the flamegraph through [`crate::flame`].
#[derive(Debug, Clone)]
pub struct SpanAgg {
    /// Span name plus ` [L<n>]` when the spans carried a `level` field.
    pub key: String,
    /// Total wall nanoseconds across all spans aggregated into this node.
    pub total_ns: u64,
    /// Number of spans aggregated.
    pub count: usize,
    /// Largest `mem_peak_bytes` of any aggregated span.
    pub mem_peak_bytes: u64,
    /// Built in first-seen order; [`build`] sorts each level by time, the
    /// flamegraph by key.
    pub children: Vec<SpanAgg>,
}

impl SpanAgg {
    /// `total_ns` minus the children's totals (clamped at 0).
    pub fn self_ns(&self) -> u64 {
        let child_ns: u64 = self.children.iter().map(|c| c.total_ns).sum();
        self.total_ns.saturating_sub(child_ns)
    }
}

/// Aggregates span events into the keyed tree; returns its roots, every
/// level in first-seen order. Spans with no recorded parent (including
/// spans whose parent ran on another thread) are roots.
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

/// Sorts every level of the tree by `cmp`. The sort is stable, so equal
/// nodes keep their first-seen order.
pub(crate) fn sort_tree(nodes: &mut [SpanAgg], cmp: &dyn Fn(&SpanAgg, &SpanAgg) -> Ordering) {
    nodes.sort_by(cmp);
    for n in nodes {
        sort_tree(&mut n.children, cmp);
    }
}

/// The span tree of one recording as the summary reads it: every level
/// sorted by time, longest first.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    pub roots: Vec<SpanAgg>,
    /// Sum of root-span wall time, the denominator of every percentage.
    pub total_ns: u64,
}

/// Builds a summary from a list of span events.
pub fn build(events: &[SpanEvent]) -> Summary {
    let mut roots = aggregate(events);
    sort_tree(&mut roots, &|a, b| b.total_ns.cmp(&a.total_ns));
    let total_ns = roots.iter().map(|r| r.total_ns).sum();
    Summary { roots, total_ns }
}

fn seconds(ns: u64) -> f64 {
    ns as f64 / 1e9
}

impl Summary {
    /// `ns` as a percentage of the root total.
    pub fn percent(&self, ns: u64) -> f64 {
        100.0 * ns as f64 / self.total_ns.max(1) as f64
    }

    /// Plain-text rendering: indented stages, seconds, percent, count.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<42} {:>11} {:>8} {:>7}\n",
            "stage", "time", "%", "count"
        ));
        fn walk(s: &Summary, node: &SpanAgg, depth: usize, out: &mut String) {
            let name = format!("{}{}", "  ".repeat(depth), node.key);
            out.push_str(&format!(
                "{:<42} {:>9.3} s {:>7.1}% {:>7}\n",
                name,
                seconds(node.total_ns),
                s.percent(node.total_ns),
                node.count
            ));
            for c in &node.children {
                walk(s, c, depth + 1, out);
            }
        }
        for r in &self.roots {
            walk(self, r, 0, &mut out);
        }
        out.push_str(&format!(
            "{:<42} {:>9.3} s {:>7.1}% {:>7}\n",
            "total (root spans)",
            seconds(self.total_ns),
            100.0,
            ""
        ));
        out
    }

    /// The JSON a repro manifest holds under `span_summary`.
    pub fn to_json(&self) -> Json {
        let mut j = Json::obj();
        j.set("total_seconds", seconds(self.total_ns))
            .set("spans", self.nodes_json(&self.roots));
        j
    }

    fn nodes_json(&self, nodes: &[SpanAgg]) -> Json {
        let node = |n: &SpanAgg| {
            let mut j = Json::obj();
            j.set("stage", n.key.as_str())
                .set("seconds", seconds(n.total_ns))
                .set("percent", self.percent(n.total_ns))
                .set("count", n.count)
                .set("children", self.nodes_json(&n.children));
            j
        };
        Json::Arr(nodes.iter().map(node).collect())
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
        assert_eq!(s.total_ns, 2_000_000_000);
        let compress = s.roots.iter().find(|r| r.key == "compress").unwrap();
        assert_eq!(compress.children.len(), 2);
        assert_eq!(compress.children[0].key, "compress.level [L1]");
        assert!((s.percent(compress.total_ns) - 50.0).abs() < 1e-9);
        assert!((s.percent(compress.children[0].total_ns) - 30.0).abs() < 1e-9);
    }

    #[test]
    fn repeated_spans_aggregate() {
        let events = vec![ev(1, 0, "stage", None, 100), ev(2, 0, "stage", None, 300)];
        let s = build(&events);
        assert_eq!(s.roots.len(), 1);
        assert_eq!(s.roots[0].count, 2);
        assert!((s.percent(s.roots[0].total_ns) - 100.0).abs() < 1e-9);
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
        let s = build(&crate::tests::fixture_events());
        assert_eq!(
            s.to_text(),
            concat!(
                "stage                                             time        %   count\n",
                "compress                                       1.000 s    57.1%       1\n",
                "  compress.level [L1]                          0.600 s    34.3%       1\n",
                "  compress.level [L0]                          0.300 s    17.1%       1\n",
                "    compress.level [L0]                        0.050 s     2.9%       1\n",
                "extract                                        0.750 s    42.9%       2\n",
                "  extract.level [L1]                           0.250 s    14.3%       1\n",
                "lost                                           0.000 s     0.0%       1\n",
                "total (root spans)                             1.750 s   100.0%        \n",
            )
        );
        // What a repro manifest holds under `span_summary`.
        let manifest = amrviz_json::Json::parse(&s.to_json().to_string()).unwrap();
        assert_eq!(
            manifest.to_string_compact(),
            concat!(
                "{\"total_seconds\":1.750000042,\"spans\":[",
                "{\"stage\":\"compress\",\"seconds\":1,\"percent\":57.14285577142861,\"count\":1,\"children\":[",
                "{\"stage\":\"compress.level [L1]\",\"seconds\":0.6,\"percent\":34.28571346285716,\"count\":1,\"children\":[]},",
                "{\"stage\":\"compress.level [L0]\",\"seconds\":0.3,\"percent\":17.14285673142858,\"count\":1,\"children\":[",
                "{\"stage\":\"compress.level [L0]\",\"seconds\":0.05,\"percent\":2.85714278857143,\"count\":1,\"children\":[]}]}]},",
                "{\"stage\":\"extract\",\"seconds\":0.75,\"percent\":42.85714182857145,\"count\":2,\"children\":[",
                "{\"stage\":\"extract.level [L1]\",\"seconds\":0.25,\"percent\":14.285713942857152,\"count\":1,\"children\":[]}]},",
                "{\"stage\":\"lost\",\"seconds\":4.2e-8,\"percent\":2.3999999424000015e-6,\"count\":1,\"children\":[]}]}",
            )
        );
    }

    #[test]
    fn empty_summary() {
        let s = build(&[]);
        assert!(s.roots.is_empty());
        assert_eq!(s.total_ns, 0);
        assert!(s.to_text().contains("total"));
    }
}
