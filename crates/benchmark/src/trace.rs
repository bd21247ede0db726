//! Spans recorded by the benchmark around each call into a layer of the
//! program. Nothing inside the program is instrumented: the `amrviz-obs`
//! recorder stays disabled, and a span here is two `Instant::now()` reads
//! and a `Vec` push. Spans stay in memory until the workload ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. All spans of one operation (iteration or request)
/// share `op`; `parent` is the `id` of the span that was open when this
/// one began, `None` for the operation's root.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub op: u64,
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }

    /// The layer a span is charged to: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[must_use]
pub struct Open(Option<usize>);

/// A single-threaded span recorder. Each client thread owns one; the
/// vectors are concatenated when the workload ends.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
    recording: bool,
    next_id: u32,
}

impl Tracer {
    /// `epoch` is the zero of `start_ns`/`end_ns`; share one across threads.
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
            recording: false,
            next_id: 0,
        }
    }

    /// Starts operation `op`. With `record` false every `begin`/`end` until
    /// the next `start_op` is a no-op — the traced run alternates recorded
    /// and unrecorded operations to price the tracing itself.
    pub fn start_op(&mut self, op: u64, record: bool) {
        debug_assert!(self.stack.is_empty(), "previous operation left spans open");
        self.op = op;
        self.recording = record;
        self.next_id = 0;
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.recording {
            return Open(None);
        }
        let idx = self.spans.len();
        let parent = self.stack.last().map(|&p| self.spans[p].id);
        self.spans.push(Span {
            op: self.op,
            id: self.next_id,
            parent,
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.next_id += 1;
        self.stack.push(idx);
        Open(Some(idx))
    }

    pub fn end(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(idx), "spans must close innermost first");
        self.spans[idx].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    /// Times `f` under a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span, aligned with `spans`: its duration minus the
/// part of that interval its direct children cover (the union, so children
/// that overlap each other are not subtracted twice).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<(u64, u32), Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children
                .entry((s.op, p))
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get_mut(&(s.op, s.id)) else {
                return s.end_ns - s.start_ns;
            };
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.clamp(reach, s.end_ns);
                let b = b.clamp(reach, s.end_ns);
                covered += b - a;
                reach = b;
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// What the spans of a traced run add up to.
#[derive(Debug, Default)]
pub struct Attribution {
    /// Self seconds per layer, summed over all operations.
    pub layer_self_s: BTreeMap<&'static str, f64>,
    /// Root-span seconds summed over all operations.
    pub root_s: f64,
    /// Largest `|Σ self − root| / root` over the operations.
    pub worst_sum_error: f64,
    pub operations: usize,
}

/// Sums self times per layer and checks, per operation, that they add up
/// to the operation's root span.
pub fn attribute(spans: &[Span]) -> Attribution {
    let selfs = self_times_ns(spans);
    let mut per_op: BTreeMap<u64, (u64, u64)> = BTreeMap::new(); // (Σ self, root)
    let mut out = Attribution::default();
    for (s, &self_ns) in spans.iter().zip(&selfs) {
        *out.layer_self_s.entry(s.layer()).or_default() += self_ns as f64 * 1e-9;
        let e = per_op.entry(s.op).or_default();
        e.0 += self_ns;
        if s.parent.is_none() {
            e.1 += s.end_ns - s.start_ns;
        }
    }
    out.operations = per_op.len();
    for &(sum, root) in per_op.values() {
        out.root_s += root as f64 * 1e-9;
        if root > 0 {
            let err = (sum as f64 - root as f64).abs() / root as f64;
            out.worst_sum_error = out.worst_sum_error.max(err);
        }
    }
    out
}

/// Per operation, the summed seconds of the spans whose name starts with
/// `prefix` — operations without such a span are left out.
pub fn per_op_seconds<'a>(spans: impl IntoIterator<Item = &'a Span>, prefix: &str) -> Vec<f64> {
    let mut per_op: BTreeMap<u64, f64> = BTreeMap::new();
    for s in spans.into_iter().filter(|s| s.name.starts_with(prefix)) {
        *per_op.entry(s.op).or_default() += s.seconds();
    }
    per_op.into_values().collect()
}

/// Writes one JSON object per span.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"id\":{},\"span\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.op, s.id, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(op: u64, id: u32, parent: Option<u32>, name: &'static str, a: u64, b: u64) -> Span {
        Span {
            op,
            id,
            parent,
            name,
            start_ns: a,
            end_ns: b,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 0, None, "iteration", 0, 100),
            span(1, 1, Some(0), "compress.enc", 10, 40),
            // Overlaps its sibling by 10: the union covers [10, 60).
            span(1, 2, Some(0), "compress.dec", 30, 60),
            span(1, 3, Some(2), "codec.huff", 35, 45),
            // Same ids in another operation must not mix in.
            span(2, 0, None, "iteration", 200, 260),
            span(2, 1, Some(0), "viz.dual", 200, 250),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 30, 20, 10, 10, 50]);
    }

    #[test]
    fn nested_spans_add_up_to_their_root() {
        let mut t = Tracer::new(Instant::now());
        for op in 0..3 {
            t.start_op(op, true);
            let root = t.begin("iteration");
            t.span("compress.enc", || std::hint::black_box(vec![0u8; 4096]));
            let outer = t.begin("viz.dual");
            t.span("viz.dual.level", || std::hint::black_box(vec![0u8; 4096]));
            t.end(outer);
            t.end(root);
        }
        // An unrecorded operation leaves nothing behind.
        t.start_op(9, false);
        let root = t.begin("iteration");
        t.end(root);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 12);
        assert!(spans.iter().all(|s| s.op != 9));
        let a = attribute(&spans);
        assert_eq!(a.operations, 3);
        assert_eq!(a.worst_sum_error, 0.0, "properly nested spans sum exactly");
        let layers: Vec<_> = a.layer_self_s.keys().copied().collect();
        assert_eq!(layers, ["compress", "iteration", "viz"]);
        let total: f64 = a.layer_self_s.values().sum();
        assert!((total - a.root_s).abs() <= 1e-9 * a.root_s.max(1.0));
    }

    #[test]
    fn per_op_sums_follow_the_name_prefix() {
        let spans = vec![
            span(1, 0, None, "iteration", 0, 1_000_000_000),
            span(1, 1, Some(0), "compress.enc.szlr", 0, 250_000_000),
            span(
                1,
                2,
                Some(0),
                "compress.enc.interp",
                300_000_000,
                425_000_000,
            ),
            span(2, 0, None, "iteration", 0, 1_000_000_000),
        ];
        assert_eq!(per_op_seconds(&spans, "compress.enc"), vec![0.375]);
        assert_eq!(per_op_seconds(&spans, "compress.enc.szlr"), vec![0.25]);
        assert_eq!(per_op_seconds(&spans, "iteration").len(), 2);
    }
}
