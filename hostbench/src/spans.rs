//! In-memory span recorder for the traced run.
//!
//! The benchmark records a span around each call it makes into a layer:
//! name, start, end, parent span and the id of the step, analysis or
//! request it belongs to. Spans stay in memory until the run ends, when
//! [`write_jsonl`] writes them out and [`self_times`] attributes time.
//! A disabled tracer records nothing and reads no clock.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call, e.g. `graph.forward`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Step, analysis or request the span belongs to.
    pub op: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder; a no-op when disabled.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Option<Vec<Span>>,
}

impl Tracer {
    /// A tracer timing from `origin`, recording only when `on`.
    pub fn new(origin: Instant, on: bool) -> Tracer {
        Tracer {
            origin,
            spans: on.then(Vec::new),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.spans.is_some()
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a span measured elsewhere; returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        op: u64,
    ) -> Option<usize> {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        let spans = self.spans.as_mut()?;
        spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op,
        });
        Some(spans.len() - 1)
    }

    /// Opens a span that [`Tracer::close`] ends; its index can parent
    /// the spans recorded meanwhile.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, op: u64) -> Option<usize> {
        if !self.on() {
            return None;
        }
        let now = Instant::now();
        self.record(name, now, now, parent, op)
    }

    /// Ends a span opened by [`Tracer::open`].
    pub fn close(&mut self, index: Option<usize>) {
        if let Some(i) = index {
            let end = self.ns(Instant::now());
            if let Some(spans) = self.spans.as_mut() {
                spans[i].end_ns = end;
            }
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.on() {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.record(name, start, Instant::now(), parent, op);
        out
    }

    /// The recorded spans (empty when disabled).
    pub fn spans(&self) -> &[Span] {
        self.spans.as_deref().unwrap_or(&[])
    }
}

/// Time attributed to one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    /// Spans of this name.
    pub count: u64,
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
    /// Summed duration minus the part covered by child spans.
    pub self_ns: u64,
}

/// Per-name self time: each span's duration minus the part of its
/// interval that its children cover. Over a tree of spans the self times
/// sum to the roots' total duration.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    self_times_by(spans, |_| ())
        .into_iter()
        .map(|(((), name), t)| (name, t))
        .collect()
}

/// Writes `header` and then one JSON object per span, one per line.
///
/// # Errors
///
/// Returns the I/O error of creating or writing the file.
pub fn write_jsonl(path: &Path, header: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{header}")?;
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
            s.name, s.start_ns, s.end_ns, s.op
        )?;
    }
    out.flush()
}

/// Self time per `(group, name)`, where `group` classifies each span (for
/// example by the model its operation ran).
pub fn self_times_by<K: Ord + Copy>(
    spans: &[Span],
    group: impl Fn(&Span) -> K,
) -> BTreeMap<(K, &'static str), SelfTime> {
    let mut out: BTreeMap<(K, &'static str), SelfTime> = BTreeMap::new();
    let mut covered = vec![0u64; spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            let parent = &spans[p];
            let start = span.start_ns.max(parent.start_ns);
            let end = span.end_ns.min(parent.end_ns);
            covered[p] += end.saturating_sub(start);
        }
    }
    for (span, covered) in spans.iter().zip(covered) {
        let entry = out.entry((group(span), span.name)).or_default();
        entry.count += 1;
        entry.total_ns += span.dur_ns();
        entry.self_ns += span.dur_ns().saturating_sub(covered);
    }
    out
}

/// Human-readable attribution of one operation's time: each layer's self
/// time per operation, their sum and the residual (self time of the root
/// span `root`, i.e. the benchmark's own glue), which add up to the mean
/// operation time of the traced window.
pub fn breakdown(
    op: &str,
    ops: f64,
    traced_mean_ms: f64,
    times: &BTreeMap<&'static str, SelfTime>,
    root: &str,
) -> String {
    let mut out = String::new();
    let mut layers = 0.0;
    for (name, t) in times {
        let ms = t.self_ns as f64 / 1e6 / ops;
        if *name != root {
            layers += ms;
        }
        out.push_str(&format!(
            "  {name:<34} self {ms:>10.4} ms/{op}  ({} spans)\n",
            t.count
        ));
    }
    let residual = times
        .get(root)
        .map_or(0.0, |t| t.self_ns as f64 / 1e6 / ops);
    out.push_str(&format!(
        "  {ops:.0} traced ops ({op}): mean {traced_mean_ms:.4} ms = layers {layers:.4} + residual {residual:.4}"
    ));
    out
}

/// Tracing overhead in percent: how much longer the traced window's
/// operations took than the untraced window's, both taken with the same
/// robust estimator.
pub fn overhead_pct(traced_ms: f64, untraced_ms: f64) -> f64 {
    100.0 * (traced_ms / untraced_ms - 1.0)
}
