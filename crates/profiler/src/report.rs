//! Self-contained HTML run reports (DESIGN.md §5i).
//!
//! `tbd report` (and the live server's `GET /report`) render one capture
//! into a single HTML file with **zero external dependencies** — inline
//! CSS, inline JS, no CDN, no fonts — so the artifact can be attached to
//! an issue or archived next to a BENCH snapshot and still open a decade
//! later. Sections map straight onto the paper's figures:
//!
//! * an SVG flamegraph-style swimlane per `(layer, track)` over the
//!   deterministic span events (the simulated device/framework/cluster
//!   timelines — host wall-clock spans are excluded by contract);
//! * the Fig. 9 memory-footprint curve folded from `Alloc`/`Free`
//!   instants, with `AllocFail` markers;
//! * the Fig. 10 communication/compute overlap bars;
//! * the metrics table (deterministic registry families only);
//! * the ranked [`DiagnosisReport`] with remediation hints;
//! * the observer's own overhead accounting (§5i self-observability).
//!
//! # Determinism contract
//!
//! [`ReportContext::render`] takes the timestamp as a *parameter* — the
//! renderer never reads the clock — and [`ReportContext::digest_hex`]
//! digests the body rendered with the fixed [`DIGEST_TIMESTAMP`]
//! placeholder. Every value shown comes from simulated/logical time or
//! deterministic counters (wall-clock registry families are filtered via
//! [`NONDETERMINISTIC_FAMILIES`]), so the digest is bitwise-stable across
//! hosts, thread counts and build profiles, and is pinned by
//! `tests/golden/report-baseline.digest` in CI.

use crate::agg::{arg_f64, MetricsRegistry};
use crate::diagnose::DiagnosisReport;
use std::fmt::Write as _;
use std::ops::Range;
use tbd_graph::trace::{
    write_fixed, write_u64, EventKind, Fnv1a, RecorderOverhead, TraceLayer, TraceStore,
    SINK_LATENCY_BUCKETS,
};

/// Timestamp placeholder used when computing the digest: the one part of
/// the page allowed to vary between renders of the same capture.
pub const DIGEST_TIMESTAMP: &str = "";

/// Parses a pinned digest file (`tests/golden/*.digest`): comment lines (`#`) are skipped, the digest
/// is the first `digest <hex>` line.
///
/// # Errors
///
/// Returns a message when no digest line is present.
pub fn parse_digest_file(text: &str) -> Result<String, String> {
    text.lines()
        .map(str::trim)
        .find_map(|line| line.strip_prefix("digest "))
        .map(|d| d.trim().to_string())
        .ok_or_else(|| "no `digest <hex>` line in baseline file".to_string())
}

/// Registry families excluded from the report because they carry host
/// wall-clock readings or thread-count-dependent bookkeeping; everything
/// else in the registry is a pure function of the captured trace.
pub const NONDETERMINISTIC_FAMILIES: &[&str] = &[
    "host_node_time_us",
    "host_utilization",
    "host_threads",
    "node_duration_us",
    "internal_record_calls_total",
];

/// Most events drawn per swimlane; beyond this the longest spans win and
/// the lane is annotated with how many were elided.
pub const MAX_LANE_EVENTS: usize = 240;

/// Everything the renderer needs, borrowed from a finished capture.
#[derive(Debug)]
pub struct ReportContext<'a> {
    /// Workload name (`resnet50`, …).
    pub model: &'a str,
    /// Framework name.
    pub framework: &'a str,
    /// Per-GPU minibatch size.
    pub batch: usize,
    /// Simulated device name.
    pub gpu: &'a str,
    /// Golden-trace digest of the capture (`Trace::digest_hex`).
    pub trace_digest: &'a str,
    /// The full event stream of the capture.
    pub events: &'a TraceStore,
    /// Metrics snapshot folded from the same events.
    pub registry: &'a MetricsRegistry,
    /// Ranked bottleneck diagnosis of the same events.
    pub diagnosis: &'a DiagnosisReport,
    /// The recorder's self-observability counters for this capture.
    pub overhead: RecorderOverhead,
}

/// Appends `text` HTML-escaped: `&`, `<`, `>`, `"` and `'` become
/// entities, everything else is copied unchanged.
fn esc_into(out: &mut String, text: &str) {
    let mut run = 0;
    for (i, b) in text.bytes().enumerate() {
        let entity = match b {
            b'&' => "&amp;",
            b'<' => "&lt;",
            b'>' => "&gt;",
            b'"' => "&quot;",
            b'\'' => "&#39;",
            _ => continue,
        };
        // Every escaped byte is ASCII, so `run..i` ends on a char boundary.
        out.push_str(&text[run..i]);
        out.push_str(entity);
        run = i + 1;
    }
    out.push_str(&text[run..]);
}

/// Deterministic number formatting: integers render bare, other finite
/// values with four decimals, non-finite ones as `NaN`, `∞` or `-∞`.
/// Never locale- or platform-dependent.
fn fmt_num_into(out: &mut String, v: f64) {
    if v.is_nan() {
        out.push_str("NaN");
    } else if v.is_infinite() {
        out.push_str(if v > 0.0 { "∞" } else { "-∞" });
    } else {
        write_fixed(out, v, if v == v.trunc() && v.abs() < 1e15 { 0 } else { 4 });
    }
}

fn fmt_us_into(out: &mut String, us: f64) {
    let (value, decimals, unit) = if us >= 1e6 {
        (us / 1e6, 3, " s")
    } else if us >= 1e3 {
        (us / 1e3, 3, " ms")
    } else {
        (us, 1, " us")
    };
    write_fixed(out, value, decimals);
    out.push_str(unit);
}

fn fmt_bytes_into(out: &mut String, bytes: f64) {
    let (value, decimals, unit) = if bytes >= 1e9 {
        (bytes / 1e9, 2, " GB")
    } else if bytes >= 1e6 {
        (bytes / 1e6, 2, " MB")
    } else if bytes >= 1e3 {
        (bytes / 1e3, 1, " kB")
    } else {
        (bytes, 0, " B")
    };
    write_fixed(out, value, decimals);
    out.push_str(unit);
}

fn kind_class(kind: EventKind) -> &'static str {
    match kind {
        EventKind::KernelExec => "k-kernel",
        EventKind::KernelLaunch => "k-launch",
        EventKind::Memcpy => "k-memcpy",
        EventKind::Sync => "k-sync",
        EventKind::Communication => "k-comm",
        EventKind::Iteration => "k-iter",
        EventKind::Phase => "k-phase",
        EventKind::Alloc | EventKind::Free | EventKind::AllocFail => "k-mem",
        EventKind::Fault => "k-fault",
        EventKind::Recovery => "k-recovery",
        EventKind::Checkpoint => "k-ckpt",
        EventKind::Membership | EventKind::Eviction | EventKind::Rejoin => "k-membership",
        EventKind::NodeExec => "k-node",
    }
}

const SVG_W: f64 = 1100.0;
const LANE_H: f64 = 18.0;

impl ReportContext<'_> {
    /// Renders the complete HTML document. `timestamp` is the only
    /// non-deterministic content allowed on the page; pass
    /// [`DIGEST_TIMESTAMP`] to reproduce the digested body.
    pub fn render(&self, timestamp: &str) -> String {
        self.render_with_stamp_slot(timestamp).0
    }

    /// FNV-1a digest (16 hex digits) of the body rendered with the fixed
    /// timestamp placeholder.
    pub fn digest_hex(&self) -> String {
        self.render_and_digest(DIGEST_TIMESTAMP).1
    }

    /// Renders the page once with `timestamp` and returns it together with
    /// [`ReportContext::digest_hex`], computed from the same bytes: the
    /// timestamp is the only varying text on the page, so hashing the
    /// render with its escaped-timestamp slot replaced by the escaped
    /// [`DIGEST_TIMESTAMP`] equals hashing the placeholder render.
    pub fn render_and_digest(&self, timestamp: &str) -> (String, String) {
        let (html, slot) = self.render_with_stamp_slot(timestamp);
        let mut placeholder = String::new();
        esc_into(&mut placeholder, DIGEST_TIMESTAMP);
        let digest = Fnv1a::new()
            .update(&html.as_bytes()[..slot.start])
            .update(placeholder.as_bytes())
            .update(&html.as_bytes()[slot.end..])
            .finish();
        (html, format!("{digest:016x}"))
    }

    /// `"{model} × {framework}"`, escaped (the title and the heading).
    fn write_run_name(&self, out: &mut String) {
        esc_into(out, self.model);
        out.push_str(" × ");
        esc_into(out, self.framework);
    }

    /// The page plus the byte range its escaped timestamp occupies.
    fn render_with_stamp_slot(&self, timestamp: &str) -> (String, Range<usize>) {
        let mut out = String::with_capacity(64 * 1024);
        out.push_str("<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n");
        out.push_str("<title>TBD run report — ");
        self.write_run_name(&mut out);
        out.push_str("</title>\n<style>\n");
        out.push_str(STYLE);
        out.push_str("</style>\n</head>\n<body>\n");
        let slot = self.render_header(&mut out, timestamp);
        self.render_swimlanes(&mut out);
        self.render_memory_curve(&mut out);
        self.render_overlap(&mut out);
        self.render_metrics_table(&mut out);
        self.render_diagnosis(&mut out);
        self.render_overhead(&mut out);
        out.push_str("<script>\n");
        out.push_str(SCRIPT);
        out.push_str("</script>\n</body>\n</html>\n");
        (out, slot)
    }

    /// Writes the title, timestamp and run table; returns the byte range
    /// of the escaped timestamp in `out`.
    fn render_header(&self, out: &mut String, timestamp: &str) -> Range<usize> {
        out.push_str("<h1>TBD run report — ");
        self.write_run_name(out);
        out.push_str("</h1>\n<div class=\"stamp\">");
        let start = out.len();
        esc_into(out, timestamp);
        let slot = start..out.len();
        out.push_str("</div>\n");
        out.push_str("<table class=\"meta\"><tbody>\n");
        let rows: [(&str, String); 6] = [
            ("model", self.model.to_string()),
            ("framework", self.framework.to_string()),
            ("batch", self.batch.to_string()),
            ("gpu", self.gpu.to_string()),
            ("events", self.events.len().to_string()),
            ("trace digest", self.trace_digest.to_string()),
        ];
        for (key, value) in rows {
            table_row(out, "th", key, |out| esc_into(out, &value));
        }
        out.push_str("</tbody></table>\n");
        slot
    }

    fn render_swimlanes(&self, out: &mut String) {
        out.push_str("<h2>Kernel timeline</h2>\n");
        out.push_str(
            "<p class=\"note\">Deterministic span events per layer and track \
             (simulated/logical clocks). Host wall-clock executor spans are excluded \
             by the determinism contract.</p>\n",
        );
        let events = self.events;
        let (names, templates, ids) = (events.names(), events.templates(), events.template_ids());
        let (start, dur) = (events.start_column(), events.dur_column());
        let template_of = |i: u32| &templates[ids[i as usize] as usize];
        let start_of = |i: u32| start[i as usize];
        let dur_of = |i: u32| dur[i as usize];
        // Names by id: equal ids need no string comparison.
        let cmp_names = |i: u32, j: u32| {
            let (a, b) = (template_of(i).name, template_of(j).name);
            if a == b {
                std::cmp::Ordering::Equal
            } else {
                names[a as usize].cmp(&names[b as usize])
            }
        };
        for layer in [TraceLayer::GpuSim, TraceLayer::Framework, TraceLayer::Distrib] {
            // Store positions of the layer's spans: rows of a deterministic
            // template of the layer, with a duration.
            let in_layer: Vec<bool> =
                templates.iter().map(|t| t.layer == layer && t.deterministic).collect();
            let spans: Vec<u32> = (0..events.len())
                .filter(|&i| in_layer[ids[i] as usize] && dur[i] > 0.0)
                .map(|i| i as u32)
                .collect();
            if spans.is_empty() {
                continue;
            }
            let t0 = spans.iter().map(|&i| start_of(i)).fold(f64::INFINITY, f64::min);
            let t1 =
                spans.iter().map(|&i| start_of(i) + dur_of(i)).fold(f64::NEG_INFINITY, f64::max);
            let range = (t1 - t0).max(1e-9);
            let mut tracks: Vec<u32> = spans.iter().map(|&i| template_of(i).track).collect();
            tracks.sort_unstable();
            tracks.dedup();
            let height = tracks.len() as f64 * LANE_H + 4.0;
            out.push_str("<h3>");
            esc_into(out, layer.process_name());
            let _ = write!(out, " <span class=\"sub\">({} span(s), ", spans.len());
            fmt_us_into(out, range);
            out.push_str(")</span></h3>\n");
            let _ = writeln!(
                out,
                "<svg class=\"lanes\" viewBox=\"0 0 {SVG_W} {height}\" \
                 width=\"100%\" role=\"img\">"
            );
            let mut elided = 0usize;
            for (row, track) in tracks.iter().enumerate() {
                let y = row as f64 * LANE_H + 2.0;
                // Positions are ascending, so a position is its own last
                // tie-break.
                let mut lane: Vec<u32> =
                    spans.iter().copied().filter(|&i| template_of(i).track == *track).collect();
                if lane.len() > MAX_LANE_EVENTS {
                    // Keep the longest spans; ties broken by start, name and
                    // position so the selection is deterministic. Selecting
                    // the kept spans first sorts only them.
                    let longest = |&i: &u32, &j: &u32| {
                        dur_of(j)
                            .total_cmp(&dur_of(i))
                            .then_with(|| start_of(i).total_cmp(&start_of(j)))
                            .then_with(|| cmp_names(i, j))
                            .then_with(|| i.cmp(&j))
                    };
                    elided += lane.len() - MAX_LANE_EVENTS;
                    lane.select_nth_unstable_by(MAX_LANE_EVENTS - 1, longest);
                    lane.truncate(MAX_LANE_EVENTS);
                    lane.sort_unstable_by(longest);
                }
                lane.sort_by(|&i, &j| {
                    start_of(i).total_cmp(&start_of(j)).then_with(|| cmp_names(i, j))
                });
                for i in lane {
                    let x = (start_of(i) - t0) / range * SVG_W;
                    let w = (dur_of(i) / range * SVG_W).max(0.5);
                    out.push_str("<rect class=\"");
                    out.push_str(kind_class(template_of(i).kind));
                    out.push_str("\" x=\"");
                    write_fixed(out, x, 2);
                    out.push_str("\" y=\"");
                    write_fixed(out, y, 1);
                    out.push_str("\" width=\"");
                    write_fixed(out, w, 2);
                    out.push_str("\" height=\"");
                    write_fixed(out, LANE_H - 4.0, 1);
                    out.push_str("\"><title>");
                    esc_into(out, &names[template_of(i).name as usize]);
                    out.push_str(" — ");
                    fmt_us_into(out, dur_of(i));
                    out.push_str(" (track ");
                    write_u64(out, (*track).into());
                    out.push_str(")</title></rect>\n");
                }
            }
            out.push_str("</svg>\n");
            if elided > 0 {
                let _ = writeln!(
                    out,
                    "<p class=\"note\">{elided} shorter span(s) elided \
                     (longest {MAX_LANE_EVENTS} shown per lane).</p>"
                );
            }
        }
    }

    fn render_memory_curve(&self, out: &mut String) {
        let mut points: Vec<f64> = Vec::new();
        let mut current = 0.0f64;
        let mut fails: Vec<usize> = Vec::new();
        let allocator = |layer, kind| {
            layer == TraceLayer::GpuSim
                && matches!(kind, EventKind::Alloc | EventKind::Free | EventKind::AllocFail)
        };
        for event in self.events.iter_where(allocator) {
            let bytes = arg_f64(event, "bytes").unwrap_or(0.0);
            match event.kind {
                EventKind::Alloc => {
                    current += bytes;
                    points.push(current);
                }
                EventKind::Free => {
                    current = (current - bytes).max(0.0);
                    points.push(current);
                }
                EventKind::AllocFail => {
                    fails.push(points.len());
                    points.push(current);
                }
                _ => {}
            }
        }
        if points.is_empty() {
            return;
        }
        let peak = points.iter().copied().fold(0.0f64, f64::max).max(1.0);
        out.push_str("<h2>Memory footprint (Fig. 9)</h2>\n");
        let _ = write!(
            out,
            "<p class=\"note\">Resident device memory folded from {} allocator event(s); \
             peak ",
            points.len()
        );
        fmt_bytes_into(out, peak);
        out.push_str(".</p>\n");
        let h = 160.0f64;
        let _ = writeln!(
            out,
            "<svg class=\"curve\" viewBox=\"0 0 {SVG_W} {h}\" width=\"100%\" role=\"img\">"
        );
        let step = SVG_W / points.len().max(1) as f64;
        out.push_str("<polyline class=\"mem\" points=\"");
        for (i, &bytes) in points.iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            write_fixed(out, i as f64 * step, 2);
            out.push(',');
            write_fixed(out, h - 6.0 - bytes / peak * (h - 16.0), 2);
        }
        out.push_str("\"/>\n");
        for fail in &fails {
            let x = *fail as f64 * step;
            out.push_str("<line class=\"fail\" x1=\"");
            write_fixed(out, x, 2);
            out.push_str("\" y1=\"4\" x2=\"");
            write_fixed(out, x, 2);
            out.push_str("\" y2=\"");
            write_fixed(out, h - 4.0, 1);
            out.push_str("\"><title>allocation failure</title></line>\n");
        }
        out.push_str("</svg>\n");
        // Per-category peaks from the registry (already folded).
        let cats: Vec<(&str, f64)> = self
            .registry
            .gauges()
            .filter(|(name, _)| name.starts_with("memory_peak_bytes{"))
            .collect();
        if !cats.is_empty() {
            out.push_str(
                "<table class=\"grid\"><thead><tr><th>category</th><th>peak</th>\
                          </tr></thead><tbody>\n",
            );
            for (name, bytes) in cats {
                let label = name
                    .split("category=\"")
                    .nth(1)
                    .and_then(|s| s.strip_suffix("\"}"))
                    .unwrap_or(name);
                table_row(out, "td", label, |out| fmt_bytes_into(out, bytes));
            }
            out.push_str("</tbody></table>\n");
        }
    }

    fn render_overlap(&self, out: &mut String) {
        let comm = self.registry.gauge("comm_time_us").unwrap_or(0.0);
        if comm <= 0.0 {
            return;
        }
        let exposed = self.registry.gauge("comm_exposed_us").unwrap_or(0.0);
        let iter = self.registry.gauge("cluster_iteration_us").unwrap_or(0.0).max(comm).max(1e-9);
        out.push_str("<h2>Communication overlap (Fig. 10)</h2>\n");
        out.push_str("<p class=\"note\">Gradient exchange ");
        fmt_us_into(out, comm);
        out.push_str(" — ");
        fmt_us_into(out, exposed);
        out.push_str(" exposed beyond the backward pass (");
        fmt_num_into(out, if comm > 0.0 { (1.0 - exposed / comm) * 100.0 } else { 0.0 });
        out.push_str("% overlapped); cluster iteration ");
        fmt_us_into(out, iter);
        out.push_str(".</p>\n");
        let bar = |out: &mut String, label: &str, class: &str, us: f64| {
            let w = (us / iter * 100.0).clamp(0.0, 100.0);
            out.push_str("<div class=\"barrow\"><span class=\"barlabel\">");
            esc_into(out, label);
            let _ = write!(
                out,
                "</span><span class=\"bar\"><span class=\"{class}\" style=\"width:{w:.2}%\">\
                 </span></span><span class=\"barval\">"
            );
            fmt_us_into(out, us);
            out.push_str("</span></div>\n");
        };
        bar(out, "cluster iteration", "seg-iter", iter);
        let compute = self.registry.gauge("sim_iteration_us").unwrap_or(0.0);
        if compute > 0.0 {
            bar(out, "compute (1 GPU)", "seg-compute", compute);
        }
        bar(out, "comm total", "seg-comm", comm);
        bar(out, "comm exposed", "seg-exposed", exposed);
    }

    fn render_metrics_table(&self, out: &mut String) {
        out.push_str("<h2>Metrics</h2>\n");
        out.push_str(
            "<input id=\"mfilter\" type=\"text\" placeholder=\"filter series…\" \
             aria-label=\"filter metrics\">\n",
        );
        out.push_str(
            "<table class=\"grid\" id=\"metrics\"><thead>\
             <tr><th>series</th><th>kind</th><th>value</th></tr></thead><tbody>\n",
        );
        let keep = |name: &str| {
            let family = name.split('{').next().unwrap_or(name);
            !NONDETERMINISTIC_FAMILIES.contains(&family)
        };
        for (name, value) in self.registry.counters().filter(|(n, _)| keep(n)) {
            table_row(out, "td", name, |out| {
                out.push_str("counter</td><td>");
                write_u64(out, value);
            });
        }
        for (name, value) in self.registry.gauges().filter(|(n, _)| keep(n)) {
            table_row(out, "td", name, |out| {
                out.push_str("gauge</td><td>");
                fmt_num_into(out, value);
            });
        }
        out.push_str("</tbody></table>\n");
    }

    fn render_diagnosis(&self, out: &mut String) {
        out.push_str("<h2>Diagnosis</h2>\n");
        if self.diagnosis.diagnoses.is_empty() {
            out.push_str("<p class=\"note\">No diagnosis produced.</p>\n");
            return;
        }
        let _ = write!(
            out,
            "<p class=\"note\">Ranked bottleneck classes mined from {} event(s); \
             iteration ",
            self.diagnosis.events
        );
        fmt_us_into(out, self.diagnosis.iteration_us);
        out.push_str(".</p>\n");
        for (rank, diag) in self.diagnosis.diagnoses.iter().enumerate() {
            let pct = (diag.confidence * 100.0).clamp(0.0, 100.0);
            let _ = write!(out, "<div class=\"diag\"><div class=\"diaghead\">#{} ", rank + 1);
            esc_into(out, diag.class.label());
            let _ = write!(
                out,
                " <span class=\"conf\"><span style=\"width:{pct:.1}%\"></span></span> "
            );
            fmt_num_into(out, pct);
            out.push_str("%</div>\n");
            if !diag.evidence.is_empty() {
                out.push_str(
                    "<table class=\"grid\"><thead><tr><th>metric</th><th>value</th>\
                     <th>threshold</th><th>detail</th></tr></thead><tbody>\n",
                );
                for ev in &diag.evidence {
                    table_row(out, "td", &ev.metric, |out| {
                        fmt_num_into(out, ev.value);
                        out.push_str("</td><td>");
                        fmt_num_into(out, ev.threshold);
                        out.push_str("</td><td>");
                        esc_into(out, &ev.detail);
                    });
                }
                out.push_str("</tbody></table>\n");
            }
            out.push_str("<p class=\"remedy\">");
            esc_into(out, &diag.remediation);
            out.push_str("</p></div>\n");
        }
    }

    fn render_overhead(&self, out: &mut String) {
        out.push_str("<h2>Observer overhead (self-observability)</h2>\n");
        out.push_str(
            "<p class=\"note\">What the trace recorder itself cost, counted by the \
             recorder. Deterministic counters only — wall-clock sink latency is \
             served out-of-band on <code>/health</code>.</p>\n",
        );
        out.push_str(
            "<table class=\"grid\"><thead><tr><th>counter</th><th>value</th></tr>\
             </thead><tbody>\n",
        );
        let oh = &self.overhead;
        let count_row = |out: &mut String, name: &str, count: u64| {
            table_row(out, "td", name, |out| write_u64(out, count));
        };
        count_row(out, "events recorded", oh.events_total());
        for layer in TraceLayer::ALL {
            let count = oh.events_by_layer[layer.index()];
            if count > 0 {
                count_row(out, &format!("events recorded ({layer})"), count);
            }
        }
        table_row(out, "td", "event bytes retained", |out| {
            fmt_bytes_into(out, oh.event_bytes_total as f64);
        });
        count_row(out, "events dropped (retain cap)", oh.events_dropped_total);
        count_row(
            out,
            "aggregator kernel-series overflow",
            self.registry.counter("agg_kernel_series_overflow_total").unwrap_or(0),
        );
        count_row(
            out,
            "aggregator window evictions",
            self.registry.counter("agg_window_dropped_total").unwrap_or(0),
        );
        out.push_str("</tbody></table>\n");
    }
}

/// Writes `<tr><{cell}>{escaped key}</{cell}><td>…</td></tr>`, the
/// closure supplying everything inside the last cell (and any cells
/// between).
fn table_row(out: &mut String, cell: &str, key: &str, value: impl FnOnce(&mut String)) {
    out.push_str("<tr><");
    out.push_str(cell);
    out.push('>');
    esc_into(out, key);
    out.push_str("</");
    out.push_str(cell);
    out.push_str("><td>");
    value(out);
    out.push_str("</td></tr>\n");
}

/// Health-endpoint JSON fragment of the wall-clock half of the overhead
/// accounting — lives here so both the live server and tests share one
/// rendering.
///
/// Two fractions are reported because the profiler is a simulator:
/// `overhead_fraction` divides by the *host* wall of the capture (how much
/// of this process's time the recorder took), while
/// `overhead_fraction_of_modeled_iteration` divides by the paper-scale
/// iteration span the capture models — the deployment-relevant number the
/// bench harness gates below 5%, since a real framework emits the same
/// events over the modelled (much longer) span.
pub fn overhead_health_json(
    oh: &RecorderOverhead,
    capture_wall_s: f64,
    modeled_iteration_s: f64,
) -> String {
    let mut buckets = String::new();
    for i in 0..SINK_LATENCY_BUCKETS {
        if oh.sink_latency_hist[i] > 0 {
            if !buckets.is_empty() {
                buckets.push(',');
            }
            let _ = write!(buckets, "\"le_{}ns\":{}", 1u64 << i, oh.sink_latency_hist[i]);
        }
    }
    format!(
        "{{\"record_ns_total\":{},\"sink_ns_total\":{},\"sink_batches_total\":{},\
         \"events_dropped_total\":{},\"overhead_fraction\":{:.6},\
         \"overhead_fraction_of_modeled_iteration\":{:.6},\
         \"sink_latency_hist\":{{{buckets}}}}}",
        oh.record_ns_total,
        oh.sink_ns_total,
        oh.sink_batches_total,
        oh.events_dropped_total,
        oh.overhead_fraction(capture_wall_s),
        oh.overhead_fraction(modeled_iteration_s),
    )
}

const STYLE: &str = "\
:root{color-scheme:light dark}\n\
body{font:14px/1.5 -apple-system,'Segoe UI',system-ui,sans-serif;margin:2rem auto;\
max-width:1160px;padding:0 1rem;background:#0e1116;color:#dce3ea}\n\
h1{font-size:1.4rem;border-bottom:1px solid #2c3440;padding-bottom:.4rem}\n\
h2{font-size:1.1rem;margin-top:2rem;color:#9fd3ff}\n\
h3{font-size:.95rem;margin-bottom:.2rem}\n\
.sub{color:#8b97a5;font-weight:normal;font-size:.85em}\n\
.stamp{color:#8b97a5;font-size:.85rem;margin-bottom:1rem}\n\
.note{color:#8b97a5;font-size:.85rem}\n\
.remedy{color:#c6e1b8;font-size:.9rem;margin:.3rem 0 .6rem}\n\
table.meta th{text-align:left;color:#8b97a5;padding-right:1rem;font-weight:normal}\n\
table.grid{border-collapse:collapse;margin:.5rem 0;width:100%}\n\
table.grid th,table.grid td{border:1px solid #2c3440;padding:.25rem .6rem;\
text-align:left;font-variant-numeric:tabular-nums}\n\
table.grid th{background:#161b22;color:#9fd3ff}\n\
svg.lanes,svg.curve{background:#161b22;border:1px solid #2c3440;border-radius:4px;\
display:block;margin:.3rem 0 .8rem}\n\
.k-kernel{fill:#58a6ff}.k-launch{fill:#8957e5}.k-memcpy{fill:#d29922}\n\
.k-sync{fill:#6e7681}.k-comm{fill:#3fb950}.k-iter{fill:#388bfd55}\n\
.k-phase{fill:#bc8cff}.k-mem{fill:#f0883e}.k-fault{fill:#f85149}\n\
.k-recovery{fill:#db6d28}.k-ckpt{fill:#2ea043}.k-node{fill:#30363d}\n\
.k-membership{fill:#d29922}\n\
rect:hover{opacity:.7}\n\
polyline.mem{fill:none;stroke:#f0883e;stroke-width:1.5}\n\
line.fail{stroke:#f85149;stroke-width:1.5;stroke-dasharray:3 2}\n\
.barrow{display:flex;align-items:center;gap:.6rem;margin:.2rem 0}\n\
.barlabel{width:10rem;color:#8b97a5;font-size:.85rem;text-align:right}\n\
.barval{color:#8b97a5;font-size:.85rem}\n\
.bar{flex:1;height:14px;background:#161b22;border:1px solid #2c3440;\
border-radius:3px;overflow:hidden;display:block}\n\
.bar span{display:block;height:100%}\n\
.seg-iter{background:#30363d}.seg-compute{background:#58a6ff}\n\
.seg-comm{background:#3fb950}.seg-exposed{background:#f85149}\n\
#mfilter{background:#161b22;color:#dce3ea;border:1px solid #2c3440;\
border-radius:4px;padding:.3rem .6rem;width:16rem}\n\
.diag{border:1px solid #2c3440;border-radius:4px;padding:.5rem .8rem;margin:.5rem 0}\n\
.diaghead{font-weight:bold}\n\
.conf{display:inline-block;width:10rem;height:10px;background:#161b22;\
border:1px solid #2c3440;border-radius:3px;vertical-align:middle;overflow:hidden}\n\
.conf span{display:block;height:100%;background:#d29922}\n\
code{background:#161b22;padding:0 .3em;border-radius:3px}\n";

const SCRIPT: &str = "\
var f=document.getElementById('mfilter');\n\
if(f){f.addEventListener('input',function(){\n\
var q=f.value.toLowerCase();\n\
var rows=document.querySelectorAll('#metrics tbody tr');\n\
for(var i=0;i<rows.length;i++){\n\
rows[i].style.display=rows[i].textContent.toLowerCase().indexOf(q)>=0?'':'none';}\n\
});}\n";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::{aggregate, series};
    use crate::diagnose::diagnose_events;
    use crate::sampling::SamplingConfig;
    use tbd_graph::trace::fnv1a;

    #[test]
    fn digest_file_parses_and_rejects() {
        let text = "# comment\ndigest 0123456789abcdef\n";
        assert_eq!(parse_digest_file(text).unwrap(), "0123456789abcdef");
        assert!(parse_digest_file("# only a comment\n").is_err());
    }

    #[test]
    fn report_runs_and_digest_ignores_the_display_timestamp() {
        use crate::live::{observe, render_report};
        use tbd_frameworks::Framework;
        use tbd_gpusim::GpuSpec;
        use tbd_models::ModelKind;
        let options = crate::TraceOptions::default();
        let gpu = GpuSpec::quadro_p4000();
        let obs = observe(ModelKind::A3c, Framework::mxnet(), 4, &gpu, &options, None)
            .expect("A3C builds");
        assert!(obs.capture.oom.is_none());
        let a = render_report(&obs, DIGEST_TIMESTAMP);
        let b = render_report(&obs, "2026-08-08");
        assert_eq!(a.digest_hex, b.digest_hex, "timestamp is display-only");
        assert_ne!(a.html, b.html, "timestamp is on the page");
        assert!(a.html.contains("TBD run report"));
    }

    fn tiny_events() -> TraceStore {
        let mut events = TraceStore::new();
        let name = events.intern("sgemm<128>");
        events
            .span(name, TraceLayer::GpuSim, EventKind::KernelExec, 0.0, 50.0)
            .with_arg("class", "Gemm")
            .with_arg("flops", 1e9)
            .with_arg("fp32_util", 0.6);
        let name = events.intern("h2d");
        events.span(name, TraceLayer::GpuSim, EventKind::Memcpy, 50.0, 10.0);
        let name = events.intern("feature maps");
        events
            .span(name, TraceLayer::GpuSim, EventKind::Alloc, 0.0, 0.0)
            .with_arg("bytes", 1_000u64);
        let name = events.intern("feature maps");
        events.span(name, TraceLayer::GpuSim, EventKind::Free, 60.0, 0.0).with_arg("bytes", 500u64);
        let name = events.intern("iteration");
        events
            .span(name, TraceLayer::GpuSim, EventKind::Iteration, 0.0, 60.0)
            .with_arg("gpu_busy_us", 50.0);
        let name = events.intern("allreduce");
        events
            .span(name, TraceLayer::Distrib, EventKind::Communication, 0.0, 30.0)
            .with_arg("exposed_us", 10.0)
            .with_arg("bytes", 4096.0);
        let name = events.intern("cluster");
        events
            .span(name, TraceLayer::Distrib, EventKind::Iteration, 0.0, 70.0)
            .with_arg("throughput", 100.0);
        let name = events.intern("relu");
        events
            .span(name, TraceLayer::Executor, EventKind::NodeExec, 0.0, 5.0)
            .wall_clock()
            .with_arg("value_hash", 0xBEEFu64);
        events
    }

    fn context_pieces() -> (TraceStore, MetricsRegistry, DiagnosisReport) {
        let events = tiny_events();
        let registry = aggregate(&events, &SamplingConfig::default());
        let diagnosis = diagnose_events("toy", "tensorflow", 4, &events);
        (events, registry, diagnosis)
    }

    #[test]
    fn render_is_deterministic_and_digest_ignores_timestamp() {
        let (events, registry, diagnosis) = context_pieces();
        let ctx = ReportContext {
            model: "toy",
            framework: "tensorflow",
            batch: 4,
            gpu: "Quadro P4000",
            trace_digest: "deadbeefdeadbeef",
            events: &events,
            registry: &registry,
            diagnosis: &diagnosis,
            overhead: RecorderOverhead::default(),
        };
        let a = ctx.render("2026-08-08 12:00");
        let b = ctx.render("2026-08-08 12:00");
        assert_eq!(a, b, "rendering is a pure function");
        let later = ctx.render("2027-01-01 00:00");
        assert_ne!(a, later, "the timestamp is on the page");
        assert_eq!(ctx.digest_hex(), ctx.digest_hex(), "digest is stable");
        // The digest is over the placeholder render, so it is independent
        // of whatever timestamp the caller displays.
        assert_eq!(
            format!("{:016x}", fnv1a(ctx.render(DIGEST_TIMESTAMP).as_bytes())),
            ctx.digest_hex()
        );
    }

    #[test]
    fn report_contains_every_section_and_no_external_refs() {
        let (events, registry, diagnosis) = context_pieces();
        let ctx = ReportContext {
            model: "toy",
            framework: "tensorflow",
            batch: 4,
            gpu: "Quadro P4000",
            trace_digest: "deadbeefdeadbeef",
            events: &events,
            registry: &registry,
            diagnosis: &diagnosis,
            overhead: RecorderOverhead::default(),
        };
        let html = ctx.render("now");
        for section in [
            "Kernel timeline",
            "Memory footprint (Fig. 9)",
            "Communication overlap (Fig. 10)",
            "Metrics",
            "Diagnosis",
            "Observer overhead",
        ] {
            assert!(html.contains(section), "missing section {section}");
        }
        assert!(html.contains("sgemm&lt;128&gt;"), "kernel name is escaped into the SVG");
        assert!(html.contains("agg_kernel_series_overflow_total"));
        for banned in ["http://", "https://", "<link", "@import", "src="] {
            assert!(!html.contains(banned), "external reference: {banned}");
        }
    }

    #[test]
    fn nondeterministic_families_are_filtered_from_the_table() {
        let (events, mut registry, diagnosis) = context_pieces();
        registry.set_gauge("host_node_time_us", 123.456);
        registry.set_gauge(series("node_duration_us", "thread", "0"), 9.0);
        let ctx = ReportContext {
            model: "toy",
            framework: "tensorflow",
            batch: 4,
            gpu: "Quadro P4000",
            trace_digest: "deadbeefdeadbeef",
            events: &events,
            registry: &registry,
            diagnosis: &diagnosis,
            overhead: RecorderOverhead::default(),
        };
        let html = ctx.render("now");
        assert!(!html.contains("host_node_time_us"));
        assert!(!html.contains("node_duration_us"));
        assert!(html.contains("events_total"));
    }

    #[test]
    fn executor_wall_clock_spans_stay_out_of_the_swimlanes() {
        let (events, registry, diagnosis) = context_pieces();
        let ctx = ReportContext {
            model: "toy",
            framework: "tensorflow",
            batch: 4,
            gpu: "Quadro P4000",
            trace_digest: "deadbeefdeadbeef",
            events: &events,
            registry: &registry,
            diagnosis: &diagnosis,
            overhead: RecorderOverhead::default(),
        };
        let html = ctx.render("now");
        assert!(!html.contains("<rect class=\"k-node\""), "executor spans excluded");
        assert!(html.contains("<rect class=\"k-kernel\""));
        assert!(html.contains("<rect class=\"k-comm\""));
    }

    #[test]
    fn numbers_render_non_finite_values_by_name() {
        let render = |v: f64| {
            let mut out = String::new();
            fmt_num_into(&mut out, v);
            out
        };
        assert_eq!(render(f64::NAN), "NaN");
        assert_eq!(render(-f64::NAN), "NaN");
        assert_eq!(render(f64::INFINITY), "∞");
        assert_eq!(render(f64::NEG_INFINITY), "-∞");
        assert_eq!(render(3.0), "3");
        assert_eq!(render(-0.0), "-0");
        assert_eq!(render(2.5), "2.5000");
        assert_eq!(render(1e15), "1000000000000000.0000");
    }

    #[test]
    fn html_escaping_covers_the_five_specials_and_keeps_other_text() {
        let mut out = String::from("<p>");
        esc_into(&mut out, "a&b<c>d\"e'f — ü🚀");
        assert_eq!(out, "<p>a&amp;b&lt;c&gt;d&quot;e&#39;f — ü🚀");
    }

    #[test]
    fn overhead_health_json_is_valid_and_carries_the_histogram() {
        let mut hist = [0u64; SINK_LATENCY_BUCKETS];
        hist[5] = 7;
        hist[12] = 3;
        let oh = RecorderOverhead {
            record_ns_total: 2_000_000,
            sink_ns_total: 500_000,
            sink_batches_total: 10,
            sink_latency_hist: hist,
            ..RecorderOverhead::default()
        };
        let json = overhead_health_json(&oh, 1.0, 4.0);
        let parsed = crate::json::parse(&json).expect("valid JSON");
        assert_eq!(parsed.get("record_ns_total").and_then(|v| v.as_f64()), Some(2_000_000.0));
        assert_eq!(parsed.get("overhead_fraction").and_then(|v| v.as_f64()), Some(0.002));
        assert_eq!(
            parsed.get("overhead_fraction_of_modeled_iteration").and_then(|v| v.as_f64()),
            Some(0.0005)
        );
        let hist = parsed.get("sink_latency_hist").expect("hist");
        assert_eq!(hist.get("le_32ns").and_then(|v| v.as_f64()), Some(7.0));
        assert_eq!(hist.get("le_4096ns").and_then(|v| v.as_f64()), Some(3.0));
    }
}
