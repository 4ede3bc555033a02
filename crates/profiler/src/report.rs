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

use crate::agg::MetricsRegistry;
use crate::diagnose::DiagnosisReport;
use std::fmt::Write as _;
use std::ops::Range;
use tbd_graph::trace::{
    EventKind, Fnv1a, RecorderOverhead, TraceEvent, TraceLayer, SINK_LATENCY_BUCKETS,
};

/// Timestamp placeholder used when computing the digest: the one part of
/// the page allowed to vary between renders of the same capture.
pub const DIGEST_TIMESTAMP: &str = "";

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
    pub events: &'a [TraceEvent],
    /// Metrics snapshot folded from the same events.
    pub registry: &'a MetricsRegistry,
    /// Ranked bottleneck diagnosis of the same events.
    pub diagnosis: &'a DiagnosisReport,
    /// The recorder's self-observability counters for this capture.
    pub overhead: RecorderOverhead,
}

fn esc(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&#39;"),
            c => out.push(c),
        }
    }
    out
}

/// Deterministic number formatting: integers render bare, everything else
/// with four decimals. Never locale- or platform-dependent.
fn fmt_num(v: f64) -> String {
    if !v.is_finite() {
        return "∞".to_string();
    }
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.4}")
    }
}

fn fmt_us(us: f64) -> String {
    if us >= 1e6 {
        format!("{:.3} s", us / 1e6)
    } else if us >= 1e3 {
        format!("{:.3} ms", us / 1e3)
    } else {
        format!("{us:.1} us")
    }
}

fn fmt_bytes(bytes: f64) -> String {
    if bytes >= 1e9 {
        format!("{:.2} GB", bytes / 1e9)
    } else if bytes >= 1e6 {
        format!("{:.2} MB", bytes / 1e6)
    } else if bytes >= 1e3 {
        format!("{:.1} kB", bytes / 1e3)
    } else {
        format!("{bytes:.0} B")
    }
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
        let digest = Fnv1a::new()
            .update(&html.as_bytes()[..slot.start])
            .update(esc(DIGEST_TIMESTAMP).as_bytes())
            .update(&html.as_bytes()[slot.end..])
            .finish();
        (html, format!("{digest:016x}"))
    }

    /// The page plus the byte range its escaped timestamp occupies.
    fn render_with_stamp_slot(&self, timestamp: &str) -> (String, Range<usize>) {
        let mut out = String::with_capacity(64 * 1024);
        out.push_str("<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n");
        let _ = writeln!(
            out,
            "<title>TBD run report — {} × {}</title>",
            esc(self.model),
            esc(self.framework)
        );
        out.push_str("<style>\n");
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
        let _ = writeln!(
            out,
            "<h1>TBD run report — {} × {}</h1>",
            esc(self.model),
            esc(self.framework)
        );
        out.push_str("<div class=\"stamp\">");
        let start = out.len();
        out.push_str(&esc(timestamp));
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
            let _ = writeln!(out, "<tr><th>{}</th><td>{}</td></tr>", esc(key), esc(&value));
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
        for layer in [TraceLayer::GpuSim, TraceLayer::Framework, TraceLayer::Distrib] {
            let spans: Vec<&TraceEvent> = self
                .events
                .iter()
                .filter(|e| e.layer == layer && e.deterministic && e.dur_us > 0.0)
                .collect();
            if spans.is_empty() {
                continue;
            }
            let t0 = spans.iter().map(|e| e.start_us).fold(f64::INFINITY, f64::min);
            let t1 = spans.iter().map(|e| e.end_us()).fold(f64::NEG_INFINITY, f64::max);
            let range = (t1 - t0).max(1e-9);
            let mut tracks: Vec<u32> = spans.iter().map(|e| e.track).collect();
            tracks.sort_unstable();
            tracks.dedup();
            let height = tracks.len() as f64 * LANE_H + 4.0;
            let _ = writeln!(
                out,
                "<h3>{} <span class=\"sub\">({} span(s), {})</span></h3>",
                esc(layer.process_name()),
                spans.len(),
                fmt_us(range)
            );
            let _ = writeln!(
                out,
                "<svg class=\"lanes\" viewBox=\"0 0 {SVG_W} {height}\" \
                 width=\"100%\" role=\"img\">"
            );
            let mut elided = 0usize;
            for (row, track) in tracks.iter().enumerate() {
                let y = row as f64 * LANE_H + 2.0;
                let mut lane: Vec<&&TraceEvent> =
                    spans.iter().filter(|e| e.track == *track).collect();
                if lane.len() > MAX_LANE_EVENTS {
                    // Keep the longest spans; ties broken by start then name
                    // so the selection is deterministic.
                    lane.sort_by(|a, b| {
                        b.dur_us
                            .total_cmp(&a.dur_us)
                            .then_with(|| a.start_us.total_cmp(&b.start_us))
                            .then_with(|| a.name.cmp(&b.name))
                    });
                    elided += lane.len() - MAX_LANE_EVENTS;
                    lane.truncate(MAX_LANE_EVENTS);
                }
                lane.sort_by(|a, b| {
                    a.start_us.total_cmp(&b.start_us).then_with(|| a.name.cmp(&b.name))
                });
                for event in lane {
                    let x = (event.start_us - t0) / range * SVG_W;
                    let w = (event.dur_us / range * SVG_W).max(0.5);
                    let _ = writeln!(
                        out,
                        "<rect class=\"{}\" x=\"{x:.2}\" y=\"{y:.1}\" width=\"{w:.2}\" \
                         height=\"{:.1}\"><title>{} — {} (track {})</title></rect>",
                        kind_class(event.kind),
                        LANE_H - 4.0,
                        esc(&event.name),
                        fmt_us(event.dur_us),
                        event.track,
                    );
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
        for event in self.events.iter().filter(|e| e.layer == TraceLayer::GpuSim) {
            let bytes = event
                .args
                .iter()
                .find(|(k, _)| *k == "bytes")
                .and_then(|(_, v)| match v {
                    tbd_graph::trace::ArgValue::U64(b) => Some(*b as f64),
                    tbd_graph::trace::ArgValue::F64(b) => Some(*b),
                    _ => None,
                })
                .unwrap_or(0.0);
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
        let _ = writeln!(
            out,
            "<p class=\"note\">Resident device memory folded from {} allocator event(s); \
             peak {}.</p>",
            points.len(),
            fmt_bytes(peak)
        );
        let h = 160.0f64;
        let _ = writeln!(
            out,
            "<svg class=\"curve\" viewBox=\"0 0 {SVG_W} {h}\" width=\"100%\" role=\"img\">"
        );
        let step = SVG_W / points.len().max(1) as f64;
        let mut path = String::new();
        for (i, &bytes) in points.iter().enumerate() {
            let x = i as f64 * step;
            let y = h - 6.0 - bytes / peak * (h - 16.0);
            let _ = write!(path, "{}{x:.2},{y:.2}", if i == 0 { "" } else { " " });
        }
        let _ = writeln!(out, "<polyline class=\"mem\" points=\"{path}\"/>");
        for fail in &fails {
            let x = *fail as f64 * step;
            let _ = writeln!(
                out,
                "<line class=\"fail\" x1=\"{x:.2}\" y1=\"4\" x2=\"{x:.2}\" y2=\"{:.1}\">\
                 <title>allocation failure</title></line>",
                h - 4.0
            );
        }
        out.push_str("</svg>\n");
        // Per-category peaks from the registry (already folded).
        let cats: Vec<(&str, f64)> = self
            .registry
            .gauges()
            .filter(|(name, _)| name.starts_with("memory_peak_bytes{"))
            .collect();
        if !cats.is_empty() {
            out.push_str("<table class=\"grid\"><thead><tr><th>category</th><th>peak</th>\
                          </tr></thead><tbody>\n");
            for (name, bytes) in cats {
                let label = name
                    .split("category=\"")
                    .nth(1)
                    .and_then(|s| s.strip_suffix("\"}"))
                    .unwrap_or(name);
                let _ = writeln!(
                    out,
                    "<tr><td>{}</td><td>{}</td></tr>",
                    esc(label),
                    fmt_bytes(bytes)
                );
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
        let iter =
            self.registry.gauge("cluster_iteration_us").unwrap_or(0.0).max(comm).max(1e-9);
        out.push_str("<h2>Communication overlap (Fig. 10)</h2>\n");
        let _ = writeln!(
            out,
            "<p class=\"note\">Gradient exchange {} — {} exposed beyond the backward pass \
             ({}% overlapped); cluster iteration {}.</p>",
            fmt_us(comm),
            fmt_us(exposed),
            fmt_num(if comm > 0.0 { (1.0 - exposed / comm) * 100.0 } else { 0.0 }),
            fmt_us(iter)
        );
        let bar = |out: &mut String, label: &str, class: &str, us: f64| {
            let w = (us / iter * 100.0).clamp(0.0, 100.0);
            let _ = writeln!(
                out,
                "<div class=\"barrow\"><span class=\"barlabel\">{}</span>\
                 <span class=\"bar\"><span class=\"{class}\" style=\"width:{w:.2}%\"></span>\
                 </span><span class=\"barval\">{}</span></div>",
                esc(label),
                fmt_us(us)
            );
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
            let _ = writeln!(
                out,
                "<tr><td>{}</td><td>counter</td><td>{value}</td></tr>",
                esc(name)
            );
        }
        for (name, value) in self.registry.gauges().filter(|(n, _)| keep(n)) {
            let _ = writeln!(
                out,
                "<tr><td>{}</td><td>gauge</td><td>{}</td></tr>",
                esc(name),
                fmt_num(value)
            );
        }
        out.push_str("</tbody></table>\n");
    }

    fn render_diagnosis(&self, out: &mut String) {
        out.push_str("<h2>Diagnosis</h2>\n");
        if self.diagnosis.diagnoses.is_empty() {
            out.push_str("<p class=\"note\">No diagnosis produced.</p>\n");
            return;
        }
        let _ = writeln!(
            out,
            "<p class=\"note\">Ranked bottleneck classes mined from {} event(s); \
             iteration {}.</p>",
            self.diagnosis.events,
            fmt_us(self.diagnosis.iteration_us)
        );
        for (rank, diag) in self.diagnosis.diagnoses.iter().enumerate() {
            let pct = (diag.confidence * 100.0).clamp(0.0, 100.0);
            let _ = writeln!(
                out,
                "<div class=\"diag\"><div class=\"diaghead\">#{} {} \
                 <span class=\"conf\"><span style=\"width:{pct:.1}%\"></span></span> \
                 {}%</div>",
                rank + 1,
                esc(diag.class.label()),
                fmt_num(pct)
            );
            if !diag.evidence.is_empty() {
                out.push_str(
                    "<table class=\"grid\"><thead><tr><th>metric</th><th>value</th>\
                     <th>threshold</th><th>detail</th></tr></thead><tbody>\n",
                );
                for ev in &diag.evidence {
                    let _ = writeln!(
                        out,
                        "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>",
                        esc(&ev.metric),
                        fmt_num(ev.value),
                        fmt_num(ev.threshold),
                        esc(&ev.detail)
                    );
                }
                out.push_str("</tbody></table>\n");
            }
            let _ = writeln!(
                out,
                "<p class=\"remedy\">{}</p></div>",
                esc(&diag.remediation)
            );
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
        let mut row = |name: &str, value: String| {
            let _ = writeln!(out, "<tr><td>{}</td><td>{value}</td></tr>", esc(name));
        };
        row("events recorded", oh.events_total().to_string());
        for layer in TraceLayer::ALL {
            let count = oh.events_by_layer[layer.index()];
            if count > 0 {
                row(&format!("events recorded ({layer})"), count.to_string());
            }
        }
        row("event bytes retained", fmt_bytes(oh.event_bytes_total as f64));
        row("events dropped (retain cap)", oh.events_dropped_total.to_string());
        row(
            "aggregator kernel-series overflow",
            self.registry.counter("agg_kernel_series_overflow_total").unwrap_or(0).to_string(),
        );
        row(
            "aggregator window evictions",
            self.registry.counter("agg_window_dropped_total").unwrap_or(0).to_string(),
        );
        out.push_str("</tbody></table>\n");
    }
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
    use crate::agg::{series, StreamingAggregator};
    use crate::diagnose::diagnose_events;
    use tbd_graph::trace::fnv1a;

    fn tiny_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::span("sgemm<128>", TraceLayer::GpuSim, EventKind::KernelExec, 0.0, 50.0)
                .with_arg("class", "Gemm")
                .with_arg("flops", 1e9)
                .with_arg("fp32_util", 0.6),
            TraceEvent::span("h2d", TraceLayer::GpuSim, EventKind::Memcpy, 50.0, 10.0),
            TraceEvent::instant("feature maps", TraceLayer::GpuSim, EventKind::Alloc, 0.0)
                .with_arg("bytes", 1_000u64),
            TraceEvent::instant("feature maps", TraceLayer::GpuSim, EventKind::Free, 60.0)
                .with_arg("bytes", 500u64),
            TraceEvent::span("iteration", TraceLayer::GpuSim, EventKind::Iteration, 0.0, 60.0)
                .with_arg("gpu_busy_us", 50.0),
            TraceEvent::span(
                "allreduce",
                TraceLayer::Distrib,
                EventKind::Communication,
                0.0,
                30.0,
            )
            .with_arg("exposed_us", 10.0)
            .with_arg("bytes", 4096.0),
            TraceEvent::span("cluster", TraceLayer::Distrib, EventKind::Iteration, 0.0, 70.0)
                .with_arg("throughput", 100.0),
            TraceEvent::span("relu", TraceLayer::Executor, EventKind::NodeExec, 0.0, 5.0)
                .wall_clock()
                .with_arg("value_hash", 0xBEEFu64),
        ]
    }

    fn context_pieces() -> (Vec<TraceEvent>, MetricsRegistry, DiagnosisReport) {
        let events = tiny_events();
        let agg = StreamingAggregator::new();
        agg.consume_all(&events);
        let registry = agg.registry();
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
        assert_eq!(
            parsed.get("record_ns_total").and_then(|v| v.as_f64()),
            Some(2_000_000.0)
        );
        assert_eq!(
            parsed.get("overhead_fraction").and_then(|v| v.as_f64()),
            Some(0.002)
        );
        assert_eq!(
            parsed.get("overhead_fraction_of_modeled_iteration").and_then(|v| v.as_f64()),
            Some(0.0005)
        );
        let hist = parsed.get("sink_latency_hist").expect("hist");
        assert_eq!(hist.get("le_32ns").and_then(|v| v.as_f64()), Some(7.0));
        assert_eq!(hist.get("le_4096ns").and_then(|v| v.as_f64()), Some(3.0));
    }
}
