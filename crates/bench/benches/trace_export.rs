//! Criterion micro-benchmarks of the trace exporters: the Chrome-trace JSON
//! export and the HTML report render of one Seq2Seq/TensorFlow capture at
//! its paper batch, and the fixed-point number writer under both against
//! std's `format!` on a mix of exported values.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::fmt::Write as _;
use tbd_frameworks::Framework;
use tbd_gpusim::GpuSpec;
use tbd_models::ModelKind;
use tbd_profiler::live::{observe, render_report};
use tbd_profiler::trace::write_fixed;
use tbd_profiler::{TraceOptions, DIGEST_TIMESTAMP};

fn bench_exporters(c: &mut Criterion) {
    let gpu = GpuSpec::quadro_p4000();
    let obs = observe(
        ModelKind::Seq2Seq,
        Framework::tensorflow(),
        128,
        &gpu,
        &TraceOptions::default(),
        None,
    )
    .expect("Seq2Seq fits at batch 128");
    c.bench_function("to_chrome_json_seq2seq_tf_128", |bench| {
        bench.iter(|| black_box(&obs.capture.trace).to_chrome_json())
    });
    c.bench_function("render_report_seq2seq_tf_128", |bench| {
        bench.iter(|| render_report(black_box(&obs), DIGEST_TIMESTAMP))
    });
}

/// Timestamps and durations in µs, SVG coordinates and six-decimal args:
/// the magnitudes the exporters print.
fn value_mix() -> Vec<(f64, u32)> {
    (0..1024u32)
        .map(|i| {
            let t = f64::from(i);
            match i % 4 {
                0 => (t * 37.125 + 0.0625, 3),
                1 => ((t * 0.37).sin() * 1100.0, 2),
                2 => (t * 1.7e-3 / 3.0, 6),
                _ => (t * 12_345.678_9, 3),
            }
        })
        .collect()
}

fn bench_number_writer(c: &mut Criterion) {
    let values = value_mix();
    let mut out = String::with_capacity(32 * values.len());
    c.bench_function("write_fixed_1024_values", |bench| {
        bench.iter(|| {
            out.clear();
            for &(v, d) in black_box(&values) {
                write_fixed(&mut out, v, d);
                out.push(',');
            }
            out.len()
        })
    });
    c.bench_function("format_fixed_1024_values", |bench| {
        bench.iter(|| {
            out.clear();
            for &(v, d) in black_box(&values) {
                let _ = write!(out, "{v:.*},", d as usize);
            }
            out.len()
        })
    });
}

criterion_group!(benches, bench_exporters, bench_number_writer);
criterion_main!(benches);
