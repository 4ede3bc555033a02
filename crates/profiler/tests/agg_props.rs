//! The streaming-metrics contract (ISSUE acceptance criterion): folding a
//! trace live through the [`TraceSink`] hook must be **bit-identical** to
//! aggregating the finished trace post-hoc — for any `record_batch`
//! boundary the instrumented layers happen to publish at, and for any
//! `intra_op_threads` setting of the functional executor.
//!
//! "Bit-identical" is asserted through [`MetricsRegistry::canonical`],
//! which serialises every gauge and histogram sum as the raw `f64` bit
//! pattern — two registries with equal canonical text are equal to the
//! last ulp.

use proptest::prelude::*;
use std::sync::OnceLock;
use tbd_frameworks::Framework;
use tbd_gpusim::GpuSpec;
use tbd_models::ModelKind;
use tbd_profiler::trace::{TraceRecorder, TraceStore};
use tbd_profiler::{aggregate, capture_into, SamplingConfig, StreamingAggregator, TraceOptions};

/// One capture per thread count, cached: the property iterates over split
/// points, not over fresh (expensive) captures.
fn captured_events(threads: usize) -> &'static TraceStore {
    static CACHE: [OnceLock<TraceStore>; 2] = [OnceLock::new(), OnceLock::new()];
    let slot = match threads {
        1 => &CACHE[0],
        4 => &CACHE[1],
        _ => panic!("cache covers threads 1 and 4"),
    };
    slot.get_or_init(|| {
        let options = TraceOptions { intra_op_threads: threads, ..TraceOptions::default() };
        let recorder = TraceRecorder::shared();
        let cap = capture_into(
            ModelKind::A3c,
            Framework::mxnet(),
            8,
            &GpuSpec::quadro_p4000(),
            &options,
            &recorder,
        )
        .expect("capture succeeds");
        cap.trace.events
    })
}

/// Events `start..end` of `events` copied row for row into a batch of
/// their own.
fn batch_of(events: &TraceStore, start: usize, end: usize) -> TraceStore {
    let mut batch = TraceStore::new();
    for e in events.iter().skip(start).take(end - start) {
        let name = batch.intern(e.name.to_string());
        let mut row = batch.span(name, e.layer, e.kind, e.start_us, e.dur_us).on_track(e.track);
        if !e.deterministic {
            row = row.wall_clock();
        }
        for (key, value) in e.args {
            row = row.with_arg(key, value.clone());
        }
    }
    batch
}

/// Replays `events` into a fresh recorder carrying a streaming sink,
/// chopped at the given byte-arbitrary split points, and returns the
/// sink's canonical registry text.
fn stream_with_splits(events: &TraceStore, raw_splits: &[usize]) -> String {
    let agg = StreamingAggregator::shared();
    let recorder = TraceRecorder::shared_with_sink(agg.clone());
    let mut splits: Vec<usize> = raw_splits.iter().map(|&s| s % (events.len() + 1)).collect();
    splits.sort_unstable();
    splits.dedup();
    splits.push(events.len());
    let mut start = 0;
    for end in splits {
        if end > start {
            recorder.record_batch(batch_of(events, start, end));
            start = end;
        }
    }
    // The recorder stored exactly the stream; the sink saw it in batches.
    assert_eq!(recorder.len(), events.len());
    let registry = agg.lock().unwrap().registry();
    registry.canonical()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Streaming aggregation is a pure left fold: *any* partition of the
    /// event stream into `record_batch` calls yields a registry bitwise
    /// equal to the post-hoc aggregation of the whole stream, whichever
    /// thread count produced it.
    #[test]
    fn streaming_equals_posthoc_at_any_record_batch_boundary(
        raw_splits in prop::collection::vec(0usize..10_000, 0..9),
        threads_pick in 0usize..2,
    ) {
        let threads = [1, 4][threads_pick];
        let events = captured_events(threads);
        let posthoc = aggregate(events, &SamplingConfig::default()).canonical();
        let streamed = stream_with_splits(events, &raw_splits);
        prop_assert_eq!(&streamed, &posthoc, "threads={} splits={:?}", threads, raw_splits);
        prop_assert!(!streamed.is_empty(), "a real capture must produce metrics");
    }

    /// Degenerate boundaries — one event per batch, everything in one
    /// batch — are the same fold too (granularity never leaks into state).
    #[test]
    fn single_event_batches_equal_one_shot(threads_pick in 0usize..2) {
        let threads = [1, 4][threads_pick];
        let events = captured_events(threads);
        let one_shot = stream_with_splits(events, &[]);
        let singles: Vec<usize> = (0..events.len()).collect();
        let fine = stream_with_splits(events, &singles);
        prop_assert_eq!(fine, one_shot);
    }
}

/// A sink attached *during* the capture (the live path: events arrive at
/// whatever batch boundaries the executor, gpusim, framework and distrib
/// layers publish at) matches the post-hoc fold over the drained trace.
#[test]
fn live_capture_sink_matches_posthoc_for_each_thread_count() {
    for threads in [1usize, 4] {
        let agg = StreamingAggregator::shared();
        let recorder = TraceRecorder::shared_with_sink(agg.clone());
        let options = TraceOptions { intra_op_threads: threads, ..TraceOptions::default() };
        let cap = capture_into(
            ModelKind::A3c,
            Framework::mxnet(),
            8,
            &GpuSpec::quadro_p4000(),
            &options,
            &recorder,
        )
        .expect("capture succeeds");
        let posthoc = aggregate(&cap.trace.events, &SamplingConfig::default());
        let live = agg.lock().unwrap().registry();
        assert_eq!(
            live.canonical(),
            posthoc.canonical(),
            "live sink diverged from post-hoc at threads={threads}"
        );
        assert_eq!(live.counter("events_total"), Some(cap.trace.events.len() as u64));
    }
}
