//! Tests of the benchmark's own helpers: percentiles, span self time,
//! seeded generators and the result format.

use tbd_hostbench::loadgen::parse_response;
use tbd_hostbench::report::{per_layer_catalogue, result_line, Metric, END_TO_END};
use tbd_hostbench::rng::{arrival_schedule, stratified_classes, SplitMix64};
use tbd_hostbench::spans::{self_times, self_times_by, Span};
use tbd_hostbench::stats::{
    keep_fastest, mean, median, percentile, samples_beyond, sorted, tail_note,
};
use tbd_profiler::json::{self, Value};

#[test]
fn percentile_interpolates_between_closest_ranks() {
    let v = sorted(&[4.0, 1.0, 3.0, 2.0, 5.0]);
    assert_eq!(v, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
    assert_eq!(percentile(&v, 0.0), 1.0);
    assert_eq!(percentile(&v, 100.0), 5.0);
    assert_eq!(median(&v), 3.0);
    assert_eq!(percentile(&v, 25.0), 2.0);
    assert!((percentile(&v, 90.0) - 4.6).abs() < 1e-12);
    assert_eq!(median(&[1.0, 2.0]), 1.5);
    assert_eq!(percentile(&[7.0], 99.0), 7.0);
    assert_eq!(mean(&[]), 0.0);
    assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
}

#[test]
fn tail_notes_count_the_samples_beyond_a_percentile() {
    assert_eq!(samples_beyond(2001, 99.0), 20);
    assert_eq!(samples_beyond(101, 90.0), 10);
    assert_eq!(samples_beyond(100, 50.0), 50);
    assert_eq!(samples_beyond(1, 99.0), 0);
    assert_eq!(samples_beyond(0, 99.0), 0);
    assert!(!tail_note("hits", 2001, 99.0).contains("TOO FEW"));
    assert!(tail_note("misses", 50, 95.0).contains("TOO FEW"));
}

#[test]
fn keep_fastest_keeps_a_share_of_each_group() {
    let time = [5.0, 1.0, 4.0, 2.0, 3.0, 10.0, 30.0, 20.0];
    let group = [0, 0, 0, 0, 0, 1, 1, 1];
    let kept = keep_fastest(&time, &group, 0.5);
    // Group 0 keeps its 3 fastest of 5 (rounded up), group 1 its 2 fastest of 3.
    assert_eq!(kept, [false, true, false, true, true, true, false, true]);
    assert_eq!(
        keep_fastest(&[2.0, 1.0], &[0, 0], 0.25),
        [false, true],
        "at least one is kept"
    );
    assert!(keep_fastest(&time, &group, 1.0).iter().all(|&k| k));
}

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>, op: u64) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent,
        op,
    }
}

#[test]
fn self_times_subtract_children_and_sum_to_the_roots() {
    let spans = vec![
        span("step", 0, 100, None, 0),
        span("forward", 10, 40, Some(0), 0),
        span("kernel", 15, 25, Some(1), 0),
        span("backward", 40, 90, Some(0), 0),
        // A child reaching past its parent only covers the overlap.
        span("late", 95, 120, Some(0), 0),
        span("step", 200, 250, None, 1),
        span("forward", 200, 250, Some(5), 1),
    ];
    let t = self_times(&spans);
    assert_eq!(t["step"].self_ns, (100 - 30 - 50 - 5) + 0);
    assert_eq!(t["step"].total_ns, 150);
    assert_eq!(t["step"].count, 2);
    assert_eq!(t["forward"].self_ns, 20 + 50);
    assert_eq!(t["kernel"].self_ns, 10);
    assert_eq!(t["backward"].self_ns, 50);
    let roots: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::dur_ns)
        .sum();
    let within: u64 = t
        .iter()
        .filter(|(n, _)| **n != "late")
        .map(|(_, t)| t.self_ns)
        .sum();
    assert_eq!(
        within + 5,
        roots,
        "self times plus the overlap of the late child cover the roots"
    );
    let by_op = self_times_by(&spans, |s| s.op);
    assert_eq!(by_op[&(1, "forward")].self_ns, 50);
    assert_eq!(by_op[&(1, "step")].self_ns, 0);
    assert_eq!(by_op[&(0, "forward")].self_ns, 20);
}

#[test]
fn seeded_generator_repeats_per_seed_and_differs_across_seeds() {
    let draw = |seed| {
        let mut rng = SplitMix64::new(seed);
        (0..8).map(|_| rng.next_u64()).collect::<Vec<_>>()
    };
    assert_eq!(draw(7), draw(7));
    assert_ne!(draw(7), draw(8));
    let stream = |seed, s| SplitMix64::stream(seed, s).next_u64();
    assert_ne!(stream(7, 1), stream(7, 2));
    assert_eq!(stream(7, 1), stream(7, 1));
    let mut rng = SplitMix64::new(1);
    for n in [1, 2, 3, 10, 1000] {
        assert!((0..200).all(|_| rng.below(n) < n));
    }
    let u: Vec<f64> = (0..10_000).map(|_| rng.next_f64()).collect();
    assert!(u.iter().all(|&x| (0.0..1.0).contains(&x)));
    assert!((mean(&u) - 0.5).abs() < 0.02);
    let e: Vec<f64> = (0..20_000).map(|_| rng.exponential(3.0)).collect();
    assert!(e.iter().all(|&x| x >= 0.0 && x.is_finite()));
    assert!((mean(&e) - 3.0).abs() < 0.1, "mean {}", mean(&e));
    let mut items: Vec<u32> = (0..50).collect();
    rng.shuffle(&mut items);
    let mut back = items.clone();
    back.sort_unstable();
    assert_eq!(back, (0..50).collect::<Vec<_>>());
    assert_ne!(items, back);
}

#[test]
fn arrival_schedule_spreads_exactly_n_arrivals_over_the_span() {
    let schedule = |seed| arrival_schedule(&mut SplitMix64::new(seed), 3000, 20.0);
    let a = schedule(1);
    assert_eq!(a.len(), 3000);
    assert!(a.windows(2).all(|w| w[0] <= w[1]));
    assert!(a[0] > 0.0 && *a.last().unwrap() < 20.0);
    assert_eq!(a, schedule(1));
    assert_ne!(a, schedule(2));
    // Gaps look exponential: coefficient of variation near 1.
    let gaps: Vec<f64> = a.windows(2).map(|w| w[1] - w[0]).collect();
    let m = mean(&gaps);
    let sd = (gaps.iter().map(|g| (g - m).powi(2)).sum::<f64>() / gaps.len() as f64).sqrt();
    assert!((sd / m - 1.0).abs() < 0.1, "cv {}", sd / m);
}

#[test]
fn stratified_classes_hold_exact_counts_in_seeded_order() {
    let classes = |seed| stratified_classes(&mut SplitMix64::new(seed), 1000, &[0.8, 0.17, 0.03]);
    let a = classes(3);
    let count = |k| a.iter().filter(|&&c| c == k).count();
    assert_eq!((count(0), count(1), count(2)), (800, 170, 30));
    assert_eq!(a, classes(3));
    assert_ne!(a, classes(4));
    assert_eq!(
        stratified_classes(&mut SplitMix64::new(1), 7, &[0.5, 0.5]).len(),
        7
    );
}

#[test]
fn serve_stream_is_seeded_and_keeps_the_mix() {
    use tbd_hostbench::serve::{Catalog, HIT, MISS, PROFILE_MISS};
    let stream = |seed| Catalog::new(seed).stream(&mut SplitMix64::new(seed), 6);
    let a = stream(5);
    let b = stream(5);
    assert_eq!(
        a.iter().map(|r| (&r.target, r.class)).collect::<Vec<_>>(),
        b.iter().map(|r| (&r.target, r.class)).collect::<Vec<_>>()
    );
    let c = stream(6);
    assert_ne!(
        a.iter().map(|r| &r.target).collect::<Vec<_>>(),
        c.iter().map(|r| &r.target).collect::<Vec<_>>()
    );
    let count = |k| a.iter().filter(|r| r.class == k).count();
    assert_eq!(
        (count(HIT), count(MISS), count(PROFILE_MISS)),
        (420, 150, 30)
    );
    assert!(
        a.windows(2).all(|w| w[0].due_s <= w[1].due_s),
        "blocks follow each other"
    );
    assert!(a.last().unwrap().due_s < 4.0);
    // Every miss is a distinct query; hits repeat.
    let mut misses: Vec<&String> = a
        .iter()
        .filter(|r| r.class != HIT)
        .map(|r| &r.target)
        .collect();
    misses.sort();
    let n = misses.len();
    misses.dedup();
    assert_eq!(misses.len(), n);
    assert!(a.iter().all(|r| !r.target.contains("Deep+Speech")));
}

#[test]
fn train_feeds_are_seeded() {
    use tbd_hostbench::train::seeded_feeds;
    use tbd_models::ModelKind;
    let model = tbd_profiler::trace::build_tiny(ModelKind::Seq2Seq).expect("builds");
    let feeds = |seed| seeded_feeds(&model, &mut SplitMix64::new(seed));
    let (a, b, c) = (feeds(1), feeds(1), feeds(2));
    assert_eq!(a.len(), model.inputs.len());
    let data = |f: &Vec<(tbd_graph::NodeId, tbd_tensor::Tensor)>| {
        f.iter().map(|(_, t)| t.data().to_vec()).collect::<Vec<_>>()
    };
    assert_eq!(data(&a), data(&b));
    assert_ne!(data(&a), data(&c));
}

#[test]
fn result_line_is_json_with_exactly_the_contract_keys() {
    let metrics = vec![
        Metric::new("p50_ms", 1.25, "ms"),
        Metric::new("tiny", 1e-9, "s"),
    ];
    let line = result_line(true, 10, 0, &metrics);
    let value = json::parse(&line).expect("valid JSON");
    let Value::Obj(obj) = &value else {
        panic!("object expected")
    };
    assert_eq!(
        obj.keys().collect::<Vec<_>>(),
        ["attempted", "correct", "failed", "metrics"]
    );
    assert_eq!(value.get("correct"), Some(&Value::Bool(true)));
    let p50 = value
        .get("metrics")
        .and_then(|m| m.get("p50_ms"))
        .expect("metric present");
    assert_eq!(p50.get("value").and_then(Value::as_f64), Some(1.25));
    assert_eq!(p50.get("unit").and_then(Value::as_str), Some("ms"));
    // A non-finite value cannot pass as correct.
    let bad = result_line(true, 1, 0, &[Metric::new("x", f64::NAN, "ms")]);
    assert_eq!(
        json::parse(&bad).unwrap().get("correct"),
        Some(&Value::Bool(false))
    );
}

#[test]
fn benchmark_json_lists_every_reported_metric() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let bench = json::parse(&text).expect("valid JSON");
    let names = |key: &str| -> Vec<(String, String)> {
        bench
            .get(key)
            .and_then(Value::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(Value::as_str)
                        .expect("string field")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    };
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(names("end_to_end"), e2e);
    let layers: Vec<(String, String)> = per_layer_catalogue()
        .into_iter()
        .map(|(n, u, _)| (n, u.to_string()))
        .collect();
    assert_eq!(names("per_layer"), layers);
}

#[test]
fn responses_split_into_status_and_body() {
    let (status, body) = parse_response(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nhi");
    assert_eq!((status, body.as_slice()), (200, &b"hi"[..]));
    assert_eq!(
        parse_response(b"HTTP/1.1 503 Service Unavailable\r\n\r\n").0,
        503
    );
    assert_eq!(parse_response(b"garbage").0, 0);
    assert_eq!(parse_response(b"").1, Vec::<u8>::new());
}

#[test]
fn reference_scale_states_times_at_nominal_speed() {
    use tbd_hostbench::speed::{nominal_cpu_s, scale, Reference, NOMINAL_MS};
    // A host half as fast as nominal takes twice the reference time.
    assert_eq!(scale(&[NOMINAL_MS * 2.0]), 0.5);
    // The median decides: one disturbed reference run does not.
    assert_eq!(scale(&[NOMINAL_MS, NOMINAL_MS, 10.0 * NOMINAL_MS]), 1.0);
    let mut reference = Reference::new();
    let ms = reference.run_ms();
    assert!(ms > 0.0 && ms.is_finite(), "reference took {ms} ms");
    let (out, s) = nominal_cpu_s(&mut reference, || (0..200_000u64).sum::<u64>());
    assert_eq!(out, 199_999 * 100_000);
    assert!(s >= 0.0 && s.is_finite());
}
