//! Iteration-level execution simulation.
//!
//! Replays a lowered kernel stream against the launch/driver pipeline of a
//! framework profile: the CPU enqueues kernels one launch-overhead apart and
//! the GPU drains them in order. When kernels are shorter than the launch
//! overhead the GPU starves — the mechanism behind the paper's low GPU
//! utilisation for LSTM models (Observation 5). The result carries every
//! metric of the paper's toolchain (§3.4.3): throughput inputs (wall time),
//! GPU compute utilisation (Eq. 1), FP32 utilisation (Eq. 2), CPU
//! utilisation (Eq. 3) and an nvprof-style per-kernel trace.

use crate::timing::{instruction_factor, kernel_timing_memoized, Bound, KernelTiming};
use crate::{CpuSpec, GpuSpec};
use tbd_graph::fuse::intern_name;
use tbd_graph::lower::LoweredKernel;
use tbd_graph::trace::{EventKind, TraceLayer, TraceRecorder, TraceStore};
use tbd_graph::{KernelClass, KernelSpec, NodeId, Phase};
use tbd_tensor::Precision;

/// Chrome-trace track for CPU-side kernel launches within the gpusim layer.
const LAUNCH_TRACK: u32 = 0;
/// Chrome-trace track for the simulated GPU stream.
const GPU_TRACK: u32 = 1;

/// Framework-dependent execution parameters (one per framework profile).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecutionParams {
    /// CPU time to enqueue one kernel (driver + framework dispatch).
    pub launch_overhead_s: f64,
    /// Per-kernel scheduling gap on the GPU's critical path: the framework
    /// work (dependency resolution, op dispatch) that keeps the device idle
    /// between consecutive kernels. This is what starves the GPU on
    /// workloads made of many tiny kernels (paper Observation 5).
    pub sync_gap_s: f64,
    /// Per-iteration framework bookkeeping that cannot overlap the GPU
    /// (graph management, optimizer sync, Python frontend).
    pub iteration_overhead_s: f64,
    /// CPU time to produce one mini-batch (decode, augment, collate).
    pub input_pipeline_s: f64,
    /// Fraction of the input pipeline hidden under GPU compute (0–1).
    pub pipeline_overlap: f64,
    /// Average CPU cores active while the input pipeline runs.
    pub pipeline_cores: f64,
    /// CPU cores the framework front-end keeps busy for the whole
    /// iteration (Python interpreter, dependency engine) — the baseline CPU
    /// burn behind the paper's Fig. 7.
    pub background_cores: f64,
    /// Compute-speed multiplier for compute-bound kernels (framework
    /// kernel-library quality; 1.0 = baseline).
    pub compute_speedup: f64,
    /// Storage precision of GEMM/conv operands: at f16/bf16, memory
    /// traffic scales by the storage width and matrix-unit kernels time
    /// against [`GpuSpec::peak_half_flops`] (the speed tier's Tango-style
    /// roofline). [`Precision::F32`] reproduces the baseline bit-for-bit.
    pub precision: Precision,
}

impl Default for ExecutionParams {
    fn default() -> Self {
        ExecutionParams {
            launch_overhead_s: 5e-6,
            sync_gap_s: 4e-6,
            iteration_overhead_s: 1e-3,
            input_pipeline_s: 2e-3,
            pipeline_overlap: 0.9,
            pipeline_cores: 2.0,
            background_cores: 1.0,
            compute_speedup: 1.0,
            precision: Precision::F32,
        }
    }
}

/// One row of the nvprof-style kernel trace.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelRecord {
    /// Graph-op label that generated the kernel.
    pub origin: &'static str,
    /// Graph node that generated the kernel.
    pub node: NodeId,
    /// Kernel family.
    pub class: KernelClass,
    /// Training phase.
    pub phase: Phase,
    /// Duration on the device, in seconds.
    pub duration_s: f64,
    /// Device-clock time at which the kernel finished, in seconds from the
    /// start of the iteration. Gives downstream consumers (the distributed
    /// event engine) per-layer completion times without replaying the
    /// launch/drain schedule.
    pub end_s: f64,
    /// Fraction of FP32 peak achieved while running.
    pub fp32_utilization: f64,
    /// FLOPs executed.
    pub flops: f64,
    /// Which roofline resource bounded the kernel (Eq. 1's denominator:
    /// compute throughput or memory bandwidth).
    pub bound: Bound,
}

/// Simulated metrics of one training iteration.
#[derive(Debug, Clone)]
pub struct IterationProfile {
    /// Wall-clock time of the iteration.
    pub wall_time_s: f64,
    /// Time the GPU had at least one kernel resident (Eq. 1 numerator).
    pub gpu_busy_s: f64,
    /// GPU compute utilisation (Eq. 1).
    pub gpu_utilization: f64,
    /// FP32 utilisation over the GPU's busy time (Eq. 2).
    pub fp32_utilization: f64,
    /// Average CPU utilisation across all cores (Eq. 3).
    pub cpu_utilization: f64,
    /// Total FP32 operations executed.
    pub total_flops: f64,
    /// Peak workspace requested by any kernel, in bytes.
    pub peak_workspace_bytes: u64,
    /// Per-kernel trace in execution order.
    pub records: Vec<KernelRecord>,
}

impl IterationProfile {
    /// Training throughput in samples per second for a mini-batch of
    /// `batch` inputs.
    pub fn throughput(&self, batch: usize) -> f64 {
        batch as f64 / self.wall_time_s
    }
}

/// Simulates one training iteration of `kernels` on `gpu` under the given
/// execution parameters, with `cpu` as the host.
///
/// With a `tracer`, each kernel also emits a CPU-side
/// [`EventKind::KernelLaunch`] span, a device-resident
/// [`EventKind::KernelExec`] (or [`EventKind::Memcpy`]) span, and a
/// [`EventKind::Sync`] span whenever the device sat idle between kernels —
/// the launch-starvation gaps behind the paper's Observation 5. Simulated
/// times are deterministic and participate bit-exactly in golden digests;
/// tracing never changes the returned profile.
pub fn simulate_iteration(
    kernels: &[LoweredKernel],
    gpu: &GpuSpec,
    cpu: &CpuSpec,
    params: &ExecutionParams,
    tracer: Option<&TraceRecorder>,
) -> IterationProfile {
    let mut cpu_ready = 0.0f64;
    let mut gpu_free = 0.0f64;
    let mut busy = 0.0f64;
    let mut total_flops = 0.0f64;
    let mut counted_flops = 0.0f64;
    let mut peak_workspace = 0u64;
    let mut records = Vec::with_capacity(kernels.len());
    // Up to 3 events and 6 args per kernel. The event columns also leave
    // room for the recorder's events: the recorder adopts this longer
    // batch's columns and moves its own events in front of them.
    let mut events = match tracer {
        Some(tr) => {
            TraceStore::with_capacity(3 * kernels.len() + 4 + tr.len(), 7 * kernels.len() + 4)
        }
        None => TraceStore::new(),
    };
    // Kernels repeat heavily within a stream (an unrolled recurrent model
    // lowers to tens of thousands of kernels but a few dozen distinct
    // ones), so each distinct kernel is timed and named once, and every
    // later kernel costs one lookup in the stream's table.
    let mut table = KernelTable::new();
    let sync_name = if tracer.is_some() { events.intern("sync") } else { 0 };
    for k in kernels {
        let launch_start = cpu_ready;
        cpu_ready += params.launch_overhead_s;
        let r = table.resolve(&k.spec, || {
            let timing =
                kernel_timing_memoized(&k.spec, gpu, params.compute_speedup, params.precision);
            if tracer.is_none() {
                return Resolved { timing, launch_name: 0, exec_name: 0, class_name: "" };
            }
            Resolved {
                timing,
                launch_name: events.intern(format!("launch {}", k.spec.origin)),
                exec_name: events.intern(format!("{}::{:?}", k.spec.origin, k.spec.class)),
                class_name: intern_name(format!("{:?}", k.spec.class)),
            }
        });
        let t = r.timing;
        let start = cpu_ready.max(gpu_free + params.sync_gap_s);
        if tracer.is_some() {
            events
                .span(
                    r.launch_name,
                    TraceLayer::GpuSim,
                    EventKind::KernelLaunch,
                    launch_start * 1e6,
                    params.launch_overhead_s * 1e6,
                )
                .on_track(LAUNCH_TRACK)
                .with_arg("phase", k.phase.as_str());
            // The gap the device spent idle before this kernel: framework
            // scheduling (sync_gap) plus any launch starvation.
            let idle = start - gpu_free;
            if idle > 0.0 && gpu_free > 0.0 {
                events
                    .span(sync_name, TraceLayer::GpuSim, EventKind::Sync, gpu_free * 1e6, idle * 1e6)
                    .on_track(GPU_TRACK);
            }
            let kind = match k.spec.class {
                KernelClass::MemcpyH2D | KernelClass::DataMovement => EventKind::Memcpy,
                _ => EventKind::KernelExec,
            };
            events
                .span(r.exec_name, TraceLayer::GpuSim, kind, start * 1e6, t.duration_s * 1e6)
                .on_track(GPU_TRACK)
                .with_arg("phase", k.phase.as_str())
                .with_arg("class", r.class_name)
                .with_arg("flops", k.spec.flops)
                .with_arg("fp32_util", t.fp32_utilization)
                .with_arg("bound", t.bound.as_str());
        }
        gpu_free = start + t.duration_s;
        busy += t.duration_s;
        total_flops += k.spec.flops;
        counted_flops += k.spec.flops * instruction_factor(k.spec.class);
        peak_workspace = peak_workspace.max(k.spec.workspace_bytes);
        records.push(KernelRecord {
            origin: k.spec.origin,
            node: k.node,
            class: k.spec.class,
            phase: k.phase,
            duration_s: t.duration_s,
            end_s: gpu_free,
            fp32_utilization: t.fp32_utilization,
            flops: k.spec.flops,
            bound: t.bound,
        });
    }
    let exposed_input = params.input_pipeline_s * (1.0 - params.pipeline_overlap);
    let wall = gpu_free + params.iteration_overhead_s + exposed_input;
    if let Some(tr) = tracer {
        if params.iteration_overhead_s > 0.0 {
            let name = events.intern("iteration overhead");
            events
                .span(
                    name,
                    TraceLayer::GpuSim,
                    EventKind::Phase,
                    gpu_free * 1e6,
                    params.iteration_overhead_s * 1e6,
                )
                .on_track(LAUNCH_TRACK);
        }
        if exposed_input > 0.0 {
            let name = events.intern("input pipeline (exposed)");
            events
                .span(
                    name,
                    TraceLayer::GpuSim,
                    EventKind::Phase,
                    (gpu_free + params.iteration_overhead_s) * 1e6,
                    exposed_input * 1e6,
                )
                .on_track(LAUNCH_TRACK)
                .with_arg("overlap", params.pipeline_overlap);
        }
        let name = events.intern("iteration");
        events
            .span(name, TraceLayer::GpuSim, EventKind::Iteration, 0.0, wall * 1e6)
            .on_track(GPU_TRACK)
            .with_arg("kernels", kernels.len())
            .with_arg("gpu_busy_us", busy * 1e6);
        tr.record_batch(events);
    }
    let gpu_utilization = if wall > 0.0 { (busy / wall).min(1.0) } else { 0.0 };
    let fp32_utilization =
        if busy > 0.0 { (counted_flops / (gpu.peak_flops() * busy)).min(1.0) } else { 0.0 };
    // CPU-side busy core-seconds: one core drives launches and framework
    // bookkeeping; the input pipeline keeps `pipeline_cores` busy.
    let launch_core_s = kernels.len() as f64 * params.launch_overhead_s;
    let busy_core_s = launch_core_s
        + params.iteration_overhead_s
        + params.input_pipeline_s * params.pipeline_cores
        + params.background_cores * wall;
    let cpu_utilization =
        if wall > 0.0 { (busy_core_s / (wall * cpu.cores as f64)).min(1.0) } else { 0.0 };
    IterationProfile {
        wall_time_s: wall,
        gpu_busy_s: busy,
        gpu_utilization,
        fp32_utilization,
        cpu_utilization,
        total_flops,
        peak_workspace_bytes: peak_workspace,
        records,
    }
}

/// What the timeline needs of one distinct kernel: its roofline timing
/// and, in a traced run, its interned launch and exec names and its class
/// label.
#[derive(Debug, Clone, Copy)]
struct Resolved {
    timing: KernelTiming,
    launch_name: u32,
    exec_name: u32,
    class_name: &'static str,
}

/// A kernel's identity within one stream: its origin's address and
/// length (equal for the same `'static` label), class, and FLOP and byte
/// bit patterns. Device, speedup and precision are fixed per stream.
type KernelKey = (usize, usize, KernelClass, u64, u64);

/// The distinct kernels of one stream, in an open-addressed table found
/// by a multiplicative hash of the key: no string or SipHash work per
/// kernel. It sits in front of the thread-local roofline memo, which it
/// consults once per distinct kernel.
struct KernelTable {
    slots: Vec<Option<(KernelKey, Resolved)>>,
    len: usize,
}

impl KernelTable {
    fn new() -> Self {
        KernelTable { slots: vec![None; 64], len: 0 }
    }

    /// The slot holding `key`, or the empty slot where it belongs: linear
    /// probing from a multiplicative hash of the key.
    fn slot(&self, key: &KernelKey) -> usize {
        const MUL: u64 = 0x9E37_79B9_7F4A_7C15;
        let (at, len, class, flops, bytes) = *key;
        let h = (at as u64 ^ (len as u64) << 48 ^ class as u64).wrapping_mul(MUL);
        let h = (h ^ flops).wrapping_mul(MUL);
        let h = (h ^ bytes).wrapping_mul(MUL);
        let mask = self.slots.len() - 1;
        let mut at = (h >> (64 - self.slots.len().trailing_zeros())) as usize;
        while let Some((k, _)) = &self.slots[at] {
            if k == key {
                break;
            }
            at = (at + 1) & mask;
        }
        at
    }

    /// The entry of `spec`'s kernel, made by `make` on its first use.
    fn resolve(&mut self, spec: &KernelSpec, make: impl FnOnce() -> Resolved) -> Resolved {
        let key = (
            spec.origin.as_ptr() as usize,
            spec.origin.len(),
            spec.class,
            spec.flops.to_bits(),
            spec.bytes.to_bits(),
        );
        let at = self.slot(&key);
        if let Some((_, r)) = self.slots[at] {
            return r;
        }
        let r = make();
        self.slots[at] = Some((key, r));
        self.len += 1;
        if 2 * self.len > self.slots.len() {
            // Double the slots, keeping the table at most half full.
            let slots = vec![None; 2 * self.slots.len()];
            let old = std::mem::replace(&mut self.slots, slots);
            for (key, r) in old.into_iter().flatten() {
                let at = self.slot(&key);
                self.slots[at] = Some((key, r));
            }
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kern(class: KernelClass, flops: f64, bytes: f64) -> LoweredKernel {
        LoweredKernel {
            node: NodeId::from_index(0),
            phase: Phase::Forward,
            spec: KernelSpec::new(class, flops, bytes, "test"),
        }
    }

    fn setup() -> (GpuSpec, CpuSpec, ExecutionParams) {
        (GpuSpec::quadro_p4000(), CpuSpec::xeon_e5_2680(), ExecutionParams::default())
    }

    #[test]
    fn long_kernels_keep_gpu_busy() {
        let (gpu, cpu, params) = setup();
        let kernels: Vec<_> = (0..100).map(|_| kern(KernelClass::Gemm, 1e10, 1e8)).collect();
        let p = simulate_iteration(&kernels, &gpu, &cpu, &params, None);
        assert!(p.gpu_utilization > 0.9, "util {}", p.gpu_utilization);
        assert!(p.fp32_utilization > 0.3, "fp32 {}", p.fp32_utilization);
    }

    #[test]
    fn tiny_kernels_starve_gpu() {
        let (gpu, cpu, params) = setup();
        // Per-timestep LSTM element-wise kernels: ~2 µs of work behind a
        // 5 µs launch overhead each.
        let kernels: Vec<_> =
            (0..2000).map(|_| kern(KernelClass::Elementwise, 3e4, 4e5)).collect();
        let p = simulate_iteration(&kernels, &gpu, &cpu, &params, None);
        assert!(p.gpu_utilization < 0.75, "util {}", p.gpu_utilization);
    }

    #[test]
    fn wall_time_includes_framework_and_pipeline_overheads() {
        let (gpu, cpu, mut params) = setup();
        params.pipeline_overlap = 0.0;
        params.input_pipeline_s = 0.5;
        params.iteration_overhead_s = 0.25;
        let kernels = vec![kern(KernelClass::Gemm, 1e9, 1e7)];
        let p = simulate_iteration(&kernels, &gpu, &cpu, &params, None);
        assert!(p.wall_time_s > 0.75);
        assert!(p.gpu_utilization < 0.01);
    }

    #[test]
    fn throughput_scales_with_batch() {
        let (gpu, cpu, params) = setup();
        let kernels = vec![kern(KernelClass::Gemm, 1e9, 1e7)];
        let p = simulate_iteration(&kernels, &gpu, &cpu, &params, None);
        assert!((p.throughput(64) / p.throughput(32) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn cpu_utilization_is_low_for_gpu_heavy_work() {
        // Paper Observation 9: CPU utilisation in DNN training is low.
        let (gpu, cpu, params) = setup();
        let kernels: Vec<_> = (0..300).map(|_| kern(KernelClass::Gemm, 5e9, 5e7)).collect();
        let p = simulate_iteration(&kernels, &gpu, &cpu, &params, None);
        assert!(p.cpu_utilization < 0.15, "cpu util {}", p.cpu_utilization);
    }

    #[test]
    fn records_cover_every_kernel() {
        let (gpu, cpu, params) = setup();
        let kernels: Vec<_> = (0..10).map(|_| kern(KernelClass::Gemm, 1e8, 1e6)).collect();
        let p = simulate_iteration(&kernels, &gpu, &cpu, &params, None);
        assert_eq!(p.records.len(), 10);
        assert!(p.records.iter().all(|r| r.duration_s > 0.0));
        assert!(p.total_flops > 0.0);
    }

    #[test]
    fn each_distinct_kernel_is_timed_and_named_like_the_uncached_path() {
        use crate::timing::{kernel_timing_mixed, roofline_memo_stats};
        // `matmul` and `matmul_bwd` share an address and one (class, flops,
        // bytes); `add` appears with two classes; `bias` shares `add`'s
        // element-wise shape; `matmul` and `slice` also come in a second
        // size that differs only in FLOPs or only in bytes.
        const MATMUL_BWD: &str = "matmul_bwd";
        let shapes = [
            (MATMUL_BWD, KernelClass::Gemm, 1e9, 1e7),
            (&MATMUL_BWD[..6], KernelClass::Gemm, 1e9, 1e7),
            (&MATMUL_BWD[..6], KernelClass::Gemm, 2e9, 1e7),
            ("add", KernelClass::Elementwise, 3e4, 4e5),
            ("add", KernelClass::Reduction, 3e4, 4e5),
            ("bias", KernelClass::Elementwise, 3e4, 4e5),
            ("slice", KernelClass::DataMovement, 0.0, 2e6),
            ("slice", KernelClass::DataMovement, 0.0, 4e6),
        ];
        let kernels: Vec<_> = (0..60)
            .map(|i| {
                let (origin, class, flops, bytes) = shapes[i % shapes.len()];
                LoweredKernel {
                    node: NodeId::from_index(i),
                    phase: if i < 30 { Phase::Forward } else { Phase::Backward },
                    spec: KernelSpec::new(class, flops, bytes, origin),
                }
            })
            .collect();
        let (gpu, cpu, default) = setup();
        let half = ExecutionParams { compute_speedup: 1.3, precision: Precision::F16, ..default };
        for params in [default, half] {
            let (hits, misses) = roofline_memo_stats();
            let tracer = TraceRecorder::shared();
            let traced = simulate_iteration(&kernels, &gpu, &cpu, &params, Some(&tracer));
            let untraced = simulate_iteration(&kernels, &gpu, &cpu, &params, None);
            let (hits_after, misses_after) = roofline_memo_stats();
            assert!(
                hits_after + misses_after - hits - misses >= 2 * shapes.len() as u64,
                "each run consults the roofline memo once per distinct kernel"
            );
            assert_eq!(traced.records, untraced.records);
            assert_eq!(traced.wall_time_s.to_bits(), untraced.wall_time_s.to_bits());
            for (r, k) in traced.records.iter().zip(&kernels) {
                let t =
                    kernel_timing_mixed(&k.spec, &gpu, params.compute_speedup, params.precision);
                assert_eq!(r.origin, k.spec.origin);
                assert_eq!((r.node, r.class, r.phase), (k.node, k.spec.class, k.phase));
                assert_eq!(r.duration_s.to_bits(), t.duration_s.to_bits());
                assert_eq!(r.fp32_utilization.to_bits(), t.fp32_utilization.to_bits());
                assert_eq!((r.flops.to_bits(), r.bound), (k.spec.flops.to_bits(), t.bound));
            }
            let events = tracer.drain();
            let launches: Vec<_> =
                events.iter().filter(|e| e.kind == EventKind::KernelLaunch).collect();
            let execs: Vec<_> = events
                .iter()
                .filter(|e| matches!(e.kind, EventKind::KernelExec | EventKind::Memcpy))
                .collect();
            assert_eq!((launches.len(), execs.len()), (kernels.len(), kernels.len()));
            for ((launch, exec), k) in launches.iter().zip(&execs).zip(&kernels) {
                let (origin, class) = (k.spec.origin, k.spec.class);
                assert_eq!(launch.name, format!("launch {origin}"));
                assert_eq!(exec.name, format!("{origin}::{class:?}"));
                let class_arg = exec.args.iter().find(|(key, _)| *key == "class");
                assert_eq!(class_arg.map(|(_, v)| v.to_json()), Some(format!("\"{class:?}\"")));
            }
        }
    }

    #[test]
    fn traced_simulation_emits_launch_kernel_and_sync_spans() {
        use tbd_graph::trace::{EventKind, TraceRecorder};
        let (gpu, cpu, params) = setup();
        let kernels: Vec<_> = (0..5).map(|_| kern(KernelClass::Elementwise, 3e4, 4e5)).collect();
        let tracer = TraceRecorder::shared();
        let traced = simulate_iteration(&kernels, &gpu, &cpu, &params, Some(&tracer));
        let untraced = simulate_iteration(&kernels, &gpu, &cpu, &params, None);
        // Tracing must not perturb the simulation.
        assert_eq!(traced.wall_time_s.to_bits(), untraced.wall_time_s.to_bits());
        let events = tracer.drain();
        let count = |k: EventKind| events.iter().filter(|e| e.kind == k).count();
        assert_eq!(count(EventKind::KernelLaunch), 5);
        assert_eq!(count(EventKind::KernelExec), 5);
        assert!(count(EventKind::Sync) > 0, "tiny kernels must show starvation gaps");
        assert_eq!(count(EventKind::Iteration), 1);
        assert!(events.iter().all(|e| e.deterministic), "sim events are deterministic");
        // Device-resident spans never overlap on the GPU track.
        let mut gpu_spans: Vec<_> = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::KernelExec | EventKind::Sync))
            .collect();
        gpu_spans.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
        assert!(gpu_spans.windows(2).all(|w| w[0].end_us() <= w[1].start_us + 1e-9));
    }

    #[test]
    fn memcpy_kernels_get_memcpy_spans() {
        use tbd_graph::trace::{EventKind, TraceRecorder};
        let (gpu, cpu, params) = setup();
        let kernels = vec![kern(KernelClass::MemcpyH2D, 0.0, 1e6)];
        let tracer = TraceRecorder::shared();
        simulate_iteration(&kernels, &gpu, &cpu, &params, Some(&tracer));
        let events = tracer.drain();
        assert!(events.iter().any(|e| e.kind == EventKind::Memcpy));
        assert!(events.iter().all(|e| e.kind != EventKind::KernelExec));
    }

    #[test]
    fn empty_stream_is_handled() {
        let (gpu, cpu, params) = setup();
        let p = simulate_iteration(&[], &gpu, &cpu, &params, None);
        assert_eq!(p.gpu_busy_s, 0.0);
        assert_eq!(p.fp32_utilization, 0.0);
        assert!(p.wall_time_s > 0.0);
    }
}
