//! Eager graph execution with reverse-mode autodiff.
//!
//! [`Session`] owns the parameter tensors of one graph and can run forward
//! passes (stashing every intermediate activation, exactly the behaviour
//! whose memory cost the paper profiles) and backward passes seeded from any
//! node. Training loops live in `tbd-train`; this module only provides the
//! mechanics.

use crate::fuse::{FusionGroup, FusionPlan};
use crate::trace::{EventKind, TraceEvent, TraceLayer, TraceRecorder, value_hash};
use crate::{Graph, GraphError, Init, NodeId, Op, Result};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::Arc;
use tbd_tensor::ops::{self};
use tbd_tensor::{init, par, Precision, Shape, Tensor};

/// Host-side execution knobs (paper §3.5): the studied frameworks differ
/// sharply in how much CPU they spend driving kernels — TensorFlow
/// saturates an intra-op thread pool and runs independent graph nodes
/// concurrently, while CNTK's pure-C++ runtime is nearly serial (Fig. 7).
/// `tbd-frameworks` exposes one profile per framework via
/// `Framework::host_threading`.
/// The default — `{intra_op_threads: 0, inter_op_parallel: false}` — is
/// auto-sized kernels driven by a sequential node walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecConfig {
    /// Cap on scoped threads *within* one kernel (the intra-op pool size);
    /// `0` means auto (hardware parallelism). Installed process-wide via
    /// [`tbd_tensor::par::set_max_threads`] at the start of every pass.
    pub intra_op_threads: usize,
    /// Run independent ready nodes of the forward pass concurrently
    /// (inter-op parallelism, wave-scheduled). Outputs are bitwise
    /// identical to sequential execution: every kernel is deterministic
    /// across thread counts and dropout draws a per-node stream.
    pub inter_op_parallel: bool,
}

/// Per-node auxiliary state saved by the forward pass for the backward pass.
#[derive(Debug, Clone)]
enum Aux {
    None,
    BatchNorm(ops::BatchNormState),
    LayerNorm(ops::LayerNormState),
    MaxPool(Vec<usize>),
    Dropout(Tensor),
    CrossEntropy(Tensor),
}

/// The values (and auxiliary state) produced by one forward pass.
#[derive(Debug)]
pub struct RunState {
    values: Vec<Option<Tensor>>,
    aux: Vec<Aux>,
}

impl RunState {
    /// The value computed for `id`, if the forward pass reached it.
    pub fn value(&self, id: NodeId) -> Option<&Tensor> {
        self.values.get(id.index()).and_then(|v| v.as_ref())
    }

    /// Scalar convenience accessor (first element of the node's value).
    pub fn scalar(&self, id: NodeId) -> Option<f32> {
        self.value(id).and_then(|t| t.data().first().copied())
    }
}

/// Gradients produced by [`Session::backward`], indexed by node.
#[derive(Debug)]
pub struct Gradients {
    grads: Vec<Option<Tensor>>,
}

impl Gradients {
    /// Gradient of the seed with respect to the given parameter node.
    pub fn param_grad(&self, id: NodeId) -> Option<&Tensor> {
        self.grads.get(id.index()).and_then(|g| g.as_ref())
    }

    /// Gradient with respect to any node (inputs included, when reachable).
    pub fn grad(&self, id: NodeId) -> Option<&Tensor> {
        self.param_grad(id)
    }

    /// Global L2 norm across all parameter gradients of `graph`.
    pub fn global_norm(&self, graph: &Graph) -> f32 {
        graph
            .params()
            .iter()
            .filter_map(|(id, _)| self.param_grad(*id))
            .map(|g| {
                let n = g.l2_norm();
                n * n
            })
            .sum::<f32>()
            .sqrt()
    }
}

/// Owns the parameters of a [`Graph`] and executes it eagerly.
#[derive(Debug)]
pub struct Session {
    graph: Graph,
    params: HashMap<usize, Tensor>,
    seed: u64,
    /// Forward passes completed so far; mixed into dropout streams so every
    /// pass draws fresh masks.
    step: u64,
    exec: ExecConfig,
    /// `true` (default) enables dropout; evaluation mode disables it.
    pub training: bool,
    /// Shared trace sink; `None` (default) disables instrumentation and the
    /// hot path pays only a null check.
    tracer: Option<Arc<TraceRecorder>>,
    /// Forward-pass fusion plan; `None` (default) runs one node per
    /// scheduling unit. Fused execution is bitwise identical to unfused —
    /// groups evaluate their members with the same kernels in the same
    /// order — but emits one NodeExec span per group and schedules each
    /// group as a single wave unit.
    fusion: Option<Arc<FusionPlan>>,
    /// Storage precision of the forward matmul/conv kernels. `F32`
    /// (default) runs the exact baseline kernels; `F16`/`Bf16` quantise
    /// GEMM and convolution operands through the half format and
    /// accumulate in f32 (mixed precision). The backward pass always
    /// runs in f32 — the loss-scaling-free regime the paper's frameworks
    /// default to.
    precision: Precision,
    /// Cached inter-op wave schedule. The graph is immutable after
    /// construction, so the dependency structure only changes when the
    /// fusion plan does; `set_fusion`/`set_fusion_enabled` clear this.
    schedule: Option<Arc<WaveSchedule>>,
}

/// Minimum total output elements across a wave's units before the
/// compiled (fused) tier fans the wave out over scoped threads; below
/// this the kernels finish faster than the spawns, so the wave runs
/// inline on the scheduling thread.
const PARALLEL_WAVE_MIN_ELEMS: usize = 1 << 18;

/// Precomputed scheduling structure for the inter-op wave executor:
/// which nodes are leaves (bound inline, no launch), which units start
/// ready once the leaves are bound, and the dependency counts/edges
/// between kernel units. Built once per (graph, fusion plan) and reused
/// across passes — rebuilding this was a per-pass O(nodes + edges) cost
/// paid identically by fused and unfused execution.
#[derive(Debug)]
struct WaveSchedule {
    /// Nodes with no graph inputs (placeholders, parameters, constants),
    /// ascending. Binding one is a memory lookup, not a kernel launch.
    leaves: Vec<usize>,
    /// Kernel units whose external inputs are all leaves, ascending;
    /// these form the first real wave.
    initial_ready: Vec<usize>,
    /// Unresolved non-leaf external-input count per unit (template,
    /// cloned each pass).
    pending: Vec<usize>,
    /// Consumer units of each unit, kernel-launch edges only.
    consumers: Vec<Vec<usize>>,
}

fn build_wave_schedule(graph: &Graph, fusion: Option<&FusionPlan>) -> WaveSchedule {
    let n = graph.len();
    let unit_of = |i: usize| -> usize {
        match fusion.and_then(|p| p.group_of(NodeId(i))) {
            Some(g) => fusion.expect("plan present").groups()[g].anchor().index(),
            None => i,
        }
    };
    let mut is_unit = vec![true; n];
    if let Some(plan) = fusion {
        for (i, unit) in is_unit.iter_mut().enumerate() {
            *unit = !plan.is_interior(NodeId(i));
        }
    }
    // Every fusible op reads at least one input, so a leaf is always its
    // own unit — it can be neither a group interior nor an anchor.
    let is_leaf: Vec<bool> = (0..n)
        .map(|i| graph.node(NodeId(i)).inputs.is_empty())
        .collect();
    let mut consumers: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut pending: Vec<usize> = vec![0; n];
    for i in 0..n {
        let consumer_unit = unit_of(i);
        for input in &graph.node(NodeId(i)).inputs {
            let producer = input.index();
            if is_leaf[producer] {
                continue; // satisfied by the inline bind wave
            }
            let producer_unit = unit_of(producer);
            if producer_unit == consumer_unit {
                continue; // intra-group edge
            }
            pending[consumer_unit] += 1;
            consumers[producer_unit].push(consumer_unit);
        }
    }
    let leaves: Vec<usize> = (0..n).filter(|&i| is_leaf[i]).collect();
    let initial_ready: Vec<usize> = (0..n)
        .filter(|&i| is_unit[i] && !is_leaf[i] && pending[i] == 0)
        .collect();
    WaveSchedule { leaves, initial_ready, pending, consumers }
}

impl Session {
    /// Creates a session, materialising every parameter from its declared
    /// initialiser with the given RNG seed.
    pub fn new(graph: Graph, seed: u64) -> Self {
        Session::with_exec(graph, seed, ExecConfig::default())
    }

    /// Creates a session with explicit host-side execution knobs.
    pub fn with_exec(graph: Graph, seed: u64, exec: ExecConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut params = HashMap::new();
        for (id, init_kind) in graph.params() {
            let shape = graph.node(*id).shape.clone();
            let tensor = match *init_kind {
                Init::Zeros => Tensor::zeros(shape),
                Init::Ones => Tensor::ones(shape),
                Init::Constant(v) => Tensor::full(shape, v),
                Init::Xavier { fan_in, fan_out } => {
                    init::xavier_uniform(shape, fan_in, fan_out, &mut rng)
                }
                Init::He { fan_in } => init::he_normal(shape, fan_in, &mut rng),
                Init::Uniform { lo, hi } => init::uniform(shape, lo, hi, &mut rng),
            };
            params.insert(id.index(), tensor);
        }
        Session {
            graph,
            params,
            seed,
            step: 0,
            exec,
            training: true,
            tracer: None,
            fusion: None,
            precision: Precision::F32,
            schedule: None,
        }
    }

    /// Sets the forward matmul/conv storage precision (takes effect next
    /// pass). `F32` is bitwise the baseline; `F16`/`Bf16` run the mixed
    /// kernels (half storage, f32 accumulation).
    pub fn set_precision(&mut self, precision: Precision) {
        self.precision = precision;
    }

    /// The forward storage precision this session runs with.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Installs (or clears, with `None`) a forward-pass fusion plan. The
    /// plan must have been computed for this session's graph.
    pub fn set_fusion(&mut self, plan: Option<Arc<FusionPlan>>) {
        self.fusion = plan;
        self.schedule = None;
    }

    /// Analyses this session's graph and installs the resulting fusion
    /// plan (`true`), or clears fusion (`false`).
    pub fn set_fusion_enabled(&mut self, enabled: bool) {
        self.fusion = enabled.then(|| Arc::new(FusionPlan::analyze(&self.graph)));
        self.schedule = None;
    }

    /// The installed fusion plan, if any.
    pub fn fusion(&self) -> Option<&Arc<FusionPlan>> {
        self.fusion.as_ref()
    }

    /// Attaches a shared trace recorder: subsequent passes emit one
    /// [`EventKind::NodeExec`] span per node (wall-clock timed, with wave
    /// and thread-slot attribution plus a bitwise hash of the node's output
    /// so trace digests can assert thread-count invariance) and one
    /// [`EventKind::Iteration`] span per pass. Pass `None` to detach.
    pub fn set_tracer(&mut self, tracer: Option<Arc<TraceRecorder>>) {
        self.tracer = tracer;
    }

    /// The attached trace recorder, if any.
    pub fn tracer(&self) -> Option<&Arc<TraceRecorder>> {
        self.tracer.as_ref()
    }

    /// The host-side execution knobs this session runs with.
    pub fn exec_config(&self) -> ExecConfig {
        self.exec
    }

    /// Replaces the host-side execution knobs (takes effect next pass).
    pub fn set_exec_config(&mut self, exec: ExecConfig) {
        self.exec = exec;
    }

    /// A deterministic RNG for the dropout node at `node_index` during
    /// forward pass number `step`: SplitMix64-style mixing of (session
    /// seed, node id, step). Each dropout node draws an independent stream
    /// regardless of execution order — the property that keeps inter-op
    /// parallel forward passes bit-identical to sequential ones.
    fn dropout_rng(&self, node_index: usize, step: u64) -> StdRng {
        let mut z = self
            .seed
            .wrapping_add((node_index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(step.wrapping_mul(0xBF58_476D_1CE4_E5B9));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        StdRng::seed_from_u64(z ^ (z >> 31))
    }

    /// The graph this session executes.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Number of forward passes completed so far. Dropout streams are keyed
    /// on this counter, so two sessions with equal parameters, seed and
    /// step count produce bitwise-identical passes.
    pub fn step_count(&self) -> u64 {
        self.step
    }

    /// Overrides the forward-pass counter. Checkpoint restore uses this to
    /// resume the dropout streams exactly where the saved session left
    /// them — the property that makes crash-replay recovery bit-exact.
    pub fn set_step_count(&mut self, step: u64) {
        self.step = step;
    }

    /// Current value of a parameter.
    pub fn param(&self, id: NodeId) -> Option<&Tensor> {
        self.params.get(&id.index())
    }

    /// Mutable access to a parameter (used by optimizers).
    pub fn param_mut(&mut self, id: NodeId) -> Option<&mut Tensor> {
        self.params.get_mut(&id.index())
    }

    /// Snapshot of every parameter (A3C workers synchronise through these).
    pub fn snapshot(&self) -> Vec<(NodeId, Tensor)> {
        self.graph
            .params()
            .iter()
            .filter_map(|(id, _)| self.params.get(&id.index()).map(|t| (*id, t.clone())))
            .collect()
    }

    /// Restores parameters from a snapshot taken on a session with the same
    /// graph structure. Unknown ids are ignored.
    pub fn load_snapshot(&mut self, snapshot: &[(NodeId, Tensor)]) {
        for (id, tensor) in snapshot {
            if let Some(slot) = self.params.get_mut(&id.index()) {
                *slot = tensor.clone();
            }
        }
    }

    /// Runs the forward pass with the given input feeds.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::MissingFeed`] / [`GraphError::FeedShapeMismatch`]
    /// for bad feeds and propagates kernel errors.
    pub fn forward(&mut self, feeds: &[(NodeId, Tensor)]) -> Result<RunState> {
        par::set_max_threads(self.exec.intra_op_threads);
        let step = self.step;
        self.step += 1;
        let feed_map: HashMap<usize, &Tensor> =
            feeds.iter().map(|(id, t)| (id.index(), t)).collect();
        let n = self.graph.len();
        let mut values: Vec<Option<Tensor>> = vec![None; n];
        let mut aux: Vec<Aux> = vec![Aux::None; n];
        let pass_start = self.tracer.as_ref().map(|t| t.now_us());
        let fusion = self.fusion.clone();
        if !self.exec.inter_op_parallel {
            for i in 0..n {
                if fusion.as_ref().is_some_and(|p| p.is_interior(NodeId(i))) {
                    continue; // evaluated inline at the group's anchor
                }
                let t0 = self.tracer.as_ref().map(|t| t.now_us());
                if let Some(group) = fusion.as_ref().and_then(|p| p.anchored_at(NodeId(i))) {
                    let computed = self.compute_group(group, step, &values)?;
                    if let Some(tracer) = &self.tracer {
                        let t1 = tracer.now_us();
                        let value = &computed.last().expect("groups are non-empty").1;
                        tracer.record(self.group_span(
                            group,
                            step,
                            (i, 0),
                            (t0.unwrap_or(t1), t1),
                            value,
                        ));
                    }
                    for (k, value, a) in computed {
                        values[k] = Some(value);
                        aux[k] = a;
                    }
                } else {
                    let (value, a) = self.compute_node(i, step, &feed_map, &values)?;
                    if let Some(tracer) = &self.tracer {
                        let t1 = tracer.now_us();
                        tracer.record(self.node_span(i, step, (i, 0), (t0.unwrap_or(t1), t1), &value));
                    }
                    values[i] = Some(value);
                    aux[i] = a;
                }
            }
            self.record_pass_span("forward", step, n, pass_start);
            return Ok(RunState { values, aux });
        }
        // Inter-op wave scheduling: repeatedly run every *unit* whose
        // external inputs are all computed, fanning a wave's units out
        // across scoped threads. A unit is either a single node or a whole
        // fusion group (anchored at its last member, so every external
        // input of every member is available when the unit runs — fewer
        // units per wave means fewer join barriers). Waves and errors are
        // processed in ascending unit order, so scheduling never changes
        // results or error reporting.
        // The two tiers schedule differently. The eager tier (no fusion
        // plan) re-derives its dependency state every pass and schedules
        // every node — leaves included — as a wave unit, modelling an
        // eager framework's per-op dispatch. The speed tier (fusion plan
        // installed) uses a schedule precompiled once per (graph, plan):
        // leaves are bound inline before the first wave (a parameter
        // lookup is a memory bind, not a kernel launch, so it spawns no
        // thread and forms no join barrier) and each fusion group is one
        // unit, modelling a graph compiler's ahead-of-time schedule.
        let schedule_arc;
        let dyn_consumers;
        let consumers: &[Vec<usize>];
        let mut pending: Vec<usize>;
        let mut ready: Vec<usize>;
        let mut wave_index: usize;
        if fusion.is_some() {
            schedule_arc = match &self.schedule {
                Some(s) if s.pending.len() == n => Arc::clone(s),
                _ => {
                    let built = Arc::new(build_wave_schedule(&self.graph, fusion.as_deref()));
                    self.schedule = Some(Arc::clone(&built));
                    built
                }
            };
            let mut leaf_events = Vec::new();
            for (slot, &i) in schedule_arc.leaves.iter().enumerate() {
                let t0 = self.tracer.as_ref().map(|t| t.now_us());
                let (value, a) = self.compute_node(i, step, &feed_map, &values)?;
                if let Some(tracer) = &self.tracer {
                    let t1 = tracer.now_us();
                    leaf_events.push(self.node_span(
                        i,
                        step,
                        (0, slot),
                        (t0.unwrap_or(t1), t1),
                        &value,
                    ));
                }
                values[i] = Some(value);
                aux[i] = a;
            }
            if let Some(tracer) = &self.tracer {
                tracer.record_batch(leaf_events);
            }
            consumers = &schedule_arc.consumers;
            pending = schedule_arc.pending.clone();
            ready = schedule_arc.initial_ready.clone();
            wave_index = 1;
        } else {
            let mut edges: Vec<Vec<usize>> = vec![Vec::new(); n];
            pending = vec![0; n];
            for (i, count) in pending.iter_mut().enumerate() {
                for input in &self.graph.node(NodeId(i)).inputs {
                    *count += 1;
                    edges[input.index()].push(i);
                }
            }
            dyn_consumers = edges;
            consumers = &dyn_consumers;
            ready = (0..n).filter(|&i| pending[i] == 0).collect();
            wave_index = 0;
        }
        while !ready.is_empty() {
            let wave = std::mem::take(&mut ready);
            // Each thread times its own unit locally; spans are published
            // after the join, in ascending unit order, so the recorded
            // event sequence is deterministic regardless of thread timing.
            type Timed = (usize, Result<Vec<(usize, Tensor, Aux)>>, f64, f64);
            // The compiled tier fans a wave out over threads only when it
            // carries enough work to amortise the spawns — an ahead-of-time
            // cost-model decision keyed on static output sizes, so it is
            // deterministic and thread-count independent. The eager tier
            // always fans out, modelling per-op dispatch.
            let inline = wave.len() == 1
                || (fusion.is_some()
                    && wave
                        .iter()
                        .map(|&i| self.graph.node(NodeId(i)).shape.len())
                        .sum::<usize>()
                        < PARALLEL_WAVE_MIN_ELEMS);
            let results: Vec<Timed> = if inline {
                let mut out = Vec::with_capacity(wave.len());
                for &i in &wave {
                    let t0 = self.tracer.as_ref().map_or(0.0, |t| t.now_us());
                    let r = self.compute_unit(i, step, &feed_map, &values);
                    let t1 = self.tracer.as_ref().map_or(0.0, |t| t.now_us());
                    out.push((i, r, t0, t1));
                }
                out
            } else {
                let (this, vals, fm) = (&*self, &values, &feed_map);
                std::thread::scope(|scope| {
                    let handles: Vec<_> = wave
                        .iter()
                        .map(|&i| {
                            scope.spawn(move || {
                                let t0 = this.tracer.as_ref().map_or(0.0, |t| t.now_us());
                                let r = this.compute_unit(i, step, fm, vals);
                                let t1 = this.tracer.as_ref().map_or(0.0, |t| t.now_us());
                                (i, r, t0, t1)
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("node evaluation must not panic"))
                        .collect()
                })
            };
            let mut wave_events = Vec::new();
            for (slot, (i, result, t0, t1)) in results.into_iter().enumerate() {
                let computed = result?;
                if self.tracer.is_some() {
                    let value = &computed.last().expect("units compute at least one node").1;
                    let span = match fusion.as_ref().and_then(|p| p.anchored_at(NodeId(i))) {
                        Some(group) => {
                            self.group_span(group, step, (wave_index, slot), (t0, t1), value)
                        }
                        None => self.node_span(i, step, (wave_index, slot), (t0, t1), value),
                    };
                    wave_events.push(span);
                }
                for (k, value, a) in computed {
                    values[k] = Some(value);
                    aux[k] = a;
                }
            }
            if let Some(tracer) = &self.tracer {
                tracer.record_batch(wave_events);
            }
            for &i in &wave {
                for &consumer in &consumers[i] {
                    pending[consumer] -= 1;
                    if pending[consumer] == 0 {
                        ready.push(consumer);
                    }
                }
            }
            ready.sort_unstable();
            wave_index += 1;
        }
        self.record_pass_span("forward", step, n, pass_start);
        Ok(RunState { values, aux })
    }

    /// Computes one scheduling unit: a single node, or — when `i` anchors a
    /// fusion group — every member of the group in dataflow order. Returns
    /// `(node_index, value, aux)` triples in evaluation order.
    fn compute_unit(
        &self,
        i: usize,
        step: u64,
        feed_map: &HashMap<usize, &Tensor>,
        values: &[Option<Tensor>],
    ) -> Result<Vec<(usize, Tensor, Aux)>> {
        match self.fusion.as_ref().and_then(|p| p.anchored_at(NodeId(i))) {
            Some(group) => self.compute_group(group, step, values),
            None => {
                self.compute_node(i, step, feed_map, values).map(|(t, a)| vec![(i, t, a)])
            }
        }
    }

    /// Evaluates every member of a fusion group in dataflow order, reading
    /// interior values from a local overlay (they are not yet published to
    /// the shared value table — the fused-kernel analogue of keeping
    /// intermediates in registers). Members are never `Input`/`Parameter`
    /// nodes, and all external inputs are already computed because the
    /// group is scheduled at its anchor.
    fn compute_group(
        &self,
        group: &FusionGroup,
        step: u64,
        values: &[Option<Tensor>],
    ) -> Result<Vec<(usize, Tensor, Aux)>> {
        let mut local: Vec<(usize, Tensor, Aux)> = Vec::with_capacity(group.len());
        for &m in group.nodes() {
            let node = self.graph.node(m);
            let ins: Vec<&Tensor> = node
                .inputs
                .iter()
                .map(|id| {
                    local
                        .iter()
                        .rev()
                        .find(|(k, _, _)| *k == id.index())
                        .map(|(_, t, _)| t)
                        .or_else(|| values[id.index()].as_ref())
                        .expect("scheduled after inputs")
                })
                .collect();
            let (t, a) = self.eval(m.index(), step, &node.op, &ins, &node.shape)?;
            local.push((m.index(), t, a));
        }
        Ok(local)
    }

    /// Builds the wall-clock span for one executed node. Wave and node
    /// indices are deterministic (the wave schedule is a pure function of
    /// graph topology); wall times and the thread slot are attribution-only
    /// and excluded from golden digests. The `value_hash` arg pins the
    /// node's output bit pattern, so two traces with equal digests computed
    /// bitwise-identical tensors — the PR-1 invariance, asserted at the
    /// trace level.
    fn node_span(
        &self,
        i: usize,
        step: u64,
        (wave, slot): (usize, usize),
        (start_us, end_us): (f64, f64),
        value: &Tensor,
    ) -> TraceEvent {
        let node = self.graph.node(NodeId(i));
        TraceEvent::span(
            node.op.mnemonic(),
            TraceLayer::Executor,
            EventKind::NodeExec,
            start_us,
            (end_us - start_us).max(0.0),
        )
        .wall_clock()
        .on_track(u32::try_from(slot).unwrap_or(u32::MAX))
        .with_arg("node", i)
        .with_arg("step", step)
        .with_arg("wave", wave)
        .with_arg("value_hash", value_hash(value.data()))
    }

    /// Builds the wall-clock span for one executed fusion group: a single
    /// NodeExec span named after the fused kernel, attributed to the
    /// group's root node, carrying the member count and the bitwise hash
    /// of the group's *final* output (interior values never leave the
    /// fused kernel, so only the escaping value is pinned).
    fn group_span(
        &self,
        group: &FusionGroup,
        step: u64,
        (wave, slot): (usize, usize),
        (start_us, end_us): (f64, f64),
        value: &Tensor,
    ) -> TraceEvent {
        TraceEvent::span(
            group.name(),
            TraceLayer::Executor,
            EventKind::NodeExec,
            start_us,
            (end_us - start_us).max(0.0),
        )
        .wall_clock()
        .on_track(u32::try_from(slot).unwrap_or(u32::MAX))
        .with_arg("node", group.root().index())
        .with_arg("step", step)
        .with_arg("wave", wave)
        .with_arg("fused", group.len())
        .with_arg("value_hash", value_hash(value.data()))
    }

    /// Records the whole-pass span (forward or backward). Never includes
    /// `intra_op_threads` in the args: digests must be stable across
    /// thread counts.
    fn record_pass_span(&self, name: &'static str, step: u64, nodes: usize, start: Option<f64>) {
        if let (Some(tracer), Some(start)) = (&self.tracer, start) {
            let end = tracer.now_us();
            tracer.record(
                TraceEvent::span(name, TraceLayer::Executor, EventKind::Phase, start, end - start)
                    .wall_clock()
                    .with_arg("step", step)
                    .with_arg("nodes", nodes)
                    .with_arg("inter_op", self.exec.inter_op_parallel),
            );
        }
    }

    /// Produces the value (and auxiliary state) of one node given the
    /// already-computed values of its inputs.
    fn compute_node(
        &self,
        i: usize,
        step: u64,
        feed_map: &HashMap<usize, &Tensor>,
        values: &[Option<Tensor>],
    ) -> Result<(Tensor, Aux)> {
        let node = self.graph.node(NodeId(i));
        match &node.op {
            Op::Parameter { name } => self
                .params
                .get(&i)
                .cloned()
                .map(|t| (t, Aux::None))
                .ok_or_else(|| GraphError::MissingFeed { name: name.clone() }),
            Op::Input { name } => {
                let t = feed_map
                    .get(&i)
                    .ok_or_else(|| GraphError::MissingFeed { name: name.clone() })?;
                if t.shape() != &node.shape {
                    return Err(GraphError::FeedShapeMismatch {
                        name: name.clone(),
                        expected: node.shape.dims().to_vec(),
                        actual: t.shape().dims().to_vec(),
                    });
                }
                Ok(((*t).clone(), Aux::None))
            }
            op => {
                let ins: Vec<&Tensor> = node
                    .inputs
                    .iter()
                    .map(|id| values[id.index()].as_ref().expect("scheduled after inputs"))
                    .collect();
                self.eval(i, step, op, &ins, &node.shape)
            }
        }
    }

    fn eval(
        &self,
        node_index: usize,
        step: u64,
        op: &Op,
        ins: &[&Tensor],
        out_shape: &Shape,
    ) -> Result<(Tensor, Aux)> {
        let mut aux = Aux::None;
        let t = match op {
            Op::Input { .. } | Op::Parameter { .. } => unreachable!("handled by caller"),
            Op::MatMul => match self.precision {
                Precision::F32 => ops::matmul(ins[0], ins[1])?,
                p => ops::matmul_mixed(ins[0], ins[1], p)?,
            },
            Op::BatchMatMul => ops::batch_matmul(ins[0], ins[1])?,
            Op::Transpose => ops::transpose(ins[0])?,
            Op::BatchTranspose => ops::batch_transpose(ins[0])?,
            Op::AddBias => ops::add_bias(ins[0], ins[1])?,
            Op::Add => ops::add(ins[0], ins[1])?,
            Op::Sub => ops::sub(ins[0], ins[1])?,
            Op::Mul => ops::mul(ins[0], ins[1])?,
            Op::Scale(s) => ops::scale(ins[0], *s),
            Op::AddScalar(s) => ins[0].map(|v| v + s),
            Op::Relu => ops::relu_forward(ins[0]),
            Op::LeakyRelu(a) => ops::leaky_relu_forward(ins[0], *a),
            Op::Sigmoid => ops::sigmoid_forward(ins[0]),
            Op::Tanh => ops::tanh_forward(ins[0]),
            Op::Conv2d(cfg) => match self.precision {
                Precision::F32 => ops::conv2d_forward(ins[0], ins[1], *cfg)?,
                p => ops::conv2d_forward_mixed(ins[0], ins[1], *cfg, p)?,
            },
            Op::MaxPool(cfg) => {
                let (y, arg) = ops::max_pool2d_forward(ins[0], *cfg)?;
                aux = Aux::MaxPool(arg);
                y
            }
            Op::AvgPool(cfg) => ops::avg_pool2d_forward(ins[0], *cfg)?,
            Op::GlobalAvgPool => ops::global_avg_pool_forward(ins[0])?,
            Op::Upsample2x => ops::upsample2x_forward(ins[0])?,
            Op::BatchNorm { eps } => {
                let (y, state) = ops::batch_norm_forward(ins[0], ins[1], ins[2], *eps)?;
                aux = Aux::BatchNorm(state);
                y
            }
            Op::LayerNorm { eps } => {
                let (y, state) = ops::layer_norm_forward(ins[0], ins[1], ins[2], *eps)?;
                aux = Aux::LayerNorm(state);
                y
            }
            Op::Softmax => ops::softmax(ins[0])?,
            Op::CrossEntropy => {
                let (loss, probs) = ops::cross_entropy_forward(ins[0], ins[1])?;
                aux = Aux::CrossEntropy(probs);
                Tensor::scalar(loss)
            }
            Op::Embedding => ops::embedding_forward(ins[0], ins[1])?,
            Op::Reshape(shape) => ins[0].reshape(shape.clone())?,
            Op::Concat { axis } => ops::concat(ins, *axis)?,
            Op::SliceCols { start, len } => ops::slice_cols(ins[0], *start, *len)?,
            Op::SliceRows { start, len } => ops::slice_rows(ins[0], *start, *len)?,
            Op::Permute3(perm) => ops::permute3(ins[0], *perm)?,
            Op::MeanAll => ops::mean_all_forward(ins[0]),
            Op::SumAll => ops::sum_all_forward(ins[0]),
            Op::Dropout { p } => {
                if self.training && *p > 0.0 {
                    let mut rng = self.dropout_rng(node_index, step);
                    let (y, mask) = ops::dropout_forward(ins[0], *p, &mut rng)?;
                    aux = Aux::Dropout(mask);
                    y
                } else {
                    ins[0].clone()
                }
            }
        };
        debug_assert_eq!(t.shape(), out_shape, "runtime shape must match inference");
        Ok((t, aux))
    }

    /// Runs reverse-mode autodiff from `seed` (with upstream gradient
    /// `seed_grad`) back to every node that requires gradients.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::ValueNotComputed`] when `run` does not contain
    /// a value for `seed`, and propagates kernel errors.
    pub fn backward(&self, run: &RunState, seed: NodeId, seed_grad: Tensor) -> Result<Gradients> {
        par::set_max_threads(self.exec.intra_op_threads);
        if run.value(seed).is_none() {
            return Err(GraphError::ValueNotComputed(seed.index()));
        }
        let needs = self.graph.requires_grad();
        let n = self.graph.len();
        let mut grads: Vec<Option<Tensor>> = vec![None; n];
        grads[seed.index()] = Some(seed_grad);
        let pass_start = self.tracer.as_ref().map(|t| t.now_us());
        let mut traced_nodes = 0usize;
        for i in (0..=seed.index()).rev() {
            let node = self.graph.node(NodeId(i));
            if node.inputs.is_empty() {
                continue;
            }
            // Borrowed out of `grads` for the sweep (no deep copy); put back
            // below, before any input gradient is accumulated.
            let Some(dy) = grads[i].take() else { continue };
            let ins: Vec<&Tensor> = node
                .inputs
                .iter()
                .map(|id| run.values[id.index()].as_ref().expect("forward ran"))
                .collect();
            let t0 = self.tracer.as_ref().map(|t| t.now_us());
            let input_grads = self.grad_op(&node.op, &ins, run, i, &dy)?;
            if let Some(tracer) = &self.tracer {
                // With a fusion plan installed, a group back-propagates as
                // one fused launch: the root (reached last by the reverse
                // sweep) carries the group's single `.grad` span and the
                // other members fold into it. Gradient values are
                // untouched — only the recorded launch structure changes.
                let group = self
                    .fusion
                    .as_ref()
                    .and_then(|p| p.group_of(NodeId(i)).map(|g| &p.groups()[g]));
                let span_name = match group {
                    Some(g) if NodeId(i) != g.root() => None,
                    Some(g) => Some(crate::fuse::intern_name(format!("{}.grad", g.name()))),
                    None => {
                        Some(crate::fuse::intern_name(format!("{}.grad", node.op.mnemonic())))
                    }
                };
                if let Some(name) = span_name {
                    let t1 = tracer.now_us();
                    tracer.record(
                        TraceEvent::span(
                            name,
                            TraceLayer::Executor,
                            EventKind::NodeExec,
                            t0.unwrap_or(t1),
                            (t1 - t0.unwrap_or(t1)).max(0.0),
                        )
                        .wall_clock()
                        .with_arg("node", i)
                        .with_arg("grad_hash", value_hash(dy.data())),
                    );
                    traced_nodes += 1;
                }
            }
            grads[i] = Some(dy);
            for (k, grad) in input_grads.into_iter().enumerate() {
                let Some(grad) = grad else { continue };
                let target = node.inputs[k].index();
                if !needs[target] && !matches!(self.graph.node(node.inputs[k]).op, Op::Input { .. })
                {
                    continue;
                }
                grads[target] = Some(match grads[target].take() {
                    Some(existing) => ops::add(&existing, &grad)?,
                    None => grad,
                });
            }
        }
        self.record_pass_span("backward", self.step, traced_nodes, pass_start);
        Ok(Gradients { grads })
    }

    #[allow(clippy::too_many_lines)]
    fn grad_op(
        &self,
        op: &Op,
        ins: &[&Tensor],
        run: &RunState,
        node_index: usize,
        dy: &Tensor,
    ) -> Result<Vec<Option<Tensor>>> {
        let y = run.values[node_index].as_ref().expect("forward ran");
        let aux = &run.aux[node_index];
        Ok(match op {
            Op::Input { .. } | Op::Parameter { .. } => vec![],
            Op::MatMul => {
                let (da, db) = ops::matmul_backward(ins[0], ins[1], dy)?;
                vec![Some(da), Some(db)]
            }
            Op::BatchMatMul => {
                let (da, db) = ops::batch_matmul_backward(ins[0], ins[1], dy)?;
                vec![Some(da), Some(db)]
            }
            Op::Transpose => vec![Some(ops::transpose(dy)?)],
            Op::BatchTranspose => vec![Some(ops::batch_transpose(dy)?)],
            Op::AddBias => {
                vec![Some(dy.clone()), Some(ops::add_bias_backward(dy)?)]
            }
            Op::Add => vec![Some(dy.clone()), Some(dy.clone())],
            Op::Sub => vec![Some(dy.clone()), Some(ops::scale(dy, -1.0))],
            Op::Mul => {
                vec![Some(ops::mul(dy, ins[1])?), Some(ops::mul(dy, ins[0])?)]
            }
            Op::Scale(s) => vec![Some(ops::scale(dy, *s))],
            Op::AddScalar(_) => vec![Some(dy.clone())],
            Op::Relu => vec![Some(ops::relu_backward(ins[0], dy)?)],
            Op::LeakyRelu(a) => vec![Some(ops::leaky_relu_backward(ins[0], dy, *a)?)],
            Op::Sigmoid => vec![Some(ops::sigmoid_backward(y, dy)?)],
            Op::Tanh => vec![Some(ops::tanh_backward(y, dy)?)],
            Op::Conv2d(cfg) => {
                let (dx, dw) = ops::conv2d_backward(ins[0], ins[1], dy, *cfg)?;
                vec![Some(dx), Some(dw)]
            }
            Op::MaxPool(_) => {
                let Aux::MaxPool(arg) = aux else { unreachable!("max pool saved argmax") };
                vec![Some(ops::max_pool2d_backward(ins[0].shape(), arg, dy)?)]
            }
            Op::AvgPool(cfg) => {
                vec![Some(ops::avg_pool2d_backward(ins[0].shape(), dy, *cfg)?)]
            }
            Op::GlobalAvgPool => {
                vec![Some(ops::global_avg_pool_backward(ins[0].shape(), dy)?)]
            }
            Op::Upsample2x => {
                vec![Some(ops::upsample2x_backward(ins[0].shape(), dy)?)]
            }
            Op::BatchNorm { .. } => {
                let Aux::BatchNorm(state) = aux else { unreachable!("bn saved state") };
                let (dx, dgamma, dbeta) = ops::batch_norm_backward(state, ins[1], dy)?;
                vec![Some(dx), Some(dgamma), Some(dbeta)]
            }
            Op::LayerNorm { .. } => {
                let Aux::LayerNorm(state) = aux else { unreachable!("ln saved state") };
                let (dx, dgamma, dbeta) = ops::layer_norm_backward(state, ins[1], dy)?;
                vec![Some(dx), Some(dgamma), Some(dbeta)]
            }
            Op::Softmax => vec![Some(ops::softmax_backward(y, dy)?)],
            Op::CrossEntropy => {
                let Aux::CrossEntropy(probs) = aux else { unreachable!("ce saved probs") };
                let dloss = dy.data().first().copied().unwrap_or(1.0);
                vec![Some(ops::cross_entropy_backward(probs, ins[1], dloss)?), None]
            }
            Op::Embedding => {
                vec![Some(ops::embedding_backward(ins[0].shape(), ins[1], dy)?), None]
            }
            Op::Reshape(_) => vec![Some(dy.reshape(ins[0].shape().clone())?)],
            Op::Concat { axis } => {
                let shapes: Vec<Shape> = ins.iter().map(|t| t.shape().clone()).collect();
                ops::concat_backward(&shapes, *axis, dy)?.into_iter().map(Some).collect()
            }
            Op::SliceCols { start, .. } => {
                vec![Some(ops::slice_cols_backward(ins[0].shape(), *start, dy)?)]
            }
            Op::SliceRows { start, .. } => {
                vec![Some(ops::slice_rows_backward(ins[0].shape(), *start, dy)?)]
            }
            Op::Permute3(perm) => {
                vec![Some(ops::permute3(dy, ops::invert_perm3(*perm))?)]
            }
            Op::MeanAll => {
                let d = dy.data().first().copied().unwrap_or(1.0);
                vec![Some(ops::mean_all_backward(ins[0].shape(), d))]
            }
            Op::SumAll => {
                let d = dy.data().first().copied().unwrap_or(1.0);
                vec![Some(ops::sum_all_backward(ins[0].shape(), d))]
            }
            Op::Dropout { p } => {
                if let Aux::Dropout(mask) = aux {
                    vec![Some(ops::dropout_backward(mask, dy)?)]
                } else {
                    debug_assert!(!self.training || *p == 0.0);
                    vec![Some(dy.clone())]
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    /// Builds y = relu(x·W + b), loss = CE(y, t).
    fn small_net() -> (Graph, NodeId, NodeId, NodeId, NodeId, NodeId) {
        let mut g = GraphBuilder::new();
        let x = g.input("x", [4, 3]);
        let w = g.parameter("w", [3, 5], Init::Xavier { fan_in: 3, fan_out: 5 });
        let b = g.parameter("b", [5], Init::Zeros);
        let h = g.matmul(x, w).unwrap();
        let h = g.add_bias(h, b).unwrap();
        let h = g.relu(h).unwrap();
        let t = g.input("t", [4]);
        let loss = g.cross_entropy(h, t).unwrap();
        (g.finish(), x, w, b, t, loss)
    }

    #[test]
    fn forward_produces_scalar_loss() {
        let (graph, x, _, _, t, loss) = small_net();
        let mut session = Session::new(graph, 1);
        let run = session
            .forward(&[(x, Tensor::ones([4, 3])), (t, Tensor::from_slice(&[0.0, 1.0, 2.0, 3.0]))])
            .unwrap();
        let l = run.scalar(loss).unwrap();
        assert!(l.is_finite() && l > 0.0);
    }

    #[test]
    fn missing_feed_is_reported() {
        let (graph, x, _, _, _, _) = small_net();
        let mut session = Session::new(graph, 1);
        let err = session.forward(&[(x, Tensor::ones([4, 3]))]).unwrap_err();
        assert!(matches!(err, GraphError::MissingFeed { .. }));
    }

    #[test]
    fn feed_shape_is_validated() {
        let (graph, x, _, _, t, _) = small_net();
        let mut session = Session::new(graph, 1);
        let err = session
            .forward(&[(x, Tensor::ones([4, 2])), (t, Tensor::zeros([4]))])
            .unwrap_err();
        assert!(matches!(err, GraphError::FeedShapeMismatch { .. }));
    }

    #[test]
    fn autodiff_matches_finite_differences_through_composite_graph() {
        let (graph, x, w, b, t, loss) = small_net();
        // Seed chosen so no relu pre-activation sits at the kink, where a
        // central difference with eps = 1e-2 measures a subgradient blend
        // the analytic pass legitimately does not.
        let mut session = Session::new(graph, 1);
        let xt = Tensor::from_fn([4, 3], |i| ((i * 5 % 11) as f32 - 5.0) * 0.2);
        let tt = Tensor::from_slice(&[0.0, 1.0, 2.0, 4.0]);
        let run = session.forward(&[(x, xt.clone()), (t, tt.clone())]).unwrap();
        let grads = session.backward(&run, loss, Tensor::scalar(1.0)).unwrap();
        let dw = grads.param_grad(w).unwrap().clone();
        let db = grads.param_grad(b).unwrap().clone();

        let eps = 1e-2;
        let wt = session.param(w).unwrap().clone();
        for i in 0..wt.len() {
            let mut wp = wt.clone();
            wp.data_mut()[i] += eps;
            *session.param_mut(w).unwrap() = wp;
            let lp = session.forward(&[(x, xt.clone()), (t, tt.clone())]).unwrap().scalar(loss).unwrap();
            let mut wm = wt.clone();
            wm.data_mut()[i] -= eps;
            *session.param_mut(w).unwrap() = wm;
            let lm = session.forward(&[(x, xt.clone()), (t, tt.clone())]).unwrap().scalar(loss).unwrap();
            *session.param_mut(w).unwrap() = wt.clone();
            let fd = (lp - lm) / (2.0 * eps);
            assert!((fd - dw.data()[i]).abs() < 1e-2, "dw[{i}] fd {fd} vs {}", dw.data()[i]);
        }
        assert!(db.all_finite());
    }

    #[test]
    fn fan_out_gradients_accumulate() {
        // loss = sum(w + w) => dw = 2.
        let mut g = GraphBuilder::new();
        let w = g.parameter("w", [3], Init::Ones);
        let s = g.add(w, w).unwrap();
        let loss = g.sum_all(s).unwrap();
        let graph = g.finish();
        let mut session = Session::new(graph, 0);
        let run = session.forward(&[]).unwrap();
        let grads = session.backward(&run, loss, Tensor::scalar(1.0)).unwrap();
        assert_eq!(grads.param_grad(w).unwrap().data(), &[2.0, 2.0, 2.0]);
    }

    #[test]
    fn backward_from_arbitrary_node_with_custom_seed() {
        // WGAN-style: seed the mean of an intermediate with ±1.
        let mut g = GraphBuilder::new();
        let w = g.parameter("w", [2, 2], Init::Ones);
        let x = g.input("x", [1, 2]);
        let h = g.matmul(x, w).unwrap();
        let m = g.mean_all(h).unwrap();
        let graph = g.finish();
        let mut session = Session::new(graph, 0);
        let run = session.forward(&[(x, Tensor::ones([1, 2]))]).unwrap();
        let grads = session.backward(&run, m, Tensor::scalar(-1.0)).unwrap();
        let dw = grads.param_grad(w).unwrap();
        assert!(dw.data().iter().all(|&v| (v + 0.5).abs() < 1e-6));
    }

    #[test]
    fn inter_op_parallel_matches_sequential_execution() {
        // Diamond graph with two independent branches and a training-mode
        // dropout node: wave scheduling must be bitwise identical to the
        // sequential walk (deterministic kernels + per-node dropout RNG).
        let build = || {
            let mut g = GraphBuilder::new();
            let x = g.input("x", [8, 16]);
            let w1 = g.parameter("w1", [16, 16], Init::Xavier { fan_in: 16, fan_out: 16 });
            let w2 = g.parameter("w2", [16, 16], Init::Xavier { fan_in: 16, fan_out: 16 });
            let a = g.matmul(x, w1).unwrap();
            let a = g.relu(a).unwrap();
            let b = g.matmul(x, w2).unwrap();
            let b = g.tanh(b).unwrap();
            let s = g.add(a, b).unwrap();
            let d = g.dropout(s, 0.3).unwrap();
            let out = g.sum_all(d).unwrap();
            (g.finish(), x, d, out)
        };
        let xt = Tensor::from_fn([8, 16], |i| ((i * 7 % 23) as f32 - 11.0) * 0.1);
        let (g1, x1, d1, out1) = build();
        let mut serial = Session::new(g1, 42);
        let (g2, x2, d2, out2) = build();
        let mut parallel = Session::with_exec(
            g2,
            42,
            ExecConfig { intra_op_threads: 3, inter_op_parallel: true },
        );
        let mut last_mask_value: Option<Tensor> = None;
        for step in 0..3 {
            let rs = serial.forward(&[(x1, xt.clone())]).unwrap();
            let rp = parallel.forward(&[(x2, xt.clone())]).unwrap();
            assert_eq!(rs.value(d1).unwrap(), rp.value(d2).unwrap(), "step {step}");
            assert_eq!(rs.value(out1).unwrap(), rp.value(out2).unwrap(), "step {step}");
            // Dropout must draw fresh masks every pass.
            if let Some(prev) = last_mask_value.replace(rs.value(d1).unwrap().clone()) {
                assert_ne!(&prev, rs.value(d1).unwrap());
            }
        }
        tbd_tensor::par::set_max_threads(0);
    }

    #[test]
    fn tracer_records_node_spans_with_invariant_hashes() {
        use crate::trace::{EventKind, TraceRecorder};
        // The same diamond graph under 1 and 3 intra-op threads must emit
        // node spans whose canonical forms (wall times excluded, value
        // hashes included) are identical — the trace-level statement of the
        // bitwise thread-count-invariance guarantee.
        let build = || {
            let mut g = GraphBuilder::new();
            let x = g.input("x", [4, 8]);
            let w1 = g.parameter("w1", [8, 8], Init::Xavier { fan_in: 8, fan_out: 8 });
            let w2 = g.parameter("w2", [8, 8], Init::Xavier { fan_in: 8, fan_out: 8 });
            let a = g.matmul(x, w1).unwrap();
            let a = g.relu(a).unwrap();
            let b = g.matmul(x, w2).unwrap();
            let b = g.tanh(b).unwrap();
            let s = g.add(a, b).unwrap();
            let d = g.dropout(s, 0.2).unwrap();
            let out = g.sum_all(d).unwrap();
            (g.finish(), x, out)
        };
        let xt = Tensor::from_fn([4, 8], |i| ((i * 3 % 13) as f32 - 6.0) * 0.25);
        let canon_at = |threads: usize| {
            let (graph, x, out) = build();
            let mut session = Session::with_exec(
                graph,
                7,
                ExecConfig { intra_op_threads: threads, inter_op_parallel: true },
            );
            let tracer = TraceRecorder::shared();
            session.set_tracer(Some(Arc::clone(&tracer)));
            let run = session.forward(&[(x, xt.clone())]).unwrap();
            session.backward(&run, out, Tensor::scalar(1.0)).unwrap();
            let events = tracer.drain();
            assert!(events.iter().any(|e| e.kind == EventKind::NodeExec));
            assert!(events.iter().any(|e| e.kind == EventKind::Phase && e.name == "forward"));
            assert!(events.iter().any(|e| e.kind == EventKind::Phase && e.name == "backward"));
            assert!(events.iter().all(|e| !e.deterministic), "executor spans are wall-clock");
            events.iter().map(crate::trace::TraceEvent::canonical).collect::<Vec<_>>()
        };
        assert_eq!(canon_at(1), canon_at(3));
        tbd_tensor::par::set_max_threads(0);
    }

    #[test]
    fn fused_execution_is_bitwise_identical_and_emits_one_span_per_group() {
        use crate::trace::{EventKind, TraceRecorder};
        // bias+relu chain plus a dropout tail: fused execution must produce
        // bitwise-identical values for every node (interiors included, the
        // backward pass needs them) in both sequential and wave modes, and
        // the trace must collapse each group to a single NodeExec span.
        let build = || {
            let mut g = GraphBuilder::new();
            let x = g.input("x", [4, 8]);
            let w = g.parameter("w", [8, 8], Init::Xavier { fan_in: 8, fan_out: 8 });
            let b = g.parameter("b", [8], Init::Ones);
            let h = g.matmul(x, w).unwrap();
            let h = g.add_bias(h, b).unwrap();
            let h = g.relu(h).unwrap();
            let d = g.dropout(h, 0.25).unwrap();
            let out = g.sum_all(d).unwrap();
            (g.finish(), x, out)
        };
        let xt = Tensor::from_fn([4, 8], |i| ((i * 7 % 19) as f32 - 9.0) * 0.2);
        for inter_op in [false, true] {
            let (g1, x1, out1) = build();
            let mut plain = Session::with_exec(
                g1,
                11,
                ExecConfig { intra_op_threads: 1, inter_op_parallel: inter_op },
            );
            let (g2, x2, out2) = build();
            let mut fused = Session::with_exec(
                g2,
                11,
                ExecConfig { intra_op_threads: 1, inter_op_parallel: inter_op },
            );
            fused.set_fusion_enabled(true);
            let plan = Arc::clone(fused.fusion().expect("plan installed"));
            assert!(!plan.groups().is_empty(), "bias+relu+dropout must fuse");
            let tracer = TraceRecorder::shared();
            fused.set_tracer(Some(Arc::clone(&tracer)));
            let rp = plain.forward(&[(x1, xt.clone())]).unwrap();
            let rf = fused.forward(&[(x2, xt.clone())]).unwrap();
            for i in 0..plain.graph().len() {
                assert_eq!(
                    rp.value(NodeId(i)),
                    rf.value(NodeId(i)),
                    "node {i} diverged (inter_op={inter_op})"
                );
            }
            // Gradients flow through fused groups unchanged.
            let gp = plain.backward(&rp, out1, Tensor::scalar(1.0)).unwrap();
            let gf = fused.backward(&rf, out2, Tensor::scalar(1.0)).unwrap();
            for (id, _) in plain.graph().params() {
                assert_eq!(gp.param_grad(*id), gf.param_grad(*id));
            }
            let spans: Vec<_> = tracer
                .drain()
                .into_iter()
                .filter(|e| e.kind == EventKind::NodeExec && e.name.starts_with("fused:"))
                .collect();
            let fwd = spans.iter().filter(|e| !e.name.ends_with(".grad")).count();
            let bwd = spans.iter().filter(|e| e.name.ends_with(".grad")).count();
            assert_eq!(fwd, plan.groups().len(), "one forward span per group");
            assert_eq!(bwd, plan.groups().len(), "one grad span per group");
        }
        tbd_tensor::par::set_max_threads(0);
    }

    #[test]
    fn untraced_session_records_nothing() {
        let (graph, x, _, _, t, loss) = small_net();
        let mut session = Session::new(graph, 1);
        assert!(session.tracer().is_none());
        let run = session
            .forward(&[(x, Tensor::ones([4, 3])), (t, Tensor::zeros([4]))])
            .unwrap();
        assert!(run.scalar(loss).is_some());
    }

    #[test]
    fn inter_op_parallel_reports_missing_feeds() {
        let (graph, x, _, _, _, _) = small_net();
        let mut session = Session::with_exec(
            graph,
            1,
            ExecConfig { intra_op_threads: 0, inter_op_parallel: true },
        );
        let err = session.forward(&[(x, Tensor::ones([4, 3]))]).unwrap_err();
        assert!(matches!(err, GraphError::MissingFeed { .. }));
    }

    #[test]
    fn dropout_is_identity_in_eval_mode() {
        let mut g = GraphBuilder::new();
        let x = g.input("x", [2, 2]);
        let d = g.dropout(x, 0.9).unwrap();
        let graph = g.finish();
        let mut session = Session::new(graph, 3);
        session.training = false;
        let input = Tensor::ones([2, 2]);
        let run = session.forward(&[(x, input.clone())]).unwrap();
        assert_eq!(run.value(d).unwrap(), &input);
    }

    #[test]
    fn global_norm_aggregates_params() {
        let mut g = GraphBuilder::new();
        let w = g.parameter("w", [2], Init::Ones);
        let loss = g.sum_all(w).unwrap();
        let graph = g.finish();
        let mut session = Session::new(graph, 0);
        let run = session.forward(&[]).unwrap();
        let grads = session.backward(&run, loss, Tensor::scalar(1.0)).unwrap();
        let norm = grads.global_norm(session.graph());
        assert!((norm - 2.0_f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn seed_must_be_computed() {
        let (graph, x, _, _, t, loss) = small_net();
        let mut session = Session::new(graph, 1);
        let run = session
            .forward(&[(x, Tensor::ones([4, 3])), (t, Tensor::zeros([4]))])
            .unwrap();
        // Build a NodeId beyond the graph: ValueNotComputed.
        let bogus = NodeId(loss.index()); // valid; now check a real missing value path:
        let _ = bogus;
        // All nodes are computed in forward, so exercise the error by seeding
        // an empty run.
        let empty = RunState { values: vec![None; session.graph().len()], aux: Vec::new() };
        assert!(matches!(
            session.backward(&empty, loss, Tensor::scalar(1.0)),
            Err(GraphError::ValueNotComputed(_))
        ));
        let _ = run;
    }
}
