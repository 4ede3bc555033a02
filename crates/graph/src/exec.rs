//! Eager graph execution with reverse-mode autodiff.
//!
//! [`Session`] owns the parameter tensors of one graph and can run forward
//! passes (stashing every intermediate activation, exactly the behaviour
//! whose memory cost the paper profiles) and backward passes seeded from any
//! node. Training loops live in `tbd-train`; this module only provides the
//! mechanics.

use crate::fuse::{FusionGroup, FusionPlan};
use crate::trace::{value_hash, EventKind, TraceLayer, TraceRecorder, TraceStore};
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
/// auto-sized kernels run one scheduling unit at a time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecConfig {
    /// Cap on scoped threads *within* one kernel (the intra-op pool size);
    /// `0` means auto (hardware parallelism). Installed process-wide via
    /// [`tbd_tensor::par::set_max_threads`] at the start of every pass.
    pub intra_op_threads: usize,
    /// Run independent ready nodes of the forward pass concurrently
    /// (inter-op parallelism, wave-scheduled; a wave too small to amortise
    /// its thread spawns runs inline). Outputs are bitwise
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

impl RunState {
    /// Publishes one unit's outputs: its interior members, then its node.
    fn store(&mut self, i: usize, (interior, value, aux): UnitOutput) {
        for (k, v, a) in interior {
            self.values[k] = Some(v);
            self.aux[k] = a;
        }
        self.values[i] = Some(value);
        self.aux[i] = aux;
    }
}

/// Gradients produced by [`Session::backward`], indexed by node.
#[derive(Debug)]
pub struct Gradients {
    grads: Vec<Option<Tensor>>,
}

impl Gradients {
    /// Gradient of the seed with respect to the given node: a parameter,
    /// or any other node the reverse sweep reached.
    pub fn param_grad(&self, id: NodeId) -> Option<&Tensor> {
        self.grads.get(id.index()).and_then(|g| g.as_ref())
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
    /// Cached forward schedule. The graph is immutable after construction,
    /// so the schedule only changes with the fusion plan or the inter-op
    /// knob; `set_fusion_enabled`/`set_exec_config` clear this.
    schedule: Option<Arc<[Wave]>>,
}

/// What one scheduling unit computes: each interior fusion-group member's
/// `(node, value, aux)` (none for a single node), then the value and aux
/// of the unit's own node.
type UnitOutput = (Vec<(usize, Tensor, Aux)>, Tensor, Aux);

/// Minimum total non-leaf output elements across a wave's units before the
/// wave fans out over scoped threads; below this the kernels finish faster
/// than the spawns, so the wave runs inline on the scheduling thread.
const PARALLEL_WAVE_MIN_ELEMS: usize = 1 << 18;

/// One step of the forward schedule: units that may run concurrently.
#[derive(Debug)]
struct Wave {
    /// The `wave` arg of the units' spans: the wave's rank under inter-op
    /// scheduling, the unit's node index under sequential scheduling.
    label: usize,
    /// Scheduling units in ascending order: a node, or a fusion group
    /// named by its anchor. A unit's slot is its rank here.
    units: Vec<usize>,
    /// Fan the units out over scoped threads instead of running inline.
    parallel: bool,
}

/// Builds the forward schedule once per (graph, fusion plan, inter-op
/// knob). Sequential scheduling runs one unit per wave in node order.
/// Inter-op scheduling puts leaves (placeholders, parameters, constants)
/// in wave 0 and every other unit one wave after its latest external
/// input. One inline rule serves both: a wave fans out only when it has
/// more than one unit and its non-leaf output volume reaches
/// [`PARALLEL_WAVE_MIN_ELEMS`] — a leaf bind is a memory copy, not a
/// kernel. The rule keys on static output sizes, so it is deterministic
/// and thread-count independent.
fn build_schedule(graph: &Graph, fusion: Option<&FusionPlan>, inter_op: bool) -> Arc<[Wave]> {
    let n = graph.len();
    // A group member other than the anchor has exactly one consumer, the
    // next member, so every external input is a unit with a smaller id.
    let unit_of = |i: usize| {
        fusion
            .and_then(|p| p.group_of(NodeId(i)).map(|g| p.groups()[g].anchor().index()))
            .unwrap_or(i)
    };
    let mut level = vec![0usize; n];
    let mut waves: Vec<Wave> = Vec::new();
    for i in 0..n {
        let unit = unit_of(i);
        for input in &graph.node(NodeId(i)).inputs {
            let producer = unit_of(input.index());
            if producer != unit {
                level[unit] = level[unit].max(level[producer] + 1);
            }
        }
        if unit != i {
            continue; // evaluated inline at the group's anchor
        }
        if !inter_op {
            waves.push(Wave { label: i, units: vec![i], parallel: false });
            continue;
        }
        // A unit is at most one wave past every unit before it.
        if level[i] == waves.len() {
            waves.push(Wave { label: level[i], units: Vec::new(), parallel: false });
        }
        waves[level[i]].units.push(i);
    }
    for wave in &mut waves {
        let volume: usize = wave
            .units
            .iter()
            .map(|&i| graph.node(NodeId(i)))
            .filter(|node| !node.inputs.is_empty())
            .map(|node| node.shape.len())
            .sum();
        wave.parallel = wave.units.len() > 1 && volume >= PARALLEL_WAVE_MIN_ELEMS;
    }
    waves.into()
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
        self.schedule = None;
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
        let pass_start = self.tracer.as_ref().map(|t| t.now_us());
        let (graph, fusion, inter_op) =
            (&self.graph, self.fusion.as_deref(), self.exec.inter_op_parallel);
        let schedule = Arc::clone(
            self.schedule.get_or_insert_with(|| build_schedule(graph, fusion, inter_op)),
        );
        let mut state = RunState { values: vec![None; n], aux: vec![Aux::None; n] };
        for wave in schedule.iter() {
            // A parallel wave runs its units on scoped threads, each timing
            // its own unit, and publishes them after the join; an inline wave
            // publishes each unit as it finishes. Either way spans and errors
            // surface in slot order, so neither depends on thread timing.
            let mut joined = if wave.parallel {
                let (this, feeds, values) = (&*self, &feed_map, &state.values);
                let clock = move || this.tracer.as_ref().map_or(0.0, |t| t.now_us());
                std::thread::scope(|scope| {
                    let handles: Vec<_> = wave
                        .units
                        .iter()
                        .map(|&i| {
                            scope.spawn(move || {
                                let t0 = clock();
                                let out = this.compute_unit(i, step, feeds, values);
                                (out, (t0, clock()))
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("node evaluation must not panic"))
                        .collect::<Vec<_>>()
                })
            } else {
                Vec::new()
            }
            .into_iter();
            let mut events = TraceStore::new();
            for (slot, &i) in wave.units.iter().enumerate() {
                let t0 = self.tracer.as_ref().map(|t| t.now_us());
                let times = match joined.next() {
                    Some((out, times)) => {
                        state.store(i, out?);
                        Some(times)
                    }
                    None => {
                        self.compute_into(i, step, &feed_map, &mut state)?;
                        None
                    }
                };
                if let Some(tracer) = &self.tracer {
                    let times = times.unwrap_or_else(|| (t0.unwrap_or(0.0), tracer.now_us()));
                    let value = state.values[i].as_ref().expect("unit just stored");
                    self.unit_span(&mut events, i, step, (wave.label, slot), times, value);
                }
            }
            if let Some(tracer) = &self.tracer {
                tracer.record_batch(events);
            }
        }
        if let (Some(tracer), Some(start)) = (&self.tracer, pass_start) {
            let mut events = TraceStore::new();
            self.pass_span(&mut events, "forward", step, n, (start, tracer.now_us()));
            tracer.record_batch(events);
        }
        Ok(state)
    }

    /// [`Session::compute_unit`] publishing straight into `state` — the
    /// inline path, which moves each value once.
    fn compute_into(
        &self,
        i: usize,
        step: u64,
        feed_map: &HashMap<usize, &Tensor>,
        state: &mut RunState,
    ) -> Result<()> {
        match self.fusion.as_ref().and_then(|p| p.anchored_at(NodeId(i))) {
            Some(group) => {
                let out = self.compute_group(group, step, &state.values)?;
                state.store(i, out);
            }
            None => {
                let (t, a) = self.compute_node(i, step, feed_map, &state.values)?;
                state.values[i] = Some(t);
                state.aux[i] = a;
            }
        }
        Ok(())
    }

    /// Computes one scheduling unit: a single node, or — when `i` anchors a
    /// fusion group — every member of the group in dataflow order.
    fn compute_unit(
        &self,
        i: usize,
        step: u64,
        feed_map: &HashMap<usize, &Tensor>,
        values: &[Option<Tensor>],
    ) -> Result<UnitOutput> {
        match self.fusion.as_ref().and_then(|p| p.anchored_at(NodeId(i))) {
            Some(group) => self.compute_group(group, step, values),
            None => self.compute_node(i, step, feed_map, values).map(|(t, a)| (Vec::new(), t, a)),
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
    ) -> Result<UnitOutput> {
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
        let (_, t, a) = local.pop().expect("groups are non-empty");
        Ok((local, t, a))
    }

    /// Builds the wall-clock span for one executed unit. Wave and node
    /// indices are deterministic (the schedule is a pure function of graph
    /// topology); wall times and the thread slot are attribution-only and
    /// excluded from golden digests. The `value_hash` arg pins the unit's
    /// output bit pattern, so two traces with equal digests computed
    /// bitwise-identical tensors — thread-count invariance, asserted at
    /// the trace level. A fusion group is one span named after the fused
    /// kernel, attributed to the group's root node, carrying the member
    /// count and the hash of the group's *final* output (interior values
    /// never leave the fused kernel, so only the escaping value is pinned).
    fn unit_span(
        &self,
        events: &mut TraceStore,
        i: usize,
        step: u64,
        (wave, slot): (usize, usize),
        (start_us, end_us): (f64, f64),
        value: &Tensor,
    ) {
        let group = self.fusion.as_ref().and_then(|p| p.anchored_at(NodeId(i)));
        let (name, node) = match group {
            Some(g) => (g.name(), g.root().index()),
            None => (self.graph.node(NodeId(i)).op.mnemonic(), i),
        };
        let name = events.intern(name);
        let span = events
            .span(
                name,
                TraceLayer::Executor,
                EventKind::NodeExec,
                start_us,
                (end_us - start_us).max(0.0),
            )
            .wall_clock()
            .on_track(u32::try_from(slot).unwrap_or(u32::MAX))
            .with_arg("node", node)
            .with_arg("step", step)
            .with_arg("wave", wave);
        match group {
            Some(g) => span.with_arg("fused", g.len()),
            None => span,
        }
        .with_arg("value_hash", value_hash(value.data()));
    }

    /// Writes the whole-pass span (forward or backward) into `events`.
    /// Never includes `intra_op_threads` in the args: digests must be
    /// stable across thread counts.
    fn pass_span(
        &self,
        events: &mut TraceStore,
        name: &'static str,
        step: u64,
        nodes: usize,
        (start, end): (f64, f64),
    ) {
        let name = events.intern(name);
        events
            .span(name, TraceLayer::Executor, EventKind::Phase, start, end - start)
            .wall_clock()
            .with_arg("step", step)
            .with_arg("nodes", nodes)
            .with_arg("inter_op", self.exec.inter_op_parallel);
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
        // Node spans and the pass span, published as one batch at the end.
        let mut events = TraceStore::new();
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
                    Some(g) => Some(format!("{}.grad", g.name())),
                    None => Some(format!("{}.grad", node.op.mnemonic())),
                };
                if let Some(name) = span_name {
                    let t1 = tracer.now_us();
                    let name = events.intern(name);
                    events
                        .span(
                            name,
                            TraceLayer::Executor,
                            EventKind::NodeExec,
                            t0.unwrap_or(t1),
                            (t1 - t0.unwrap_or(t1)).max(0.0),
                        )
                        .wall_clock()
                        .with_arg("node", i)
                        .with_arg("grad_hash", value_hash(dy.data()));
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
                match &mut grads[target] {
                    Some(existing) => ops::add_assign(existing, &grad)?,
                    slot @ None => *slot = Some(grad),
                }
            }
        }
        if let (Some(tracer), Some(start)) = (&self.tracer, pass_start) {
            let times = (start, tracer.now_us());
            self.pass_span(&mut events, "backward", self.step, traced_nodes, times);
            tracer.record_batch(events);
        }
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
        let err =
            session.forward(&[(x, Tensor::ones([4, 2])), (t, Tensor::zeros([4]))]).unwrap_err();
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
            let lp =
                session.forward(&[(x, xt.clone()), (t, tt.clone())]).unwrap().scalar(loss).unwrap();
            let mut wm = wt.clone();
            wm.data_mut()[i] -= eps;
            *session.param_mut(w).unwrap() = wm;
            let lm =
                session.forward(&[(x, xt.clone()), (t, tt.clone())]).unwrap().scalar(loss).unwrap();
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
        // sequential schedule (deterministic kernels + per-node dropout
        // RNG). At 8 rows every wave runs inline; at 8192 rows the two
        // branches' waves carry 2^18 elements and fan out over threads.
        for rows in [8, 8192] {
            let build = || {
                let mut g = GraphBuilder::new();
                let x = g.input("x", [rows, 16]);
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
            let xt = Tensor::from_fn([rows, 16], |i| ((i * 7 % 23) as f32 - 11.0) * 0.1);
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
                let at = format!("rows {rows} step {step}");
                assert_eq!(rs.value(d1).unwrap(), rp.value(d2).unwrap(), "{at}");
                assert_eq!(rs.value(out1).unwrap(), rp.value(out2).unwrap(), "{at}");
                // Dropout must draw fresh masks every pass.
                if let Some(prev) = last_mask_value.replace(rs.value(d1).unwrap().clone()) {
                    assert_ne!(&prev, rs.value(d1).unwrap());
                }
            }
            let schedule = parallel.schedule.as_ref().expect("schedule cached");
            let fanned_out = schedule.iter().filter(|w| w.parallel).count();
            assert_eq!(fanned_out, if rows > 8 { 2 } else { 0 }, "rows {rows}");
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
            events.iter().map(|e| e.canonical()).collect::<Vec<_>>()
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
            let events = tracer.drain();
            let spans: Vec<_> = events
                .iter()
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
    fn backward_publishes_its_node_spans_and_pass_span_as_one_batch() {
        use crate::trace::{ArgValue, TraceRecorder, TraceSink};
        use std::sync::Mutex;
        /// A copy of every published batch.
        #[derive(Debug, Default)]
        struct Batches(Vec<TraceStore>);
        impl TraceSink for Batches {
            fn consume(&mut self, events: &TraceStore) {
                self.0.push(events.clone());
            }
        }
        let (graph, x, _, _, t, loss) = small_net();
        let exec = ExecConfig { intra_op_threads: 1, inter_op_parallel: false };
        let mut session = Session::with_exec(graph, 1, exec);
        let sink = Arc::new(Mutex::new(Batches::default()));
        session.set_tracer(Some(TraceRecorder::shared_with_sink(sink.clone())));
        let feeds = [(x, Tensor::ones([4, 3])), (t, Tensor::from_slice(&[0.0, 1.0, 2.0, 3.0]))];
        let run = session.forward(&feeds).unwrap();
        let forward_batches = sink.lock().unwrap().0.len();
        let grads = session.backward(&run, loss, Tensor::scalar(1.0)).unwrap();
        let batches = &sink.lock().unwrap().0;
        assert_eq!(batches.len(), forward_batches + 1, "backward publishes one batch");
        let backward = batches.last().unwrap();
        // The reverse sweep visits every node with inputs, from the loss down.
        let graph = session.graph();
        let swept: Vec<usize> = (0..=loss.index())
            .rev()
            .filter(|&i| !graph.node(NodeId(i)).inputs.is_empty())
            .collect();
        assert_eq!(swept.len(), 4);
        assert_eq!(backward.len(), swept.len() + 1);
        for (event, &i) in backward.iter().zip(&swept) {
            assert_eq!(event.name, format!("{}.grad", graph.node(NodeId(i)).op.mnemonic()));
            let dy = grads.param_grad(NodeId(i)).expect("swept nodes have a gradient");
            let grad_hash = ArgValue::U64(value_hash(dy.data()));
            let expected = [("node", ArgValue::U64(i as u64)), ("grad_hash", grad_hash)];
            assert_eq!(event.args, expected);
        }
        let pass = backward.event(swept.len());
        assert_eq!(pass.name, "backward");
        let expected = [
            ("step", ArgValue::U64(1)),
            ("nodes", ArgValue::U64(4)),
            ("inter_op", ArgValue::Bool(false)),
        ];
        assert_eq!(pass.args, expected);
    }

    #[test]
    fn untraced_session_records_nothing() {
        let (graph, x, _, _, t, loss) = small_net();
        let mut session = Session::new(graph, 1);
        assert!(session.tracer().is_none());
        let run = session.forward(&[(x, Tensor::ones([4, 3])), (t, Tensor::zeros([4]))]).unwrap();
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
        let run = session.forward(&[(x, Tensor::ones([4, 3])), (t, Tensor::zeros([4]))]).unwrap();
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
