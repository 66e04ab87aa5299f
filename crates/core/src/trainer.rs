//! Executable distributed SGD — the end-to-end validation that the
//! paper's 1.5D scheme computes *exactly* the same training trajectory
//! as serial mini-batch SGD (the paper's framework is synchronous and
//! "obeys the sequential consistency of the original algorithm").
//!
//! Supports FC networks (MLPs / unrolled RNNs) — the pure chain of
//! `Y = W·X` products the paper's algebra describes. Convolutional
//! layers are validated separately in `distmm::domain` (domain
//! parallelism) and costed analytically; wiring them through the full
//! trainer would exercise no communication pattern the FC path and the
//! domain kernels don't already cover.
//!
//! Dropout layers are treated as identity (inference-mode): randomized
//! masks would make the serial-vs-distributed comparison seed-order
//! dependent without touching communication at all.

use collectives::nonblocking::{iallreduce, iallreduce_ft, IallreduceHandle};
use collectives::{FtConfig, ReduceOp};
use dnn::{LayerSpec, Network};
use mpsim::{Communicator, Error, NetModel, TraceConfig, TraceSpan, World, WorldStats, WorldTrace};
use tensor::activation::{relu, relu_backward, softmax_xent, tanh, tanh_backward};
use tensor::init;
use tensor::matmul::{matmul, matmul_a_bt, matmul_at_b, matmul_flops};
use tensor::ops::axpy;
use tensor::Matrix;

use distmm::dist::{col_shard, part_range, row_shard};
use distmm::onep5d::{Grid, OpCtx};

use crate::overlap::{FlushSchedule, OverlapPlan};

/// Activation following an FC layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Act {
    None,
    Relu,
    Tanh,
}

/// One trainable FC layer extracted from a [`Network`].
#[derive(Debug, Clone)]
pub(crate) struct FcLayer {
    pub(crate) d_in: usize,
    pub(crate) d_out: usize,
    pub(crate) act: Act,
}

/// Extracts the FC-layer chain from a network.
///
/// # Panics
///
/// Panics if the network contains conv/pool layers (see module docs).
pub(crate) fn extract_fc_layers(net: &Network) -> Vec<FcLayer> {
    let mut out: Vec<FcLayer> = Vec::new();
    for (spec, in_shape, out_shape) in net.layers() {
        match spec {
            LayerSpec::FullyConnected { .. } => {
                out.push(FcLayer {
                    d_in: in_shape.dim(),
                    d_out: out_shape.dim(),
                    act: Act::None,
                });
            }
            LayerSpec::ReLU => {
                let l = out.last_mut().expect("activation must follow an FC layer");
                l.act = Act::Relu;
            }
            LayerSpec::Tanh => {
                let l = out.last_mut().expect("activation must follow an FC layer");
                l.act = Act::Tanh;
            }
            LayerSpec::Dropout { .. } => {} // identity in this trainer
            other => panic!("trainer supports FC networks only, found {other:?}"),
        }
    }
    assert!(!out.is_empty(), "network has no FC layers");
    out
}

/// Deterministic initial weights for every layer (identical on every
/// rank / in serial).
pub(crate) fn init_weights(layers: &[FcLayer], seed: u64) -> Vec<Matrix> {
    layers
        .iter()
        .enumerate()
        .map(|(i, l)| init::xavier(l.d_out, l.d_in, seed.wrapping_add(i as u64)))
        .collect()
}

pub(crate) fn apply_act(act: Act, pre: &Matrix) -> Matrix {
    match act {
        Act::None => pre.clone(),
        Act::Relu => relu(pre),
        Act::Tanh => tanh(pre),
    }
}

pub(crate) fn act_backward(act: Act, pre: &Matrix, post: &Matrix, dy: &Matrix) -> Matrix {
    match act {
        Act::None => dy.clone(),
        Act::Relu => relu_backward(pre, dy),
        Act::Tanh => tanh_backward(post, dy),
    }
}

/// Default fusion threshold (in f64 words) for gradient bucketing
/// ([`OverlapPlan::bucket_words`]): per-layer ∆W shards are
/// concatenated in reverse layer order until a bucket reaches this size,
/// then the bucket's row-group sum is launched as one non-blocking
/// all-reduce. Bigger buckets amortize the ring's `2(P−1)·α` latency
/// over more words; smaller buckets start transfers earlier. This is the
/// DDP-style trade-off; the value is deliberately small because the
/// simulated layers are.
pub const DEFAULT_BUCKET_WORDS: usize = 1 << 13;

/// Training hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    /// SGD learning rate η.
    pub lr: f64,
    /// Number of iterations (each over the full provided batch —
    /// full-batch gradient descent keeps the serial/distributed
    /// comparison exact without a data loader).
    pub iters: usize,
    /// Weight-initialization seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            lr: 0.1,
            iters: 10,
            seed: 7,
        }
    }
}

/// Outcome of a serial training run.
#[derive(Debug, Clone)]
pub struct SerialResult {
    /// Loss before each update.
    pub losses: Vec<f64>,
    /// Final weights per layer.
    pub weights: Vec<Matrix>,
}

/// Serial reference: full-batch SGD on one process.
pub fn train_serial(
    net: &Network,
    x: &Matrix,
    labels: &[usize],
    cfg: &TrainConfig,
) -> SerialResult {
    let layers = extract_fc_layers(net);
    let mut weights = init_weights(&layers, cfg.seed);
    let mut losses = Vec::with_capacity(cfg.iters);
    for _ in 0..cfg.iters {
        // Forward, keeping pre/post activations.
        let mut inputs = vec![x.clone()];
        let mut pres = Vec::with_capacity(layers.len());
        for (l, w) in layers.iter().zip(&weights) {
            let pre = matmul(w, inputs.last().expect("input"));
            let post = apply_act(l.act, &pre);
            pres.push(pre);
            inputs.push(post);
        }
        let logits = inputs.last().expect("logits");
        let (loss, grad) = softmax_xent(logits, labels);
        losses.push(loss);
        // Backward.
        let mut dy = grad;
        for (idx, l) in layers.iter().enumerate().rev() {
            dy = act_backward(l.act, &pres[idx], &inputs[idx + 1], &dy);
            let dw = matmul_a_bt(&dy, &inputs[idx]);
            let dx = matmul_at_b(&weights[idx], &dy);
            axpy(-cfg.lr, dw.as_slice(), weights[idx].as_mut_slice());
            dy = dx;
        }
    }
    SerialResult { losses, weights }
}

/// Per-rank outcome of a distributed run.
#[derive(Debug, Clone)]
pub struct RankOutcome {
    /// Grid row (model-shard index).
    pub i: usize,
    /// Grid column (batch-shard index).
    pub j: usize,
    /// This rank's share of the loss per iteration
    /// (`local_loss · b_local / B`; sums to the global loss over one
    /// grid row).
    pub partial_losses: Vec<f64>,
    /// Final local weight shards (rows `part_range(d_out, pr, i)` of
    /// each layer).
    pub weight_shards: Vec<Matrix>,
}

/// Outcome of a distributed run: every rank's result plus world stats.
#[derive(Debug, Clone)]
pub struct DistResult {
    /// Grid extent `Pr`.
    pub pr: usize,
    /// Grid extent `Pc`.
    pub pc: usize,
    /// Per-rank outcomes (row-major rank order).
    pub per_rank: Vec<RankOutcome>,
    /// Virtual-time and traffic statistics.
    pub stats: WorldStats,
}

impl DistResult {
    /// Global loss history (summed over the batch shards of grid row
    /// 0).
    pub fn losses(&self) -> Vec<f64> {
        let iters = self.per_rank[0].partial_losses.len();
        (0..iters)
            .map(|t| {
                self.per_rank
                    .iter()
                    .filter(|r| r.i == 0)
                    .map(|r| r.partial_losses[t])
                    .sum()
            })
            .collect()
    }

    /// Assembles the full weight matrices from the shards held by grid
    /// column 0.
    pub fn weights(&self) -> Vec<Matrix> {
        let n_layers = self.per_rank[0].weight_shards.len();
        (0..n_layers)
            .map(|l| {
                let mut shards: Vec<(usize, Matrix)> = self
                    .per_rank
                    .iter()
                    .filter(|r| r.j == 0)
                    .map(|r| (r.i, r.weight_shards[l].clone()))
                    .collect();
                shards.sort_by_key(|&(i, _)| i);
                Matrix::vcat(&shards.into_iter().map(|(_, m)| m).collect::<Vec<_>>())
            })
            .collect()
    }

    /// Measured fraction of executed collective transfer time that was
    /// hidden behind compute (see
    /// [`WorldStats::measured_overlap_fraction`]): 0 for
    /// [`train_1p5d`] (everything blocking), positive for
    /// [`train_1p5d_scheduled`] under any plan, [`OverlapPlan::legacy`]
    /// included. Compare against the paper's analytic 2/3 backprop
    /// fraction ([`crate::overlap::PAPER_BACKPROP_FRACTION`]).
    pub fn measured_overlap_fraction(&self) -> f64 {
        self.stats.measured_overlap_fraction()
    }

    /// Every grid column must hold identical replicas of its row's
    /// weight shard; returns the maximum discrepancy (should be ~0).
    pub fn replica_divergence(&self) -> f64 {
        let mut worst: f64 = 0.0;
        for r in &self.per_rank {
            let reference = self
                .per_rank
                .iter()
                .find(|q| q.i == r.i && q.j == 0)
                .expect("column 0 exists");
            for (a, b) in r.weight_shards.iter().zip(&reference.weight_shards) {
                worst = worst.max(a.max_abs_diff(b));
            }
        }
        worst
    }
}

/// Distributed full-batch SGD on a `pr × pc` grid over the `mpsim`
/// virtual cluster, every collective blocking. Data and initial weights
/// are derived from the same seeds as [`train_serial`], so the
/// trajectories are comparable element-wise.
pub fn train_1p5d(
    net: &Network,
    x: &Matrix,
    labels: &[usize],
    cfg: &TrainConfig,
    pr: usize,
    pc: usize,
    model: NetModel,
) -> DistResult {
    train_1p5d_traced(net, x, labels, cfg, pr, pc, model, TraceConfig::disabled()).0
}

/// [`train_1p5d`] with per-rank event tracing (see [`mpsim::trace`]):
/// returns the usual [`DistResult`] plus the recorded [`WorldTrace`],
/// with `trainer`-category spans delimiting forward/backward phases and
/// per-layer work on top of the simulator's own compute/comm spans.
#[allow(clippy::too_many_arguments)]
pub fn train_1p5d_traced(
    net: &Network,
    x: &Matrix,
    labels: &[usize],
    cfg: &TrainConfig,
    pr: usize,
    pc: usize,
    model: NetModel,
    trace: TraceConfig,
) -> (DistResult, WorldTrace) {
    run(net, x, labels, cfg, pr, pc, model, trace, None)
}

/// [`train_1p5d`] with **executed communication/computation overlap**
/// (the paper's Fig. 8, run rather than modelled), scheduled by an
/// explicit [`OverlapPlan`]. Each layer's ∆W partial `∆Y·Xᵀ` goes into
/// a DDP-style gradient bucket ([`OverlapPlan::bucket_words`]) whose
/// row-group sum is launched non-blocking once the bucket fills, so the
/// transfers progress on the per-rank comm channel while backprop keeps
/// computing. On top of that:
///
/// * Buckets flush under a priority queue keyed by layer depth, with
///   progress polls inside the backward loop
///   ([`FlushSchedule::Priority`]).
/// * `plan.dx_overlap` hides each layer's ∆X all-reduce behind the
///   same layer's ∆W product (bit-identical values).
/// * `plan.fwd_prefetch` pipelines the forward all-gathers, hiding
///   each gather behind per-block activation and the next layer's
///   partial-product accumulation (~1 ulp re-association).
/// * `plan.interleave` replaces the post-backward drain barrier with
///   per-bucket optimizer applies carried across the iteration
///   boundary: a bucket is settled right before the first forward
///   layer of the next iteration that reads it. Final weights are
///   bit-identical to the barrier version — buckets touch disjoint
///   layers, so the applies commute.
///
/// [`OverlapPlan::legacy`] is the plain FIFO engine: buckets launched
/// in backward, waited in launch order at a barrier before the
/// optimizer step, forward and ∆X blocking. Every plan preserves
/// synchronous SGD: the trajectory matches [`train_serial`] up to the
/// reduction-order noise of fusing layer shards into shared ring
/// buckets (~1 ulp; replicas within a row group remain bitwise
/// identical).
#[allow(clippy::too_many_arguments)]
pub fn train_1p5d_scheduled(
    net: &Network,
    x: &Matrix,
    labels: &[usize],
    cfg: &TrainConfig,
    pr: usize,
    pc: usize,
    model: NetModel,
    plan: OverlapPlan,
) -> DistResult {
    run(
        net,
        x,
        labels,
        cfg,
        pr,
        pc,
        model,
        TraceConfig::disabled(),
        Some(plan),
    )
    .0
}

/// [`train_1p5d_scheduled`] with per-rank event tracing: the usual
/// `trainer` phase spans, the overlapped ∆W transfers as
/// `channel`-track spans with their exposed remainder as `drain` spans,
/// and the scheduler's `sched`-category `bucket_flush`/`progress_poll`
/// instants.
#[allow(clippy::too_many_arguments)]
pub fn train_1p5d_scheduled_traced(
    net: &Network,
    x: &Matrix,
    labels: &[usize],
    cfg: &TrainConfig,
    pr: usize,
    pc: usize,
    model: NetModel,
    trace: TraceConfig,
    plan: OverlapPlan,
) -> (DistResult, WorldTrace) {
    run(net, x, labels, cfg, pr, pc, model, trace, Some(plan))
}

#[allow(clippy::too_many_arguments)]
fn run(
    net: &Network,
    x: &Matrix,
    labels: &[usize],
    cfg: &TrainConfig,
    pr: usize,
    pc: usize,
    model: NetModel,
    trace: TraceConfig,
    plan: Option<OverlapPlan>,
) -> (DistResult, WorldTrace) {
    let layers = extract_fc_layers(net);
    let (per_rank, stats, traces) = World::run_traced_with_stats(pr * pc, model, trace, |comm| {
        run_rank(comm, &layers, x, labels, cfg, pr, pc, plan)
    });
    (
        DistResult {
            pr,
            pc,
            per_rank,
            stats,
        },
        traces,
    )
}

/// Rank body of every non-fault-tolerant trainer: blocking when `plan`
/// is `None`, the scheduled overlap engine otherwise.
#[allow(clippy::too_many_arguments)]
fn run_rank(
    comm: &Communicator,
    layers: &[FcLayer],
    x: &Matrix,
    labels: &[usize],
    cfg: &TrainConfig,
    pr: usize,
    pc: usize,
    plan: Option<OverlapPlan>,
) -> RankOutcome {
    let b_global = x.cols();
    let grid = Grid::new(comm, pr, pc).expect("grid tiles the world");
    let mut w_local: Vec<Matrix> = init_weights(layers, cfg.seed)
        .iter()
        .map(|w| row_shard(w, pr, grid.i))
        .collect();
    let x_local = col_shard(x, pc, grid.j);
    let labels_local = &labels[part_range(b_global, pc, grid.j)];
    // The scheduler outlives the iteration loop: under `interleave`,
    // buckets launched in iteration t are settled lazily during the
    // forward pass of iteration t+1.
    let mut sched = plan.map(|p| BucketScheduler::new(&grid.row_comm, p, None));
    let mut apply = |_: usize, w: &mut Matrix, g: &[f64]| axpy(-cfg.lr, g, w.as_mut_slice());

    let mut partial_losses = Vec::with_capacity(cfg.iters);
    for it in 0..cfg.iters {
        let step = Iteration {
            grid: &grid,
            layers,
            ctx: OpCtx::Plain,
            iter: it as u64,
        };
        let acts = step
            .forward(&mut w_local, &x_local, sched.as_mut(), &mut apply)
            .expect("forward");
        let (loss, grad) = shard_loss(acts.logits(), labels_local, b_global);
        partial_losses.push(loss);
        step.backward(
            &mut w_local,
            &acts,
            grad,
            sched.as_mut(),
            it + 1 == cfg.iters,
            &mut apply,
        )
        .expect("backward");
    }
    RankOutcome {
        i: grid.i,
        j: grid.j,
        partial_losses,
        weight_shards: w_local,
    }
}

/// Total trainable parameter count of the FC chain. Each rank's ∆W
/// traffic per iteration is `trainable_words(net) / pr` words — the
/// quantity the bucket autotuner ladders its candidate sizes against.
pub fn trainable_words(net: &Network) -> usize {
    extract_fc_layers(net)
        .iter()
        .map(|l| l.d_out * l.d_in)
        .sum()
}

/// Softmax cross-entropy of this rank's batch shard. `softmax_xent`
/// normalizes by the *local* batch; loss and gradient are rescaled to
/// the global 1/B of the paper's Eq. 1, so the ∆W all-reduce sums to
/// the global mean gradient and one grid row's losses sum to the global
/// loss.
pub(crate) fn shard_loss(logits: &Matrix, labels: &[usize], b_global: usize) -> (f64, Matrix) {
    let (loss, mut grad) = softmax_xent(logits, labels);
    let scale = logits.cols() as f64 / b_global as f64;
    for g in grad.as_mut_slice() {
        *g *= scale;
    }
    (loss * scale, grad)
}

/// What one forward pass keeps for backward.
pub(crate) struct Activations {
    /// Layer inputs: `inputs[0]` is the batch shard, `inputs[l + 1]`
    /// layer `l`'s post-activation output.
    inputs: Vec<Matrix>,
    /// Layer `l`'s pre-activation output.
    pres: Vec<Matrix>,
}

impl Activations {
    /// The last layer's output.
    pub(crate) fn logits(&self) -> &Matrix {
        self.inputs.last().expect("logits")
    }
}

/// The optimizer step as the shared passes see it: `apply(idx, w, g)`
/// folds layer `idx`'s summed gradient `g` into its weight shard `w`.
pub(crate) trait Apply: FnMut(usize, &mut Matrix, &[f64]) {}
impl<F: FnMut(usize, &mut Matrix, &[f64])> Apply for F {}

/// One rank's view of one training iteration — the single forward and
/// backward pass both trainers run. `ctx` selects plain or
/// fault-tolerant ops; a [`BucketScheduler`] handed to the passes
/// selects the overlap engine under its [`OverlapPlan`], and its absence
/// the fully blocking iteration.
pub(crate) struct Iteration<'a> {
    pub(crate) grid: &'a Grid,
    pub(crate) layers: &'a [FcLayer],
    pub(crate) ctx: OpCtx<'a>,
    /// Iteration number, carried by the `trainer` phase spans.
    pub(crate) iter: u64,
}

impl Iteration<'_> {
    fn span(&self, name: &'static str) -> TraceSpan {
        self.grid
            .row_comm
            .trace_span("trainer", name, &[("iter", self.iter as f64)])
    }

    fn layer_span(&self, name: &'static str, idx: usize) -> TraceSpan {
        self.grid
            .row_comm
            .trace_span("trainer", name, &[("layer", idx as f64)])
    }

    /// The forward pass. Buckets still in flight from the previous
    /// iteration are settled right before the first layer that reads
    /// them. Under `plan.fwd_prefetch` (and a column ring to hide) the
    /// gathers are pipelined: layer `idx`'s blocks are consumed in ring
    /// arrival order while layer `idx+1`'s partial accumulates per
    /// block, so the ring hides behind the activation + partial-GEMM
    /// work. The accumulated partials of layers ≥ 1 are never one
    /// monolithic GEMM, so they carry no SDC guard op.
    pub(crate) fn forward(
        &self,
        w: &mut [Matrix],
        x_local: &Matrix,
        mut sched: Option<&mut BucketScheduler>,
        apply: &mut impl Apply,
    ) -> Result<Activations, Error> {
        let (grid, layers, ctx) = (self.grid, self.layers, &self.ctx);
        let b_local = x_local.cols();
        let mut inputs = vec![x_local.clone()];
        let mut pres = Vec::with_capacity(layers.len());
        let _fwd = self.span("forward");
        let prefetch = sched.as_ref().is_some_and(|s| s.plan.fwd_prefetch) && grid.pr > 1;
        if !prefetch {
            for (idx, l) in layers.iter().enumerate() {
                let _layer = self.layer_span("layer_fwd", idx);
                if let Some(s) = sched.as_deref_mut() {
                    s.apply_ready_for(idx, w, apply)?;
                }
                let pre = ctx.forward(grid, &w[idx], inputs.last().expect("input"))?;
                inputs.push(apply_act(l.act, &pre));
                pres.push(pre);
            }
            return Ok(Activations { inputs, pres });
        }
        let sched = sched.expect("prefetch runs under a plan");
        sched.apply_ready_for(0, w, apply)?;
        let mut pf = ctx.forward_start(grid, &w[0], x_local)?;
        for (idx, l) in layers.iter().enumerate() {
            let _layer = self.layer_span("layer_fwd", idx);
            let next = idx + 1;
            let mut acc = None;
            if next < layers.len() {
                // The consume loop below reads W[next]; any bucket
                // updating it must land first.
                sched.apply_ready_for(next, w, apply)?;
                acc = Some(Matrix::zeros(w[next].rows(), b_local));
            }
            let mut pre_blocks: Vec<Option<Matrix>> = vec![None; grid.pr];
            let mut post_blocks: Vec<Option<Matrix>> = vec![None; grid.pr];
            while let Some((src, block)) = pf.next_block()? {
                let post = apply_act(l.act, &block);
                if let Some(acc) = acc.as_mut() {
                    let crange = part_range(l.d_out, grid.pr, src);
                    let wcols = w[next].col_block(crange.start, crange.end);
                    grid.col_comm
                        .advance_flops(matmul_flops(wcols.rows(), wcols.cols(), b_local));
                    let prod = matmul(&wcols, &post);
                    axpy(1.0, prod.as_slice(), acc.as_mut_slice());
                }
                pre_blocks[src] = Some(block);
                post_blocks[src] = Some(post);
            }
            let stack = |blocks: Vec<Option<Matrix>>| {
                let blocks: Vec<Matrix> = blocks
                    .into_iter()
                    .map(|b| b.expect("all blocks delivered"))
                    .collect();
                Matrix::vcat(&blocks)
            };
            pres.push(stack(pre_blocks));
            inputs.push(stack(post_blocks));
            if let Some(acc) = acc {
                pf = ctx.forward_resume(grid, acc)?;
            }
        }
        Ok(Activations { inputs, pres })
    }

    /// The backward pass from the loss gradient `grad`, then the
    /// optimizer step. Without a scheduler every ∆W is all-reduced
    /// blocking and applied at once. With one, ∆W partials flush
    /// through its buckets and each layer's poll drives a chunk of the
    /// deepest in-flight bucket; the buckets are then drained and
    /// applied — unless `plan.interleave` defers them to the next
    /// iteration's forward (never past the `last` iteration, so the
    /// returned weights are complete).
    pub(crate) fn backward(
        &self,
        w: &mut [Matrix],
        acts: &Activations,
        grad: Matrix,
        mut sched: Option<&mut BucketScheduler>,
        last: bool,
        apply: &mut impl Apply,
    ) -> Result<(), Error> {
        let (grid, ctx) = (self.grid, &self.ctx);
        let Activations { inputs, pres } = acts;
        {
            let _bwd = self.span("backward");
            let mut dy = grad;
            for (idx, l) in self.layers.iter().enumerate().rev() {
                let _layer = self.layer_span("layer_bwd", idx);
                dy = act_backward(l.act, &pres[idx], &inputs[idx + 1], &dy);
                dy = match sched.as_deref_mut() {
                    None => {
                        let (dw, dx) = ctx.backward(grid, &w[idx], &inputs[idx], &dy)?;
                        apply(idx, &mut w[idx], dw.as_slice());
                        dx
                    }
                    Some(s) => {
                        let (dw, dx) = if s.plan.dx_overlap {
                            ctx.backward_dx_overlap(grid, &w[idx], &inputs[idx], &dy)?
                        } else {
                            ctx.backward_dw_deferred(grid, &w[idx], &inputs[idx], &dy)?
                        };
                        s.push(idx, &dw)?;
                        s.poll()?;
                        dx
                    }
                };
            }
            if let Some(s) = sched.as_deref_mut() {
                s.flush()?;
            }
        }
        let args = [("iter", self.iter as f64)];
        match sched {
            None => grid
                .row_comm
                .trace_instant("trainer", "optimizer_step", &args),
            // Buckets stay in flight across the boundary; the next
            // forward's lazy drain is the optimizer step.
            Some(s) if s.plan.interleave && !last => {
                grid.row_comm
                    .trace_instant("trainer", "optimizer_deferred", &args)
            }
            Some(s) => {
                let _step = self.span("optimizer_step");
                s.drain_all(w, apply)?;
            }
        }
        Ok(())
    }
}

/// One gradient bucket in flight (or already settled locally).
struct PendingBucket {
    /// The row-group sum in flight; `None` for a degenerate
    /// single-member row group, where `data` holds the partial (which
    /// *is* the sum).
    handle: Option<IallreduceHandle>,
    data: Option<Vec<f64>>,
    /// `(layer, words)` segments fused into the bucket, in fusion
    /// order (descending layer — backward fills buckets from the last
    /// layer down).
    segs: Vec<(usize, usize)>,
    /// Earliest layer with a segment in this bucket: the priority key.
    /// The *next* iteration's forward cannot pass this layer until the
    /// bucket is applied, so lazy drains settle ascending `min_layer`.
    min_layer: usize,
}

/// Priority-scheduled DDP-style gradient buckets: deferred per-layer ∆W
/// partials are fused (in push order) into flat buffers whose row-group
/// sums are launched as non-blocking all-reduces the moment a bucket
/// fills, so the transfers run on the comm channel while backprop
/// continues into earlier layers. Beyond launching:
///
/// * **Flush instants**: every launch records a zero-duration
///   `sched`/`bucket_flush` trace event, so `trace_analyze` can see
///   the schedule without perturbing the leaf-time partition.
/// * **Progress polls** ([`BucketScheduler::poll`]): under
///   [`FlushSchedule::Priority`], each backward layer drives one chunk
///   step of the deepest in-flight bucket, keeping per-handle memory
///   bounded and making pipelining visible mid-backward.
/// * **Priority drain** ([`BucketScheduler::apply_ready_for`]):
///   instead of a barrier, buckets are waited in the ascending-layer
///   order the next forward needs them; each wait drives that bucket's
///   remaining chunks before any deeper bucket's, so the first-needed
///   bucket claims the channel first.
///
/// All drain orders are the same deterministic function of the layer
/// structure on every member of the communicator, which keeps the
/// mixed-outstanding-handle schedule deadlock-free (sends are eager;
/// the minimal blocked program position always has its matching send
/// already issued on the peer).
pub(crate) struct BucketScheduler {
    comm: Communicator,
    /// The plan the shared passes run under.
    plan: OverlapPlan,
    ft: Option<FtConfig>,
    pending: Vec<PendingBucket>,
    buf: Vec<f64>,
    buf_layers: Vec<(usize, usize)>,
}

impl BucketScheduler {
    /// `comm` is the group to sum over (the grid's row group); `plan`
    /// sets the fusion threshold and the flush schedule; `ft` selects
    /// deadline-bounded receives.
    pub(crate) fn new(comm: &Communicator, plan: OverlapPlan, ft: Option<FtConfig>) -> Self {
        assert!(
            plan.bucket_words >= 1,
            "bucket capacity must be at least one word"
        );
        BucketScheduler {
            comm: comm.clone(),
            plan,
            ft,
            pending: Vec::new(),
            buf: Vec::new(),
            buf_layers: Vec::new(),
        }
    }

    /// Appends layer `idx`'s local ∆W partial; flushes once the fusion
    /// threshold is reached.
    pub(crate) fn push(&mut self, idx: usize, dw: &Matrix) -> Result<(), Error> {
        self.buf_layers.push((idx, dw.len()));
        self.buf.extend_from_slice(dw.as_slice());
        if self.buf.len() >= self.plan.bucket_words {
            self.flush()?;
        }
        Ok(())
    }

    /// Launches the staged bucket (no-op when nothing is staged),
    /// recording a `bucket_flush` instant. A single-member row group
    /// skips the launch entirely: the partial already is the sum, and
    /// a zero-step "collective" would only pollute the launch counts
    /// that normalize the measured overlap fraction.
    pub(crate) fn flush(&mut self) -> Result<(), Error> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let data = std::mem::take(&mut self.buf);
        let segs = std::mem::take(&mut self.buf_layers);
        let min_layer = segs.iter().map(|&(i, _)| i).min().expect("non-empty");
        let max_layer = segs.iter().map(|&(i, _)| i).max().expect("non-empty");
        self.comm.trace_instant(
            "sched",
            "bucket_flush",
            &[
                ("words", data.len() as f64),
                ("min_layer", min_layer as f64),
                ("max_layer", max_layer as f64),
                ("pending", (self.pending.len() + 1) as f64),
            ],
        );
        let bucket = if self.comm.size() == 1 {
            PendingBucket {
                handle: None,
                data: Some(data),
                segs,
                min_layer,
            }
        } else {
            let handle = match &self.ft {
                Some(cfg) => iallreduce_ft(&self.comm, data, ReduceOp::Sum, cfg)?,
                None => iallreduce(&self.comm, data, ReduceOp::Sum)?,
            };
            PendingBucket {
                handle: Some(handle),
                data: None,
                segs,
                min_layer,
            }
        };
        self.pending.push(bucket);
        Ok(())
    }

    /// Drives one chunk step of the highest-priority bucket still
    /// being issued — deepest layers first, which is launch order,
    /// since backward fills buckets from the last layer down. Records
    /// a `progress_poll` instant when a step was actually driven.
    /// No-op under [`FlushSchedule::Fifo`].
    pub(crate) fn poll(&mut self) -> Result<(), Error> {
        if self.plan.schedule != FlushSchedule::Priority {
            return Ok(());
        }
        let in_flight = self.pending.iter().filter(|b| b.handle.is_some()).count();
        for b in &mut self.pending {
            if let Some(h) = &mut b.handle {
                if !h.issued() {
                    h.progress()?;
                    self.comm.trace_instant(
                        "sched",
                        "progress_poll",
                        &[("pending", in_flight as f64)],
                    );
                    return Ok(());
                }
            }
        }
        Ok(())
    }

    /// Settles (waits + applies) every pending bucket whose earliest
    /// layer is ≤ `layer`, ascending — the lazy priority drain: the
    /// next iteration's forward calls this right before reading layer
    /// `layer`, so each bucket is waited exactly at its first reader
    /// and its remaining chunks get the channel before deeper buckets'.
    pub(crate) fn apply_ready_for(
        &mut self,
        layer: usize,
        w: &mut [Matrix],
        apply: &mut impl Apply,
    ) -> Result<(), Error> {
        loop {
            let next = self
                .pending
                .iter()
                .enumerate()
                .filter(|(_, b)| b.min_layer <= layer)
                .min_by_key(|(_, b)| b.min_layer)
                .map(|(k, _)| k);
            let Some(k) = next else { return Ok(()) };
            self.drive_for(k)?;
            let bucket = self.pending.remove(k);
            Self::settle(bucket, w, apply)?;
        }
    }

    /// Issues chunk steps — always in launch order across every
    /// pending bucket — until bucket `k`'s are all issued. Keeping one
    /// global issue order regardless of which bucket the caller needs
    /// first matters twice: it is the SPMD order every row-group
    /// member agrees on (deadlock freedom), and it preserves the
    /// FIFO channel packing — completing a late-launched bucket
    /// first must not convoy earlier buckets' chunks behind its
    /// pipeline stalls. Only the *blocking* is need-ordered.
    fn drive_for(&mut self, k: usize) -> Result<(), Error> {
        loop {
            if self.pending[k].handle.as_ref().is_none_or(|h| h.issued()) {
                return Ok(());
            }
            for b in &mut self.pending {
                if let Some(h) = &mut b.handle {
                    if !h.issued() {
                        h.progress()?;
                        break;
                    }
                }
            }
        }
    }

    /// Flushes the partial bucket and settles everything outstanding
    /// in launch order, applying per bucket as each wait completes.
    pub(crate) fn drain_all(
        &mut self,
        w: &mut [Matrix],
        apply: &mut impl Apply,
    ) -> Result<(), Error> {
        self.flush()?;
        for bucket in self.pending.drain(..) {
            Self::settle(bucket, w, apply)?;
        }
        Ok(())
    }

    fn settle(
        bucket: PendingBucket,
        w: &mut [Matrix],
        apply: &mut impl Apply,
    ) -> Result<(), Error> {
        let summed = match bucket.handle {
            Some(h) => h.wait()?,
            None => bucket.data.expect("degenerate bucket holds its data"),
        };
        let mut at = 0;
        for (idx, len) in bucket.segs {
            apply(idx, &mut w[idx], &summed[at..at + len]);
            at += len;
        }
        Ok(())
    }
}

/// Synthetic classification data shaped for a network: inputs in
/// `[-1, 1)` and uniform labels over the output classes, both
/// seed-deterministic.
pub fn synthetic_data(net: &Network, b: usize, seed: u64) -> (Matrix, Vec<usize>) {
    let d0 = net.input.dim();
    let classes = net.output().dim();
    (
        init::uniform(d0, b, -1.0, 1.0, seed),
        init::labels(b, classes, seed.wrapping_add(1)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnn::zoo::{mlp, mlp_tiny, rnn_unrolled};

    fn max_weight_diff(a: &[Matrix], b: &[Matrix]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| x.max_abs_diff(y))
            .fold(0.0, f64::max)
    }

    #[test]
    fn serial_training_decreases_loss() {
        let net = mlp_tiny();
        let (x, labels) = synthetic_data(&net, 32, 5);
        let r = train_serial(
            &net,
            &x,
            &labels,
            &TrainConfig {
                lr: 0.5,
                iters: 30,
                seed: 7,
            },
        );
        assert!(
            r.losses.last().unwrap() < &(r.losses[0] * 0.9),
            "loss {} -> {}",
            r.losses[0],
            r.losses.last().unwrap()
        );
    }

    #[test]
    fn grid_training_matches_serial_exactly() {
        let net = mlp_tiny();
        let (x, labels) = synthetic_data(&net, 24, 5);
        let cfg = TrainConfig {
            lr: 0.3,
            iters: 8,
            seed: 7,
        };
        let serial = train_serial(&net, &x, &labels, &cfg);
        for (pr, pc) in [(1, 1), (1, 4), (4, 1), (2, 3), (4, 2)] {
            let dist = train_1p5d(&net, &x, &labels, &cfg, pr, pc, NetModel::free());
            let diff = max_weight_diff(&serial.weights, &dist.weights());
            assert!(diff < 1e-9, "grid {pr}x{pc}: weight diff {diff}");
            for (a, b) in serial.losses.iter().zip(dist.losses()) {
                assert!((a - b).abs() < 1e-9, "grid {pr}x{pc}: loss {a} vs {b}");
            }
        }
    }

    #[test]
    fn overlap_training_matches_serial_for_all_grids_and_bucket_sizes() {
        let net = mlp_tiny();
        let (x, labels) = synthetic_data(&net, 24, 5);
        let cfg = TrainConfig {
            lr: 0.3,
            iters: 8,
            seed: 7,
        };
        let serial = train_serial(&net, &x, &labels, &cfg);
        for (pr, pc) in [(1, 1), (1, 4), (4, 1), (2, 3), (4, 2)] {
            // Per-layer launches, mid-size fusion, and one giant bucket.
            for bucket in [1, 64, usize::MAX] {
                let dist = train_1p5d_scheduled(
                    &net,
                    &x,
                    &labels,
                    &cfg,
                    pr,
                    pc,
                    NetModel::free(),
                    OverlapPlan {
                        bucket_words: bucket,
                        ..OverlapPlan::legacy()
                    },
                );
                let diff = max_weight_diff(&serial.weights, &dist.weights());
                assert!(
                    diff < 1e-9,
                    "grid {pr}x{pc} bucket {bucket}: weight diff {diff}"
                );
                for (a, b) in serial.losses.iter().zip(dist.losses()) {
                    assert!((a - b).abs() < 1e-9, "grid {pr}x{pc}: loss {a} vs {b}");
                }
                assert!(
                    dist.replica_divergence() < 1e-15,
                    "row-group replicas stay bitwise identical"
                );
            }
        }
    }

    #[test]
    fn overlap_is_never_slower_and_hides_dw_traffic() {
        // A network model where communication is substantial relative to
        // compute, so hiding the ∆W all-reduce is visible in the
        // makespan.
        let model = NetModel {
            alpha: 1e-5,
            beta: 1e-8,
            flops: 1e9,
        };
        let net = mlp("m", &[64, 96, 96, 10]);
        let (x, labels) = synthetic_data(&net, 32, 3);
        let cfg = TrainConfig {
            lr: 0.1,
            iters: 2,
            seed: 1,
        };
        for (pr, pc) in [(1, 4), (2, 4), (4, 2)] {
            let serialized = train_1p5d(&net, &x, &labels, &cfg, pr, pc, model);
            let overlapped = train_1p5d_scheduled(
                &net,
                &x,
                &labels,
                &cfg,
                pr,
                pc,
                model,
                OverlapPlan::legacy(),
            );
            let t_ser = serialized.stats.makespan();
            let t_ovl = overlapped.stats.makespan();
            assert!(
                t_ovl <= t_ser + 1e-12,
                "grid {pr}x{pc}: overlap slower ({t_ovl} vs {t_ser})"
            );
            assert!(
                overlapped.stats.total_overlapped_secs() > 0.0,
                "grid {pr}x{pc}: some transfer time was hidden"
            );
            assert!(
                overlapped.measured_overlap_fraction() > 0.0
                    && overlapped.measured_overlap_fraction() <= 1.0,
                "grid {pr}x{pc}: fraction in (0, 1]"
            );
            assert_eq!(serialized.measured_overlap_fraction(), 0.0);
            let (_, _, nb_ar, _) = overlapped.stats.total_collective_calls();
            assert!(nb_ar > 0, "non-blocking launches were counted");
        }
    }

    #[test]
    fn replicas_stay_in_sync() {
        let net = mlp_tiny();
        let (x, labels) = synthetic_data(&net, 16, 9);
        let cfg = TrainConfig {
            lr: 0.2,
            iters: 5,
            seed: 3,
        };
        let dist = train_1p5d(&net, &x, &labels, &cfg, 2, 2, NetModel::free());
        assert!(dist.replica_divergence() < 1e-12);
    }

    #[test]
    fn rnn_style_network_trains_distributed() {
        let net = rnn_unrolled(20, 16, 3, 4);
        let (x, labels) = synthetic_data(&net, 12, 11);
        let cfg = TrainConfig {
            lr: 0.2,
            iters: 6,
            seed: 13,
        };
        let serial = train_serial(&net, &x, &labels, &cfg);
        let dist = train_1p5d(&net, &x, &labels, &cfg, 2, 2, NetModel::free());
        assert!(max_weight_diff(&serial.weights, &dist.weights()) < 1e-9);
    }

    #[test]
    fn dropout_is_identity_here() {
        let net = dnn::NetworkBuilder::new("d", dnn::Shape::flat(8))
            .layer(LayerSpec::FullyConnected { out: 8 })
            .layer(LayerSpec::ReLU)
            .layer(LayerSpec::Dropout { rate: 0.5 })
            .layer(LayerSpec::FullyConnected { out: 4 })
            .build()
            .unwrap();
        let (x, labels) = synthetic_data(&net, 8, 2);
        let r = train_serial(&net, &x, &labels, &TrainConfig::default());
        assert_eq!(r.weights.len(), 2);
    }

    #[test]
    fn pure_batch_comm_is_weight_allreduce_only() {
        // With pr = 1 the executed traffic per iteration is exactly the
        // ring all-reduce of each layer's ∆W.
        let net = mlp("m", &[16, 12, 8]);
        let (x, labels) = synthetic_data(&net, 8, 3);
        let cfg = TrainConfig {
            lr: 0.1,
            iters: 1,
            seed: 1,
        };
        let pc = 4;
        let dist = train_1p5d(&net, &x, &labels, &cfg, 1, pc, NetModel::free());
        let total_w = 16 * 12 + 12 * 8;
        // Ring all-reduce sends 2·n·(p−1)/p words per rank; pc ranks.
        let expect = pc as f64 * 2.0 * total_w as f64 * (pc as f64 - 1.0) / pc as f64;
        assert_eq!(dist.stats.total_words(), expect as u64);
    }

    fn all_plans() -> Vec<OverlapPlan> {
        vec![
            OverlapPlan::default(),
            OverlapPlan::legacy(),
            OverlapPlan {
                dx_overlap: true,
                ..OverlapPlan::default()
            },
            OverlapPlan {
                fwd_prefetch: true,
                ..OverlapPlan::default()
            },
            OverlapPlan {
                bucket_words: 64,
                dx_overlap: true,
                fwd_prefetch: true,
                schedule: FlushSchedule::Fifo,
                interleave: true,
            },
        ]
    }

    #[test]
    fn scheduled_training_matches_serial_for_all_plans_and_grids() {
        let net = mlp_tiny();
        let (x, labels) = synthetic_data(&net, 24, 5);
        let cfg = TrainConfig {
            lr: 0.3,
            iters: 8,
            seed: 7,
        };
        let serial = train_serial(&net, &x, &labels, &cfg);
        for (pr, pc) in [(1, 1), (1, 4), (4, 1), (2, 3), (4, 2)] {
            for plan in all_plans() {
                let dist =
                    train_1p5d_scheduled(&net, &x, &labels, &cfg, pr, pc, NetModel::free(), plan);
                let diff = max_weight_diff(&serial.weights, &dist.weights());
                assert!(
                    diff < 1e-9,
                    "grid {pr}x{pc} plan {plan:?}: weight diff {diff}"
                );
                for (a, b) in serial.losses.iter().zip(dist.losses()) {
                    assert!(
                        (a - b).abs() < 1e-9,
                        "grid {pr}x{pc} plan {plan:?}: loss {a} vs {b}"
                    );
                }
                assert!(
                    dist.replica_divergence() < 1e-15,
                    "grid {pr}x{pc} plan {plan:?}: replicas bitwise identical"
                );
            }
        }
    }

    #[test]
    fn scheduled_without_prefetch_is_bit_identical_to_legacy_overlap() {
        // Priority flush + per-bucket interleave only move *when*
        // transfers are driven and where applies happen; the bucket
        // partition and ring sums are unchanged, so the weights must
        // match the FIFO/barrier engine bit for bit.
        let net = mlp("m", &[40, 56, 56, 10]);
        let (x, labels) = synthetic_data(&net, 24, 3);
        let cfg = TrainConfig {
            lr: 0.2,
            iters: 4,
            seed: 9,
        };
        for (pr, pc) in [(1, 4), (4, 1), (2, 3), (4, 2)] {
            for bucket in [1, 512, usize::MAX] {
                let legacy = train_1p5d_scheduled(
                    &net,
                    &x,
                    &labels,
                    &cfg,
                    pr,
                    pc,
                    NetModel::free(),
                    OverlapPlan {
                        bucket_words: bucket,
                        ..OverlapPlan::legacy()
                    },
                );
                for plan in [
                    OverlapPlan {
                        bucket_words: bucket,
                        ..OverlapPlan::default()
                    },
                    OverlapPlan {
                        bucket_words: bucket,
                        ..OverlapPlan::legacy()
                    },
                    OverlapPlan {
                        bucket_words: bucket,
                        dx_overlap: true,
                        ..OverlapPlan::default()
                    },
                ] {
                    let sch = train_1p5d_scheduled(
                        &net,
                        &x,
                        &labels,
                        &cfg,
                        pr,
                        pc,
                        NetModel::free(),
                        plan,
                    );
                    for (a, b) in legacy.per_rank.iter().zip(&sch.per_rank) {
                        assert_eq!(a.i, b.i);
                        assert_eq!(a.j, b.j);
                        assert!(
                            a.weight_shards == b.weight_shards,
                            "grid {pr}x{pc} bucket {bucket} plan {plan:?}: \
                             weights not bit-identical on rank ({},{})",
                            a.i,
                            a.j
                        );
                        assert!(
                            a.partial_losses == b.partial_losses,
                            "grid {pr}x{pc} bucket {bucket} plan {plan:?}: losses differ"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn scheduled_never_slower_than_legacy_and_hides_at_least_as_much() {
        let model = NetModel {
            alpha: 1e-5,
            beta: 1e-8,
            flops: 1e9,
        };
        let net = mlp("m", &[64, 96, 96, 10]);
        let (x, labels) = synthetic_data(&net, 32, 3);
        let cfg = TrainConfig {
            lr: 0.1,
            iters: 3,
            seed: 1,
        };
        for (pr, pc) in [(1, 4), (2, 4), (4, 2), (2, 2)] {
            let legacy = train_1p5d_scheduled(
                &net,
                &x,
                &labels,
                &cfg,
                pr,
                pc,
                model,
                OverlapPlan::legacy(),
            );
            let sch = train_1p5d_scheduled(
                &net,
                &x,
                &labels,
                &cfg,
                pr,
                pc,
                model,
                OverlapPlan::default(),
            );
            let t_old = legacy.stats.makespan();
            let t_new = sch.stats.makespan();
            assert!(
                t_new <= t_old + 1e-12,
                "grid {pr}x{pc}: scheduled slower ({t_new} vs {t_old})"
            );
            assert!(
                sch.measured_overlap_fraction() >= legacy.measured_overlap_fraction() - 1e-12,
                "grid {pr}x{pc}: fraction regressed ({} vs {})",
                sch.measured_overlap_fraction(),
                legacy.measured_overlap_fraction()
            );
            assert!(sch.stats.total_overlapped_secs() > 0.0);
        }
    }

    #[test]
    fn legacy_plan_virtual_time_is_pinned() {
        // The legacy plan is the FIFO launch / barrier drain engine that
        // earlier versions ran as a separate rank loop. These bits were
        // captured from that engine; the legacy plan must keep them.
        let model = NetModel {
            alpha: 1e-5,
            beta: 1e-8,
            flops: 1e9,
        };
        let net = mlp("m", &[48, 64, 10]);
        let (x, labels) = synthetic_data(&net, 24, 3);
        let cfg = TrainConfig {
            lr: 0.1,
            iters: 2,
            seed: 2,
        };
        for (pr, pc, makespan, overlapped) in [
            (2, 2, 0x3f40_6383_0fc7_fcb6_u64, 0x3bf8_0000_0000_0000_u64),
            (4, 1, 0x3f48_611f_d588_5d32, 0),
        ] {
            let sch = train_1p5d_scheduled(
                &net,
                &x,
                &labels,
                &cfg,
                pr,
                pc,
                model,
                OverlapPlan::legacy(),
            );
            assert_eq!(
                sch.stats.makespan().to_bits(),
                makespan,
                "{pr}x{pc} makespan"
            );
            assert_eq!(
                sch.stats.total_overlapped_secs().to_bits(),
                overlapped,
                "{pr}x{pc} overlapped seconds"
            );
        }
    }

    #[test]
    fn degenerate_single_column_row_groups_record_no_launches() {
        // pc = 1: every row group has one member, so there is nothing
        // to all-reduce. The scheduler skips the launch (and the
        // collectives layer skips recording even when callers don't),
        // keeping the overlap fraction's denominator honest.
        let net = mlp("m", &[32, 24, 10]);
        let (x, labels) = synthetic_data(&net, 16, 3);
        let cfg = TrainConfig {
            lr: 0.1,
            iters: 2,
            seed: 1,
        };
        let dist = train_1p5d_scheduled(
            &net,
            &x,
            &labels,
            &cfg,
            4,
            1,
            NetModel::free(),
            OverlapPlan::default(),
        );
        let (_, _, nb_ar, nb_ag) = dist.stats.total_collective_calls();
        assert_eq!(nb_ar, 0, "no ∆W launches on single-member row groups");
        assert_eq!(nb_ag, 0, "prefetch off: no non-blocking gathers");
        assert_eq!(dist.measured_overlap_fraction(), 0.0);
    }

    #[test]
    fn sched_trace_shows_flushes_and_polls() {
        let net = mlp("m", &[48, 64, 64, 10]);
        let (x, labels) = synthetic_data(&net, 16, 3);
        let cfg = TrainConfig {
            lr: 0.1,
            iters: 2,
            seed: 1,
        };
        let (_, trace) = train_1p5d_scheduled_traced(
            &net,
            &x,
            &labels,
            &cfg,
            2,
            2,
            NetModel::free(),
            TraceConfig::enabled(),
            OverlapPlan {
                bucket_words: 64,
                ..OverlapPlan::default()
            },
        );
        let flushes: usize = trace
            .ranks
            .iter()
            .map(|r| r.instant_count("sched", "bucket_flush"))
            .sum();
        let polls: usize = trace
            .ranks
            .iter()
            .map(|r| r.instant_count("sched", "progress_poll"))
            .sum();
        assert!(flushes > 0, "bucket flushes recorded");
        assert!(polls > 0, "priority polls recorded");
        let (_, fifo_trace) = train_1p5d_scheduled_traced(
            &net,
            &x,
            &labels,
            &cfg,
            2,
            2,
            NetModel::free(),
            TraceConfig::enabled(),
            OverlapPlan {
                bucket_words: 64,
                ..OverlapPlan::legacy()
            },
        );
        let fifo_polls: usize = fifo_trace
            .ranks
            .iter()
            .map(|r| r.instant_count("sched", "progress_poll"))
            .sum();
        assert_eq!(fifo_polls, 0, "FIFO never polls");
    }

    #[test]
    #[should_panic(expected = "FC networks only")]
    fn conv_network_is_rejected() {
        let net = dnn::NetworkBuilder::new("c", dnn::Shape::new(1, 4, 4))
            .layer(LayerSpec::Conv {
                out_c: 2,
                kh: 3,
                kw: 3,
                stride: 1,
                pad: 1,
            })
            .build()
            .unwrap();
        let (x, labels) = synthetic_data(&net, 4, 2);
        let _ = train_serial(&net, &x, &labels, &TrainConfig::default());
    }
}
