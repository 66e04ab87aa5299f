//! Fault-tolerant 1.5D training: checkpoint / detect / shrink / replay.
//!
//! [`crate::trainer::train_1p5d`] assumes a reliable machine. This
//! module runs the same iteration body — [`crate::trainer`]'s shared
//! forward and backward passes, over fault-tolerant ops
//! ([`distmm::onep5d::OpCtx::Ft`]) — inside a recovery protocol, so a
//! [`FaultPlan`] (dropped messages, stragglers, flipped bits, rank
//! deaths) degrades the run instead of hanging or corrupting it. The
//! iteration adds only what is fault-tolerance specific: a loss
//! all-reduce that doubles as a liveness probe, a momentum optimizer
//! step, and an overlap plan that drains within the iteration.
//!
//! 1. **Checkpointing.** Every `ckpt_every` iterations each rank
//!    snapshots its weight (and momentum) shards; the last *two*
//!    checkpoints are retained because a fault can catch ranks one
//!    iteration apart across a checkpoint boundary. Checkpoint volume
//!    is charged to [`mpsim::RankStats::ckpt_words`].
//! 2. **Detection.** Before every iteration all world ranks run a
//!    control-plane [`Communicator::fault_sync`] round carrying
//!    `(iter, last_ckpt, aborted)`. Death notices make dead members
//!    observable by every survivor in the *same* round (the broadcast
//!    is all-or-nothing), so the survivor set is common knowledge
//!    without extra agreement machinery. During an iteration itself,
//!    faults surface through the fault-tolerant collectives
//!    (`collectives::ft`): deadline-bound receives, checksummed
//!    payloads, and a cascading group-wide abort.
//! 3. **Shrink + re-plan.** Survivors advance the recovery epoch
//!    (staling in-flight aborts), derive the survivor communicator
//!    with the communication-free [`Communicator::shrink_exclude`],
//!    and re-plan the grid: the new `Pr' × Pc'` is the factorization of
//!    the survivor count minimizing the paper's Eq. 8 communication
//!    cost on the configured [`MachineModel`].
//! 4. **Redistribute + replay.** Each old grid row's checkpoint shard
//!    is served by its lowest-ranked survivor and all-gathered over
//!    the data plane (so redistribution is charged on the virtual
//!    clock, recorded in [`mpsim::RankStats::recovery_secs`]); every
//!    survivor re-shards for its new grid position and training
//!    replays from the checkpoint iteration. A weight-shard row with
//!    no surviving replica makes the run unrecoverable.
//!
//! A recovery attempt is *transactional*: survivors build the new
//! grid/weights in temporaries and commit only after a confirmation
//! `fault_sync` round shows every survivor succeeded — a fault during
//! recovery just triggers another attempt with the updated survivor
//! set.

use collectives::ft::{allgatherv_ring_ft, allreduce_ring_ft};
use collectives::{FtConfig, ReduceOp};
use dnn::{Network, WeightedLayer};
use mpsim::fault::checksum;
use mpsim::{
    BitFlip, Communicator, Error, FaultCtx, FaultPlan, TraceConfig, World, WorldStats, WorldTrace,
};
use tensor::ops::axpy;
use tensor::Matrix;

use distmm::dist::{col_shard, part_range, row_shard};
use distmm::onep5d::{Grid, OpCtx, SdcCtx};

use crate::cost::integrated_model_batch;
use crate::machine::MachineModel;
use crate::overlap::OverlapPlan;
use crate::trainer::{
    extract_fc_layers, init_weights, shard_loss, BucketScheduler, FcLayer, Iteration,
};

/// Configuration for a fault-tolerant training run.
#[derive(Debug, Clone, Copy)]
pub struct FtTrainConfig {
    /// SGD learning rate η.
    pub lr: f64,
    /// Momentum μ. 0 is the plain SGD step of the shared iteration
    /// body, so a fault-free run reproduces
    /// [`crate::trainer::train_1p5d`]. μ > 0 swaps in an optimizer step
    /// with a velocity buffer, which is checkpointed and redistributed
    /// alongside the weights.
    pub momentum: f64,
    /// Number of iterations over the full batch.
    pub iters: usize,
    /// Weight-initialization seed.
    pub seed: u64,
    /// Checkpoint period in iterations (≥ 1). A checkpoint is also
    /// taken at iteration 0, so rollback is always possible.
    pub ckpt_every: usize,
    /// Receive policy for the fault-tolerant collectives.
    pub ft: FtConfig,
    /// Machine used both to drive the simulation (`net_model()`) and to
    /// re-plan the grid with Eq. 8 after a shrink.
    pub machine: MachineModel,
    /// Run the iteration through the overlap engine of
    /// [`crate::trainer::train_1p5d_scheduled`] under [`Self::plan`]:
    /// ∆W all-reduces are bucketed and overlap the remaining backward
    /// compute (the executed Fig. 8 path). Chunk receives stay
    /// deadline-bound and faults still abort group-wide, so recovery
    /// semantics are unchanged. `false` runs the fully blocking
    /// iteration.
    pub overlap: bool,
    /// Plan of the overlap engine (ignored when `overlap` is off):
    /// bucket fusion size, flush priority/polls, ∆X overlap, and
    /// forward prefetch. Two knobs are constrained here:
    /// [`OverlapPlan::interleave`] is ignored — the checkpoint/rollback
    /// protocol needs iteration-complete weights, so every bucket is
    /// applied before the iteration commits — and
    /// [`OverlapPlan::fwd_prefetch`] is disabled under `abft`, whose
    /// checksums verify whole products, not block-accumulated ones.
    pub plan: OverlapPlan,
    /// Defend against *silent* data corruption: every local GEMM output
    /// is ABFT checksum-verified (single-element errors repaired in
    /// place, multi-element errors escalated to rollback), and resident
    /// weight shards are audited against a running checksum at every
    /// iteration start (a memory flip escalates to rollback). Scripted
    /// [`FaultPlan`] bit flips are injected regardless of this flag —
    /// the fault exists whether or not anyone defends; `abft` only
    /// decides whether it is caught. A clean run computes bit-identical
    /// weights with `abft` on or off (verification only reads), at the
    /// cost of the checksum FLOPs charged to the virtual clock.
    pub abft: bool,
}

impl Default for FtTrainConfig {
    fn default() -> Self {
        let machine = MachineModel::cori_knl();
        // Deadlines derived from the machine's α–β point (a fixed
        // seconds value that is generous on one network is a hair
        // trigger on another), with per-peer adaptive tightening and
        // speculative re-requests for stragglers.
        let ft = FtConfig::adaptive(&machine.net_model(), 4096).with_attempts(2);
        FtTrainConfig {
            lr: 0.1,
            momentum: 0.0,
            iters: 10,
            seed: 7,
            ckpt_every: 2,
            ft,
            machine,
            overlap: false,
            plan: OverlapPlan::default(),
            abft: false,
        }
    }
}

/// One committed recovery, as observed by a surviving rank (identical
/// on every survivor).
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Recovery epoch entered by this recovery.
    pub epoch: u64,
    /// Iteration training rolled back to (the agreed checkpoint).
    pub rollback_iter: usize,
    /// Cumulative dead global ranks at this recovery.
    pub dead: Vec<usize>,
    /// Previously-dead ranks re-admitted (rejoined) by this recovery.
    pub rejoined: Vec<usize>,
    /// New grid extents after the shrink (or regrow).
    pub pr: usize,
    /// New grid extents after the shrink (or regrow).
    pub pc: usize,
    /// Virtual seconds this rank spent in the committed attempt
    /// (epoch bump through commit: re-plan, redistribution, re-shard).
    pub measured_secs: f64,
    /// Cumulative exposed wait on non-blocking collective drains
    /// ([`mpsim::RankStats::comm_wait_secs`]) at the time of this
    /// recovery — a diagnostic for how overlap and fault recovery
    /// interact (0 unless [`FtTrainConfig::overlap`] is on).
    pub comm_wait_secs: f64,
    /// Eq. 8 per-iteration communication seconds on the shrunk grid —
    /// the analytic degraded-mode cost to compare with
    /// [`FtRankOutcome::comm_secs_per_iter`].
    pub analytic_comm_per_iter: f64,
}

/// Per-surviving-rank outcome of a fault-tolerant run.
#[derive(Debug, Clone)]
pub struct FtRankOutcome {
    /// Final grid row (model-shard index).
    pub i: usize,
    /// Final grid column (batch-shard index).
    pub j: usize,
    /// Final grid extents (post-shrink if any recovery happened).
    pub pr: usize,
    /// Final grid extents (post-shrink if any recovery happened).
    pub pc: usize,
    /// *Global* loss before each committed iteration (identical on
    /// every survivor — each iteration ends with a one-word all-reduce
    /// of the loss partials).
    pub losses: Vec<f64>,
    /// Final local weight shards for the final grid.
    pub weight_shards: Vec<Matrix>,
    /// Committed recoveries, in order.
    pub recoveries: Vec<RecoveryReport>,
    /// Measured mean communication seconds per iteration on the final
    /// grid (iterations since the last recovery) — the executed
    /// degraded-mode cost.
    pub comm_secs_per_iter: f64,
    /// Measured mean wall-clock (virtual) seconds per iteration on the
    /// final grid (iterations since the last recovery) — compare the
    /// post-rejoin value against a fault-free run to bound the residual
    /// cost of elasticity.
    pub step_secs_per_iter: f64,
}

/// Outcome of a fault-tolerant distributed run.
#[derive(Debug)]
pub struct FtDistResult {
    /// Initial grid extents.
    pub pr0: usize,
    /// Initial grid extents.
    pub pc0: usize,
    /// Per-rank outcome; `Err` for ranks that died (or were
    /// unrecoverable), indexed by global rank.
    pub per_rank: Vec<Result<FtRankOutcome, Error>>,
    /// Virtual-time, traffic, and fault statistics.
    pub stats: WorldStats,
}

impl FtDistResult {
    /// Surviving ranks' outcomes.
    pub fn survivors(&self) -> Vec<&FtRankOutcome> {
        self.per_rank
            .iter()
            .filter_map(|r| r.as_ref().ok())
            .collect()
    }

    /// Global loss history (identical on every survivor).
    ///
    /// # Panics
    ///
    /// Panics if no rank survived.
    pub fn losses(&self) -> Vec<f64> {
        self.survivors()
            .first()
            .expect("at least one survivor")
            .losses
            .clone()
    }

    /// Assembles the full weight matrices from the final grid's
    /// column-0 shards.
    pub fn weights(&self) -> Vec<Matrix> {
        let survivors = self.survivors();
        let first = survivors.first().expect("at least one survivor");
        let n_layers = first.weight_shards.len();
        (0..n_layers)
            .map(|l| {
                let mut shards: Vec<(usize, Matrix)> = survivors
                    .iter()
                    .filter(|r| r.j == 0)
                    .map(|r| (r.i, r.weight_shards[l].clone()))
                    .collect();
                shards.sort_by_key(|&(i, _)| i);
                Matrix::vcat(&shards.into_iter().map(|(_, m)| m).collect::<Vec<_>>())
            })
            .collect()
    }
}

/// Eq. 8 grid choice for `p` survivors: the divisor pair `(pr, pc)`
/// minimizing the analytic communication time, subject to every rank
/// keeping a non-empty weight and batch shard.
pub fn plan_grid(
    layers: &[WeightedLayer],
    b: f64,
    p: usize,
    machine: &MachineModel,
) -> (usize, usize) {
    crate::cost::best_grid(layers, b, p, machine)
}

/// Faults are handled by abort-and-recover; anything else — including
/// this rank's own scripted death — is fatal for the rank.
fn recoverable(e: &Error, my_global: usize) -> bool {
    match e {
        Error::Timeout { .. }
        | Error::Corrupted { .. }
        | Error::SilentCorruption { .. }
        | Error::Aborted { .. } => true,
        Error::RankFailed { rank } | Error::Unreachable { rank } => *rank != my_global,
        _ => false,
    }
}

const FLAG_ABORTED: u8 = 1;
const FLAG_HAS_STATE: u8 = 2;

/// What a live rank reports in each agreement round.
struct RoundMsg {
    iter: usize,
    last_ckpt: usize,
    aborted: bool,
    /// Whether this rank holds committed training state. Re-admitted
    /// rejoiners report `false` until a recovery commits, and their
    /// `last_ckpt` is excluded from the rollback-target minimum.
    has_state: bool,
    /// Excluded ranks whose scripted rejoin time has passed on this
    /// rank's clock. The union over the round is the admission set —
    /// identical on every member, so admission is common knowledge.
    ready: Vec<usize>,
}

fn encode_round(m: &RoundMsg) -> Vec<u8> {
    let mut v = Vec::with_capacity(25 + 8 * m.ready.len());
    v.extend_from_slice(&(m.iter as u64).to_le_bytes());
    v.extend_from_slice(&(m.last_ckpt as u64).to_le_bytes());
    v.push(((m.aborted as u8) * FLAG_ABORTED) | ((m.has_state as u8) * FLAG_HAS_STATE));
    v.extend_from_slice(&(m.ready.len() as u64).to_le_bytes());
    for &g in &m.ready {
        v.extend_from_slice(&(g as u64).to_le_bytes());
    }
    v
}

fn read_u64(b: &[u8], at: &mut usize) -> u64 {
    let v = u64::from_le_bytes(b[*at..*at + 8].try_into().expect("u64 field"));
    *at += 8;
    v
}

fn read_list(b: &[u8], at: &mut usize) -> Vec<usize> {
    let n = read_u64(b, at) as usize;
    (0..n).map(|_| read_u64(b, at) as usize).collect()
}

fn decode_round(b: &[u8]) -> RoundMsg {
    if b.len() < 25 {
        // A transiently desynchronized peer (e.g. around a partition
        // heal racing an agreement round) can deliver bytes from a
        // different protocol step. Read it as an abort signal: the
        // extra recovery round re-aligns the counters instead of
        // panicking on a short buffer.
        return RoundMsg {
            iter: 0,
            last_ckpt: usize::MAX,
            aborted: true,
            has_state: false,
            ready: Vec::new(),
        };
    }
    let mut at = 0;
    let iter = read_u64(b, &mut at) as usize;
    let last_ckpt = read_u64(b, &mut at) as usize;
    let flags = b[at];
    at += 1;
    let ready = read_list(b, &mut at);
    RoundMsg {
        iter,
        last_ckpt,
        aborted: flags & FLAG_ABORTED != 0,
        has_state: flags & FLAG_HAS_STATE != 0,
        ready,
    }
}

/// Payload of the echo round: the global ranks whose presence-round
/// message this rank received (count-prefixed u64 list).
fn encode_echo(heard: &[usize]) -> Vec<u8> {
    let mut v = Vec::with_capacity(8 + 8 * heard.len());
    v.extend_from_slice(&(heard.len() as u64).to_le_bytes());
    for &g in heard {
        v.extend_from_slice(&(g as u64).to_le_bytes());
    }
    v
}

fn decode_echo(b: &[u8]) -> Vec<usize> {
    if b.len() < 8 {
        return Vec::new();
    }
    let n = u64::from_le_bytes(b[0..8].try_into().expect("count")) as usize;
    if b.len() < 8 + 8 * n {
        // Cross-protocol bytes from a desynchronized peer: an empty
        // echo simply keeps that peer out of the bidirectional
        // fragment for this round.
        return Vec::new();
    }
    let mut at = 0;
    read_list(b, &mut at)
}

/// Control tag carrying welcome messages to re-admitted ranks, far
/// above the fault-sync tag range.
const WELCOME_TAG: u64 = (1 << 48) + (1 << 20);

/// The state snapshot survivors hand a re-admitted rank so it can enter
/// the in-progress recovery epoch as if it had been present: every
/// sender's copy is byte-identical (all fields are common knowledge),
/// so the real-time race over which welcome arrives first is harmless.
#[derive(Debug, Clone, PartialEq)]
struct Welcome {
    /// Recovery epoch the survivors just entered.
    epoch: u64,
    /// Survivors' fault-sync round counter after the admission round.
    seq: u64,
    /// Agreed rollback iteration.
    target: usize,
    /// Extents of the last committed grid.
    old_pr: usize,
    /// Extents of the last committed grid.
    old_pc: usize,
    /// Ranks still excluded after this admission.
    excluded: Vec<usize>,
    /// Ranks admitted but not yet holding state (this rank included).
    stateless: Vec<usize>,
    /// Members of the last committed grid, in grid row-major order.
    old_members: Vec<usize>,
    /// Global loss history (identical on every survivor).
    losses: Vec<f64>,
}

fn encode_welcome(w: &Welcome) -> Vec<u8> {
    let mut v = Vec::new();
    v.extend_from_slice(&w.epoch.to_le_bytes());
    v.extend_from_slice(&w.seq.to_le_bytes());
    v.extend_from_slice(&(w.target as u64).to_le_bytes());
    v.extend_from_slice(&(w.old_pr as u64).to_le_bytes());
    v.extend_from_slice(&(w.old_pc as u64).to_le_bytes());
    for list in [&w.excluded, &w.stateless, &w.old_members] {
        v.extend_from_slice(&(list.len() as u64).to_le_bytes());
        for &g in list {
            v.extend_from_slice(&(g as u64).to_le_bytes());
        }
    }
    v.extend_from_slice(&(w.losses.len() as u64).to_le_bytes());
    for &l in &w.losses {
        v.extend_from_slice(&l.to_le_bytes());
    }
    v
}

fn decode_welcome(b: &[u8]) -> Welcome {
    let mut at = 0;
    let epoch = read_u64(b, &mut at);
    let seq = read_u64(b, &mut at);
    let target = read_u64(b, &mut at) as usize;
    let old_pr = read_u64(b, &mut at) as usize;
    let old_pc = read_u64(b, &mut at) as usize;
    let excluded = read_list(b, &mut at);
    let stateless = read_list(b, &mut at);
    let old_members = read_list(b, &mut at);
    let n = read_u64(b, &mut at) as usize;
    let losses = (0..n)
        .map(|_| {
            let v = f64::from_le_bytes(b[at..at + 8].try_into().expect("loss"));
            at += 8;
            v
        })
        .collect();
    Welcome {
        epoch,
        seq,
        target,
        old_pr,
        old_pc,
        excluded,
        stateless,
        old_members,
        losses,
    }
}

/// Blocks a revived rank until a welcome for a *new* epoch arrives
/// (welcomes from admissions in a previous life of this rank carry an
/// epoch it has already seen and are skipped).
fn wait_welcome(comm: &Communicator) -> Result<Welcome, Error> {
    loop {
        let bytes = comm.await_control_any(WELCOME_TAG)?;
        let w = decode_welcome(&bytes);
        if w.epoch > comm.fault_epoch() {
            return Ok(w);
        }
    }
}

/// A consistent snapshot a rank can roll back to: shards are laid out
/// for the grid that was current when the checkpoint was taken.
#[derive(Clone)]
struct Checkpoint {
    iter: usize,
    w: Vec<Matrix>,
    v: Vec<Matrix>,
}

impl Checkpoint {
    fn words(&self) -> u64 {
        self.w.iter().chain(&self.v).map(|m| m.len() as u64).sum()
    }
}

/// One synchronous training iteration on the current grid: the shared
/// [`Iteration`] passes over fault-tolerant ops. Returns the *global*
/// loss (identical on every rank of the grid). `st.iter` names the
/// iteration for the SDC layer: scripted compute bit flips target
/// `(rank, iter, op)` triples, and — with [`FtTrainConfig::abft`] —
/// every local GEMM is checksum-verified under the same numbering.
fn run_iteration(
    st: &mut GridState,
    layers: &[FcLayer],
    b_global: usize,
    cfg: &FtTrainConfig,
) -> Result<f64, Error> {
    let (grid, w, v) = (&st.grid, &mut st.w, &mut st.v);
    let iter = st.iter as u64;
    let sdc = SdcCtx::new(iter, cfg.abft);
    let step = Iteration {
        grid,
        layers,
        ctx: OpCtx::Ft {
            ft: &cfg.ft,
            sdc: &sdc,
        },
        iter,
    };
    // Checkpoint/rollback needs iteration-complete weights, so buckets
    // drain within the iteration; ABFT verifies whole products, so the
    // block-accumulated prefetch partials are off under it.
    let plan = cfg.overlap.then_some(OverlapPlan {
        interleave: false,
        fwd_prefetch: cfg.plan.fwd_prefetch && !cfg.abft,
        ..cfg.plan
    });
    let mut sched = plan.map(|p| BucketScheduler::new(&grid.row_comm, p, Some(cfg.ft)));
    let mut apply = |idx: usize, wi: &mut Matrix, g: &[f64]| {
        if cfg.momentum != 0.0 {
            for (vi, &gi) in v[idx].as_mut_slice().iter_mut().zip(g) {
                *vi = cfg.momentum * *vi + gi;
            }
            axpy(-cfg.lr, v[idx].as_slice(), wi.as_mut_slice());
        } else {
            axpy(-cfg.lr, g, wi.as_mut_slice());
        }
    };
    let acts = step.forward(w, &st.x_local, sched.as_mut(), &mut apply)?;
    let (loss, grad) = shard_loss(acts.logits(), &st.labels_local, b_global);
    // Global loss: the partials of one grid row sum to the global loss
    // (rows hold replicas), so a one-word all-reduce over the row group
    // gives every rank the same number — and doubles as a per-iteration
    // liveness probe of the row group.
    let mut lbuf = [loss];
    allreduce_ring_ft(&grid.row_comm, &mut lbuf, ReduceOp::Sum, &cfg.ft)?;
    step.backward(w, &acts, grad, sched.as_mut(), true, &mut apply)?;
    Ok(lbuf[0])
}

/// The state a committed recovery replaces atomically.
struct GridState {
    grid: Grid,
    members: Vec<usize>,
    w: Vec<Matrix>,
    v: Vec<Matrix>,
    x_local: Matrix,
    labels_local: Vec<usize>,
    iter: usize,
    /// Running FNV checksum over the weight shards, refreshed after
    /// every committed weight change. ABFT cannot see corruption of
    /// *resident* state (its checksums cover one GEMM), so the trainer
    /// audits `w` against this at every iteration start: a mismatch
    /// means a memory bit flip landed between iterations and escalates
    /// to rollback.
    wsum: u64,
}

impl GridState {
    /// This rank's state on a `pr × pc` grid over `comm`: row shards of
    /// the full weights and momentum (zeros when `full_v` is `None`),
    /// and its column shard of the batch.
    #[allow(clippy::too_many_arguments)]
    fn shard(
        comm: &Communicator,
        pr: usize,
        pc: usize,
        full_w: &[Matrix],
        full_v: Option<&[Matrix]>,
        x: &Matrix,
        labels: &[usize],
        iter: usize,
    ) -> Result<GridState, Error> {
        let grid = Grid::new(comm, pr, pc)?;
        let w: Vec<Matrix> = full_w.iter().map(|m| row_shard(m, pr, grid.i)).collect();
        let v = match full_v {
            Some(full_v) => full_v.iter().map(|m| row_shard(m, pr, grid.i)).collect(),
            None => w
                .iter()
                .map(|m| Matrix::zeros(m.rows(), m.cols()))
                .collect(),
        };
        Ok(GridState {
            members: comm.members().to_vec(),
            x_local: col_shard(x, pc, grid.j),
            labels_local: labels[part_range(x.cols(), pc, grid.j)].to_vec(),
            wsum: weights_checksum(&w),
            grid,
            w,
            v,
            iter,
        })
    }
}

/// Order-sensitive checksum over all weight shards.
fn weights_checksum(w: &[Matrix]) -> u64 {
    w.iter().fold(0xcbf2_9ce4_8422_2325, |h, m| {
        (h ^ checksum(m.as_slice())).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Applies scripted memory bit flips to the concatenated weight-shard
/// view: each flip targets word `index mod total_params`, advancing
/// past words already hit in this batch (mirrors
/// [`mpsim::apply_flips`], but across the shard list).
fn apply_memory_flips(w: &mut [Matrix], flips: &[BitFlip]) {
    let total: usize = w.iter().map(|m| m.len()).sum();
    if total == 0 {
        return;
    }
    let mut hit: Vec<usize> = Vec::new();
    for f in flips {
        let mut at = (f.index % total as u64) as usize;
        while hit.contains(&at) && hit.len() < total {
            at = (at + 1) % total;
        }
        hit.push(at);
        let mut rem = at;
        for m in w.iter_mut() {
            if rem < m.len() {
                let s = m.as_mut_slice();
                s[rem] = f64::from_bits(s[rem].to_bits() ^ (1u64 << f.bit));
                break;
            }
            rem -= m.len();
        }
    }
}

/// One recovery attempt (fallible part): shrink (or regrow, when
/// `dead` no longer contains re-admitted ranks), re-plan, redistribute
/// the agreed checkpoint, re-shard. Committed by the caller only after
/// a confirmation round. `old_members` is the last *committed* grid in
/// row-major order; `stateless` are live participants without state
/// (re-admitted rejoiners), who contribute nothing to redistribution
/// and must not be picked as checkpoint representatives.
#[allow(clippy::too_many_arguments)]
fn attempt_recovery(
    comm: &Communicator,
    epoch: u64,
    dead: &[usize],
    old_pr: usize,
    old_pc: usize,
    old_members: &[usize],
    stateless: &[usize],
    ck: &Checkpoint,
    layers: &[FcLayer],
    wlayers: &[WeightedLayer],
    x: &Matrix,
    labels: &[usize],
    cfg: &FtTrainConfig,
) -> Result<GridState, Error> {
    let my_global = comm.global_rank_of(comm.rank())?;
    let alive = comm.shrink_exclude(dead, epoch)?;
    let b_global = x.cols();

    // Representative holder of each old grid row's checkpoint shard
    // (rows are contiguous in the old member list: Grid::new is
    // row-major). A rank that died and was re-admitted within the same
    // recovery window is alive but stateless — never a representative.
    let mut reps = Vec::with_capacity(old_pr);
    for (i, row) in old_members.chunks(old_pc).enumerate() {
        match row
            .iter()
            .copied()
            .find(|g| !dead.contains(g) && !stateless.contains(g))
        {
            Some(g) => reps.push(g),
            None => {
                return Err(Error::CollectiveMismatch(format!(
                    "unrecoverable: no surviving replica of weight-shard row {i}"
                )))
            }
        }
    }
    // A joiner is not in the old member list and serves nothing.
    let my_old_i = old_members
        .iter()
        .position(|&g| g == my_global)
        .map(|p| p / old_pc);

    // Redistribute: each row's representative serves its checkpoint
    // shard; everyone assembles the full matrices (data plane, so the
    // cost lands on the virtual clock).
    let gather_full = |shards: &[Matrix], d_out: usize, d_in: usize, l: usize| {
        let mine: &[f64] = if my_old_i.is_some_and(|i| reps[i] == my_global) {
            shards[l].as_slice()
        } else {
            &[]
        };
        let blocks = allgatherv_ring_ft(&alive, mine, &cfg.ft)?;
        let mats: Vec<Matrix> = (0..old_pr)
            .map(|i| {
                let idx = alive
                    .members()
                    .iter()
                    .position(|&g| g == reps[i])
                    .expect("representative survives");
                let rows = part_range(d_out, old_pr, i).len();
                Matrix::from_vec(rows, d_in, blocks[idx].clone())
            })
            .collect();
        Ok::<Matrix, Error>(Matrix::vcat(&mats))
    };
    let mut full_w = Vec::with_capacity(layers.len());
    let mut full_v = Vec::with_capacity(layers.len());
    for (l, spec) in layers.iter().enumerate() {
        full_w.push(gather_full(&ck.w, spec.d_out, spec.d_in, l)?);
        if cfg.momentum != 0.0 {
            full_v.push(gather_full(&ck.v, spec.d_out, spec.d_in, l)?);
        }
    }

    // Re-plan with Eq. 8 and rebuild the grid over the survivors.
    let (npr, npc) = plan_grid(wlayers, b_global as f64, alive.size(), &cfg.machine);
    let full_v = (cfg.momentum != 0.0).then_some(&full_v[..]);
    GridState::shard(&alive, npr, npc, &full_w, full_v, x, labels, ck.iter)
}

/// How a rank enters the training loop: from scratch, or mid-run as a
/// revived rank armed with the survivors' welcome.
enum Entry {
    Fresh,
    Rejoin(Welcome),
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// One life of one rank: the round/train/recover loop. Returns when
/// training completes or the rank fails; a scripted death surfaces as
/// `RankFailed` on itself, which the caller may turn into a rejoin.
#[allow(clippy::too_many_arguments)]
fn run_rank(
    comm: &Communicator,
    entry: Entry,
    layers: &[FcLayer],
    wlayers: &[WeightedLayer],
    x: &Matrix,
    labels: &[usize],
    cfg: &FtTrainConfig,
    pr0: usize,
    pc0: usize,
) -> Result<FtRankOutcome, Error> {
    let my_global = comm.global_rank_of(comm.rank())?;
    let b_global = x.cols();

    // `member` is the committed grid state; `None` for a re-admitted
    // rank between its welcome and its first committed recovery. The
    // old view (last committed grid, row-major) is what recovery
    // redistributes from.
    let mut member: Option<GridState>;
    let mut ckpt_cur: Checkpoint;
    let mut ckpt_prev: Checkpoint;
    let mut losses: Vec<f64>;
    let mut excluded: Vec<usize>;
    let mut stateless: Vec<usize>;
    let mut aborted: bool;
    let mut old_view: (usize, usize, Vec<usize>);
    // A rejoiner enters mid-epoch: the survivors already ran the
    // agreement round that admitted it, so its first loop pass skips
    // straight to the recovery attempt.
    let mut in_recovery_epoch: bool;

    match entry {
        Entry::Fresh => {
            // Epoch-0 "shrink" of nothing: gives the training phase its
            // own context namespace, uniform with post-recovery grids.
            let alive0 = comm.shrink_exclude(&[], 0)?;
            let full_w = init_weights(layers, cfg.seed);
            let st = GridState::shard(&alive0, pr0, pc0, &full_w, None, x, labels, 0)?;
            ckpt_cur = Checkpoint {
                iter: 0,
                w: st.w.clone(),
                v: st.v.clone(),
            };
            ckpt_prev = ckpt_cur.clone();
            comm.record_checkpoint_words(ckpt_cur.words());
            comm.trace_instant(
                "trainer",
                "checkpoint",
                &[("iter", 0.0), ("words", ckpt_cur.words() as f64)],
            );
            old_view = (pr0, pc0, st.members.clone());
            member = Some(st);
            losses = Vec::new();
            excluded = Vec::new();
            stateless = Vec::new();
            aborted = false;
            in_recovery_epoch = false;
        }
        Entry::Rejoin(wlc) => {
            // Sync the protocol counters to the epoch the survivors
            // just entered, clear stale death records (everyone not in
            // the excluded set is live), then behave like any
            // live-but-stateless participant.
            comm.set_fault_epoch(wlc.epoch);
            comm.align_split_seq(wlc.epoch * 1000);
            comm.align_fault_sync_seq(wlc.seq);
            let live: Vec<usize> = (0..comm.size())
                .filter(|r| !wlc.excluded.contains(r))
                .collect();
            comm.readmit(&live);
            member = None;
            ckpt_cur = Checkpoint {
                iter: wlc.target,
                w: Vec::new(),
                v: Vec::new(),
            };
            ckpt_prev = ckpt_cur.clone();
            losses = wlc.losses;
            excluded = wlc.excluded;
            stateless = wlc.stateless;
            aborted = true;
            old_view = (wlc.old_pr, wlc.old_pc, wlc.old_members);
            in_recovery_epoch = true;
        }
    }

    let mut recoveries: Vec<RecoveryReport> = Vec::new();
    let mut iter_comm: Vec<f64> = Vec::new();
    let mut iter_wall: Vec<f64> = Vec::new();
    // Rollback target of the recovery epoch in flight (for a rejoiner,
    // the target its welcome carried).
    let mut ckpt_target: usize = ckpt_cur.iter;

    loop {
        // Unreachability records are a receive-side cache of observed
        // cuts, and the round-union admission can seed them with stale
        // entries: a rank whose clock is still behind the heal gets
        // pulled into the recovery epoch and its in-flight sends arrive
        // severed, so the receiver records the sender unreachable even
        // though the plan's cut is already over. The record then blanks
        // that peer's presence slot in `fault_sync`, keeping it out of
        // the fragment, so no round ever readmits it and the retry loop
        // livelocks with the clock frozen at the heal horizon. The plan
        // is the ground truth here: when `heal_ready` says the cut has
        // healed and the peer is alive, the record is stale — drop it
        // before the presence round so the peer can answer. Excluded
        // ranks are exempt: their re-admission flows through the
        // round-union `ready` vote, which needs the record intact for
        // `heal_ready` to nominate them.
        let stale: Vec<usize> = comm
            .known_unreachable()
            .iter()
            .map(|&(r, _)| r)
            .filter(|&r| comm.heal_ready(r) && !excluded.contains(&r))
            .collect();
        if !stale.is_empty() {
            comm.readmit(&stale);
        }

        let mut do_recovery = in_recovery_epoch;
        if !in_recovery_epoch {
            // --- agreement round (control plane, free in virtual time) ---
            // Re-admission is plan-driven for both exits: a scripted
            // rejoin after a kill, or a healed partition cut.
            let ready: Vec<usize> = excluded
                .iter()
                .copied()
                .filter(|&g| comm.rejoin_ready(g) || comm.heal_ready(g))
                .collect();
            let msg = RoundMsg {
                iter: losses.len(),
                last_ckpt: ckpt_cur.iter,
                aborted,
                has_state: member.is_some(),
                ready,
            };
            let round = comm.fault_sync(encode_round(&msg))?;
            let mut dead: Vec<usize> = Vec::new();
            let mut any_abort = false;
            let mut min_ckpt = usize::MAX;
            let mut admit: Vec<usize> = Vec::new();
            for (slot_idx, slot) in round.iter().enumerate() {
                match slot {
                    None => dead.push(comm.members()[slot_idx]),
                    Some(bytes) => {
                        let m = decode_round(bytes);
                        any_abort |= m.aborted;
                        if m.has_state {
                            min_ckpt = min_ckpt.min(m.last_ckpt);
                        }
                        for g in m.ready {
                            if !admit.contains(&g) {
                                admit.push(g);
                            }
                        }
                    }
                }
            }
            admit.sort_unstable();
            let newly_dead = dead.iter().any(|g| !excluded.contains(g));
            do_recovery = newly_dead || any_abort || !admit.is_empty();

            // --- echo round: bidirectional-fragment agreement ---
            // Every live rank echoes who it heard in the presence round.
            // A peer belongs to this rank's fragment only if traffic
            // flows *both* ways: its message arrived here, and its echo
            // proves this rank's message arrived there. One-way cuts
            // (a rank that can hear but not be heard) thereby resolve to
            // the same verdict on both sides. The round runs
            // unconditionally — conditioning it on the presence verdict
            // would desynchronize the SPMD round counters under
            // asymmetric cuts.
            let heard: Vec<usize> = round
                .iter()
                .enumerate()
                .filter_map(|(idx, s)| s.as_ref().map(|_| comm.members()[idx]))
                .collect();
            let echo = comm.fault_sync(encode_echo(&heard))?;
            let mut fragment: Vec<usize> = Vec::new();
            for (slot_idx, slot) in echo.iter().enumerate() {
                let g = comm.members()[slot_idx];
                if g == my_global {
                    fragment.push(g);
                } else if let Some(bytes) = slot {
                    if heard.contains(&g) && decode_echo(bytes).contains(&my_global) {
                        fragment.push(g);
                    }
                }
            }

            // --- verdict round: fragment closure ---
            // The echo round settles each *pair*, but when a partition
            // activates in the middle of the round the per-sender
            // clocks disagree about whether the cut exists yet: a
            // message that departed just before its sender's clock hit
            // the cut start crosses a link that severs everyone else's.
            // The resulting reachability graph is not transitive, and
            // ranks would commit to overlapping-but-different fragments
            // — then deadlock in the redistribution, each waiting on a
            // participant the other side excluded. So every rank echoes
            // the fragment it computed, and commits only if every
            // member of its fragment computed exactly the same one.
            // Anything else is an inconclusive round: nudge the clock
            // past the activation edge and re-run the agreement. The
            // nudge is what guarantees convergence — the control plane
            // is free in virtual time, so without it the retry would
            // replay the same instant (and the same verdict) forever.
            let verdict = comm.fault_sync(encode_echo(&fragment))?;
            let consistent = fragment.iter().all(|&g| {
                g == my_global
                    || comm
                        .members()
                        .iter()
                        .position(|&m| m == g)
                        .and_then(|idx| verdict[idx].as_ref())
                        .is_some_and(|bytes| decode_echo(bytes) == fragment)
            });
            if !consistent {
                comm.advance_compute(4.0 * cfg.machine.alpha);
                aborted = true;
                continue;
            }

            // A peer inside the fragment answered the presence round
            // and echoed this rank back — traffic flows both ways — so
            // any unreachability record this rank still holds for it is
            // stale: typically a severed tombstone from a sender whose
            // clock was still behind the heal when the round-union
            // admission pulled it into a recovery epoch. Left in place,
            // the record insta-fails every receive from that peer and
            // the retry loop livelocks (the epoch counter climbs while
            // the clock stands still). Clearing is a local decision:
            // the record, like the echo verdict, is per-rank state.
            let stale: Vec<usize> = comm
                .known_unreachable()
                .iter()
                .map(|&(r, _)| r)
                .filter(|r| fragment.contains(r))
                .collect();
            if !stale.is_empty() {
                comm.readmit(&stale);
            }

            // --- quorum rule: split-brain safety ---
            // The fragment keeps training only if it holds a majority of
            // the last-committed membership (deterministic tie-break on
            // the lowest member). A minority fragment parks: it keeps
            // its checkpoints, performs no weight update and no Eq. 8
            // shrink, goes silent behind a Parked marker, and waits at
            // the heal horizon for the majority's welcome.
            let membership = &old_view.2;
            let won = mpsim::has_quorum(&fragment, membership);
            if fragment.len() < membership.len() || !won {
                comm.trace_instant(
                    "quorum",
                    "verdict",
                    &[
                        ("fragment", fragment.len() as f64),
                        ("members", membership.len() as f64),
                        ("won", won as u8 as f64),
                    ],
                );
            }
            if !won {
                // Park fast-forwards to the heal horizon (when finite).
                // The caller inspects the plan: a healed cut turns this
                // into a welcome-wait + rejoin; one that never heals
                // propagates the error.
                let _ = comm.park()?;
                return Err(Error::Unreachable { rank: my_global });
            }

            if do_recovery {
                // --- open a new recovery epoch ---
                excluded = dead
                    .iter()
                    .copied()
                    .filter(|g| !admit.contains(g))
                    .collect();
                comm.advance_fault_epoch();
                let epoch = comm.fault_epoch();
                comm.align_split_seq(epoch * 1000);
                ckpt_target = min_ckpt;
                if !admit.is_empty() {
                    comm.readmit(&admit);
                    for &g in &admit {
                        if !stateless.contains(&g) {
                            stateless.push(g);
                        }
                    }
                    stateless.sort_unstable();
                    // Welcome the admitted ranks into this epoch. All
                    // fields are common knowledge, so every sender's
                    // bytes are identical and the real-time race over
                    // which copy a rejoiner consumes is harmless.
                    let wbytes = encode_welcome(&Welcome {
                        epoch,
                        seq: comm.fault_sync_seq(),
                        target: ckpt_target,
                        old_pr: old_view.0,
                        old_pc: old_view.1,
                        excluded: excluded.clone(),
                        stateless: stateless.clone(),
                        old_members: old_view.2.clone(),
                        losses: losses.clone(),
                    });
                    for &g in &admit {
                        comm.send_control(g, WELCOME_TAG, wbytes.clone())?;
                    }
                }
            }
        }
        in_recovery_epoch = false;

        if do_recovery {
            // --- recovery attempt (transactional) ---
            let t0 = comm.now();
            let epoch = comm.fault_epoch();
            let target = ckpt_target;
            let _rec = comm.trace_span("trainer", "recovery", &[("epoch", epoch as f64)]);
            comm.trace_instant("trainer", "rollback", &[("target_iter", target as f64)]);
            let ck = if member.is_some() {
                if ckpt_cur.iter == target {
                    ckpt_cur.clone()
                } else {
                    assert_eq!(
                        ckpt_prev.iter, target,
                        "rollback target must be one of the two retained checkpoints"
                    );
                    ckpt_prev.clone()
                }
            } else {
                // A stateless joiner serves nothing and receives
                // everything in the redistribution.
                Checkpoint {
                    iter: target,
                    w: Vec::new(),
                    v: Vec::new(),
                }
            };
            let attempt = attempt_recovery(
                comm,
                epoch,
                &excluded,
                old_view.0,
                old_view.1,
                &old_view.2,
                &stateless,
                &ck,
                layers,
                wlayers,
                x,
                labels,
                cfg,
            );
            let ok = match &attempt {
                Ok(_) => true,
                Err(e) if recoverable(e, my_global) => false,
                // An unrecoverable verdict is derived from common
                // knowledge, so every survivor returns it together.
                Err(e) => return Err(e.clone()),
            };
            // --- confirmation round: commit only if every participant
            // succeeded and nobody died meanwhile ---
            let confirm = comm.fault_sync(vec![ok as u8])?;
            let all_ok = confirm.iter().enumerate().all(|(slot_idx, slot)| {
                let g = comm.members()[slot_idx];
                match slot {
                    Some(b) => b == &[1],
                    None => excluded.contains(&g),
                }
            });
            comm.record_recovery_secs(comm.now() - t0);
            if all_ok {
                let new_state = attempt.expect("ok implies state");
                let (npr, npc) = (new_state.grid.pr, new_state.grid.pc);
                let rejoined = stateless.clone();
                ckpt_cur = Checkpoint {
                    iter: new_state.iter,
                    w: new_state.w.clone(),
                    v: new_state.v.clone(),
                };
                ckpt_prev = ckpt_cur.clone();
                losses.truncate(new_state.iter);
                old_view = (
                    new_state.grid.pr,
                    new_state.grid.pc,
                    new_state.members.clone(),
                );
                member = Some(new_state);
                iter_comm.clear();
                iter_wall.clear();
                stateless.clear();
                aborted = false;
                recoveries.push(RecoveryReport {
                    epoch,
                    rollback_iter: target,
                    dead: excluded.clone(),
                    rejoined,
                    pr: npr,
                    pc: npc,
                    measured_secs: comm.now() - t0,
                    comm_wait_secs: comm.stats().comm_wait_secs,
                    analytic_comm_per_iter: integrated_model_batch(
                        wlayers,
                        b_global as f64,
                        npr,
                        npc,
                    )
                    .seconds(&cfg.machine),
                });
            } else {
                aborted = true;
            }
            continue;
        }

        let st = member
            .as_mut()
            .expect("a stateless rank always re-enters recovery");
        if st.iter >= cfg.iters {
            break;
        }

        // --- one training iteration ---
        // Communication per iteration is the growth of *transfer* time
        // (blocking receives plus the overlap channel), not of the
        // clock's `comm` component: the latter also absorbs time the
        // rank spends idle at a deadline or waiting out a straggler, so
        // using it would report whole-step time as communication.
        let comm_tally = |c: &mpsim::Communicator| {
            let s = c.stats();
            s.transfer_secs + s.channel_secs
        };
        let comm_before = comm_tally(comm);
        let wall_before = comm.now();
        // --- silent-data-corruption pre-checks ---
        // Scripted memory bit flips land on the resident weight shards
        // between iterations (injected whether or not ABFT is on); the
        // weight audit then compares against the running checksum —
        // ABFT's GEMM checksums cannot see resident-state corruption,
        // so a mismatch escalates straight to rollback. The audit read
        // is charged to the virtual clock (one op per weight word).
        let pre = {
            let flips = comm.take_memory_flips(st.iter as u64);
            if !flips.is_empty() {
                apply_memory_flips(&mut st.w, &flips);
            }
            if cfg.abft {
                let words: usize = st.w.iter().map(|m| m.len()).sum();
                comm.advance_flops(words as f64);
                if weights_checksum(&st.w) != st.wsum {
                    let ctx = FaultCtx {
                        iter: st.iter as u64,
                        op: 0,
                    };
                    comm.record_corrupt_recovered(ctx.iter, ctx.op);
                    let _ = comm.send_abort(my_global);
                    Err(Error::SilentCorruption {
                        rank: my_global,
                        what: "weights",
                        ctx: Some(ctx),
                    })
                } else {
                    Ok(())
                }
            } else {
                Ok(())
            }
        };
        match pre.and_then(|_| run_iteration(st, layers, b_global, cfg)) {
            Ok(global_loss) => {
                losses.push(global_loss);
                st.iter += 1;
                st.wsum = weights_checksum(&st.w);
                iter_comm.push(comm_tally(comm) - comm_before);
                iter_wall.push(comm.now() - wall_before);
                if st.iter % cfg.ckpt_every == 0 && st.iter < cfg.iters {
                    ckpt_prev = ckpt_cur;
                    ckpt_cur = Checkpoint {
                        iter: st.iter,
                        w: st.w.clone(),
                        v: st.v.clone(),
                    };
                    comm.record_checkpoint_words(ckpt_cur.words());
                    comm.trace_instant(
                        "trainer",
                        "checkpoint",
                        &[("iter", st.iter as f64), ("words", ckpt_cur.words() as f64)],
                    );
                }
            }
            Err(e) if recoverable(&e, my_global) => aborted = true,
            Err(e) => return Err(e),
        }
    }

    let st = member.expect("loop exits only with committed state");
    Ok(FtRankOutcome {
        i: st.grid.i,
        j: st.grid.j,
        pr: st.grid.pr,
        pc: st.grid.pc,
        losses,
        weight_shards: st.w,
        recoveries,
        comm_secs_per_iter: mean(&iter_comm),
        step_secs_per_iter: mean(&iter_wall),
    })
}

/// Fault-tolerant distributed SGD on an initial `pr × pc` grid under a
/// [`FaultPlan`]. With an inactive plan this computes exactly the same
/// trajectory as [`crate::trainer::train_1p5d`] (for `momentum = 0`).
///
/// Membership is **elastic**: a rank killed by the plan that also has a
/// scripted [`FaultPlan::rejoin`] revives at its rejoin time, announces
/// itself, and is re-admitted at the next fault-epoch boundary — the
/// survivors re-plan the grid over the enlarged member set with Eq. 8
/// (regrowing toward the original extents), redistribute checkpoint
/// state to it, and training replays from the agreed checkpoint.
pub fn train_1p5d_ft(
    net: &Network,
    x: &Matrix,
    labels: &[usize],
    cfg: &FtTrainConfig,
    pr: usize,
    pc: usize,
    plan: FaultPlan,
) -> FtDistResult {
    train_1p5d_ft_traced(net, x, labels, cfg, pr, pc, plan, TraceConfig::disabled()).0
}

/// [`train_1p5d_ft`] with per-rank event tracing: the returned
/// [`WorldTrace`] shows fault instants (drops, corruption, deaths),
/// `recovery`/`rollback`/`checkpoint` trainer events, and dead-gap
/// spans for revived ranks alongside the usual compute/comm timeline.
#[allow(clippy::too_many_arguments)]
pub fn train_1p5d_ft_traced(
    net: &Network,
    x: &Matrix,
    labels: &[usize],
    cfg: &FtTrainConfig,
    pr: usize,
    pc: usize,
    plan: FaultPlan,
    trace: TraceConfig,
) -> (FtDistResult, WorldTrace) {
    assert!(cfg.ckpt_every >= 1, "checkpoint period must be >= 1");
    let layers = extract_fc_layers(net);
    let wlayers = net.weighted_layers();
    let model = cfg.machine.net_model();
    let (per_rank, stats, traces) = World::run_faults_traced(pr * pc, model, plan, trace, |comm| {
        let my_global = comm.global_rank_of(comm.rank())?;
        let mut entry = Entry::Fresh;
        loop {
            match run_rank(comm, entry, &layers, &wlayers, x, labels, cfg, pr, pc) {
                // A scripted death with a scripted rejoin: revive at
                // the rejoin time, wait for the survivors' welcome,
                // and re-enter the loop stateless.
                Err(Error::RankFailed { rank }) if rank == my_global && comm.revive().is_some() => {
                    entry = Entry::Rejoin(wait_welcome(comm)?);
                }
                // A parked minority fragment: `run_rank` already
                // fast-forwarded to the heal horizon inside
                // `Communicator::park`. If the cut heals, wait for the
                // majority's welcome and re-enter stateless (the park
                // kept checkpoints, but the majority may have re-planned
                // the grid arbitrarily in between). A cut that never
                // heals leaves the rank permanently outside — surface
                // the error.
                Err(Error::Unreachable { rank }) if rank == my_global => {
                    match comm.heal_horizon() {
                        Some(h) if h.is_infinite() => return Err(Error::Unreachable { rank }),
                        _ => entry = Entry::Rejoin(wait_welcome(comm)?),
                    }
                }
                other => return other,
            }
        }
    });
    (
        FtDistResult {
            pr0: pr,
            pc0: pc,
            per_rank,
            stats,
        },
        traces,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::{synthetic_data, train_1p5d, TrainConfig};
    use dnn::zoo::mlp_tiny;

    fn cfg(iters: usize) -> FtTrainConfig {
        FtTrainConfig {
            lr: 0.3,
            iters,
            seed: 7,
            ckpt_every: 2,
            ft: FtConfig::fixed(10.0).with_attempts(2).with_backoff(0.5),
            machine: MachineModel::cori_knl(),
            ..FtTrainConfig::default()
        }
    }

    fn max_weight_diff(a: &[Matrix], b: &[Matrix]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| x.max_abs_diff(y))
            .fold(0.0, f64::max)
    }

    #[test]
    fn fault_free_run_matches_plain_trainer_exactly() {
        let net = mlp_tiny();
        let (x, labels) = synthetic_data(&net, 24, 5);
        let c = cfg(6);
        let plain = train_1p5d(
            &net,
            &x,
            &labels,
            &TrainConfig {
                lr: c.lr,
                iters: c.iters,
                seed: c.seed,
            },
            2,
            3,
            c.machine.net_model(),
        );
        let ft = train_1p5d_ft(&net, &x, &labels, &c, 2, 3, FaultPlan::default());
        assert_eq!(ft.survivors().len(), 6);
        assert!(max_weight_diff(&plain.weights(), &ft.weights()) < 1e-12);
        for (a, b) in plain.losses().iter().zip(ft.losses()) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
        assert!(ft.stats.total_ckpt_words() > 0, "checkpoints were recorded");
        assert_eq!(ft.stats.max_recovery_secs(), 0.0, "no recovery happened");
    }

    #[test]
    fn corruption_rolls_back_and_replays_to_the_same_result() {
        let net = mlp_tiny();
        let (x, labels) = synthetic_data(&net, 24, 5);
        let c = cfg(6);
        let clean = train_1p5d_ft(&net, &x, &labels, &c, 2, 3, FaultPlan::default());
        // Flip a bit in a data message between two grid neighbours a
        // few iterations in.
        let plan = FaultPlan::new(9).corrupt_nth(1, 2, 40);
        let faulty = train_1p5d_ft(&net, &x, &labels, &c, 2, 3, plan);
        assert_eq!(faulty.survivors().len(), 6, "nobody died");
        assert_eq!(faulty.stats.total_corrupt_detected(), 1);
        assert!(faulty.stats.total_aborts() >= 1);
        assert!(
            faulty.stats.max_recovery_secs() > 0.0,
            "rollback was charged"
        );
        // The corrupt payload was discarded, training replayed, and the
        // trajectory is unchanged.
        assert!(max_weight_diff(&clean.weights(), &faulty.weights()) < 1e-12);
        assert_eq!(clean.losses(), faulty.losses());
        let r = &faulty.survivors()[0].recoveries;
        assert_eq!(r.len(), 1);
        assert_eq!(
            (r[0].pr, r[0].pc),
            (2, 3),
            "no shrink for a transient fault"
        );
    }

    #[test]
    fn killed_rank_triggers_shrink_and_training_finishes() {
        let net = mlp_tiny();
        let (x, labels) = synthetic_data(&net, 24, 5);
        let c = cfg(6);
        let clean = train_1p5d_ft(&net, &x, &labels, &c, 2, 3, FaultPlan::default());
        // Rank 4 dies mid-run (virtual time chosen inside training).
        let t_mid = clean.stats.makespan() * 0.5;
        let plan = FaultPlan::new(3).kill(4, t_mid);
        let faulty = train_1p5d_ft(&net, &x, &labels, &c, 2, 3, plan);
        assert!(
            faulty.per_rank[4].is_err(),
            "the killed rank reports failure"
        );
        let survivors = faulty.survivors();
        assert_eq!(survivors.len(), 5);
        let s = survivors[0];
        assert_eq!(s.recoveries.len(), 1);
        assert_eq!(s.recoveries[0].dead, vec![4]);
        assert_eq!(s.pr * s.pc, 5, "all five survivors form the new grid");
        assert_eq!(s.losses.len(), c.iters, "training completed after recovery");
        // Synchronous SGD replayed from a checkpoint: same trajectory
        // up to reduction-order noise on the reshaped grid.
        for (a, b) in clean.losses().iter().zip(s.losses.iter()) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
        assert!(faulty.stats.total_failures_detected() > 0);
        assert!(faulty.stats.max_recovery_secs() > 0.0);
    }

    #[test]
    fn overlap_fault_free_matches_blocking_ft_trainer() {
        let net = mlp_tiny();
        let (x, labels) = synthetic_data(&net, 24, 5);
        for momentum in [0.0, 0.9] {
            let c = FtTrainConfig { momentum, ..cfg(6) };
            let blocking = train_1p5d_ft(&net, &x, &labels, &c, 2, 3, FaultPlan::default());
            let oc = FtTrainConfig { overlap: true, ..c };
            let over = train_1p5d_ft(&net, &x, &labels, &oc, 2, 3, FaultPlan::default());
            assert_eq!(over.survivors().len(), 6);
            // Bucketed fused all-reduces change the reduction order by
            // at most a few ulps per step.
            assert!(max_weight_diff(&blocking.weights(), &over.weights()) < 1e-9);
            for (a, b) in blocking.losses().iter().zip(over.losses()) {
                assert!((a - b).abs() < 1e-9, "{a} vs {b}");
            }
            let (_, _, nb_ar, _) = over.stats.total_collective_calls();
            assert!(nb_ar > 0, "overlap path used non-blocking all-reduces");
        }
    }

    #[test]
    fn overlap_corruption_rolls_back_and_replays_to_the_same_result() {
        let net = mlp_tiny();
        let (x, labels) = synthetic_data(&net, 24, 5);
        let c = FtTrainConfig {
            overlap: true,
            ..cfg(6)
        };
        let clean = train_1p5d_ft(&net, &x, &labels, &c, 2, 3, FaultPlan::default());
        // Bucketing fuses the per-layer ∆W all-reduces, so this link
        // carries fewer (larger) messages than in the blocking run —
        // corrupt an earlier one.
        let plan = FaultPlan::new(9).corrupt_nth(1, 2, 20);
        let faulty = train_1p5d_ft(&net, &x, &labels, &c, 2, 3, plan);
        assert_eq!(faulty.survivors().len(), 6, "nobody died");
        assert_eq!(faulty.stats.total_corrupt_detected(), 1);
        assert!(faulty.stats.total_aborts() >= 1);
        assert!(max_weight_diff(&clean.weights(), &faulty.weights()) < 1e-12);
        assert_eq!(clean.losses(), faulty.losses());
        let r = &faulty.survivors()[0].recoveries;
        assert_eq!(r.len(), 1);
        assert!(
            r[0].comm_wait_secs.is_finite() && r[0].comm_wait_secs >= 0.0,
            "exposed drain wait recorded at recovery"
        );
    }

    #[test]
    fn abft_run_is_bit_identical_to_undefended_on_clean_machines() {
        // Verification only reads: with no faults, the whole training
        // trajectory is bit-identical with ABFT on or off. Only the
        // virtual clock differs (checksum FLOPs are charged).
        let net = mlp_tiny();
        let (x, labels) = synthetic_data(&net, 24, 5);
        let off = train_1p5d_ft(&net, &x, &labels, &cfg(6), 2, 3, FaultPlan::default());
        let c_on = FtTrainConfig {
            abft: true,
            ..cfg(6)
        };
        let on = train_1p5d_ft(&net, &x, &labels, &c_on, 2, 3, FaultPlan::default());
        assert_eq!(max_weight_diff(&off.weights(), &on.weights()), 0.0);
        assert_eq!(off.losses(), on.losses());
        assert_eq!(on.stats.total_corrupt_detected(), 0);
        assert!(
            on.stats.makespan() > off.stats.makespan(),
            "ABFT overhead lands on the virtual clock"
        );
    }

    #[test]
    fn abft_corrects_compute_flip_with_zero_rollbacks() {
        let net = mlp_tiny();
        let (x, labels) = synthetic_data(&net, 24, 5);
        let c = FtTrainConfig {
            abft: true,
            ..cfg(6)
        };
        let clean = train_1p5d_ft(&net, &x, &labels, &c, 2, 3, FaultPlan::default());
        // One high mantissa bit in rank 3's layer-1 forward GEMM output
        // at iteration 2.
        let plan = FaultPlan::new(13).bitflip_compute(3, 2, 1, 51);
        let faulty = train_1p5d_ft(&net, &x, &labels, &c, 2, 3, plan);
        assert_eq!(faulty.survivors().len(), 6);
        assert_eq!(faulty.stats.total_bitflips_compute(), 1, "flip injected");
        assert_eq!(
            faulty.stats.total_corrupt_corrected(),
            1,
            "repaired in place"
        );
        assert_eq!(faulty.stats.total_corrupt_recovered(), 0);
        assert_eq!(faulty.stats.total_aborts(), 0, "no escalation");
        assert_eq!(
            faulty.stats.max_recovery_secs(),
            0.0,
            "zero checkpoint restores"
        );
        assert!(faulty.survivors()[0].recoveries.is_empty());
        // Correction recomputes the exact kernel output: the entire
        // trajectory is bit-identical to the fault-free run.
        assert_eq!(max_weight_diff(&clean.weights(), &faulty.weights()), 0.0);
        assert_eq!(clean.losses(), faulty.losses());
    }

    #[test]
    fn multi_element_gemm_flip_escalates_to_rollback() {
        let net = mlp_tiny();
        let (x, labels) = synthetic_data(&net, 24, 5);
        let c = FtTrainConfig {
            abft: true,
            ..cfg(6)
        };
        let clean = train_1p5d_ft(&net, &x, &labels, &c, 2, 3, FaultPlan::default());
        // Two flips on the same GEMM: the 1×1 location pattern fails,
        // so ABFT cannot correct and must escalate.
        let plan = FaultPlan::new(13)
            .bitflip_compute(1, 3, 0, 50)
            .bitflip_compute(1, 3, 0, 53);
        let faulty = train_1p5d_ft(&net, &x, &labels, &c, 2, 3, plan);
        assert_eq!(faulty.survivors().len(), 6, "nobody died");
        assert_eq!(faulty.stats.total_bitflips_compute(), 2);
        assert_eq!(faulty.stats.total_corrupt_corrected(), 0);
        assert_eq!(faulty.stats.total_corrupt_recovered(), 1, "escalated once");
        assert!(faulty.stats.total_aborts() >= 1);
        assert!(faulty.stats.max_recovery_secs() > 0.0, "rollback charged");
        let r = &faulty.survivors()[0].recoveries;
        assert_eq!(r.len(), 1);
        assert_eq!((r[0].pr, r[0].pc), (2, 3), "transient fault: no shrink");
        // Replay from the checkpoint is exact.
        assert_eq!(max_weight_diff(&clean.weights(), &faulty.weights()), 0.0);
        assert_eq!(clean.losses(), faulty.losses());
    }

    #[test]
    fn memory_flip_triggers_weight_audit_rollback() {
        let net = mlp_tiny();
        let (x, labels) = synthetic_data(&net, 24, 5);
        let c = FtTrainConfig {
            abft: true,
            ..cfg(6)
        };
        let clean = train_1p5d_ft(&net, &x, &labels, &c, 2, 3, FaultPlan::default());
        // A bit flips in rank 2's resident weights before iteration 3.
        let plan = FaultPlan::new(13).bitflip_memory(2, 3, 1234, 48);
        let faulty = train_1p5d_ft(&net, &x, &labels, &c, 2, 3, plan);
        assert_eq!(faulty.survivors().len(), 6, "nobody died");
        assert_eq!(faulty.stats.total_bitflips_memory(), 1, "flip injected");
        assert_eq!(
            faulty.stats.total_corrupt_recovered(),
            1,
            "weight audit escalated"
        );
        assert_eq!(faulty.stats.total_corrupt_corrected(), 0);
        assert!(faulty.stats.max_recovery_secs() > 0.0, "rollback charged");
        assert_eq!(faulty.survivors()[0].recoveries.len(), 1);
        // The corrupted shard was discarded for checkpoint state and
        // the replay (spend-once flips) is clean.
        assert_eq!(max_weight_diff(&clean.weights(), &faulty.weights()), 0.0);
        assert_eq!(clean.losses(), faulty.losses());
    }

    #[test]
    fn flips_without_abft_silently_diverge() {
        // The known-bad control: same faults, defense off — training
        // completes with no detection and a different trajectory. This
        // is exactly what the chaos oracle's no-silent-divergence
        // invariant flags.
        let net = mlp_tiny();
        let (x, labels) = synthetic_data(&net, 24, 5);
        let c = cfg(6); // abft: false
        let clean = train_1p5d_ft(&net, &x, &labels, &c, 2, 3, FaultPlan::default());
        let plan = FaultPlan::new(13).bitflip_compute(3, 2, 1, 51);
        let faulty = train_1p5d_ft(&net, &x, &labels, &c, 2, 3, plan);
        assert_eq!(faulty.survivors().len(), 6, "run completes normally");
        assert_eq!(faulty.stats.total_bitflips_compute(), 1);
        assert_eq!(faulty.stats.total_corrupt_detected(), 0, "nobody noticed");
        assert_eq!(faulty.stats.max_recovery_secs(), 0.0, "no rollback either");
        assert!(
            max_weight_diff(&clean.weights(), &faulty.weights()) > 0.0,
            "weights silently diverged"
        );
    }

    #[test]
    fn back_to_back_corruption_replays_twice_to_loss_parity() {
        // Two payload corruptions in consecutive iterations: each must
        // trigger its own rollback, and the doubly-replayed trajectory
        // must still match the clean run.
        let net = mlp_tiny();
        let (x, labels) = synthetic_data(&net, 24, 5);
        let c = cfg(6);
        let clean = train_1p5d_ft(&net, &x, &labels, &c, 2, 3, FaultPlan::default());
        // nth=40 lands in iteration ~3 (see
        // corruption_rolls_back_and_replays_to_the_same_result);
        // nth=100 hits the link again one committed iteration after the
        // first replay, forcing a second, distinct rollback.
        let plan = FaultPlan::new(9)
            .corrupt_nth(1, 2, 40)
            .corrupt_nth(1, 2, 100);
        let faulty = train_1p5d_ft(&net, &x, &labels, &c, 2, 3, plan);
        assert_eq!(faulty.survivors().len(), 6, "nobody died");
        assert_eq!(faulty.stats.total_corrupt_detected(), 2);
        assert_eq!(faulty.stats.total_corrupt_recovered(), 2, "both escalated");
        let r = &faulty.survivors()[0].recoveries;
        assert_eq!(r.len(), 2, "two distinct rollbacks");
        assert!(
            r[0].rollback_iter < r[1].rollback_iter,
            "the second fault hit after the first replay committed"
        );
        assert!(max_weight_diff(&clean.weights(), &faulty.weights()) < 1e-12);
        for (a, b) in clean.losses().iter().zip(faulty.losses()) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn plan_bucket_words_threads_through_to_flush_count() {
        // Satellite (b): FtTrainConfig.plan.bucket_words replaces the
        // old hardcoded bucket size. A tiny cap must fuse fewer grads
        // per bucket and hence launch more non-blocking all-reduces.
        let net = mlp_tiny();
        let (x, labels) = synthetic_data(&net, 24, 5);
        let base = FtTrainConfig {
            overlap: true,
            ..cfg(4)
        };
        let tiny = FtTrainConfig {
            plan: OverlapPlan {
                bucket_words: 16,
                ..base.plan
            },
            ..base
        };
        let big = train_1p5d_ft(&net, &x, &labels, &base, 2, 3, FaultPlan::default());
        let small = train_1p5d_ft(&net, &x, &labels, &tiny, 2, 3, FaultPlan::default());
        let (_, _, nb_big, _) = big.stats.total_collective_calls();
        let (_, _, nb_small, _) = small.stats.total_collective_calls();
        assert!(
            nb_small > nb_big,
            "16-word buckets should flush more often ({nb_small} vs {nb_big})"
        );
        // Bucket size only changes fusion, not the math.
        assert!(max_weight_diff(&big.weights(), &small.weights()) < 1e-9);
    }

    #[test]
    fn prefetch_ft_run_matches_blocking_forward() {
        // Pipelined forward all-gathers re-associate the row-sum by
        // ring-arrival order: same trajectory up to a few ulps.
        let net = mlp_tiny();
        let (x, labels) = synthetic_data(&net, 24, 5);
        let base = FtTrainConfig {
            overlap: true,
            ..cfg(6)
        };
        let pf = FtTrainConfig {
            plan: OverlapPlan {
                fwd_prefetch: true,
                dx_overlap: true,
                ..base.plan
            },
            ..base
        };
        let blocking = train_1p5d_ft(&net, &x, &labels, &base, 2, 3, FaultPlan::default());
        let over = train_1p5d_ft(&net, &x, &labels, &pf, 2, 3, FaultPlan::default());
        assert_eq!(over.survivors().len(), 6);
        assert!(max_weight_diff(&blocking.weights(), &over.weights()) < 1e-9);
        for (a, b) in blocking.losses().iter().zip(over.losses()) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
        let (_, _, _, nb_ag) = over.stats.total_collective_calls();
        assert!(nb_ag > 0, "prefetch path launched non-blocking all-gathers");
    }

    #[test]
    fn abft_silently_disables_forward_prefetch() {
        // ABFT checksum verification needs the whole gathered operand
        // before the GEMM, so prefetch is gated off: an abft run with
        // fwd_prefetch requested is bit-identical to one without.
        let net = mlp_tiny();
        let (x, labels) = synthetic_data(&net, 24, 5);
        let plain = FtTrainConfig {
            overlap: true,
            abft: true,
            ..cfg(4)
        };
        let pf = FtTrainConfig {
            plan: OverlapPlan {
                fwd_prefetch: true,
                ..plain.plan
            },
            ..plain
        };
        let a = train_1p5d_ft(&net, &x, &labels, &plain, 2, 3, FaultPlan::default());
        let b = train_1p5d_ft(&net, &x, &labels, &pf, 2, 3, FaultPlan::default());
        assert_eq!(max_weight_diff(&a.weights(), &b.weights()), 0.0);
        assert_eq!(a.losses(), b.losses());
        assert_eq!(
            a.stats.makespan(),
            b.stats.makespan(),
            "gated prefetch leaves the virtual clock untouched"
        );
    }

    #[test]
    fn dx_overlap_ft_is_bit_identical_and_survives_corruption() {
        // ∆X overlap reorders only the launch, not the arithmetic.
        let net = mlp_tiny();
        let (x, labels) = synthetic_data(&net, 24, 5);
        let base = FtTrainConfig {
            overlap: true,
            ..cfg(6)
        };
        let dx = FtTrainConfig {
            plan: OverlapPlan {
                dx_overlap: true,
                ..base.plan
            },
            ..base
        };
        let a = train_1p5d_ft(&net, &x, &labels, &base, 2, 3, FaultPlan::default());
        let b = train_1p5d_ft(&net, &x, &labels, &dx, 2, 3, FaultPlan::default());
        assert_eq!(max_weight_diff(&a.weights(), &b.weights()), 0.0);
        assert_eq!(a.losses(), b.losses());
        // And the rollback machinery still recovers a corrupted payload
        // with the reordered message sequence.
        let plan = FaultPlan::new(9).corrupt_nth(1, 2, 20);
        let faulty = train_1p5d_ft(&net, &x, &labels, &dx, 2, 3, plan);
        assert_eq!(faulty.survivors().len(), 6);
        assert_eq!(faulty.stats.total_corrupt_detected(), 1);
        assert!(max_weight_diff(&b.weights(), &faulty.weights()) < 1e-12);
    }

    #[test]
    fn plan_grid_prefers_integrated_over_pure_batch_for_big_weights() {
        // A weight-heavy stack: Eq. 8 favours pr > 1 (the ∆W all-reduce
        // shrinks by pr).
        let net = dnn::zoo::mlp("m", &[64, 256, 256, 10]);
        let wl = net.weighted_layers();
        let (pr, pc) = plan_grid(&wl, 16.0, 8, &MachineModel::cori_knl());
        assert_eq!(pr * pc, 8);
        assert!(
            pr > 1,
            "weight-heavy nets want model parallelism, got {pr}x{pc}"
        );
    }
}
