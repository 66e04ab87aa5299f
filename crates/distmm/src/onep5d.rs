//! The 1.5D integrated model+batch algorithm (the paper's Fig. 5).
//!
//! Processes form a logical `Pr × Pc` grid. Rank `(i, j)`:
//!
//! * holds row shard `W_i` of every weight matrix — so `W` is
//!   replicated `Pc` times (once per grid column), and
//! * holds column shard `X_j` / `Y_j` of the activations — so data is
//!   replicated `Pr` times (once per grid row).
//!
//! Per layer:
//!
//! * **forward**: local `W_i·X_j`, then all-gather over the `Pr`-sized
//!   column groups to assemble `Y_j`;
//! * **`∆W`**: local `∆Y_{i,j}·X_jᵀ`, then all-reduce over the
//!   `Pc`-sized row groups (sum over batch shards) — the volume is
//!   `|W|/Pr` per process, the paper's key saving over Eq. 4;
//! * **`∆X`**: local `W_iᵀ·∆Y_{i,j}`, then all-reduce over the
//!   `Pr`-sized column groups.
//!
//! `Pr = 1` degenerates to pure batch parallelism (Fig. 2) and
//! `Pc = 1` to pure model parallelism (Fig. 1); tests pin both.

use std::cell::Cell;

use collectives::nonblocking::{iallgatherv, iallreduce, IallgathervHandle};
use collectives::ring::{allgatherv, allreduce_ring};
use collectives::{FtConfig, ReduceOp};
use mpsim::{apply_flips, Communicator, Error, FaultCtx, Result};
use tensor::abft::{self, Verdict};
use tensor::matmul::{matmul, matmul_a_bt, matmul_at_b, matmul_flops};
use tensor::Matrix;

use crate::dist::part_range;

/// A rank's view of the `Pr × Pc` process grid.
pub struct Grid {
    /// Model-parallel extent.
    pub pr: usize,
    /// Batch-parallel extent.
    pub pc: usize,
    /// This rank's row index `i` (which model shard it holds).
    pub i: usize,
    /// This rank's column index `j` (which batch shard it holds).
    pub j: usize,
    /// The `Pc`-sized group sharing model shard `i` (used for the ∆W
    /// all-reduce).
    pub row_comm: Communicator,
    /// The `Pr`-sized group sharing batch shard `j` (used for the
    /// forward all-gather and the ∆X all-reduce).
    pub col_comm: Communicator,
}

impl Grid {
    /// Builds the grid view for this rank. Requires
    /// `pr · pc == comm.size()`; ranks are laid out row-major
    /// (consecutive global ranks share a *model* shard — i.e. the
    /// `Pc`-sized ∆W all-reduce groups are contiguous in rank space).
    pub fn new(comm: &Communicator, pr: usize, pc: usize) -> Result<Grid> {
        let (row_comm, col_comm) = comm.grid(pr, pc)?;
        Ok(Grid {
            pr,
            pc,
            i: comm.rank() / pc,
            j: comm.rank() % pc,
            row_comm,
            col_comm,
        })
    }

    /// Column-major layout: consecutive global ranks share a *batch*
    /// shard, so the `Pr`-sized groups (forward all-gather + ∆X
    /// all-reduce — the heavy activation traffic) are contiguous in
    /// rank space. On a hierarchical topology this is the placement
    /// that keeps the activation collectives inside fat nodes; see the
    /// `ablation_topology` binary.
    pub fn new_colmajor(comm: &Communicator, pr: usize, pc: usize) -> Result<Grid> {
        if pr * pc != comm.size() {
            return Err(mpsim::Error::CollectiveMismatch(format!(
                "grid {pr}x{pc} does not tile a communicator of size {}",
                comm.size()
            )));
        }
        let i = comm.rank() % pr; // model shard
        let j = comm.rank() / pr; // batch shard
        let row_comm = comm.split(i as u64, j as u64)?; // fixed model shard, size pc
        let col_comm = comm.split(j as u64, i as u64)?; // fixed batch shard, size pr
        Ok(Grid {
            pr,
            pc,
            i,
            j,
            row_comm,
            col_comm,
        })
    }

    /// The rows of a `d_out`-row weight matrix owned by this rank.
    pub fn w_rows(&self, d_out: usize) -> std::ops::Range<usize> {
        part_range(d_out, self.pr, self.i)
    }

    /// The columns of a `B`-column activation matrix owned by this rank.
    pub fn x_cols(&self, b: usize) -> std::ops::Range<usize> {
        part_range(b, self.pc, self.j)
    }
}

/// Per-iteration silent-data-corruption context of [`OpCtx::Ft`]:
/// carries the iteration number (so scripted
/// [`mpsim::FaultPlan`] bit flips target the right GEMM), whether ABFT
/// verification is enabled, and a running operation counter.
///
/// Ops are numbered in execution order within the iteration — every
/// local GEMM increments the counter, so with the trainer's fixed
/// schedule (forward per layer, then per backward layer: ∆W, ∆X) an
/// `(iter, op)` pair deterministically names one local product on one
/// rank. The same pair appears in trace instants, fault counters, and
/// [`Error::SilentCorruption`] contexts.
pub struct SdcCtx {
    /// Training iteration these GEMMs belong to.
    pub iter: u64,
    /// When `false`, scripted flips are still injected (the fault
    /// exists whether or not anyone defends) but nothing is verified —
    /// the corruption proceeds silently. When `true`, every local GEMM
    /// output is checksum-verified and single-element errors are
    /// repaired in place.
    pub abft: bool,
    op: Cell<u64>,
}

impl SdcCtx {
    /// A fresh context at op 0.
    pub fn new(iter: u64, abft: bool) -> SdcCtx {
        SdcCtx {
            iter,
            abft,
            op: Cell::new(0),
        }
    }

    /// The next op index (post-increment).
    fn next_op(&self) -> u64 {
        let op = self.op.get();
        self.op.set(op + 1);
        op
    }

    /// How many GEMM ops have run under this context so far.
    pub fn ops_done(&self) -> u64 {
        self.op.get()
    }
}

/// Which kernel produced the output (selects the matching checksum
/// shape and bit-exact recompute order).
enum GemmKind {
    /// `C = A·B` ([`matmul`]).
    Plain,
    /// `C = A·Bᵀ` ([`matmul_a_bt`]).
    ABt,
    /// `C = Aᵀ·B` ([`matmul_at_b`]).
    AtB,
}

/// Injects any scripted compute bit flips into the freshly produced
/// GEMM output `c`, then — when ABFT is enabled — verifies `c` against
/// its operand checksums: a single corrupted element is repaired
/// bit-exactly in place (counted as `corrupt_corrected`); anything
/// worse escalates with a group-wide abort and
/// [`Error::SilentCorruption`] so the caller's checkpoint/rollback
/// machinery takes over (counted as `corrupt_recovered`). The checksum
/// work is charged to the virtual clock, so measured ABFT overhead is
/// real under the α–β/FLOP model.
fn sdc_guard(
    comm: &Communicator,
    sdc: &SdcCtx,
    a: &Matrix,
    b: &Matrix,
    c: &mut Matrix,
    kind: GemmKind,
) -> Result<()> {
    let op = sdc.next_op();
    let flips = comm.take_compute_flips(sdc.iter, op);
    if !flips.is_empty() {
        apply_flips(c.as_mut_slice(), &flips);
    }
    if !sdc.abft {
        return Ok(());
    }
    let k = match kind {
        GemmKind::AtB => a.rows(),
        _ => a.cols(),
    };
    comm.advance_flops(abft::abft_flops(c.rows(), k, c.cols()));
    let verdict = match kind {
        GemmKind::Plain => abft::verify_matmul(a, b, c),
        GemmKind::ABt => abft::verify_a_bt(a, b, c),
        GemmKind::AtB => abft::verify_at_b(a, b, c),
    };
    match verdict {
        Verdict::Clean => Ok(()),
        Verdict::Corrected { .. } => {
            comm.record_corrupt_corrected(sdc.iter, op);
            Ok(())
        }
        Verdict::Uncorrectable { .. } => {
            comm.record_corrupt_recovered(sdc.iter, op);
            let me = comm.global_rank_of(comm.rank())?;
            // Best effort: peers blocked on this rank unblock with
            // `Aborted` and cascade, same as the collective fault path.
            let _ = comm.send_abort(me);
            Err(Error::SilentCorruption {
                rank: me,
                what: "gemm",
                ctx: Some(FaultCtx { iter: sdc.iter, op }),
            })
        }
    }
}

/// How a 1.5D op runs its collectives and guards its local GEMMs. Every
/// op below takes one; the op order inside each (flops → GEMM → guard →
/// collective) is the same in both modes, so SDC op numbering and the
/// fault-free virtual clock do not depend on the mode.
#[derive(Clone, Copy)]
pub enum OpCtx<'a> {
    /// Blocking collectives without deadlines; no GEMM guard.
    Plain,
    /// Deadline-bound collectives that abort group-wide on a fault (see
    /// `collectives::ft`). Every local GEMM output passes through
    /// `sdc` before it is communicated: scripted compute bit flips land
    /// on it, and — when `sdc.abft` is set — it is checksum-verified
    /// and repaired (or escalated) before any corrupted word can spread.
    Ft {
        /// Receive policy of the fault-tolerant collectives.
        ft: &'a FtConfig,
        /// The iteration's silent-data-corruption context.
        sdc: &'a SdcCtx,
    },
}

impl OpCtx<'_> {
    /// Runs [`sdc_guard`] on a fresh GEMM output (no-op when plain).
    fn guard(
        &self,
        comm: &Communicator,
        a: &Matrix,
        b: &Matrix,
        c: &mut Matrix,
        kind: GemmKind,
    ) -> Result<()> {
        match self {
            OpCtx::Plain => Ok(()),
            OpCtx::Ft { sdc, .. } => sdc_guard(comm, sdc, a, b, c, kind),
        }
    }

    /// The collectives' receive policy: `None` when plain.
    fn ft(&self) -> Option<&FtConfig> {
        match self {
            OpCtx::Plain => None,
            OpCtx::Ft { ft, .. } => Some(ft),
        }
    }

    fn allreduce(&self, comm: &Communicator, data: &mut [f64]) -> Result<()> {
        allreduce_ring(comm, data, ReduceOp::Sum, self.ft())
    }

    /// The guarded local partial `W_i·X_j`.
    fn y_partial(&self, grid: &Grid, w_local: &Matrix, x_local: &Matrix) -> Result<Matrix> {
        grid.col_comm
            .advance_flops(matmul_flops(w_local.rows(), w_local.cols(), x_local.cols()));
        let mut y = matmul(w_local, x_local);
        self.guard(&grid.col_comm, w_local, x_local, &mut y, GemmKind::Plain)?;
        Ok(y)
    }

    /// The guarded local partial `∆Y_{i,j}·X_jᵀ`.
    fn dw_partial(&self, grid: &Grid, dy_i: &Matrix, x_local: &Matrix) -> Result<Matrix> {
        grid.row_comm
            .advance_flops(matmul_flops(dy_i.rows(), dy_i.cols(), x_local.rows()));
        let mut dw = matmul_a_bt(dy_i, x_local);
        self.guard(&grid.row_comm, dy_i, x_local, &mut dw, GemmKind::ABt)?;
        Ok(dw)
    }

    /// The guarded local partial `W_iᵀ·∆Y_{i,j}`.
    fn dx_partial(&self, grid: &Grid, w_local: &Matrix, dy_i: &Matrix) -> Result<Matrix> {
        grid.col_comm
            .advance_flops(matmul_flops(w_local.cols(), w_local.rows(), dy_i.cols()));
        let mut dx = matmul_at_b(w_local, dy_i);
        self.guard(&grid.col_comm, w_local, dy_i, &mut dx, GemmKind::AtB)?;
        Ok(dx)
    }

    /// Forward: `Y_j = allgather_{Pr}(W_i · X_j)`. `w_local` is this
    /// rank's `d_out/Pr × d_in` shard; `x_local` is the full-depth
    /// `d_in × B/Pc` batch shard. Returns the assembled `d_out × B/Pc`
    /// output shard.
    pub fn forward(&self, grid: &Grid, w_local: &Matrix, x_local: &Matrix) -> Result<Matrix> {
        let bloc = x_local.cols();
        let y_partial = self.y_partial(grid, w_local, x_local)?;
        if grid.pr == 1 {
            return Ok(y_partial);
        }
        let blocks = allgatherv(&grid.col_comm, y_partial.as_slice(), self.ft())?;
        let mats: Vec<Matrix> = blocks
            .into_iter()
            .map(|v| {
                let rows = v.len() / bloc;
                Matrix::from_vec(rows, bloc, v)
            })
            .collect();
        Ok(Matrix::vcat(&mats))
    }

    /// Backward: given the full-depth output-gradient shard `∆Y_j`
    /// (`d_out × B/Pc`), returns `(∆W_i, ∆X_j)`:
    /// `∆W_i = allreduce_{Pc}(∆Y_{i,j}·X_jᵀ)` (this rank's
    /// `d_out/Pr × d_in` shard of the summed weight gradient) and
    /// `∆X_j = allreduce_{Pr}(W_iᵀ·∆Y_{i,j})` (the full `d_in × B/Pc`
    /// input gradient). Under [`OpCtx::Ft`] both partials are verified
    /// *before* their all-reduce — a corrected flip never enters the
    /// sum, and an escalation aborts the group before the reduction
    /// commits.
    pub fn backward(
        &self,
        grid: &Grid,
        w_local: &Matrix,
        x_local: &Matrix,
        dy_local: &Matrix,
    ) -> Result<(Matrix, Matrix)> {
        let rows = grid.w_rows(dy_local.rows());
        let dy_i = dy_local.row_block(rows.start, rows.end);
        let mut dw = self.dw_partial(grid, &dy_i, x_local)?;
        self.allreduce(&grid.row_comm, dw.as_mut_slice())?;
        let mut dx = self.dx_partial(grid, w_local, &dy_i)?;
        self.allreduce(&grid.col_comm, dx.as_mut_slice())?;
        Ok((dw, dx))
    }

    /// [`OpCtx::backward`] with the ∆W all-reduce **deferred**: returns
    /// the local partial `∆Y_{i,j}·X_jᵀ` — *not* yet summed over the
    /// `Pc`-sized row group — and the fully reduced `∆X_j`. The caller
    /// owns the row-group sum, typically as a bucketed non-blocking
    /// all-reduce ([`collectives::nonblocking::iallreduce`], with this
    /// op's policy to keep the fault semantics) so the transfer
    /// overlaps the remaining backward compute — the overlap engine of
    /// `integrated::trainer::train_1p5d_scheduled`.
    pub fn backward_dw_deferred(
        &self,
        grid: &Grid,
        w_local: &Matrix,
        x_local: &Matrix,
        dy_local: &Matrix,
    ) -> Result<(Matrix, Matrix)> {
        let rows = grid.w_rows(dy_local.rows());
        let dy_i = dy_local.row_block(rows.start, rows.end);
        let dw = self.dw_partial(grid, &dy_i, x_local)?;
        let mut dx = self.dx_partial(grid, w_local, &dy_i)?;
        self.allreduce(&grid.col_comm, dx.as_mut_slice())?;
        Ok((dw, dx))
    }

    /// [`OpCtx::backward_dw_deferred`] with the ∆X all-reduce overlapped
    /// too: the `W_iᵀ·∆Y_{i,j}` GEMM runs *first*, its column-group sum
    /// is launched non-blocking, and the `∆Y_{i,j}·X_jᵀ` GEMM then hides
    /// part of the ∆X transfer before the wait. Values are bit-identical
    /// to [`OpCtx::backward_dw_deferred`] — the two local GEMMs are
    /// independent and the non-blocking ring reduces in the blocking
    /// ring's exact order — but the GEMMs *execute* in the opposite
    /// order, so the per-iteration SDC op order is (∆X, ∆W): op-indexed
    /// fault scripts written against one schedule do not transfer to
    /// the other.
    pub fn backward_dx_overlap(
        &self,
        grid: &Grid,
        w_local: &Matrix,
        x_local: &Matrix,
        dy_local: &Matrix,
    ) -> Result<(Matrix, Matrix)> {
        let rows = grid.w_rows(dy_local.rows());
        let dy_i = dy_local.row_block(rows.start, rows.end);
        let dx = self.dx_partial(grid, w_local, &dy_i)?;
        let h = iallreduce(&grid.col_comm, dx.into_vec(), ReduceOp::Sum, self.ft())?;
        let dw = self.dw_partial(grid, &dy_i, x_local)?;
        let dx = Matrix::from_vec(w_local.cols(), dy_i.cols(), h.wait()?);
        Ok((dw, dx))
    }

    /// Starts a pipelined [`OpCtx::forward`]: computes the guarded local
    /// partial and launches the non-blocking all-gather. Consuming every
    /// block from the returned handle and stacking them by `part_range`
    /// rebuilds exactly [`OpCtx::forward`]'s output (the blocks are
    /// copied verbatim).
    pub fn forward_start(
        &self,
        grid: &Grid,
        w_local: &Matrix,
        x_local: &Matrix,
    ) -> Result<PipelinedForward> {
        let y_partial = self.y_partial(grid, w_local, x_local)?;
        PipelinedForward::launch(self, grid, y_partial)
    }

    /// Launches the gather of a partial the caller already holds — the
    /// entry point for fused pipelines where layer `l+1`'s partial was
    /// accumulated block-by-block while layer `l`'s gather drained (so
    /// there is no monolithic GEMM for [`OpCtx::forward_start`] to run,
    /// and nothing for the SDC guard to verify). Charges no flops: the
    /// caller paid for the accumulation as it happened.
    pub fn forward_resume(&self, grid: &Grid, y_partial: Matrix) -> Result<PipelinedForward> {
        PipelinedForward::launch(self, grid, y_partial)
    }
}

/// [`OpCtx::forward`] with blocking collectives.
pub fn forward(grid: &Grid, w_local: &Matrix, x_local: &Matrix) -> Result<Matrix> {
    OpCtx::Plain.forward(grid, w_local, x_local)
}

/// [`OpCtx::backward`] with blocking collectives.
pub fn backward(
    grid: &Grid,
    w_local: &Matrix,
    x_local: &Matrix,
    dy_local: &Matrix,
) -> Result<(Matrix, Matrix)> {
    OpCtx::Plain.backward(grid, w_local, x_local, dy_local)
}

/// A forward layer in flight: the local `W_i·X_j` partial has been
/// computed and its column-group all-gather launched non-blocking.
/// [`PipelinedForward::next_block`] delivers the `Pr` row blocks of
/// `Y_j` one at a time in ring-arrival order
/// ([`collectives::chunks::ring_arrival_order`]), settling each chunk's
/// overlap accounting as it lands — so per-block compute done by the
/// caller (activation, the *next* layer's partial-GEMM accumulation)
/// hides the chunks still in flight.
pub struct PipelinedForward {
    /// `Some` only when `Pr == 1` (no gather: the partial is `Y_j`).
    local: Option<Matrix>,
    handle: Option<IallgathervHandle>,
    bloc: usize,
}

impl PipelinedForward {
    fn launch(ctx: &OpCtx, grid: &Grid, y_partial: Matrix) -> Result<PipelinedForward> {
        let bloc = y_partial.cols();
        if grid.pr == 1 {
            return Ok(PipelinedForward {
                local: Some(y_partial),
                handle: None,
                bloc,
            });
        }
        let handle = iallgatherv(&grid.col_comm, y_partial.as_slice(), ctx.ft())?;
        Ok(PipelinedForward {
            local: None,
            handle: Some(handle),
            bloc,
        })
    }

    /// The next row block of `Y_j` as `(col_rank, rows_matrix)`, or
    /// `None` when all `Pr` blocks have been delivered. The row range
    /// the block occupies is `part_range(d_out, pr, col_rank)`.
    pub fn next_block(&mut self) -> Result<Option<(usize, Matrix)>> {
        if let Some(own) = self.local.take() {
            return Ok(Some((0, own)));
        }
        match &mut self.handle {
            None => Ok(None),
            Some(h) => match h.recv_next()? {
                None => Ok(None),
                Some((idx, v)) => {
                    let rows = v.len() / self.bloc;
                    Ok(Some((idx, Matrix::from_vec(rows, self.bloc, v))))
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{col_shard, part_range, row_shard};
    use collectives::allreduce;
    use mpsim::{NetModel, World};
    use tensor::init;

    struct Reference {
        w: Matrix,
        x: Matrix,
        dy: Matrix,
        y: Matrix,
        dw: Matrix,
        dx: Matrix,
    }

    fn reference(d_out: usize, d_in: usize, b: usize) -> Reference {
        let w = init::xavier(d_out, d_in, 10);
        let x = init::uniform(d_in, b, -1.0, 1.0, 11);
        let dy = init::uniform(d_out, b, -1.0, 1.0, 12);
        let y = matmul(&w, &x);
        let dw = matmul_a_bt(&dy, &x);
        let dx = matmul_at_b(&w, &dy);
        Reference {
            w,
            x,
            dy,
            y,
            dw,
            dx,
        }
    }

    fn run_grid(pr: usize, pc: usize, r: &Reference) -> Vec<(Matrix, Matrix, Matrix)> {
        World::run(pr * pc, NetModel::free(), |comm| {
            let grid = Grid::new(comm, pr, pc).unwrap();
            let wl = row_shard(&r.w, pr, grid.i);
            let xl = col_shard(&r.x, pc, grid.j);
            let dyl = col_shard(&r.dy, pc, grid.j);
            let y = forward(&grid, &wl, &xl).unwrap();
            let (dw, dx) = backward(&grid, &wl, &xl, &dyl).unwrap();
            (y, dw, dx)
        })
    }

    fn check_grid(pr: usize, pc: usize, d_out: usize, d_in: usize, b: usize) {
        let r = reference(d_out, d_in, b);
        let out = run_grid(pr, pc, &r);
        for (g, (y, dw, dx)) in out.iter().enumerate() {
            let i = g / pc;
            let j = g % pc;
            let cols = part_range(b, pc, j);
            let y_expect = r.y.col_block(cols.start, cols.end);
            assert!(
                y.approx_eq(&y_expect, 1e-10),
                "grid {pr}x{pc} rank ({i},{j}) Y"
            );
            let rows = part_range(d_out, pr, i);
            let dw_expect = r.dw.row_block(rows.start, rows.end);
            assert!(
                dw.approx_eq(&dw_expect, 1e-10),
                "grid {pr}x{pc} rank ({i},{j}) dW"
            );
            let dx_expect = r.dx.col_block(cols.start, cols.end);
            assert!(
                dx.approx_eq(&dx_expect, 1e-10),
                "grid {pr}x{pc} rank ({i},{j}) dX"
            );
        }
    }

    #[test]
    fn matches_serial_on_2x3_grid() {
        check_grid(2, 3, 8, 5, 9);
    }

    #[test]
    fn matches_serial_on_3x2_grid() {
        check_grid(3, 2, 9, 7, 8);
    }

    #[test]
    fn matches_serial_on_4x4_grid() {
        check_grid(4, 4, 16, 6, 16);
    }

    #[test]
    fn pr_equals_one_is_pure_batch() {
        check_grid(1, 4, 6, 5, 8);
    }

    #[test]
    fn pc_equals_one_is_pure_model() {
        check_grid(4, 1, 8, 5, 6);
    }

    #[test]
    fn pure_batch_matches_serial_reference() {
        let p = 4;
        let (d_out, d_in, b) = (6, 5, 8);
        let w = init::xavier(d_out, d_in, 1);
        let x = init::uniform(d_in, b, -1.0, 1.0, 2);
        let dy = init::uniform(d_out, b, -1.0, 1.0, 3);

        // Serial reference.
        let y_ref = matmul(&w, &x);
        let dw_ref = matmul_a_bt(&dy, &x);
        let dx_ref = matmul_at_b(&w, &dy);

        let out = World::run(p, NetModel::free(), |comm| {
            let grid = Grid::new(comm, 1, p).unwrap();
            let xl = col_shard(&x, p, grid.j);
            let dyl = col_shard(&dy, p, grid.j);
            let y = forward(&grid, &w, &xl).unwrap();
            let (dw, dx) = backward(&grid, &w, &xl, &dyl).unwrap();
            (y, dw, dx)
        });

        for (r, (y, dw, dx)) in out.iter().enumerate() {
            let cols = part_range(b, p, r);
            assert!(
                y.approx_eq(&y_ref.col_block(cols.start, cols.end), 1e-12),
                "rank {r} Y"
            );
            assert!(
                dx.approx_eq(&dx_ref.col_block(cols.start, cols.end), 1e-12),
                "rank {r} dX"
            );
            assert!(dw.approx_eq(&dw_ref, 1e-10), "rank {r} dW mismatch");
        }
    }

    #[test]
    fn pure_model_matches_serial_reference() {
        for p in [1, 2, 3, 4] {
            let (d_out, d_in, b) = (9, 5, 6); // d_out not divisible by all p on purpose
            let w = init::xavier(d_out, d_in, 1);
            let x = init::uniform(d_in, b, -1.0, 1.0, 2);
            let dy = init::uniform(d_out, b, -1.0, 1.0, 3);

            let y_ref = matmul(&w, &x);
            let dw_ref = matmul_a_bt(&dy, &x);
            let dx_ref = matmul_at_b(&w, &dy);

            let out = World::run(p, NetModel::free(), |comm| {
                let grid = Grid::new(comm, p, 1).unwrap();
                let wl = row_shard(&w, p, grid.i);
                let y = forward(&grid, &wl, &x).unwrap();
                let (dw, dx) = backward(&grid, &wl, &x, &dy).unwrap();
                (y, dw, dx)
            });

            for (r, (y, dw, dx)) in out.iter().enumerate() {
                assert!(y.approx_eq(&y_ref, 1e-12), "p={p} rank {r} Y");
                assert!(dx.approx_eq(&dx_ref, 1e-10), "p={p} rank {r} dX");
                let rows = part_range(d_out, p, r);
                assert!(
                    dw.approx_eq(&dw_ref.row_block(rows.start, rows.end), 1e-12),
                    "p={p} rank {r} dW"
                );
            }
        }
    }

    /// A cost-only model: α and β as given, compute free.
    fn comm_model(alpha: f64, beta: f64) -> NetModel {
        NetModel {
            alpha,
            beta,
            flops: f64::INFINITY,
        }
    }

    #[test]
    fn pure_batch_forward_needs_no_communication() {
        let model = comm_model(1.0, 1.0);
        let w = init::xavier(4, 4, 1);
        let x = init::uniform(4, 8, -1.0, 1.0, 2);
        let out = World::run(4, model, |comm| {
            let grid = Grid::new(comm, 1, 4).unwrap();
            let xl = col_shard(&x, 4, grid.j);
            let _ = forward(&grid, &w, &xl).unwrap();
            comm.clock().comm
        });
        for &t in &out {
            assert_eq!(t, 0.0, "the paper: batch-parallel forward is comm-free");
        }
    }

    #[test]
    fn pure_batch_backward_comm_matches_ring_allreduce_of_weights() {
        let model = comm_model(1e-3, 1e-6);
        let p = 4;
        let (d_out, d_in, b) = (8, 16, 8); // |W| = 128, divisible by 4
        let w = init::xavier(d_out, d_in, 1);
        let x = init::uniform(d_in, b, -1.0, 1.0, 2);
        let dy = init::uniform(d_out, b, -1.0, 1.0, 3);
        let out = World::run(p, model, |comm| {
            let grid = Grid::new(comm, 1, p).unwrap();
            let xl = col_shard(&x, p, grid.j);
            let dyl = col_shard(&dy, p, grid.j);
            let _ = backward(&grid, &w, &xl, &dyl).unwrap();
            comm.clock().comm
        });
        let expect =
            collectives::cost::ring_allreduce_exact(p, (d_out * d_in) as f64).seconds(&model);
        for &t in &out {
            assert!((t - expect).abs() < 1e-12, "{t} vs {expect}");
        }
    }

    #[test]
    fn pure_model_dw_needs_no_communication() {
        // The paper: "no communication is needed for the model parallel
        // part as the input activation is already communicated via the
        // all-gather collective of forward pass". On `P × 1` the ∆W
        // all-reduce runs over a one-member row group, so the whole
        // backward costs exactly the ∆X all-reduce.
        let model = comm_model(1.0, 1.0);
        let p = 4;
        let (d_out, d_in, b) = (8, 4, 4);
        let w = init::xavier(d_out, d_in, 1);
        let x = init::uniform(d_in, b, -1.0, 1.0, 2);
        let dy = init::uniform(d_out, b, -1.0, 1.0, 3);
        let out = World::run(p, model, |comm| {
            let grid = Grid::new(comm, p, 1).unwrap();
            let wl = row_shard(&w, p, grid.i);
            let _ = backward(&grid, &wl, &x, &dy).unwrap();
            comm.clock().comm
        });
        let expect = collectives::cost::ring_allreduce_exact(p, (d_in * b) as f64).seconds(&model);
        for &t in &out {
            assert!((t - expect).abs() < 1e-12, "{t} vs {expect}");
        }
    }

    #[test]
    fn pure_model_forward_comm_time_is_allgather_of_y() {
        let model = comm_model(1e-3, 1e-6);
        let p = 4;
        let (d_out, d_in, b) = (16, 4, 8);
        let w = init::xavier(d_out, d_in, 1);
        let x = init::uniform(d_in, b, -1.0, 1.0, 2);
        let out = World::run(p, model, |comm| {
            let grid = Grid::new(comm, p, 1).unwrap();
            let wl = row_shard(&w, p, grid.i);
            let _ = forward(&grid, &wl, &x).unwrap();
            comm.clock().comm
        });
        // Ring allgatherv of the full Y (d_out*b words total).
        let expect = collectives::cost::ring_allgather_exact(p, (d_out * b) as f64).seconds(&model);
        for &t in &out {
            assert!((t - expect).abs() < 1e-12, "{t} vs {expect}");
        }
    }

    #[test]
    fn uneven_shards_are_handled() {
        // d_out=10 over pr=3, b=7 over pc=2: nothing divides evenly.
        check_grid(3, 2, 10, 5, 7);
    }

    #[test]
    fn dw_allreduce_volume_is_reduced_by_pr() {
        // The paper's headline: the ∆W all-reduce moves |W|/Pr words per
        // process instead of |W|.
        let model = NetModel {
            alpha: 0.0,
            beta: 1e-6,
            flops: f64::INFINITY,
        };
        let (d_out, d_in, b) = (16, 8, 16);
        let r = reference(d_out, d_in, b);
        let comm_time = |pr: usize, pc: usize| -> f64 {
            let out = World::run(pr * pc, model, |comm| {
                let grid = Grid::new(comm, pr, pc).unwrap();
                let _wl = row_shard(&r.w, pr, grid.i);
                let xl = col_shard(&r.x, pc, grid.j);
                let dyl = col_shard(&r.dy, pc, grid.j);
                // Isolate the ∆W all-reduce: measure backward comm with
                // the ∆X all-reduce excluded by measuring the row_comm
                // traffic via stats words.
                let before = comm.stats().words_sent;
                let rows = grid.w_rows(dyl.rows());
                let dy_i = dyl.row_block(rows.start, rows.end);
                let mut dw = matmul_a_bt(&dy_i, &xl);
                allreduce(&grid.row_comm, dw.as_mut_slice(), ReduceOp::Sum).unwrap();
                (comm.stats().words_sent - before) as f64
            });
            out.iter().cloned().fold(0.0, f64::max)
        };
        let w_total = (d_out * d_in) as f64;
        let words_batch = comm_time(1, 4);
        let words_1p5d = comm_time(4, 4);
        // Ring all-reduce sends 2n(p-1)/p words per rank.
        assert!((words_batch - 2.0 * w_total * 3.0 / 4.0).abs() < 1.0);
        assert!((words_1p5d - 2.0 * (w_total / 4.0) * 3.0 / 4.0).abs() < 1.0);
        assert!(words_1p5d < words_batch / 3.0);
    }

    #[test]
    fn ft_forward_backward_match_plain_when_fault_free() {
        let (pr, pc) = (2usize, 3usize);
        let r = reference(8, 5, 9);
        let model = NetModel {
            alpha: 1e-3,
            beta: 1e-6,
            flops: f64::INFINITY,
        };
        let cfg = FtConfig::fixed(1e6);
        let plain = World::run(pr * pc, model, |comm| {
            let grid = Grid::new(comm, pr, pc).unwrap();
            let wl = row_shard(&r.w, pr, grid.i);
            let xl = col_shard(&r.x, pc, grid.j);
            let dyl = col_shard(&r.dy, pc, grid.j);
            let y = forward(&grid, &wl, &xl).unwrap();
            let (dw, dx) = backward(&grid, &wl, &xl, &dyl).unwrap();
            (y, dw, dx, comm.now())
        });
        let ft = World::run(pr * pc, model, |comm| {
            let grid = Grid::new(comm, pr, pc).unwrap();
            let wl = row_shard(&r.w, pr, grid.i);
            let xl = col_shard(&r.x, pc, grid.j);
            let dyl = col_shard(&r.dy, pc, grid.j);
            let sdc = SdcCtx::new(0, false);
            let ctx = OpCtx::Ft {
                ft: &cfg,
                sdc: &sdc,
            };
            let y = ctx.forward(&grid, &wl, &xl).unwrap();
            let (dw, dx) = ctx.backward(&grid, &wl, &xl, &dyl).unwrap();
            (y, dw, dx, comm.now())
        });
        for ((y0, dw0, dx0, t0), (y1, dw1, dx1, t1)) in plain.iter().zip(&ft) {
            assert!(y0 == y1 && dw0 == dw1 && dx0 == dx1, "identical numbers");
            // Same α–β cost as the plain implementations.
            assert!((t0 - t1).abs() < 1e-12, "{t0} vs {t1}");
        }
    }

    #[test]
    fn deferred_dw_plus_explicit_sum_matches_backward_bitwise() {
        let (pr, pc) = (2usize, 3usize);
        let r = reference(8, 5, 9);
        let out = World::run(pr * pc, NetModel::free(), |comm| {
            let grid = Grid::new(comm, pr, pc).unwrap();
            let wl = row_shard(&r.w, pr, grid.i);
            let xl = col_shard(&r.x, pc, grid.j);
            let dyl = col_shard(&r.dy, pc, grid.j);
            let (dw_ref, dx_ref) = backward(&grid, &wl, &xl, &dyl).unwrap();
            let (mut dw, dx) = OpCtx::Plain
                .backward_dw_deferred(&grid, &wl, &xl, &dyl)
                .unwrap();
            allreduce(&grid.row_comm, dw.as_mut_slice(), ReduceOp::Sum).unwrap();
            (dw_ref, dx_ref, dw, dx)
        });
        for (g, (dw_ref, dx_ref, dw, dx)) in out.iter().enumerate() {
            assert!(dw == dw_ref, "rank {g}: deferred ∆W sum differs");
            assert!(dx == dx_ref, "rank {g}: ∆X differs");
        }
    }

    #[test]
    fn dx_overlap_backward_matches_backward_bitwise() {
        for (pr, pc) in [(1, 4), (2, 3), (4, 1), (3, 2)] {
            let r = reference(8, 5, 9);
            let out = World::run(pr * pc, NetModel::free(), |comm| {
                let grid = Grid::new(comm, pr, pc).unwrap();
                let wl = row_shard(&r.w, pr, grid.i);
                let xl = col_shard(&r.x, pc, grid.j);
                let dyl = col_shard(&r.dy, pc, grid.j);
                let (dw_ref, dx_ref) = OpCtx::Plain
                    .backward_dw_deferred(&grid, &wl, &xl, &dyl)
                    .unwrap();
                let (dw, dx) = OpCtx::Plain
                    .backward_dx_overlap(&grid, &wl, &xl, &dyl)
                    .unwrap();
                (dw_ref, dx_ref, dw, dx)
            });
            for (g, (dw_ref, dx_ref, dw, dx)) in out.iter().enumerate() {
                assert!(dw == dw_ref, "grid {pr}x{pc} rank {g}: ∆W partial differs");
                assert!(dx == dx_ref, "grid {pr}x{pc} rank {g}: ∆X differs");
            }
        }
    }

    #[test]
    fn dx_overlap_hides_the_dx_transfer_behind_the_dw_gemm() {
        // Arithmetic-heavy regime: the ∆W GEMM takes far longer than the
        // ∆X ring, so the overlapped variant's exposed wait is ~zero.
        let model = NetModel {
            alpha: 1e-6,
            beta: 1e-9,
            flops: 1e9,
        };
        let (pr, pc) = (4usize, 1usize);
        let r = reference(32, 64, 48);
        let (_, stats) = World::run_with_stats(pr * pc, model, |comm| {
            let grid = Grid::new(comm, pr, pc).unwrap();
            let wl = row_shard(&r.w, pr, grid.i);
            let xl = col_shard(&r.x, pc, grid.j);
            let dyl = col_shard(&r.dy, pc, grid.j);
            OpCtx::Plain
                .backward_dx_overlap(&grid, &wl, &xl, &dyl)
                .unwrap();
        });
        assert!(
            stats.total_overlapped_secs() > 0.0,
            "∆X transfer partly hidden behind the ∆W GEMM"
        );
    }

    #[test]
    fn pipelined_forward_blocks_reassemble_forward_exactly() {
        for (pr, pc) in [(1, 2), (2, 3), (3, 2), (4, 1)] {
            let r = reference(10, 5, 8);
            let out = World::run(pr * pc, NetModel::free(), |comm| {
                let grid = Grid::new(comm, pr, pc).unwrap();
                let wl = row_shard(&r.w, pr, grid.i);
                let xl = col_shard(&r.x, pc, grid.j);
                let y_ref = forward(&grid, &wl, &xl).unwrap();
                let mut pf = OpCtx::Plain.forward_start(&grid, &wl, &xl).unwrap();
                let mut blocks: Vec<Option<Matrix>> = vec![None; pr];
                let mut arrivals = Vec::new();
                while let Some((src, block)) = pf.next_block().unwrap() {
                    arrivals.push(src);
                    blocks[src] = Some(block);
                }
                let stacked: Vec<Matrix> = blocks.into_iter().map(|b| b.unwrap()).collect();
                (y_ref, Matrix::vcat(&stacked), arrivals)
            });
            for (g, (y_ref, y, arrivals)) in out.iter().enumerate() {
                assert!(y == y_ref, "grid {pr}x{pc} rank {g}: reassembled Y differs");
                let i = g / pc;
                assert_eq!(
                    arrivals,
                    &collectives::chunks::ring_arrival_order(pr, i),
                    "grid {pr}x{pc} rank {g}: arrival order"
                );
            }
        }
    }

    #[test]
    fn pipelined_forward_sdc_matches_and_verifies_the_partial() {
        use mpsim::FaultPlan;
        let (pr, pc) = (2usize, 2usize);
        let r = reference(8, 5, 8);
        let cfg = FtConfig::fixed(1e6);
        let clean = run_grid(pr, pc, &r);
        // A single flipped bit in rank 1's partial is repaired before
        // any chunk of it is gathered.
        let plan = FaultPlan::new(5).bitflip_compute(1, 0, 0, 51);
        let (out, stats) = World::run_with_faults(pr * pc, NetModel::free(), plan, |comm| {
            let grid = Grid::new(comm, pr, pc).unwrap();
            let wl = row_shard(&r.w, pr, grid.i);
            let xl = col_shard(&r.x, pc, grid.j);
            let sdc = SdcCtx::new(0, true);
            let ctx = OpCtx::Ft {
                ft: &cfg,
                sdc: &sdc,
            };
            let mut pf = ctx.forward_start(&grid, &wl, &xl).unwrap();
            let mut blocks: Vec<Option<Matrix>> = vec![None; pr];
            while let Some((src, block)) = pf.next_block().unwrap() {
                blocks[src] = Some(block);
            }
            let stacked: Vec<Matrix> = blocks.into_iter().map(|b| b.unwrap()).collect();
            Matrix::vcat(&stacked)
        });
        for (g, y) in out.iter().enumerate() {
            assert!(y == &clean[g].0, "rank {g}: repaired forward differs");
        }
        assert_eq!(stats.total_corrupt_corrected(), 1);
    }

    #[test]
    fn colmajor_grid_matches_serial_too() {
        let (pr, pc) = (2usize, 3usize);
        let r = reference(8, 5, 9);
        let out = World::run(pr * pc, NetModel::free(), |comm| {
            let grid = Grid::new_colmajor(comm, pr, pc).unwrap();
            let wl = row_shard(&r.w, pr, grid.i);
            let xl = col_shard(&r.x, pc, grid.j);
            let dyl = col_shard(&r.dy, pc, grid.j);
            let y = forward(&grid, &wl, &xl).unwrap();
            let (dw, dx) = backward(&grid, &wl, &xl, &dyl).unwrap();
            (grid.i, grid.j, y, dw, dx)
        });
        for (g, (i, j, y, dw, dx)) in out.iter().enumerate() {
            assert_eq!(*i, g % pr, "column-major i");
            assert_eq!(*j, g / pr, "column-major j");
            let cols = part_range(9, pc, *j);
            let rows = part_range(8, pr, *i);
            assert!(y.approx_eq(&r.y.col_block(cols.start, cols.end), 1e-10));
            assert!(dw.approx_eq(&r.dw.row_block(rows.start, rows.end), 1e-10));
            assert!(dx.approx_eq(&r.dx.col_block(cols.start, cols.end), 1e-10));
        }
    }

    #[test]
    fn sdc_fault_free_matches_ft_bitwise() {
        // With no scripted flips, the SDC wrappers produce bit-identical
        // numbers whether ABFT is on or off — verification only reads.
        let (pr, pc) = (2usize, 3usize);
        let r = reference(8, 5, 9);
        let cfg = FtConfig::fixed(1e6);
        let run = |abft: bool| {
            World::run(pr * pc, NetModel::free(), |comm| {
                let grid = Grid::new(comm, pr, pc).unwrap();
                let wl = row_shard(&r.w, pr, grid.i);
                let xl = col_shard(&r.x, pc, grid.j);
                let dyl = col_shard(&r.dy, pc, grid.j);
                let sdc = SdcCtx::new(0, abft);
                let ctx = OpCtx::Ft {
                    ft: &cfg,
                    sdc: &sdc,
                };
                let y = ctx.forward(&grid, &wl, &xl).unwrap();
                let (dw, dx) = ctx.backward(&grid, &wl, &xl, &dyl).unwrap();
                assert_eq!(sdc.ops_done(), 3, "forward + dW + dX");
                (y, dw, dx)
            })
        };
        let plain = World::run(pr * pc, NetModel::free(), |comm| {
            let grid = Grid::new(comm, pr, pc).unwrap();
            let wl = row_shard(&r.w, pr, grid.i);
            let xl = col_shard(&r.x, pc, grid.j);
            let dyl = col_shard(&r.dy, pc, grid.j);
            let y = forward(&grid, &wl, &xl).unwrap();
            let (dw, dx) = backward(&grid, &wl, &xl, &dyl).unwrap();
            (y, dw, dx)
        });
        assert_eq!(run(false), plain, "abft off == plain, bitwise");
        assert_eq!(run(true), plain, "abft on == plain, bitwise");
    }

    #[test]
    fn single_compute_flip_is_corrected_in_place() {
        use mpsim::FaultPlan;
        let (pr, pc) = (2usize, 3usize);
        let r = reference(8, 5, 9);
        let cfg = FtConfig::fixed(1e6);
        let clean = run_grid(pr, pc, &r);
        // One high bit flipped in rank 2's forward GEMM output (op 0),
        // and one in rank 4's ∆X GEMM (op 2).
        let plan = FaultPlan::new(7)
            .bitflip_compute(2, 0, 0, 51)
            .bitflip_compute(4, 0, 2, 55);
        let (out, stats) = World::run_with_faults(pr * pc, NetModel::free(), plan, |comm| {
            let grid = Grid::new(comm, pr, pc).unwrap();
            let wl = row_shard(&r.w, pr, grid.i);
            let xl = col_shard(&r.x, pc, grid.j);
            let dyl = col_shard(&r.dy, pc, grid.j);
            let sdc = SdcCtx::new(0, true);
            let ctx = OpCtx::Ft {
                ft: &cfg,
                sdc: &sdc,
            };
            let y = ctx.forward(&grid, &wl, &xl).unwrap();
            let (dw, dx) = ctx.backward(&grid, &wl, &xl, &dyl).unwrap();
            (y, dw, dx)
        });
        assert_eq!(out, clean, "both flips repaired bit-exactly");
        assert_eq!(stats.total_bitflips_compute(), 2, "both flips injected");
        assert_eq!(stats.total_corrupt_corrected(), 2);
        assert_eq!(stats.total_corrupt_recovered(), 0);
        assert_eq!(stats.total_aborts(), 0, "no escalation");
    }

    #[test]
    fn multi_element_flip_escalates_group_wide() {
        use mpsim::FaultPlan;
        let (pr, pc) = (2usize, 2usize);
        let r = reference(8, 5, 8);
        let cfg = FtConfig::fixed(1e6);
        // Two flips on the same GEMM → two corrupted elements → the 1×1
        // location pattern fails and rank 1 must escalate.
        let plan = FaultPlan::new(3)
            .bitflip_compute(1, 0, 0, 50)
            .bitflip_compute(1, 0, 0, 52);
        let (out, stats) = World::run_with_faults(pr * pc, NetModel::free(), plan, |comm| {
            let grid = Grid::new(comm, pr, pc).unwrap();
            let wl = row_shard(&r.w, pr, grid.i);
            let xl = col_shard(&r.x, pc, grid.j);
            let sdc = SdcCtx::new(0, true);
            OpCtx::Ft {
                ft: &cfg,
                sdc: &sdc,
            }
            .forward(&grid, &wl, &xl)
        });
        match &out[1] {
            Err(Error::SilentCorruption {
                rank: 1,
                what: "gemm",
                ctx: Some(c),
            }) => assert_eq!((c.iter, c.op), (0, 0)),
            other => panic!("rank 1: {other:?}"),
        }
        // Rank 3 shares rank 1's column group and was mid-all-gather.
        assert!(
            matches!(
                &out[3],
                Err(Error::Aborted { .. }) | Err(Error::SilentCorruption { .. })
            ),
            "rank 3 unblocked by the abort: {:?}",
            out[3]
        );
        assert_eq!(
            stats.total_corrupt_recovered(),
            1,
            "escalated, not corrected"
        );
        assert_eq!(stats.total_corrupt_corrected(), 0);
        assert!(stats.total_aborts() >= 1, "abort was broadcast");
    }

    #[test]
    fn sdc_flips_proceed_silently_without_abft() {
        use mpsim::FaultPlan;
        let (pr, pc) = (2usize, 2usize);
        let r = reference(8, 5, 8);
        let cfg = FtConfig::fixed(1e6);
        let clean = World::run(pr * pc, NetModel::free(), |comm| {
            let grid = Grid::new(comm, pr, pc).unwrap();
            let wl = row_shard(&r.w, pr, grid.i);
            let xl = col_shard(&r.x, pc, grid.j);
            forward(&grid, &wl, &xl).unwrap()
        });
        let plan = FaultPlan::new(3).bitflip_compute(0, 0, 0, 51);
        let (out, stats) = World::run_with_faults(pr * pc, NetModel::free(), plan, |comm| {
            let grid = Grid::new(comm, pr, pc).unwrap();
            let wl = row_shard(&r.w, pr, grid.i);
            let xl = col_shard(&r.x, pc, grid.j);
            let sdc = SdcCtx::new(0, false);
            OpCtx::Ft {
                ft: &cfg,
                sdc: &sdc,
            }
            .forward(&grid, &wl, &xl)
            .unwrap()
        });
        assert_eq!(stats.total_bitflips_compute(), 1, "flip was injected");
        assert_eq!(stats.total_corrupt_detected(), 0, "nobody noticed");
        // The corrupted word spread through the all-gather: every rank
        // in rank 0's column group now disagrees with the clean run.
        assert!(out[0] != clean[0], "rank 0 output silently corrupted");
        assert!(out[2] != clean[2], "corruption spread to rank 2");
    }

    #[test]
    fn grid_indexing_is_row_major() {
        let out = World::run(6, NetModel::free(), |comm| {
            let g = Grid::new(comm, 2, 3).unwrap();
            (g.i, g.j, g.row_comm.size(), g.col_comm.size())
        });
        assert_eq!(out[0], (0, 0, 3, 2));
        assert_eq!(out[4], (1, 1, 3, 2));
        assert_eq!(out[5], (1, 2, 3, 2));
    }
}
