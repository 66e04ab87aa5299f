//! Ring collectives: all-gather, reduce-scatter, and the ring all-reduce
//! (reduce-scatter + all-gather) the paper's Eq. 4 assumes.
//!
//! Cost with `P` ranks and `n` words (n divisible by `P`):
//!
//! * reduce-scatter: `(P−1)·α + ((P−1)/P)·n·β`
//! * all-gather:     `(P−1)·α + ((P−1)/P)·n·β`
//! * all-reduce:     `2(P−1)·α + 2((P−1)/P)·n·β`

use mpsim::{Communicator, Result, Tag};

use crate::chunks::block_range;
use crate::ft::{guarded, recv, FtConfig};
use crate::op::ReduceOp;

pub(crate) const RS_TAG: Tag = (1 << 48) + 16;
const AG_TAG: Tag = (1 << 48) + 17;

/// Ring reduce-scatter: after the call, this rank's block
/// `block_range(n, P, (rank+1) % P)` holds the fully reduced values;
/// other positions of `data` are garbage (partially reduced).
/// Returns the index of the block this rank owns.
fn reduce_scatter_ring(
    comm: &Communicator,
    data: &mut [f64],
    op: ReduceOp,
    ft: Option<&FtConfig>,
) -> Result<usize> {
    let p = comm.size();
    let r = comm.rank();
    if p == 1 {
        return Ok(0);
    }
    let _span = comm.trace_span(
        "collective",
        "reduce_scatter_ring",
        &[("p", p as f64), ("words", data.len() as f64)],
    );
    let n = data.len();
    let next = (r + 1) % p;
    let prev = (r + p - 1) % p;
    for step in 0..p - 1 {
        let send_idx = (r + p - step) % p;
        let recv_idx = (r + p - step - 1) % p;
        let send_block = data[block_range(n, p, send_idx)].to_vec();
        comm.send_vec(next, RS_TAG, send_block)?;
        let incoming = recv(comm, prev, RS_TAG, ft)?;
        op.apply(&mut data[block_range(n, p, recv_idx)], &incoming);
    }
    Ok((r + 1) % p)
}

/// Ring all-gather of per-rank blocks already placed in `data`: rank `r`
/// contributes the block `block_range(n, P, owned)` where
/// `owned = (r+1) % P` (the reduce-scatter ownership convention). After
/// the call every rank holds all blocks.
fn allgather_ring_inplace(
    comm: &Communicator,
    data: &mut [f64],
    ft: Option<&FtConfig>,
) -> Result<()> {
    let p = comm.size();
    let r = comm.rank();
    if p == 1 {
        return Ok(());
    }
    let _span = comm.trace_span(
        "collective",
        "allgather_ring",
        &[("p", p as f64), ("words", data.len() as f64)],
    );
    let n = data.len();
    let next = (r + 1) % p;
    let prev = (r + p - 1) % p;
    for step in 0..p - 1 {
        let send_idx = (r + 1 + p - step) % p;
        let recv_idx = (r + p - step) % p;
        let send_block = data[block_range(n, p, send_idx)].to_vec();
        comm.send_vec(next, AG_TAG, send_block)?;
        let incoming = recv(comm, prev, AG_TAG, ft)?;
        data[block_range(n, p, recv_idx)].copy_from_slice(&incoming);
    }
    Ok(())
}

/// Ring all-reduce (reduce-scatter then all-gather). This is the
/// algorithm behind the `2(α⌈log P⌉ + β·(P−1)/P·|W|)` gradient-sum terms
/// of the paper's Eqs. 4, 7, 8 and 9 (the paper substitutes `⌈log P⌉`
/// for the ring's `P−1` latency factor; see `cost::paper_allreduce`).
///
/// With an [`FtConfig`] every receive is deadline-bound and a fault
/// aborts the whole group (see [`crate::ft`]); data movement, values
/// and fault-free virtual time are those of `ft = None`.
pub fn allreduce_ring(
    comm: &Communicator,
    data: &mut [f64],
    op: ReduceOp,
    ft: Option<&FtConfig>,
) -> Result<()> {
    comm.record_allreduce();
    if comm.size() == 1 {
        return Ok(());
    }
    let _span = comm.trace_span(
        "collective",
        "allreduce_ring",
        &[("p", comm.size() as f64), ("words", data.len() as f64)],
    );
    guarded(comm, ft, || {
        reduce_scatter_ring(comm, data, op, ft)?;
        allgather_ring_inplace(comm, data, ft)
    })
}

/// Ring all-gather of equal-size per-rank blocks (`mine` from each rank,
/// concatenated in rank order in the result). `ft` as in
/// [`allreduce_ring`].
pub fn allgather_ring(
    comm: &Communicator,
    mine: &[f64],
    ft: Option<&FtConfig>,
) -> Result<Vec<f64>> {
    comm.record_allgather();
    let p = comm.size();
    let r = comm.rank();
    let m = mine.len();
    let mut out = vec![0.0; m * p];
    out[r * m..(r + 1) * m].copy_from_slice(mine);
    if p == 1 {
        return Ok(out);
    }
    let _span = comm.trace_span(
        "collective",
        "allgather_ring",
        &[("p", p as f64), ("words", (m * p) as f64)],
    );
    let next = (r + 1) % p;
    let prev = (r + p - 1) % p;
    guarded(comm, ft, || {
        for step in 0..p - 1 {
            let send_idx = (r + p - step) % p;
            let recv_idx = (r + p - step - 1) % p;
            let block = out[send_idx * m..(send_idx + 1) * m].to_vec();
            comm.send_vec(next, AG_TAG, block)?;
            let incoming = recv(comm, prev, AG_TAG, ft)?;
            out[recv_idx * m..(recv_idx + 1) * m].copy_from_slice(&incoming);
        }
        Ok(())
    })?;
    Ok(out)
}

/// Ring all-gather of *variable-length* per-rank blocks: returns one
/// vector per rank, indexed by rank. Same cost structure as
/// [`allgather_ring`], with the bandwidth term determined by the total
/// length. `ft` as in [`allreduce_ring`].
pub fn allgatherv(
    comm: &Communicator,
    mine: &[f64],
    ft: Option<&FtConfig>,
) -> Result<Vec<Vec<f64>>> {
    comm.record_allgather();
    let p = comm.size();
    let r = comm.rank();
    let mut out: Vec<Vec<f64>> = vec![Vec::new(); p];
    out[r] = mine.to_vec();
    if p == 1 {
        return Ok(out);
    }
    let _span = comm.trace_span(
        "collective",
        "allgatherv_ring",
        &[("p", p as f64), ("words", mine.len() as f64)],
    );
    let next = (r + 1) % p;
    let prev = (r + p - 1) % p;
    guarded(comm, ft, || {
        for step in 0..p - 1 {
            let send_idx = (r + p - step) % p;
            let recv_idx = (r + p - step - 1) % p;
            comm.send(next, AG_TAG, &out[send_idx])?;
            out[recv_idx] = recv(comm, prev, AG_TAG, ft)?;
        }
        Ok(())
    })?;
    Ok(out)
}

/// [`allgatherv`] without a fault-tolerance policy.
pub fn allgatherv_ring(comm: &Communicator, mine: &[f64]) -> Result<Vec<Vec<f64>>> {
    allgatherv(comm, mine, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpsim::{NetModel, World};

    fn expected_sum(p: usize, n: usize) -> Vec<f64> {
        // Rank r contributes value (r+1) at every position scaled by index.
        let total: f64 = (1..=p).map(|r| r as f64).sum();
        (0..n).map(|i| total * (i + 1) as f64).collect()
    }

    fn contribution(rank: usize, n: usize) -> Vec<f64> {
        (0..n).map(|i| (rank + 1) as f64 * (i + 1) as f64).collect()
    }

    #[test]
    fn allreduce_sums_across_ranks() {
        for p in [1, 2, 3, 4, 5, 8] {
            let n = 24;
            let out = World::run(p, NetModel::free(), |comm| {
                let mut data = contribution(comm.rank(), n);
                allreduce_ring(comm, &mut data, ReduceOp::Sum, None).unwrap();
                data
            });
            for r in 0..p {
                assert_eq!(out[r], expected_sum(p, n), "p={p} rank={r}");
            }
        }
    }

    #[test]
    fn allreduce_max() {
        let out = World::run(4, NetModel::free(), |comm| {
            let mut data = vec![comm.rank() as f64; 8];
            allreduce_ring(comm, &mut data, ReduceOp::Max, None).unwrap();
            data
        });
        for r in 0..4 {
            assert_eq!(out[r], vec![3.0; 8]);
        }
    }

    #[test]
    fn allreduce_handles_len_not_divisible_by_p() {
        let p = 4;
        let n = 10; // not divisible by 4
        let out = World::run(p, NetModel::free(), |comm| {
            let mut data = contribution(comm.rank(), n);
            allreduce_ring(comm, &mut data, ReduceOp::Sum, None).unwrap();
            data
        });
        for r in 0..p {
            assert_eq!(out[r], expected_sum(p, n));
        }
    }

    #[test]
    fn allreduce_time_matches_thakur_ring_formula() {
        let model = NetModel {
            alpha: 1e-3,
            beta: 1e-6,
            flops: f64::INFINITY,
        };
        let p = 8;
        let n = 8 * 125; // divisible by p
        let out = World::run(p, model, |comm| {
            let mut data = vec![1.0; n];
            allreduce_ring(comm, &mut data, ReduceOp::Sum, None).unwrap();
            comm.now()
        });
        let expect = 2.0 * (p as f64 - 1.0) * model.alpha
            + 2.0 * ((p as f64 - 1.0) / p as f64) * n as f64 * model.beta;
        for (r, &t) in out.iter().enumerate() {
            assert!((t - expect).abs() < 1e-12, "rank {r}: {t} vs {expect}");
        }
    }

    #[test]
    fn allgather_ring_concatenates_in_rank_order() {
        let p = 5;
        let m = 3;
        let out = World::run(p, NetModel::free(), |comm| {
            let mine: Vec<f64> = (0..m).map(|i| (comm.rank() * 10 + i) as f64).collect();
            allgather_ring(comm, &mine, None).unwrap()
        });
        let expected: Vec<f64> = (0..p)
            .flat_map(|r| (0..m).map(move |i| (r * 10 + i) as f64))
            .collect();
        for r in 0..p {
            assert_eq!(out[r], expected);
        }
    }

    #[test]
    fn allgather_ring_time_matches_formula() {
        let model = NetModel {
            alpha: 1e-3,
            beta: 1e-6,
            flops: f64::INFINITY,
        };
        let p = 6;
        let m = 100;
        let out = World::run(p, model, |comm| {
            let mine = vec![1.0; m];
            allgather_ring(comm, &mine, None).unwrap();
            comm.now()
        });
        let n_total = (p * m) as f64;
        let expect =
            (p as f64 - 1.0) * model.alpha + ((p as f64 - 1.0) / p as f64) * n_total * model.beta;
        for &t in &out {
            assert!((t - expect).abs() < 1e-12, "{t} vs {expect}");
        }
    }

    #[test]
    fn reduce_scatter_owned_block_is_correct() {
        let p = 4;
        let n = 16;
        let out = World::run(p, NetModel::free(), |comm| {
            let mut data = contribution(comm.rank(), n);
            let owned = reduce_scatter_ring(comm, &mut data, ReduceOp::Sum, None).unwrap();
            let range = crate::chunks::block_range(n, p, owned);
            (owned, data[range].to_vec())
        });
        let full = expected_sum(p, n);
        for r in 0..p {
            let (owned, ref block) = out[r];
            assert_eq!(owned, (r + 1) % p);
            let range = crate::chunks::block_range(n, p, owned);
            assert_eq!(block.as_slice(), &full[range]);
        }
    }

    #[test]
    fn allgatherv_handles_uneven_blocks() {
        let p = 4;
        let out = World::run(p, NetModel::free(), |comm| {
            // Rank r contributes r+1 elements, each equal to its rank.
            let mine = vec![comm.rank() as f64; comm.rank() + 1];
            allgatherv_ring(comm, &mine).unwrap()
        });
        for r in 0..p {
            for (src, block) in out[r].iter().enumerate() {
                assert_eq!(block, &vec![src as f64; src + 1], "rank {r} block {src}");
            }
        }
    }

    #[test]
    fn single_rank_is_identity() {
        let out = World::run(1, NetModel::cori_knl(), |comm| {
            let mut data = vec![3.0, 4.0];
            allreduce_ring(comm, &mut data, ReduceOp::Sum, None).unwrap();
            (data, comm.now())
        });
        assert_eq!(out[0].0, vec![3.0, 4.0]);
        assert_eq!(out[0].1, 0.0, "no communication for P=1");
    }
}
