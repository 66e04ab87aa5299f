//! Recursive-doubling and Rabenseifner all-reduce variants.
//!
//! These are not the algorithms the paper assumes (it uses the ring),
//! but they are the standard alternatives in Thakur et al., and the
//! ablation benches use them to show where the paper's choice matters:
//! recursive doubling trades `⌈log P⌉` latency for `n·⌈log P⌉`
//! bandwidth — a win only for small messages; Rabenseifner
//! (recursive-halving reduce-scatter + recursive-doubling all-gather)
//! achieves ring bandwidth with logarithmic latency but requires a
//! power-of-two rank count in this implementation.

use mpsim::{Communicator, Result, Tag};

use crate::ft::{guarded, recv, FtConfig};
use crate::op::ReduceOp;

const RD_TAG: Tag = (1 << 48) + 48;
const RH_TAG: Tag = (1 << 48) + 49;
const RG_TAG: Tag = (1 << 48) + 50;

/// Whether `p` is a power of two (and nonzero).
pub fn is_pow2(p: usize) -> bool {
    p != 0 && p & (p - 1) == 0
}

/// Recursive-doubling all-reduce. Cost: `⌈log₂ P⌉·(α + n·β)`.
/// Requires a power-of-two communicator size.
///
/// With an [`FtConfig`] every receive is deadline-bound and a fault
/// aborts the whole group (see [`crate::ft`]); fault-free values and
/// virtual time are those of `ft = None`.
pub fn allreduce_doubling(
    comm: &Communicator,
    data: &mut [f64],
    op: ReduceOp,
    ft: Option<&FtConfig>,
) -> Result<()> {
    comm.record_allreduce();
    let p = comm.size();
    assert!(
        is_pow2(p),
        "recursive doubling requires power-of-two ranks, got {p}"
    );
    let r = comm.rank();
    let _span = comm.trace_span(
        "collective",
        "allreduce_recursive_doubling",
        &[("p", p as f64), ("words", data.len() as f64)],
    );
    guarded(comm, ft, || {
        let mut d = 1usize;
        while d < p {
            let partner = r ^ d;
            let tag = RD_TAG + d as u64;
            comm.send(partner, tag, data)?;
            let incoming = recv(comm, partner, tag, ft)?;
            op.apply(data, &incoming);
            d <<= 1;
        }
        Ok(())
    })
}

/// [`allreduce_doubling`] without a fault-tolerance policy.
pub fn allreduce_recursive_doubling(
    comm: &Communicator,
    data: &mut [f64],
    op: ReduceOp,
) -> Result<()> {
    allreduce_doubling(comm, data, op, None)
}

/// Rabenseifner all-reduce: recursive-halving reduce-scatter followed by
/// recursive-doubling all-gather. Cost:
/// `2·log₂(P)·α + 2·((P−1)/P)·n·β` — same bandwidth as the ring with
/// logarithmic latency. Requires power-of-two `P` and `n` divisible by
/// `P`.
pub fn allreduce_rabenseifner(comm: &Communicator, data: &mut [f64], op: ReduceOp) -> Result<()> {
    comm.record_allreduce();
    let p = comm.size();
    assert!(
        is_pow2(p),
        "Rabenseifner requires power-of-two ranks, got {p}"
    );
    let n = data.len();
    assert!(
        n % p == 0,
        "Rabenseifner requires n divisible by P ({n} % {p})"
    );
    if p == 1 {
        return Ok(());
    }
    let r = comm.rank();
    let _span = comm.trace_span(
        "collective",
        "allreduce_rabenseifner",
        &[("p", p as f64), ("words", n as f64)],
    );

    // Recursive halving reduce-scatter. At each step the active window
    // halves; we keep (lo, len) as the element window this rank is still
    // responsible for.
    let mut lo = 0usize;
    let mut len = n;
    let mut d = p / 2;
    let mut step = 0u64;
    while d >= 1 {
        let partner = r ^ d;
        let half = len / 2;
        // Ranks whose bit is 0 keep the low half, send the high half.
        let keep_low = r & d == 0;
        let (send_lo, keep_lo) = if keep_low {
            (lo + half, lo)
        } else {
            (lo, lo + half)
        };
        let outgoing = data[send_lo..send_lo + half].to_vec();
        comm.send_vec(partner, RH_TAG + step, outgoing)?;
        let incoming = comm.recv(partner, RH_TAG + step)?;
        op.apply(&mut data[keep_lo..keep_lo + half], &incoming);
        lo = keep_lo;
        len = half;
        d /= 2;
        step += 1;
    }

    // Recursive-doubling all-gather of the reduced windows, reversing
    // the halving order.
    let mut d = 1usize;
    while d < p {
        let partner = r ^ d;
        let outgoing = data[lo..lo + len].to_vec();
        comm.send_vec(partner, RG_TAG + d as u64, outgoing)?;
        let incoming = comm.recv(partner, RG_TAG + d as u64)?;
        // Partner's window is the sibling half; merge the two.
        let partner_lo = if r & d == 0 { lo + len } else { lo - len };
        data[partner_lo..partner_lo + len].copy_from_slice(&incoming);
        lo = lo.min(partner_lo);
        len *= 2;
        d <<= 1;
    }
    debug_assert_eq!((lo, len), (0, n));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpsim::{NetModel, World};

    fn contribution(rank: usize, n: usize) -> Vec<f64> {
        (0..n).map(|i| (rank + 1) as f64 * (i + 1) as f64).collect()
    }

    fn expected_sum(p: usize, n: usize) -> Vec<f64> {
        let total: f64 = (1..=p).map(|r| r as f64).sum();
        (0..n).map(|i| total * (i + 1) as f64).collect()
    }

    #[test]
    fn recursive_doubling_sums() {
        for p in [1, 2, 4, 8, 16] {
            let n = 16;
            let out = World::run(p, NetModel::free(), |comm| {
                let mut data = contribution(comm.rank(), n);
                allreduce_recursive_doubling(comm, &mut data, ReduceOp::Sum).unwrap();
                data
            });
            for r in 0..p {
                assert_eq!(out[r], expected_sum(p, n), "p={p} rank={r}");
            }
        }
    }

    #[test]
    fn recursive_doubling_time_matches_formula() {
        let model = NetModel {
            alpha: 1e-3,
            beta: 1e-6,
            flops: f64::INFINITY,
        };
        let p = 8;
        let n = 1000;
        let out = World::run(p, model, |comm| {
            let mut data = vec![1.0; n];
            allreduce_recursive_doubling(comm, &mut data, ReduceOp::Sum).unwrap();
            comm.now()
        });
        let log = (p as f64).log2();
        let expect = log * (model.alpha + n as f64 * model.beta);
        for &t in &out {
            assert!((t - expect).abs() < 1e-12, "{t} vs {expect}");
        }
    }

    #[test]
    fn rabenseifner_sums() {
        for p in [1, 2, 4, 8] {
            let n = 32;
            let out = World::run(p, NetModel::free(), |comm| {
                let mut data = contribution(comm.rank(), n);
                allreduce_rabenseifner(comm, &mut data, ReduceOp::Sum).unwrap();
                data
            });
            for r in 0..p {
                assert_eq!(out[r], expected_sum(p, n), "p={p} rank={r}");
            }
        }
    }

    #[test]
    fn rabenseifner_time_matches_formula() {
        let model = NetModel {
            alpha: 1e-3,
            beta: 1e-6,
            flops: f64::INFINITY,
        };
        let p = 8;
        let n = 800;
        let out = World::run(p, model, |comm| {
            let mut data = vec![1.0; n];
            allreduce_rabenseifner(comm, &mut data, ReduceOp::Sum).unwrap();
            comm.now()
        });
        let log = (p as f64).log2();
        let expect =
            2.0 * log * model.alpha + 2.0 * ((p as f64 - 1.0) / p as f64) * n as f64 * model.beta;
        for &t in &out {
            assert!((t - expect).abs() < 1e-12, "{t} vs {expect}");
        }
    }

    // The event backend re-throws the rank's original panic payload
    // (the threaded oracle wraps it in "rank thread panicked").
    #[test]
    #[should_panic(expected = "requires power-of-two ranks")]
    fn recursive_doubling_rejects_non_pow2() {
        let _ = World::run(3, NetModel::free(), |comm| {
            let mut data = vec![1.0; 3];
            allreduce_recursive_doubling(comm, &mut data, ReduceOp::Sum).unwrap();
        });
    }
}
