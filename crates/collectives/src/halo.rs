//! Non-blocking halo exchange — the communication pattern of domain
//! parallelism (the paper's Fig. 3).
//!
//! Each rank owns a contiguous horizontal strip of every image in its
//! batch shard; convolutions with `k > 1` need `⌊k/2⌋` boundary rows
//! from each neighbour. The paper stresses that this exchange is
//! *pair-wise and non-blocking*: the interior of the strip can be
//! convolved while boundary rows are in flight, so (unlike the
//! model-parallel all-gather) the cost can be overlapped with compute.
//! `exchange_1d` models exactly that via `irecv`/`wait`.

use mpsim::{Communicator, Result, Tag};

use crate::ft::{guarded, FtConfig};

const HALO_UP_TAG: Tag = (1 << 48) + 80; // data travelling to rank-1
const HALO_DOWN_TAG: Tag = (1 << 48) + 81; // data travelling to rank+1

/// Halo data received from the two neighbours of a 1-D (non-periodic)
/// strip decomposition.
#[derive(Debug, Clone, PartialEq)]
pub struct Halo {
    /// Rows received from `rank - 1` (None at the top boundary).
    pub from_prev: Option<Vec<f64>>,
    /// Rows received from `rank + 1` (None at the bottom boundary).
    pub from_next: Option<Vec<f64>>,
}

/// Performs a non-blocking 1-D halo exchange along the communicator,
/// overlapping the transfers with `interior_compute` (a closure that
/// should advance the virtual clock, e.g. via
/// [`Communicator::advance_flops`]).
///
/// * `to_prev` — boundary rows this rank sends *up* (ignored at rank 0).
/// * `to_next` — boundary rows this rank sends *down* (ignored at the
///   last rank).
/// * `ft` — with a policy, each neighbour's arrival must beat its
///   deadline (measured from the post, like
///   [`Communicator::irecv_timeout`]); a missing or late halo surfaces
///   as [`mpsim::Error::Timeout`] and aborts the group (see
///   [`crate::ft`]). Overlap is unchanged.
///
/// Returns the halos and the closure's output. If the interior compute
/// takes longer than the transfers, the exchange is free in virtual
/// time — the paper's best case.
pub fn exchange_1d<T>(
    comm: &Communicator,
    to_prev: &[f64],
    to_next: &[f64],
    ft: Option<&FtConfig>,
    interior_compute: impl FnOnce() -> T,
) -> Result<(Halo, T)> {
    let p = comm.size();
    let r = comm.rank();
    let post = |src: usize, tag: Tag| match ft {
        Some(cfg) => comm.irecv_timeout(src, tag, cfg.deadline.resolve(comm, src)),
        None => comm.irecv(src, tag),
    };
    guarded(comm, ft, || {
        let up = (r + 1 < p).then(|| post(r + 1, HALO_UP_TAG)).transpose()?;
        let down = (r > 0).then(|| post(r - 1, HALO_DOWN_TAG)).transpose()?;
        if r > 0 {
            comm.send(r - 1, HALO_UP_TAG, to_prev)?;
        }
        if r + 1 < p {
            comm.send(r + 1, HALO_DOWN_TAG, to_next)?;
        }
        let out = interior_compute();
        let from_next = up.map(|h| comm.wait(h)).transpose()?;
        let from_prev = down.map(|h| comm.wait(h)).transpose()?;
        Ok((
            Halo {
                from_prev,
                from_next,
            },
            out,
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpsim::{NetModel, World};

    #[test]
    fn neighbours_receive_each_others_boundaries() {
        let p = 4;
        let out = World::run(p, NetModel::free(), |comm| {
            let r = comm.rank() as f64;
            let (halo, ()) =
                exchange_1d(comm, &[r * 10.0], &[r * 10.0 + 1.0], None, || ()).unwrap();
            halo
        });
        // Rank 0: no prev, next sends its "up" boundary 10.0.
        assert_eq!(out[0].from_prev, None);
        assert_eq!(out[0].from_next, Some(vec![10.0]));
        // Rank 1: prev sends "down" boundary 1.0; next sends "up" 20.0.
        assert_eq!(out[1].from_prev, Some(vec![1.0]));
        assert_eq!(out[1].from_next, Some(vec![20.0]));
        // Last rank: no next.
        assert_eq!(out[3].from_prev, Some(vec![21.0]));
        assert_eq!(out[3].from_next, None);
    }

    #[test]
    fn exchange_is_free_when_compute_covers_it() {
        let model = NetModel {
            alpha: 1.0,
            beta: 0.01,
            flops: f64::INFINITY,
        };
        let out = World::run(3, model, |comm| {
            let (_halo, ()) = exchange_1d(comm, &[0.0; 10], &[0.0; 10], None, || {
                comm.advance_compute(100.0);
            })
            .unwrap();
            comm.now()
        });
        for &t in &out {
            assert!((t - 100.0).abs() < 1e-12, "fully hidden: {t}");
        }
    }

    #[test]
    fn exchange_cost_is_exposed_without_compute() {
        let model = NetModel {
            alpha: 1.0,
            beta: 0.5,
            flops: f64::INFINITY,
        };
        let out = World::run(3, model, |comm| {
            let (_halo, ()) = exchange_1d(comm, &[0.0; 4], &[0.0; 4], None, || ()).unwrap();
            comm.now()
        });
        // Each transfer: alpha + 4*beta = 3.0; exchanges overlap, so the
        // makespan is a single transfer time.
        for &t in &out {
            assert!((t - 3.0).abs() < 1e-12, "{t}");
        }
    }

    #[test]
    fn single_rank_has_no_halo() {
        let out = World::run(1, NetModel::cori_knl(), |comm| {
            let (halo, v) = exchange_1d(comm, &[1.0], &[2.0], None, || 42).unwrap();
            (halo, v, comm.now())
        });
        assert_eq!(
            out[0].0,
            Halo {
                from_prev: None,
                from_next: None
            }
        );
        assert_eq!(out[0].1, 42);
        assert_eq!(out[0].2, 0.0);
    }
}
