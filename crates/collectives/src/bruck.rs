//! Bruck all-gather — the algorithm the paper assumes for assembling
//! activations across the model-parallel dimension (Eqs. 3, 8, 9).
//!
//! Cost with `P` ranks and per-rank blocks of `m` words
//! (`n = P·m` total): `⌈log₂ P⌉·α + ((P−1)/P)·n·β`, valid for any `P`
//! (not just powers of two) — which is why latency-sensitive analyses
//! prefer it over the ring's `(P−1)·α`.

use mpsim::{Communicator, Result, Tag};

const BRUCK_TAG: Tag = (1 << 48) + 32;

/// Bruck all-gather of equal-length per-rank blocks. Returns all blocks
/// concatenated in rank order. All ranks must pass the same `mine.len()`.
pub fn allgather_bruck(comm: &Communicator, mine: &[f64]) -> Result<Vec<f64>> {
    comm.record_allgather();
    let p = comm.size();
    let r = comm.rank();
    let m = mine.len();
    if p == 1 {
        return Ok(mine.to_vec());
    }
    let _span = comm.trace_span(
        "collective",
        "allgather_bruck",
        &[("p", p as f64), ("words", (p * m) as f64)],
    );
    // `buf` holds blocks r, r+1, ..., r+have-1 (mod p), concatenated.
    let mut buf = Vec::with_capacity(p * m);
    buf.extend_from_slice(mine);
    let mut have = 1usize;
    while have < p {
        let count = have.min(p - have);
        let dst = (r + p - have) % p; // send toward lower ranks
        let src = (r + have) % p; // receive from higher ranks
        comm.send(dst, BRUCK_TAG + have as u64, &buf[..count * m])?;
        let incoming = comm.recv(src, BRUCK_TAG + have as u64)?;
        debug_assert_eq!(incoming.len(), count * m);
        buf.extend_from_slice(&incoming);
        have += count;
    }
    debug_assert_eq!(buf.len(), p * m);
    // Un-rotate: buf block b is global block (r + b) mod p.
    let mut out = vec![0.0; p * m];
    for b in 0..p {
        let g = (r + b) % p;
        out[g * m..(g + 1) * m].copy_from_slice(&buf[b * m..(b + 1) * m]);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::allgather_ring;
    use mpsim::{NetModel, World};
    use proptest::prelude::*;

    fn rank_block(rank: usize, m: usize) -> Vec<f64> {
        (0..m).map(|i| (rank * 100 + i) as f64).collect()
    }

    #[test]
    fn gathers_in_rank_order_various_p() {
        for p in [1, 2, 3, 4, 5, 7, 8, 12] {
            let m = 4;
            let out = World::run(p, NetModel::free(), |comm| {
                allgather_bruck(comm, &rank_block(comm.rank(), m)).unwrap()
            });
            let expected: Vec<f64> = (0..p).flat_map(|r| rank_block(r, m)).collect();
            for r in 0..p {
                assert_eq!(out[r], expected, "p={p} rank={r}");
            }
        }
    }

    #[test]
    fn time_matches_bruck_formula_power_of_two() {
        let model = NetModel {
            alpha: 1e-3,
            beta: 1e-6,
            flops: f64::INFINITY,
        };
        let p = 8;
        let m = 50;
        let out = World::run(p, model, |comm| {
            allgather_bruck(comm, &vec![1.0; m]).unwrap();
            comm.now()
        });
        let n_total = (p * m) as f64;
        let log = (p as f64).log2().ceil();
        let expect = log * model.alpha + ((p as f64 - 1.0) / p as f64) * n_total * model.beta;
        for &t in &out {
            assert!((t - expect).abs() < 1e-12, "{t} vs {expect}");
        }
    }

    #[test]
    fn time_matches_bruck_formula_non_power_of_two() {
        let model = NetModel {
            alpha: 1e-3,
            beta: 1e-6,
            flops: f64::INFINITY,
        };
        let p = 6; // rounds: have = 1,2,4 -> counts 1,2,2 => 3 = ceil(log2 6)
        let m = 60;
        let out = World::run(p, model, |comm| {
            allgather_bruck(comm, &vec![1.0; m]).unwrap();
            comm.now()
        });
        let log = (p as f64).log2().ceil();
        let words = (p - 1) as f64 * m as f64; // (P-1)/P of total
        let expect = log * model.alpha + words * model.beta;
        for &t in &out {
            assert!((t - expect).abs() < 1e-12, "{t} vs {expect}");
        }
    }

    #[test]
    fn bruck_has_lower_latency_than_ring() {
        let model = NetModel {
            alpha: 1.0,
            beta: 0.0,
            flops: f64::INFINITY,
        };
        let p = 16;
        let bruck = World::run(p, model, |comm| {
            allgather_bruck(comm, &[1.0]).unwrap();
            comm.now()
        });
        let ring = World::run(p, model, |comm| {
            allgather_ring(comm, &[1.0], None).unwrap();
            comm.now()
        });
        assert!((bruck[0] - 4.0).abs() < 1e-12, "log2(16) rounds");
        assert!((ring[0] - 15.0).abs() < 1e-12, "P-1 rounds");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn agrees_with_ring_allgather(p in 1usize..10, m in 1usize..20) {
            let a = World::run(p, NetModel::free(), move |comm| {
                allgather_bruck(comm, &rank_block(comm.rank(), m)).unwrap()
            });
            let b = World::run(p, NetModel::free(), move |comm| {
                allgather_ring(comm, &rank_block(comm.rank(), m), None).unwrap()
            });
            prop_assert_eq!(a, b);
        }
    }
}
