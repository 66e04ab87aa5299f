//! Domain-parallel convolution (the paper's Fig. 3).
//!
//! Every rank replicates the filter weights and owns a horizontal strip
//! of every image in the batch shard (the paper: "for NCHW format, it
//! is best to distribute along the height to avoid non-contiguous
//! memory accesses"). A convolution with kernel `k > 1` needs
//! `⌊k/2⌋` boundary rows from each neighbour — the halo — exchanged
//! pair-wise and non-blocking so it overlaps with the interior
//! convolution. 1×1 convolutions need no communication at all.
//!
//! Scope: `stride = 1`, square odd kernels with "same" padding
//! (`pad = k/2`) — the shape class domain parallelism targets (the
//! interior 3×3/5×5/1×1 layers of AlexNet/VGG/ResNet, where activations
//! are large). Strided layers are still *costed* by the analytic model
//! (`integrated::cost::domain`); executing them would only change
//! strip-boundary bookkeeping, not the communication structure.

use collectives::halo::exchange_1d;
use collectives::{allreduce, ReduceOp};
use mpsim::{Communicator, Result};
use tensor::conv::{conv2d, conv2d_backward, Conv2dParams, Tensor4};
use tensor::Matrix;

use crate::dist::part_range;

const DX_UP_TAG: u64 = (1 << 48) + 96;
const DX_DOWN_TAG: u64 = (1 << 48) + 97;

fn validate(p: &Conv2dParams) {
    assert_eq!(p.stride, 1, "domain-parallel conv supports stride 1");
    assert_eq!(p.kh, p.kw, "domain-parallel conv supports square kernels");
    assert_eq!(p.kh % 2, 1, "domain-parallel conv supports odd kernels");
    assert_eq!(
        p.pad,
        p.kh / 2,
        "domain-parallel conv supports same-padding"
    );
}

/// The strip of global image rows owned by `rank` of `p` for height `h`.
pub fn strip_range(h: usize, p: usize, rank: usize) -> std::ops::Range<usize> {
    part_range(h, p, rank)
}

/// Builds the zero-padded extended strip: `k/2` halo (or zero) rows
/// above and below, and `k/2` zero columns left and right, so the
/// convolution can run with `pad = 0`.
fn extend_strip(
    x_strip: &Tensor4,
    halo_prev: Option<&[f64]>,
    halo_next: Option<&[f64]>,
    k2: usize,
) -> Tensor4 {
    let (n, c, h, w) = (x_strip.n, x_strip.c, x_strip.h, x_strip.w);
    let mut ext = Tensor4::zeros(n, c, h + 2 * k2, w + 2 * k2);
    // Center.
    for ni in 0..n {
        for ci in 0..c {
            for hi in 0..h {
                for wi in 0..w {
                    ext.set(ni, ci, hi + k2, wi + k2, x_strip.get(ni, ci, hi, wi));
                }
            }
        }
    }
    // Halos: flattened as Tensor4(n, c, k2, w) buffers.
    let mut place = |rows: &[f64], h0: usize| {
        let t = Tensor4::from_fn(n, c, k2, w, |ni, ci, hi, wi| {
            rows[((ni * c + ci) * k2 + hi) * w + wi]
        });
        for ni in 0..n {
            for ci in 0..c {
                for hi in 0..k2 {
                    for wi in 0..w {
                        ext.set(ni, ci, h0 + hi, wi + k2, t.get(ni, ci, hi, wi));
                    }
                }
            }
        }
    };
    if let Some(rows) = halo_prev {
        place(rows, 0);
    }
    if let Some(rows) = halo_next {
        place(rows, h + k2);
    }
    ext
}

/// Domain-parallel forward convolution. `x_strip` is this rank's strip
/// of the input (all `B/Pc` samples, all channels, a contiguous block
/// of rows). Returns the matching strip of the output. The halo
/// exchange is overlapped with the interior convolution.
pub fn forward(
    comm: &Communicator,
    x_strip: &Tensor4,
    weights: &Matrix,
    p: &Conv2dParams,
) -> Result<Tensor4> {
    validate(p);
    let k2 = p.kh / 2;
    if k2 == 0 || comm.size() == 1 {
        // 1x1 kernels: zero communication (the paper's special case);
        // single rank: nothing to exchange.
        let flops = 2.0 * weights.len() as f64 * (x_strip.h * x_strip.w * x_strip.n) as f64;
        comm.advance_flops(flops);
        let zero_pad = Conv2dParams { pad: p.pad, ..*p };
        return Ok(conv2d(x_strip, weights, &zero_pad));
    }

    let top_rows = x_strip.row_strip(0, k2.min(x_strip.h));
    let bot_rows = x_strip.row_strip(x_strip.h.saturating_sub(k2), x_strip.h);

    let out_w = x_strip.w; // same-pad
    let per_row_flops = 2.0 * weights.len() as f64 * (out_w * x_strip.n) as f64;
    let interior_rows = x_strip.h.saturating_sub(2 * k2);

    let (halo, ()) = exchange_1d(comm, top_rows.as_slice(), bot_rows.as_slice(), None, || {
        // Interior rows can be convolved while halos are in flight.
        comm.advance_flops(per_row_flops * interior_rows as f64);
    })?;

    let ext = extend_strip(
        x_strip,
        halo.from_prev.as_deref(),
        halo.from_next.as_deref(),
        k2,
    );
    // Boundary rows are charged after the wait.
    comm.advance_flops(per_row_flops * (x_strip.h - interior_rows) as f64);
    let zero_pad = Conv2dParams { pad: 0, ..*p };
    Ok(conv2d(&ext, weights, &zero_pad))
}

/// Domain-parallel backward convolution. Given this rank's strips of
/// the input and the output gradient, returns `(∆W, ∆X_strip)` where
/// `∆W` is all-reduced across the communicator (each rank sees the full
/// weight gradient, as in pure batch parallelism) and `∆X_strip` is the
/// strip of the input gradient, including cross-boundary contributions
/// exchanged with neighbours.
pub fn backward(
    comm: &Communicator,
    x_strip: &Tensor4,
    weights: &Matrix,
    dy_strip: &Tensor4,
    p: &Conv2dParams,
) -> Result<(Matrix, Tensor4)> {
    validate(p);
    let k2 = p.kh / 2;
    let r = comm.rank();
    let size = comm.size();

    let flops = 4.0 * weights.len() as f64 * (dy_strip.h * dy_strip.w * dy_strip.n) as f64;
    comm.advance_flops(flops);

    if k2 == 0 || size == 1 {
        let (mut dw, dx) = conv2d_backward(x_strip, weights, dy_strip, p);
        allreduce(comm, dw.as_mut_slice(), ReduceOp::Sum)?;
        return Ok((dw, dx));
    }

    // Re-exchange input halos (a real implementation would have cached
    // them from the forward pass; the communication volume is the same
    // either way, which is what the cost model charges).
    let top_rows = x_strip.row_strip(0, k2.min(x_strip.h));
    let bot_rows = x_strip.row_strip(x_strip.h.saturating_sub(k2), x_strip.h);
    let (halo, ()) = exchange_1d(comm, top_rows.as_slice(), bot_rows.as_slice(), None, || ())?;
    let ext = extend_strip(
        x_strip,
        halo.from_prev.as_deref(),
        halo.from_next.as_deref(),
        k2,
    );

    // Backward on the extended strip with pad 0: output shape equals
    // dy_strip exactly.
    let zero_pad = Conv2dParams { pad: 0, ..*p };
    let (mut dw, dx_ext) = conv2d_backward(&ext, weights, dy_strip, &zero_pad);

    // ∆W: sum over all strips (and batch shards) — the same all-reduce
    // pure batch parallelism needs (Eq. 7's third term).
    allreduce(comm, dw.as_mut_slice(), ReduceOp::Sum)?;

    // ∆X: peel off the width padding and the halo rows; the halo-row
    // gradients belong to the neighbours, so exchange and add them.
    let (n, c, h, w) = (x_strip.n, x_strip.c, x_strip.h, x_strip.w);
    let mut dx = Tensor4::from_fn(n, c, h, w, |ni, ci, hi, wi| {
        dx_ext.get(ni, ci, hi + k2, wi + k2)
    });
    let to_prev = Tensor4::from_fn(n, c, k2, w, |ni, ci, hi, wi| {
        dx_ext.get(ni, ci, hi, wi + k2)
    });
    let to_next = Tensor4::from_fn(n, c, k2, w, |ni, ci, hi, wi| {
        dx_ext.get(ni, ci, h + k2 + hi, wi + k2)
    });
    if r > 0 {
        comm.send(r - 1, DX_UP_TAG, to_prev.as_slice())?;
    }
    if r + 1 < size {
        comm.send(r + 1, DX_DOWN_TAG, to_next.as_slice())?;
    }
    if r + 1 < size {
        let from_next = comm.recv(r + 1, DX_UP_TAG)?;
        for ni in 0..n {
            for ci in 0..c {
                for hi in 0..k2 {
                    for wi in 0..w {
                        let v = from_next[((ni * c + ci) * k2 + hi) * w + wi];
                        dx.add_at(ni, ci, h - k2 + hi, wi, v);
                    }
                }
            }
        }
    }
    if r > 0 {
        let from_prev = comm.recv(r - 1, DX_DOWN_TAG)?;
        for ni in 0..n {
            for ci in 0..c {
                for hi in 0..k2 {
                    for wi in 0..w {
                        let v = from_prev[((ni * c + ci) * k2 + hi) * w + wi];
                        dx.add_at(ni, ci, hi, wi, v);
                    }
                }
            }
        }
    }
    Ok((dw, dx))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpsim::{NetModel, World};
    use tensor::conv::conv2d_direct;
    use tensor::init;

    fn check_forward(p_ranks: usize, k: usize, h: usize) {
        let params = Conv2dParams {
            in_c: 3,
            out_c: 4,
            kh: k,
            kw: k,
            stride: 1,
            pad: k / 2,
        };
        let x = init::uniform_tensor(2, 3, h, 6, -1.0, 1.0, 31);
        let w = init::uniform(4, params.patch_len(), -0.5, 0.5, 32);
        let y_ref = conv2d_direct(&x, &w, &params);
        let out = World::run(p_ranks, NetModel::free(), |comm| {
            let rng = strip_range(h, p_ranks, comm.rank());
            let strip = x.row_strip(rng.start, rng.end);
            forward(comm, &strip, &w, &params).unwrap()
        });
        for (r, y_strip) in out.iter().enumerate() {
            let rng = strip_range(h, p_ranks, r);
            let expect = y_ref.row_strip(rng.start, rng.end);
            assert!(
                y_strip.approx_eq(&expect, 1e-10),
                "P={p_ranks} k={k} rank {r}: {}",
                y_strip.max_abs_diff(&expect)
            );
        }
    }

    #[test]
    fn forward_matches_serial_3x3() {
        for p in [1, 2, 3, 4] {
            check_forward(p, 3, 12);
        }
    }

    #[test]
    fn forward_matches_serial_5x5() {
        check_forward(2, 5, 13);
        check_forward(3, 5, 13);
    }

    #[test]
    fn forward_matches_serial_1x1() {
        check_forward(4, 1, 8);
    }

    #[test]
    fn one_by_one_conv_sends_nothing() {
        let params = Conv2dParams {
            in_c: 2,
            out_c: 2,
            kh: 1,
            kw: 1,
            stride: 1,
            pad: 0,
        };
        let x = init::uniform_tensor(1, 2, 8, 4, -1.0, 1.0, 33);
        let w = init::uniform(2, 2, -0.5, 0.5, 34);
        let (_, stats) = World::run_with_stats(4, NetModel::cori_knl(), |comm| {
            let rng = strip_range(8, 4, comm.rank());
            let strip = x.row_strip(rng.start, rng.end);
            forward(comm, &strip, &w, &params).unwrap();
        });
        assert_eq!(
            stats.total_words(),
            0,
            "Eq. 7: no halo for 1x1 convolutions"
        );
    }

    #[test]
    fn halo_volume_matches_eq7_term() {
        // Forward halo: each interior rank sends floor(k/2) rows of
        // B*W*C words in each direction.
        let params = Conv2dParams {
            in_c: 3,
            out_c: 2,
            kh: 3,
            kw: 3,
            stride: 1,
            pad: 1,
        };
        let (b, h, w) = (2usize, 12usize, 5usize);
        let x = init::uniform_tensor(b, 3, h, w, -1.0, 1.0, 35);
        let wts = init::uniform(2, params.patch_len(), -0.5, 0.5, 36);
        let (_, stats) = World::run_with_stats(4, NetModel::cori_knl(), |comm| {
            let rng = strip_range(h, 4, comm.rank());
            let strip = x.row_strip(rng.start, rng.end);
            forward(comm, &strip, &wts, &params).unwrap();
        });
        // 3 interior boundaries, 2 directions each: 6 messages of
        // B * X_W * X_C * floor(kh/2) = 2*5*3*1 = 30 words.
        assert_eq!(stats.total_msgs(), 6);
        assert_eq!(stats.total_words(), 6 * (b * w * 3) as u64);
    }

    #[test]
    fn backward_matches_serial() {
        let params = Conv2dParams {
            in_c: 2,
            out_c: 3,
            kh: 3,
            kw: 3,
            stride: 1,
            pad: 1,
        };
        let (b, h, w) = (2usize, 12usize, 5usize);
        let x = init::uniform_tensor(b, 2, h, w, -1.0, 1.0, 41);
        let wts = init::uniform(3, params.patch_len(), -0.5, 0.5, 42);
        let dy = init::uniform_tensor(b, 3, h, w, -1.0, 1.0, 43);
        let (dw_ref, dx_ref) = conv2d_backward(&x, &wts, &dy, &params);
        for p_ranks in [1, 2, 3, 4] {
            let out = World::run(p_ranks, NetModel::free(), |comm| {
                let rng = strip_range(h, p_ranks, comm.rank());
                backward(
                    comm,
                    &x.row_strip(rng.start, rng.end),
                    &wts,
                    &dy.row_strip(rng.start, rng.end),
                    &params,
                )
                .unwrap()
            });
            for (r, (dw, dx)) in out.iter().enumerate() {
                assert!(dw.approx_eq(&dw_ref, 1e-9), "P={p_ranks} rank {r} dW");
                let rng = strip_range(h, p_ranks, r);
                let expect = dx_ref.row_strip(rng.start, rng.end);
                assert!(
                    dx.approx_eq(&expect, 1e-9),
                    "P={p_ranks} rank {r} dX: {}",
                    dx.max_abs_diff(&expect)
                );
            }
        }
    }

    #[test]
    fn halo_overlaps_with_interior_compute() {
        // With a slow network but large interior, the forward halo is
        // fully hidden: comm time stays at zero... except the wait can
        // only be free if compute covers the transfer.
        let model = NetModel {
            alpha: 1e-6,
            beta: 1e-9,
            flops: 1e6,
        }; // slow compute
        let params = Conv2dParams {
            in_c: 2,
            out_c: 2,
            kh: 3,
            kw: 3,
            stride: 1,
            pad: 1,
        };
        let x = init::uniform_tensor(1, 2, 16, 4, -1.0, 1.0, 44);
        let w = init::uniform(2, params.patch_len(), -0.5, 0.5, 45);
        let out = World::run(2, model, |comm| {
            let rng = strip_range(16, 2, comm.rank());
            let strip = x.row_strip(rng.start, rng.end);
            forward(comm, &strip, &w, &params).unwrap();
            comm.clock()
        });
        for c in &out {
            assert!(
                c.comm < 1e-9,
                "halo fully hidden behind interior compute: comm={}",
                c.comm
            );
            assert!(c.compute > 0.0);
        }
    }
}
