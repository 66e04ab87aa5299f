//! Executable training with **per-layer process grids** — the paper's
//! Fig. 7 / Fig. 10 structure where different layers use different
//! `Pr × Pc` factorizations of the same `P`, glued together by the
//! Eq. 6 redistribution (which the paper shows is asymptotically free).
//!
//! Every weighted layer `l` gets its own `(Pr_l, Pc_l)` grid and runs
//! the shared 1.5D ops ([`distmm::onep5d`]) on it; between
//! layers, activations (forward) and activation gradients (backward)
//! are re-laid-out with `distmm::cols::redistribute_cols` — pair-wise
//! sends of exactly the overlap volumes, with one designated sender
//! per source replica group. The result is still synchronous SGD: all
//! grid sequences reproduce the serial trajectory exactly, which the
//! tests pin down (including the Fig. 7 pattern of `1 × P` early
//! layers feeding grid-parallel late layers).

use dnn::Network;
use mpsim::{NetModel, World, WorldStats};
use tensor::ops::axpy;
use tensor::Matrix;

use distmm::cols::redistribute_cols;
use distmm::dist::{part_range, row_shard};
use distmm::onep5d::{backward, forward, Grid};

use crate::trainer::{
    act_backward, apply_act, extract_fc_layers, init_weights, shard_loss, TrainConfig,
};

/// A per-layer grid assignment for an FC network: `grids[l] = (pr, pc)`
/// with `pr·pc = P` for every layer.
#[derive(Debug, Clone)]
pub struct MixedGrids {
    /// Total process count.
    pub p: usize,
    /// One `(pr, pc)` per weighted layer.
    pub grids: Vec<(usize, usize)>,
}

impl MixedGrids {
    /// Validates that every layer's grid tiles `p`.
    pub fn new(p: usize, grids: Vec<(usize, usize)>) -> Result<MixedGrids, String> {
        for (l, &(pr, pc)) in grids.iter().enumerate() {
            if pr * pc != p {
                return Err(format!("layer {l}: {pr}x{pc} does not tile P = {p}"));
            }
        }
        Ok(MixedGrids { p, grids })
    }

    /// The Fig. 7 pattern for an `n_layers` FC stack: the first
    /// `batch_layers` layers pure batch (`1 × P`), the rest on
    /// `pr × pc`.
    pub fn head_batch_tail_grid(
        p: usize,
        n_layers: usize,
        batch_layers: usize,
        pr: usize,
        pc: usize,
    ) -> Result<MixedGrids, String> {
        let mut grids = vec![(1, p); batch_layers.min(n_layers)];
        grids.resize(n_layers, (pr, pc));
        MixedGrids::new(p, grids)
    }
}

/// Outcome of a mixed-grid run.
pub struct MixedResult {
    /// Assembled final weights.
    pub weights: Vec<Matrix>,
    /// Virtual-time and traffic statistics.
    pub stats: WorldStats,
}

/// Distributed full-batch SGD with per-layer grids. With the same grid
/// for every layer this is [`crate::trainer::train_1p5d`], virtual
/// clocks included.
pub fn train_mixed(
    net: &Network,
    x: &Matrix,
    labels: &[usize],
    cfg: &TrainConfig,
    mixed: &MixedGrids,
    model: NetModel,
) -> MixedResult {
    let layers = extract_fc_layers(net);
    assert_eq!(
        layers.len(),
        mixed.grids.len(),
        "one grid per weighted layer"
    );
    let b_global = x.cols();
    let p = mixed.p;
    let n_layers = layers.len();

    // Every rank's column range under a layer's batch split, and one
    // designated sender (grid row 0) per replica group.
    let owned_table = |pc: usize| -> Vec<std::ops::Range<usize>> {
        (0..p).map(|r| part_range(b_global, pc, r % pc)).collect()
    };
    let sender_table = |pc: usize| -> Vec<bool> { (0..p).map(|r| r / pc == 0).collect() };

    let (shards, stats) = World::run_with_stats(p, model, |comm| {
        let grids: Vec<Grid> = mixed
            .grids
            .iter()
            .map(|&(pr, pc)| Grid::new(comm, pr, pc).expect("grid tiles the world"))
            .collect();
        // Eq. 6, executable: re-lay a batch-sharded matrix from layer
        // `from`'s column split to layer `to`'s (identity when equal).
        let relayout = |m: Matrix, from: &Grid, to: &Grid| {
            if from.pc == to.pc {
                return m;
            }
            redistribute_cols(
                comm,
                &m,
                &owned_table(from.pc),
                &owned_table(to.pc),
                &sender_table(from.pc),
            )
            .expect("relayout")
        };
        let mut w_local: Vec<Matrix> = init_weights(&layers, cfg.seed)
            .iter()
            .zip(&grids)
            .map(|(w, g)| row_shard(w, g.pr, g.i))
            .collect();

        for _ in 0..cfg.iters {
            // Forward: `inputs[l]` is layer l's input in its own
            // layout, `posts[l]` its output in the same layout.
            let r0 = grids[0].x_cols(b_global);
            let mut act = x.col_block(r0.start, r0.end);
            let mut inputs: Vec<Matrix> = Vec::with_capacity(n_layers);
            let mut pres: Vec<Matrix> = Vec::with_capacity(n_layers);
            let mut posts: Vec<Matrix> = Vec::with_capacity(n_layers);
            for (l, grid) in grids.iter().enumerate() {
                let pre = forward(grid, &w_local[l], &act).expect("forward");
                let post = apply_act(layers[l].act, &pre);
                let next = grids.get(l + 1).unwrap_or(grid);
                inputs.push(std::mem::replace(
                    &mut act,
                    relayout(post.clone(), grid, next),
                ));
                pres.push(pre);
                posts.push(post);
            }
            let labels_local = &labels[grids[n_layers - 1].x_cols(b_global)];
            let (_loss, mut dy) = shard_loss(&act, labels_local, b_global);
            // Backward with reverse relayouts.
            for (l, grid) in grids.iter().enumerate().rev() {
                dy = act_backward(layers[l].act, &pres[l], &posts[l], &dy);
                let (dw, dx) = backward(grid, &w_local[l], &inputs[l], &dy).expect("backward");
                axpy(-cfg.lr, dw.as_slice(), w_local[l].as_mut_slice());
                dy = relayout(dx, grid, &grids[l.saturating_sub(1)]);
            }
        }
        w_local
    });

    // Assemble each layer from its grid column 0: ranks 0, pc, 2·pc, …
    // hold model shards 0, 1, 2, … in order.
    let weights = mixed
        .grids
        .iter()
        .enumerate()
        .map(|(l, &(_, pc))| {
            let rows: Vec<Matrix> = shards.iter().step_by(pc).map(|w| w[l].clone()).collect();
            Matrix::vcat(&rows)
        })
        .collect();
    MixedResult { weights, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::{synthetic_data, train_serial};
    use dnn::zoo::mlp;

    fn max_diff(a: &[Matrix], b: &[Matrix]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| x.max_abs_diff(y))
            .fold(0.0, f64::max)
    }

    #[test]
    fn uniform_mixed_grids_match_serial() {
        // Sanity: when every layer uses the same grid, mixed == plain.
        let net = mlp("m", &[16, 24, 12, 6]);
        let (x, labels) = synthetic_data(&net, 24, 3);
        let cfg = TrainConfig {
            lr: 0.2,
            iters: 5,
            seed: 8,
        };
        let serial = train_serial(&net, &x, &labels, &cfg);
        let mixed = MixedGrids::new(4, vec![(2, 2); 3]).unwrap();
        let r = train_mixed(&net, &x, &labels, &cfg, &mixed, NetModel::free());
        assert!(max_diff(&serial.weights, &r.weights) < 1e-9);
    }

    #[test]
    fn fig7_pattern_matches_serial() {
        // First layer pure batch (1xP), later layers on a grid — the
        // paper's Fig. 7 structure, executable.
        let net = mlp("m", &[16, 24, 12, 6]);
        let (x, labels) = synthetic_data(&net, 24, 3);
        let cfg = TrainConfig {
            lr: 0.2,
            iters: 5,
            seed: 8,
        };
        let serial = train_serial(&net, &x, &labels, &cfg);
        let mixed = MixedGrids::head_batch_tail_grid(4, 3, 1, 2, 2).unwrap();
        let r = train_mixed(&net, &x, &labels, &cfg, &mixed, NetModel::free());
        assert!(max_diff(&serial.weights, &r.weights) < 1e-9);
    }

    #[test]
    fn every_layer_different_grid_matches_serial() {
        let net = mlp("m", &[16, 24, 12, 6]);
        let (x, labels) = synthetic_data(&net, 24, 3);
        let cfg = TrainConfig {
            lr: 0.15,
            iters: 4,
            seed: 6,
        };
        let serial = train_serial(&net, &x, &labels, &cfg);
        let mixed = MixedGrids::new(8, vec![(1, 8), (4, 2), (8, 1)]).unwrap();
        let r = train_mixed(&net, &x, &labels, &cfg, &mixed, NetModel::free());
        assert!(max_diff(&serial.weights, &r.weights) < 1e-9);
    }

    #[test]
    fn relayout_traffic_is_charged() {
        let net = mlp("m", &[16, 24, 6]);
        let (x, labels) = synthetic_data(&net, 16, 3);
        let cfg = TrainConfig {
            lr: 0.1,
            iters: 1,
            seed: 2,
        };
        let same = MixedGrids::new(4, vec![(2, 2); 2]).unwrap();
        let switching = MixedGrids::new(4, vec![(1, 4), (4, 1)]).unwrap();
        let a = train_mixed(&net, &x, &labels, &cfg, &same, NetModel::cori_knl());
        let b = train_mixed(&net, &x, &labels, &cfg, &switching, NetModel::cori_knl());
        // The switching schedule must pay redistribution words the
        // uniform one doesn't (its ∆W/∆X collectives differ too, so
        // only assert presence of the relayout: distinct totals and
        // nonzero traffic).
        assert!(a.stats.total_words() > 0);
        assert!(b.stats.total_words() > 0);
        assert_ne!(a.stats.total_words(), b.stats.total_words());
    }

    #[test]
    fn mixed_weights_and_words_are_pinned() {
        // Weight bits and executed words, captured before the rank body
        // moved onto the shared 1.5D ops; they must not move.
        let net = mlp("m", &[16, 24, 12, 6]);
        let (x, labels) = synthetic_data(&net, 24, 3);
        let cfg = TrainConfig {
            lr: 0.2,
            iters: 5,
            seed: 8,
        };
        for (grids, weight_bits, words) in [
            (vec![(2, 2); 3], 0x282f_613d_21bd_7be8_u64, 24960),
            (vec![(1, 4), (2, 2), (2, 2)], 0xf295_8ab7_ec19_de8b, 32400),
            (vec![(1, 4), (4, 1), (2, 2)], 0xf1ab_9ed0_3f34_2902, 54720),
        ] {
            let mixed = MixedGrids::new(4, grids.clone()).unwrap();
            let r = train_mixed(&net, &x, &labels, &cfg, &mixed, NetModel::cori_knl());
            let w: Vec<f64> = r
                .weights
                .iter()
                .flat_map(|m| m.as_slice().to_vec())
                .collect();
            assert_eq!(
                (mpsim::fault::checksum(&w), r.stats.total_words()),
                (weight_bits, words),
                "{grids:?}"
            );
        }
    }

    #[test]
    fn uniform_mixed_grids_clock_like_the_1p5d_trainer() {
        // One grid for every layer is the plain 1.5D trainer, GEMM
        // FLOPs included: every rank's clock must agree bit for bit.
        let net = mlp("m", &[16, 24, 12, 6]);
        let (x, labels) = synthetic_data(&net, 24, 3);
        let cfg = TrainConfig {
            lr: 0.2,
            iters: 3,
            seed: 8,
        };
        let model = NetModel::cori_knl();
        for (pr, pc) in [(2, 2), (1, 4), (4, 1)] {
            let mixed = MixedGrids::new(4, vec![(pr, pc); 3]).unwrap();
            let r = train_mixed(&net, &x, &labels, &cfg, &mixed, model);
            let plain = crate::trainer::train_1p5d(&net, &x, &labels, &cfg, pr, pc, model);
            assert_eq!(r.stats.clocks, plain.stats.clocks, "grid {pr}x{pc}");
        }
    }

    #[test]
    fn invalid_grid_is_rejected() {
        assert!(MixedGrids::new(4, vec![(2, 3)]).is_err());
        assert!(MixedGrids::head_batch_tail_grid(4, 3, 1, 2, 2).is_ok());
    }
}
