//! End-to-end fault-tolerance validation: the acceptance scenarios for
//! the fault-injection layer and the checkpoint/shrink/replay trainer.
//!
//! 1. A dropped message surfaces as [`Error::Timeout`] after a bounded
//!    virtual wait instead of hanging the receiver.
//! 2. Killing one rank mid-epoch on a 2×4 grid triggers checkpoint
//!    recovery onto a surviving grid (re-planned with Eq. 8) and
//!    training converges to within 1e-6 of the fault-free loss.
//! 3. An injected bit-flip is caught by the collective checksum and
//!    rolled back — it never propagates into ∆W or the weights.

use proptest::prelude::*;

use integrated_parallelism::collectives::ft::{allreduce_ring_ft, FtConfig};
use integrated_parallelism::collectives::ReduceOp;
use integrated_parallelism::dnn::zoo::mlp_tiny;
use integrated_parallelism::integrated::ft_trainer::{train_1p5d_ft, FtTrainConfig};
use integrated_parallelism::integrated::overlap::{FlushSchedule, OverlapPlan};
use integrated_parallelism::integrated::trainer::{
    synthetic_data, train_1p5d_scheduled, TrainConfig,
};
use integrated_parallelism::integrated::MachineModel;
use integrated_parallelism::mpsim::{Error, FaultPlan, NetModel, Span, World};

fn ft_cfg(iters: usize) -> FtTrainConfig {
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

#[test]
fn dropped_message_times_out_instead_of_hanging() {
    let model = NetModel {
        alpha: 1.0,
        beta: 0.01,
        flops: f64::INFINITY,
    };
    // Drop the first (only) data message from rank 0 to rank 1.
    let plan = FaultPlan::new(1).drop_nth(0, 1, 0);
    let (out, stats) = World::run_with_faults(2, model, plan, |comm| {
        if comm.rank() == 0 {
            comm.send(1, 7, &[1.0, 2.0])?;
            Ok(vec![])
        } else {
            comm.recv_timeout(0, 7, 5.0)
        }
    });
    assert!(out[0].is_ok());
    match &out[1] {
        Err(Error::Timeout {
            rank: 0,
            tag: 7,
            waited,
        }) => {
            assert_eq!(*waited, 5.0, "full deadline was waited out");
        }
        other => panic!("expected a timeout, got {other:?}"),
    }
    assert_eq!(stats.total_dropped(), 1);
    assert_eq!(stats.total_timeouts(), 1);
    // The wait was charged on the virtual clock.
    assert!(stats.clocks[1].now >= 5.0);
}

#[test]
fn killing_one_rank_on_2x4_grid_recovers_and_converges() {
    let net = mlp_tiny();
    let (x, labels) = synthetic_data(&net, 32, 5);
    let cfg = ft_cfg(8);

    let clean = train_1p5d_ft(&net, &x, &labels, &cfg, 2, 4, FaultPlan::default());
    assert_eq!(clean.survivors().len(), 8);

    // Kill global rank 5 halfway through the fault-free makespan —
    // mid-epoch, well inside the training loop.
    let t_kill = clean.stats.makespan() * 0.5;
    let plan = FaultPlan::new(11).kill(5, t_kill);
    let faulty = train_1p5d_ft(&net, &x, &labels, &cfg, 2, 4, plan);

    // The dead rank reports its own failure; everyone else survives.
    assert!(matches!(
        faulty.per_rank[5],
        Err(Error::RankFailed { rank: 5 })
    ));
    let survivors = faulty.survivors();
    assert_eq!(survivors.len(), 7);

    // Every survivor committed the same single recovery onto a 7-rank
    // grid, re-planned with Eq. 8.
    for s in &survivors {
        assert_eq!(s.recoveries.len(), 1);
        let r = &s.recoveries[0];
        assert_eq!(r.dead, vec![5]);
        assert_eq!((r.pr, r.pc), (s.pr, s.pc));
        assert_eq!(s.pr * s.pc, 7);
        assert!(
            r.measured_secs > 0.0,
            "recovery cost is on the virtual clock"
        );
        assert!(r.analytic_comm_per_iter > 0.0);
    }

    // Training completed, and the replayed trajectory converges to the
    // fault-free loss within 1e-6 (synchronous SGD replayed from a
    // checkpoint; only reduction order differs on the reshaped grid).
    let clean_losses = clean.losses();
    let faulty_losses = faulty.losses();
    assert_eq!(faulty_losses.len(), cfg.iters);
    for (a, b) in clean_losses.iter().zip(&faulty_losses) {
        assert!((a - b).abs() < 1e-6, "loss diverged: {a} vs {b}");
    }
    let final_diff = (clean_losses.last().unwrap() - faulty_losses.last().unwrap()).abs();
    assert!(final_diff < 1e-6, "final loss differs by {final_diff}");

    // The recovery is visible in the world statistics.
    assert!(faulty.stats.total_failures_detected() > 0);
    assert!(faulty.stats.max_recovery_secs() > 0.0);
    assert!(faulty.stats.total_ckpt_words() > 0);
    assert!(
        faulty.stats.total_aborts() > 0,
        "the fault was propagated group-wide"
    );

    // Degraded-mode cost: the measured per-iteration communication on
    // the shrunk grid is reported alongside the Eq. 8 analytic value.
    let s = survivors[0];
    assert!(s.comm_secs_per_iter > 0.0);
    // Executed ring collectives vs the paper's ⌈log P⌉ closed form:
    // same bandwidth scaling, so they agree within a small factor.
    let ratio = s.comm_secs_per_iter / s.recoveries[0].analytic_comm_per_iter;
    assert!(
        (0.2..5.0).contains(&ratio),
        "measured/analytic degraded cost ratio {ratio} out of range"
    );
}

#[test]
fn killing_one_rank_recovers_with_overlap_enabled() {
    // The same kill-recovery scenario with the bucketed non-blocking
    // ∆W path on: the deadline-bound chunk receives detect the dead
    // peer, the abort cascades, and checkpoint/shrink/replay converges
    // exactly as in the blocking run.
    let net = mlp_tiny();
    let (x, labels) = synthetic_data(&net, 32, 5);
    let cfg = FtTrainConfig {
        overlap: true,
        ..ft_cfg(8)
    };

    let clean = train_1p5d_ft(&net, &x, &labels, &cfg, 2, 4, FaultPlan::default());
    assert_eq!(clean.survivors().len(), 8);

    let t_kill = clean.stats.makespan() * 0.5;
    let plan = FaultPlan::new(11).kill(5, t_kill);
    let faulty = train_1p5d_ft(&net, &x, &labels, &cfg, 2, 4, plan);

    let survivors = faulty.survivors();
    assert_eq!(survivors.len(), 7);
    let faulty_losses = faulty.losses();
    assert_eq!(faulty_losses.len(), cfg.iters);
    for (a, b) in clean.losses().iter().zip(&faulty_losses) {
        assert!((a - b).abs() < 1e-6, "loss diverged: {a} vs {b}");
    }
    let (_, _, nb_ar, _) = faulty.stats.total_collective_calls();
    assert!(nb_ar > 0, "overlap stayed on through the recovery");
    for s in &survivors {
        assert_eq!(s.recoveries.len(), 1);
        let r = &s.recoveries[0];
        assert_eq!(r.dead, vec![5]);
        assert!(r.comm_wait_secs.is_finite() && r.comm_wait_secs >= 0.0);
    }
}

#[test]
fn corruption_is_detected_not_folded_into_weights() {
    let net = mlp_tiny();
    let (x, labels) = synthetic_data(&net, 24, 5);
    let cfg = ft_cfg(6);

    let clean = train_1p5d_ft(&net, &x, &labels, &cfg, 2, 3, FaultPlan::default());
    // Flip one mantissa bit in a mid-training data payload on the
    // 1→2 link (a ∆W all-reduce message within grid row 0).
    let plan = FaultPlan::new(23).corrupt_nth(1, 2, 40);
    let faulty = train_1p5d_ft(&net, &x, &labels, &cfg, 2, 3, plan);

    assert_eq!(
        faulty.stats.total_corrupt_detected(),
        1,
        "checksum caught the flip"
    );
    assert_eq!(
        faulty.survivors().len(),
        6,
        "a transient fault kills nobody"
    );

    // The corrupted update was discarded and replayed: final weights
    // are bit-identical to the fault-free run, not merely close.
    let wc = clean.weights();
    let wf = faulty.weights();
    let diff: f64 = wc
        .iter()
        .zip(&wf)
        .map(|(a, b)| a.max_abs_diff(b))
        .fold(0.0, f64::max);
    assert_eq!(diff, 0.0, "corruption leaked into the weights");
    assert_eq!(clean.losses(), faulty.losses());
}

#[test]
fn corrupted_allreduce_never_returns_wrong_numbers() {
    // Directly at the collective layer: a corrupted ring all-reduce
    // returns an error on every rank — no rank ever observes a sum
    // built from the flipped payload.
    let plan = FaultPlan::new(5).corrupt_nth(2, 3, 0);
    let (out, stats) = World::run_with_faults(4, NetModel::free(), plan, |comm| {
        let mut data = vec![(comm.rank() + 1) as f64; 8];
        allreduce_ring_ft(comm, &mut data, ReduceOp::Sum, &FtConfig::fixed(100.0)).map(|_| data)
    });
    assert!(out.iter().all(Result::is_err), "no rank completed: {out:?}");
    assert_eq!(stats.total_corrupt_detected(), 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The priority-flush + per-bucket-interleave engine is a pure
    /// *scheduling* change: across random seeds, grids, and bucket
    /// sizes, its final weight shards and per-rank partial losses are
    /// bit-identical to the legacy FIFO launch / barrier drain. (The
    /// one knob excluded is `fwd_prefetch`, which re-associates the
    /// forward row-sum and is covered by a tolerance test instead.)
    #[test]
    fn priority_interleave_is_bit_identical_to_fifo_barrier(
        seed in 0u64..500,
        grid_pick in 0usize..4,
        bucket_pick in 0usize..4,
    ) {
        let (pr, pc) = [(1, 4), (2, 2), (2, 4), (4, 2)][grid_pick];
        let bucket = [64, 1024, 8192, usize::MAX][bucket_pick];
        let net = mlp_tiny();
        let (x, labels) = synthetic_data(&net, 16, seed);
        let cfg = TrainConfig { lr: 0.2, iters: 3, seed };
        let model = NetModel::cori_knl();

        let legacy = train_1p5d_scheduled(
            &net, &x, &labels, &cfg, pr, pc, model,
            OverlapPlan { bucket_words: bucket, ..OverlapPlan::legacy() },
        );
        let plan = OverlapPlan {
            bucket_words: bucket,
            schedule: FlushSchedule::Priority,
            interleave: true,
            ..OverlapPlan::legacy()
        };
        let sched = train_1p5d_scheduled(&net, &x, &labels, &cfg, pr, pc, model, plan);

        for (a, b) in legacy.per_rank.iter().zip(&sched.per_rank) {
            prop_assert_eq!(&a.partial_losses, &b.partial_losses);
            for (wa, wb) in a.weight_shards.iter().zip(&b.weight_shards) {
                prop_assert_eq!(
                    wa.max_abs_diff(wb), 0.0,
                    "weight shard diverged on {}x{} bucket {}", pr, pc, bucket
                );
            }
        }
    }

    /// The same bit-identity holds on the fault-tolerant path while a
    /// random fault plan straggles a link and possibly kills a rank:
    /// checkpoint/shrink/replay under the priority schedule lands on
    /// exactly the weights the FIFO schedule produces, with the same
    /// survivor set.
    #[test]
    fn ft_priority_schedule_matches_fifo_under_kills_and_straggles(
        seed in 0u64..500,
        straggle_link in 0usize..8,
        extra_us in 0u64..40,
        kill_pick in 0usize..12,
    ) {
        let net = mlp_tiny();
        let (x, labels) = synthetic_data(&net, 16, 5);
        let mut fault = FaultPlan::new(seed).straggle(
            straggle_link,
            (straggle_link + 1) % 8,
            extra_us as f64 * 1e-6,
            1e-6,
            Span::All,
        );
        if (1..8).contains(&kill_pick) {
            fault = fault.kill(kill_pick, 2e-5);
        }

        let base = FtTrainConfig { overlap: true, ..ft_cfg(4) };
        let fifo_cfg = FtTrainConfig {
            plan: OverlapPlan { schedule: FlushSchedule::Fifo, ..base.plan },
            ..base
        };
        let prio_cfg = FtTrainConfig {
            plan: OverlapPlan { schedule: FlushSchedule::Priority, ..base.plan },
            ..base
        };
        let fifo = train_1p5d_ft(&net, &x, &labels, &fifo_cfg, 2, 4, fault.clone());
        let prio = train_1p5d_ft(&net, &x, &labels, &prio_cfg, 2, 4, fault);

        let fs: Vec<usize> = (0..8).filter(|&r| fifo.per_rank[r].is_ok()).collect();
        let ps: Vec<usize> = (0..8).filter(|&r| prio.per_rank[r].is_ok()).collect();
        prop_assert_eq!(&fs, &ps, "survivor sets differ");
        if fs.is_empty() {
            return Ok(());
        }
        prop_assert_eq!(fifo.losses(), prio.losses());
        for (a, b) in fifo.weights().iter().zip(&prio.weights()) {
            prop_assert_eq!(a.max_abs_diff(b), 0.0, "weights diverged under faults");
        }
    }
}
