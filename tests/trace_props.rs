//! Property-based tests for the trace subsystem: across random fault
//! plans and seeds, every rank's recorded timeline is well-formed —
//! begin/end balanced, timestamps finite and monotone, spans
//! nested-or-disjoint on the main timeline (leaf spans strictly
//! non-overlapping) — and the trace alone reconstructs the simulator's
//! own accounting. A final pair of tests pins the zero-overhead claim:
//! tracing must not move the virtual clock by a single bit.

use proptest::prelude::*;

use integrated_parallelism::collectives::ft::FtConfig;
use integrated_parallelism::dnn::zoo::mlp_tiny;
use integrated_parallelism::integrated::ft_trainer::{train_1p5d_ft_traced, FtTrainConfig};
use integrated_parallelism::integrated::overlap::OverlapPlan;
use integrated_parallelism::integrated::trainer::{
    synthetic_data, train_1p5d, train_1p5d_scheduled, train_1p5d_scheduled_traced,
    train_1p5d_traced, TrainConfig,
};
use integrated_parallelism::integrated::MachineModel;
use integrated_parallelism::mpsim::{
    EventKind, FaultPlan, NetModel, RankTrace, Span, TraceConfig, Track, WorldStats, WorldTrace,
};

/// Slack for interval comparisons. Main-track leaf timestamps are
/// copies of the same clock values, so they compare exactly; channel
/// span starts are reconstructed as `ready_at - transfer` and can land
/// one ulp early.
const EPS: f64 = 1e-12;

/// The per-rank well-formedness invariants from the issue.
fn check_rank(rt: &RankTrace) -> Result<(), TestCaseError> {
    prop_assert_eq!(rt.unclosed, 0, "rank {}: guard span leaked", rt.rank);
    prop_assert_eq!(rt.dropped, 0, "rank {}: ring buffer overflowed", rt.rank);

    for (track, label) in [(Track::Main, "main"), (Track::Channel, "channel")] {
        let evs: Vec<_> = rt.events.iter().filter(|e| e.track == track).collect();

        // Timestamps are finite, spans end after they start, instants
        // are points.
        for e in &evs {
            prop_assert!(
                e.t0.is_finite() && e.t1.is_finite(),
                "rank {} {label}: non-finite time in {}/{}",
                rt.rank,
                e.cat,
                e.name
            );
            prop_assert!(
                e.t1 >= e.t0,
                "rank {} {label}: {}/{} ends before it starts",
                rt.rank,
                e.cat,
                e.name
            );
            if e.kind == EventKind::Instant {
                prop_assert_eq!(e.t0, e.t1, "instant with extent");
            }
            // Both trainers run one iteration body, whose phase events
            // name the iteration they belong to.
            if e.cat == "trainer" && ["forward", "backward", "optimizer_step"].contains(&e.name) {
                prop_assert!(
                    e.arg("iter").is_some(),
                    "rank {} {label}: trainer/{} without an iter arg",
                    rt.rank,
                    e.name
                );
            }
        }

        // End times are monotone in record order: events are recorded
        // when they close, and the clock never runs backwards.
        for w in evs.windows(2) {
            prop_assert!(
                w[1].t1 >= w[0].t1 - EPS,
                "rank {} {label}: t1 regressed, {}/{} [{};{}] then {}/{} [{};{}]",
                rt.rank,
                w[0].cat,
                w[0].name,
                w[0].t0,
                w[0].t1,
                w[1].cat,
                w[1].name,
                w[1].t0,
                w[1].t1
            );
        }

        // Any two spans on one track are nested or disjoint — a
        // partial overlap means two code paths both thought they owned
        // the same stretch of the timeline.
        let mut spans: Vec<_> = evs
            .iter()
            .filter(|e| e.kind == EventKind::Span)
            .copied()
            .collect();
        spans.sort_by(|a, b| a.t0.total_cmp(&b.t0).then(b.t1.total_cmp(&a.t1)));
        for (i, a) in spans.iter().enumerate() {
            for b in &spans[i + 1..] {
                if b.t0 >= a.t1 - EPS {
                    break; // sorted by t0: everything later is disjoint
                }
                prop_assert!(
                    b.t1 <= a.t1 + EPS,
                    "rank {} {label}: partial overlap {}/{} [{};{}] vs {}/{} [{};{}]",
                    rt.rank,
                    a.cat,
                    a.name,
                    a.t0,
                    a.t1,
                    b.cat,
                    b.name,
                    b.t0,
                    b.t1
                );
            }
        }

        // Leaf spans additionally never overlap at all: they partition
        // the stretches where the clock advanced. Zero-duration spans
        // (a drain that found the channel already idle) are points and
        // cannot overlap anything.
        let mut leaves: Vec<_> = spans
            .iter()
            .filter(|e| {
                e.t1 > e.t0
                    && (track == Track::Channel
                        || ["compute", "comm", "drain", "fault"].contains(&e.cat))
            })
            .collect();
        leaves.sort_by(|a, b| a.t0.total_cmp(&b.t0));
        for w in leaves.windows(2) {
            prop_assert!(
                w[1].t0 >= w[0].t1 - EPS,
                "rank {} {label}: leaf overlap {}/{} [{};{}] vs {}/{} [{};{}]",
                rt.rank,
                w[0].cat,
                w[0].name,
                w[0].t0,
                w[0].t1,
                w[1].cat,
                w[1].name,
                w[1].t0,
                w[1].t1
            );
        }
    }
    Ok(())
}

/// Trace-vs-stats agreement (the `trace_analyze` cross-check, as a
/// reusable assertion).
fn check_against_stats(trace: &WorldTrace, stats: &WorldStats) -> Result<(), TestCaseError> {
    for (r, rt) in trace.ranks.iter().enumerate() {
        prop_assert!(
            (rt.comm_wait_secs() - stats.ranks[r].comm_wait_secs).abs() <= 1e-9,
            "rank {r}: trace comm_wait {} vs stats {}",
            rt.comm_wait_secs(),
            stats.ranks[r].comm_wait_secs
        );
        prop_assert!(
            (rt.overlapped_secs() - stats.ranks[r].overlapped_secs).abs() <= 1e-9,
            "rank {r}: trace overlapped {} vs stats {}",
            rt.overlapped_secs(),
            stats.ranks[r].overlapped_secs
        );
        prop_assert!(
            (rt.end_time() - stats.clocks[r].now).abs() <= 1e-9,
            "rank {r}: trace end {} vs clock {}",
            rt.end_time(),
            stats.clocks[r].now
        );
    }
    Ok(())
}

fn ft_cfg(overlap: bool, ckpt_every: usize) -> FtTrainConfig {
    FtTrainConfig {
        lr: 0.3,
        iters: 2,
        seed: 7,
        ckpt_every,
        ft: FtConfig::fixed(10.0).with_attempts(2).with_backoff(0.5),
        machine: MachineModel::cori_knl(),
        overlap,
        ..FtTrainConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Tentpole property: whatever the fault plan does — stragglers,
    /// dropped and corrupted messages, even a mid-run kill — every
    /// rank's trace stays well-formed and reconstructs the stats.
    #[test]
    fn trace_wellformed_under_random_fault_plans(
        seed in 0u64..1000,
        straggle_link in 0usize..8,
        extra_us in 0u64..40,
        drop_link in 0usize..8,
        corrupt_link in 0usize..8,
        kill_pick in 0usize..12,
        overlap_pick in 0usize..2,
        ckpt_every in 1usize..3,
    ) {
        let net = mlp_tiny();
        let (x, labels) = synthetic_data(&net, 16, 5);
        let cfg = ft_cfg(overlap_pick == 1, ckpt_every);

        // Random fault plan over the 2x4 grid's 8 ranks. Links are
        // (src, src+1 mod 8); the kill (when the draw lands on a live
        // rank > 0) happens mid-run relative to typical makespans.
        let mut plan = FaultPlan::new(seed)
            .straggle(
                straggle_link,
                (straggle_link + 1) % 8,
                extra_us as f64 * 1e-6,
                1e-6,
                Span::All,
            )
            .drop_nth(drop_link, (drop_link + 1) % 8, 0)
            .corrupt_nth(corrupt_link, (corrupt_link + 3) % 8, 1);
        if (1..8).contains(&kill_pick) {
            plan = plan.kill(kill_pick, 2e-5);
        }

        let (res, trace) = train_1p5d_ft_traced(
            &net, &x, &labels, &cfg, 2, 4, plan, TraceConfig::enabled(),
        );
        prop_assert_eq!(trace.ranks.len(), 8);
        for rt in &trace.ranks {
            check_rank(rt)?;
        }
        check_against_stats(&trace, &res.stats)?;
        prop_assert!(trace.makespan().is_finite());
    }

    /// The plain and overlapped trainers' traces reconstruct the stats
    /// for arbitrary seeds and grids (no faults: the equality is then
    /// bit-level, but 1e-9 is the contract).
    #[test]
    fn trace_matches_stats_on_clean_runs(
        seed in 0u64..1000,
        grid_pick in 0usize..3,
    ) {
        let (pr, pc) = [(1, 4), (2, 2), (4, 1)][grid_pick];
        let net = mlp_tiny();
        let (x, labels) = synthetic_data(&net, 16, seed);
        let cfg = TrainConfig { lr: 0.2, iters: 2, seed };
        let model = NetModel::cori_knl();

        let (ser, st) = train_1p5d_traced(
            &net, &x, &labels, &cfg, pr, pc, model, TraceConfig::enabled(),
        );
        for rt in &st.ranks {
            check_rank(rt)?;
        }
        check_against_stats(&st, &ser.stats)?;

        let (ovl, ot) = train_1p5d_scheduled_traced(
            &net, &x, &labels, &cfg, pr, pc, model, TraceConfig::enabled(), OverlapPlan::legacy(),
        );
        for rt in &ot.ranks {
            check_rank(rt)?;
        }
        check_against_stats(&ot, &ovl.stats)?;
        // The blocking run attempts no overlap; the traced hidden time
        // must agree.
        let hidden: f64 = st.ranks.iter().map(RankTrace::overlapped_secs).sum();
        prop_assert_eq!(hidden, 0.0);
    }
}

/// Tracing must be invisible to the simulation: identical losses and
/// bit-identical virtual clocks with tracing on, off, and absent.
#[test]
fn tracing_adds_zero_overhead_to_the_virtual_clock() {
    let net = mlp_tiny();
    let (x, labels) = synthetic_data(&net, 16, 9);
    let cfg = TrainConfig {
        lr: 0.2,
        iters: 3,
        seed: 3,
    };
    let model = NetModel::cori_knl();
    for (pr, pc) in [(2usize, 2usize), (1, 4)] {
        let plain = train_1p5d(&net, &x, &labels, &cfg, pr, pc, model);
        let (on, _) = train_1p5d_traced(
            &net,
            &x,
            &labels,
            &cfg,
            pr,
            pc,
            model,
            TraceConfig::enabled(),
        );
        let (off, off_trace) = train_1p5d_traced(
            &net,
            &x,
            &labels,
            &cfg,
            pr,
            pc,
            model,
            TraceConfig::disabled(),
        );
        assert_eq!(off_trace.total_events(), 0, "disabled tracer recorded");
        for (a, b, c) in plain
            .stats
            .clocks
            .iter()
            .zip(&on.stats.clocks)
            .zip(&off.stats.clocks)
            .map(|((a, b), c)| (a, b, c))
        {
            assert_eq!(a.now.to_bits(), b.now.to_bits(), "traced clock moved");
            assert_eq!(a.now.to_bits(), c.now.to_bits(), "disabled clock moved");
            assert_eq!(a.comm.to_bits(), b.comm.to_bits());
            assert_eq!(a.compute.to_bits(), b.compute.to_bits());
        }
        assert_eq!(plain.losses(), on.losses());

        let ovl = train_1p5d_scheduled(
            &net,
            &x,
            &labels,
            &cfg,
            pr,
            pc,
            model,
            OverlapPlan::legacy(),
        );
        let (ovl_on, _) = train_1p5d_scheduled_traced(
            &net,
            &x,
            &labels,
            &cfg,
            pr,
            pc,
            model,
            TraceConfig::enabled(),
            OverlapPlan::legacy(),
        );
        assert_eq!(
            ovl.stats.makespan().to_bits(),
            ovl_on.stats.makespan().to_bits(),
            "tracing perturbed the overlapped run"
        );
        assert_eq!(ovl.losses(), ovl_on.losses());
    }
}
