//! Fault-tolerant collective variants.
//!
//! The plain collectives in this crate assume a reliable network and
//! live peers: a dropped message would block a ring step forever, and a
//! mid-collective rank death would leave every other member stuck. The
//! `_ft` variants here wrap the same algorithms (identical data
//! movement and α–β cost in the fault-free case) in three defenses:
//!
//! 1. **Timeout-aware receives** — every blocking receive uses
//!    [`mpsim::Communicator::recv_retry`] with the [`FtConfig`]
//!    deadline, so a dropped or straggling message surfaces as
//!    [`mpsim::Error::Timeout`] after a bounded, virtual-clock-charged
//!    wait instead of hanging.
//! 2. **Checksum verification** — `mpsim` stamps an FNV checksum on
//!    every data envelope while a fault plan is active and re-verifies
//!    it at the receiver, so corrupted payloads surface as
//!    [`mpsim::Error::Corrupted`] rather than silently folding a
//!    flipped bit into a reduction.
//! 3. **Group-wide abort** — a member that observes any fault
//!    (timeout, corruption, peer death) broadcasts an abort notice
//!    blaming a culprit rank before propagating the error. A member
//!    blocked on a receive from an aborting peer unblocks with
//!    [`mpsim::Error::Aborted`] and *cascades* the abort in turn, so
//!    the whole group converges on a consistent "this collective
//!    failed, rank k is to blame" outcome. (Cascading is what makes
//!    the protocol live: each blocked rank waits on exactly one peer,
//!    and that peer either sends the data, dies — death notices are
//!    broadcast — or aborts and cascades.)
//!
//! After an abort, ranks are expected to run a failure-agreement round
//! ([`mpsim::Communicator::fault_sync`]), shrink the communicator
//! ([`mpsim::Communicator::shrink_exclude`]), bump the recovery epoch
//! (staling any in-flight aborts), and retry on the survivor grid —
//! the protocol the `integrated` crate's fault-tolerant trainer
//! implements.

use mpsim::{Communicator, Error, NetModel, Result, RetryPolicy, Tag};

use crate::chunks::block_range;
use crate::op::ReduceOp;
use crate::recursive::is_pow2;

const FT_RS_TAG: Tag = (1 << 48) + 96;
const FT_AG_TAG: Tag = (1 << 48) + 97;
const FT_RD_TAG: Tag = (1 << 48) + 98;
const FT_HALO_UP_TAG: Tag = (1 << 48) + 99;
const FT_HALO_DOWN_TAG: Tag = (1 << 48) + 100;

/// How the per-receive deadline of a fault-tolerant collective is
/// chosen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Deadline {
    /// A fixed deadline in virtual seconds, identical for every peer.
    Fixed(f64),
    /// Per-peer deadlines learned by the adaptive failure detector
    /// (mean + k·σ of observed receive waits, see
    /// [`mpsim::HealthMonitor`]), falling back to `fallback` until
    /// enough samples exist for a peer.
    Adaptive {
        /// Deadline used while the detector lacks samples.
        fallback: f64,
    },
}

impl Deadline {
    /// Resolves the deadline for receiving from communicator-local
    /// rank `src` on `comm`.
    pub fn resolve(&self, comm: &Communicator, src: usize) -> f64 {
        match *self {
            Deadline::Fixed(t) => t,
            Deadline::Adaptive { fallback } => comm.adaptive_deadline(src).unwrap_or(fallback),
        }
    }

    /// The deadline used when no peer statistics are available.
    pub fn fallback(&self) -> f64 {
        match *self {
            Deadline::Fixed(t) | Deadline::Adaptive { fallback: t } => t,
        }
    }
}

/// Receive policy for fault-tolerant collectives.
///
/// Prefer deriving one from the network model
/// ([`FtConfig::for_model`], [`FtConfig::adaptive`]) over hard-coding
/// seconds: a deadline that is generous on one α–β point is a hair
/// trigger on another.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FtConfig {
    /// Deadline policy for each receive attempt.
    pub deadline: Deadline,
    /// Total receive attempts per message (≥ 1).
    pub attempts: usize,
    /// Base backoff (virtual seconds) before the second attempt.
    pub backoff: f64,
    /// Multiplicative backoff growth per retry (1.0 = constant).
    pub backoff_factor: f64,
    /// Jitter fraction in `[0, 1]` stretching each backoff pause by a
    /// deterministic per-(link, retry) draw.
    pub jitter: f64,
    /// After the retry schedule is exhausted by timeouts, issue one
    /// speculative re-request with an extended window if the detector
    /// ranks the peer *suspect but not presumed dead* (straggler
    /// mitigation).
    pub speculative: bool,
}

impl FtConfig {
    /// A single-attempt policy with a fixed per-receive deadline.
    pub fn fixed(timeout: f64) -> Self {
        assert!(timeout > 0.0, "timeout must be positive");
        FtConfig {
            deadline: Deadline::Fixed(timeout),
            attempts: 1,
            backoff: 0.0,
            backoff_factor: 1.0,
            jitter: 0.0,
            speculative: false,
        }
    }

    /// A policy derived from the α–β network model: the deadline is a
    /// generous multiple of the point-to-point time of a
    /// `words_hint`-word message (so only genuine faults trip it), with
    /// three attempts under exponential, jittered backoff starting at a
    /// few α.
    pub fn for_model(m: &NetModel, words_hint: usize) -> Self {
        let t = (64.0 * m.ptp(words_hint)).max(1e-9);
        FtConfig {
            deadline: Deadline::Fixed(t),
            attempts: 3,
            backoff: (4.0 * m.alpha).max(1e-12),
            backoff_factor: 2.0,
            jitter: 0.25,
            speculative: false,
        }
    }

    /// Like [`FtConfig::for_model`], but with per-peer deadlines
    /// learned by the adaptive failure detector (the model-derived
    /// value is only the cold-start fallback) and speculative
    /// re-requests for suspect peers enabled.
    pub fn adaptive(m: &NetModel, words_hint: usize) -> Self {
        let base = FtConfig::for_model(m, words_hint);
        FtConfig {
            deadline: Deadline::Adaptive {
                fallback: base.deadline.fallback(),
            },
            speculative: true,
            ..base
        }
    }

    /// Sets the number of attempts per receive.
    pub fn with_attempts(mut self, attempts: usize) -> Self {
        assert!(attempts >= 1, "need at least one attempt");
        self.attempts = attempts;
        self
    }

    /// Sets the base backoff between attempts.
    pub fn with_backoff(mut self, backoff: f64) -> Self {
        assert!(backoff >= 0.0, "backoff must be non-negative");
        self.backoff = backoff;
        self
    }

    /// Sets the multiplicative backoff growth per retry.
    pub fn with_backoff_factor(mut self, factor: f64) -> Self {
        assert!(factor >= 1.0, "backoff factor must be >= 1");
        self.backoff_factor = factor;
        self
    }

    /// Sets the backoff jitter fraction.
    pub fn with_jitter(mut self, jitter: f64) -> Self {
        assert!((0.0..=1.0).contains(&jitter), "jitter must be in [0, 1]");
        self.jitter = jitter;
        self
    }

    /// Enables or disables speculative re-requests for suspect peers.
    pub fn with_speculative(mut self, speculative: bool) -> Self {
        self.speculative = speculative;
        self
    }

    /// Replaces the deadline policy.
    pub fn with_deadline(mut self, deadline: Deadline) -> Self {
        self.deadline = deadline;
        self
    }
}

/// The global rank to blame for a fault error observed on `comm`, or
/// `None` when the error is not a fault (or is this rank's own death,
/// which is already announced by a death notice).
pub(crate) fn blame(comm: &Communicator, e: &Error) -> Option<usize> {
    match e {
        Error::Timeout { rank, .. } | Error::Corrupted { rank, .. } => {
            comm.global_rank_of(*rank).ok()
        }
        Error::RankFailed { rank } => {
            let me = comm
                .global_rank_of(comm.rank())
                .expect("own rank is in range");
            (*rank != me).then_some(*rank)
        }
        Error::Aborted { culprit } => Some(*culprit),
        // A partition cut is blamed on the unreachable peer: the abort
        // cascades through the reachable fragment exactly like a death,
        // driving every member into recovery with the same culprit.
        Error::Unreachable { rank } => Some(*rank),
        _ => None,
    }
}

/// Runs a collective body; on a fault error, broadcasts (or cascades)
/// an abort blaming the culprit before propagating the error.
fn guarded<T>(comm: &Communicator, body: impl FnOnce() -> Result<T>) -> Result<T> {
    body().inspect_err(|e| {
        if let Some(culprit) = blame(comm, e) {
            // Best effort: if this rank dies while aborting, its death
            // notice keeps the group live anyway.
            let _ = comm.send_abort(culprit);
        }
    })
}

fn recv_ft(comm: &Communicator, src: usize, tag: Tag, cfg: &FtConfig) -> Result<Vec<f64>> {
    let timeout = cfg.deadline.resolve(comm, src);
    let policy = RetryPolicy {
        timeout,
        attempts: cfg.attempts,
        backoff: cfg.backoff,
        factor: cfg.backoff_factor,
        jitter: cfg.jitter,
    };
    match comm.recv_retry_policy(src, tag, &policy) {
        // Straggler mitigation: the schedule is exhausted but the
        // detector says the peer is merely slow, not presumed dead —
        // grant one speculative re-request with an extended window.
        Err(Error::Timeout { .. }) if cfg.speculative && comm.peer_suspect_not_dead(src) => {
            comm.record_speculative_retry();
            comm.recv_timeout(src, tag, timeout * 4.0)
        }
        other => other,
    }
}

/// Fault-tolerant ring all-reduce. Fault-free behavior (values, traffic,
/// virtual time) is identical to [`crate::ring::allreduce_ring`]; under
/// faults it returns an error on every member (directly or via the
/// abort cascade) instead of hanging.
pub fn allreduce_ring_ft(
    comm: &Communicator,
    data: &mut [f64],
    op: ReduceOp,
    cfg: &FtConfig,
) -> Result<()> {
    comm.record_allreduce();
    let p = comm.size();
    if p == 1 {
        return Ok(());
    }
    let _span = comm.trace_span(
        "collective",
        "allreduce_ring_ft",
        &[("p", p as f64), ("words", data.len() as f64)],
    );
    guarded(comm, || {
        let r = comm.rank();
        let n = data.len();
        let next = (r + 1) % p;
        let prev = (r + p - 1) % p;
        // Reduce-scatter phase.
        for step in 0..p - 1 {
            let send_idx = (r + p - step) % p;
            let recv_idx = (r + p - step - 1) % p;
            let send_block = data[block_range(n, p, send_idx)].to_vec();
            comm.send_vec(next, FT_RS_TAG, send_block)?;
            let incoming = recv_ft(comm, prev, FT_RS_TAG, cfg)?;
            op.apply(&mut data[block_range(n, p, recv_idx)], &incoming);
        }
        // All-gather phase.
        for step in 0..p - 1 {
            let send_idx = (r + 1 + p - step) % p;
            let recv_idx = (r + p - step) % p;
            let send_block = data[block_range(n, p, send_idx)].to_vec();
            comm.send_vec(next, FT_AG_TAG, send_block)?;
            let incoming = recv_ft(comm, prev, FT_AG_TAG, cfg)?;
            data[block_range(n, p, recv_idx)].copy_from_slice(&incoming);
        }
        Ok(())
    })
}

/// Fault-tolerant recursive-doubling all-reduce (power-of-two ranks).
/// Fault-free cost matches
/// [`crate::recursive::allreduce_recursive_doubling`].
pub fn allreduce_recursive_doubling_ft(
    comm: &Communicator,
    data: &mut [f64],
    op: ReduceOp,
    cfg: &FtConfig,
) -> Result<()> {
    comm.record_allreduce();
    let p = comm.size();
    assert!(
        is_pow2(p),
        "recursive doubling requires power-of-two ranks, got {p}"
    );
    let _span = comm.trace_span(
        "collective",
        "allreduce_recursive_doubling_ft",
        &[("p", p as f64), ("words", data.len() as f64)],
    );
    guarded(comm, || {
        let r = comm.rank();
        let mut d = 1usize;
        while d < p {
            let partner = r ^ d;
            let tag = FT_RD_TAG + (d as u64) * 8;
            comm.send(partner, tag, data)?;
            let incoming = recv_ft(comm, partner, tag, cfg)?;
            op.apply(data, &incoming);
            d <<= 1;
        }
        Ok(())
    })
}

/// Fault-tolerant ring all-gather of equal-size blocks; fault-free
/// behavior matches [`crate::ring::allgather_ring`].
pub fn allgather_ring_ft(comm: &Communicator, mine: &[f64], cfg: &FtConfig) -> Result<Vec<f64>> {
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
        "allgather_ring_ft",
        &[("p", p as f64), ("words", (m * p) as f64)],
    );
    guarded(comm, || {
        let next = (r + 1) % p;
        let prev = (r + p - 1) % p;
        for step in 0..p - 1 {
            let send_idx = (r + p - step) % p;
            let recv_idx = (r + p - step - 1) % p;
            let block = out[send_idx * m..(send_idx + 1) * m].to_vec();
            comm.send_vec(next, FT_AG_TAG, block)?;
            let incoming = recv_ft(comm, prev, FT_AG_TAG, cfg)?;
            out[recv_idx * m..(recv_idx + 1) * m].copy_from_slice(&incoming);
        }
        Ok(())
    })?;
    Ok(out)
}

/// Fault-tolerant ring all-gather of variable-length blocks; fault-free
/// behavior matches [`crate::ring::allgatherv_ring`].
pub fn allgatherv_ring_ft(
    comm: &Communicator,
    mine: &[f64],
    cfg: &FtConfig,
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
        "allgatherv_ring_ft",
        &[("p", p as f64), ("words", mine.len() as f64)],
    );
    guarded(comm, || {
        let next = (r + 1) % p;
        let prev = (r + p - 1) % p;
        for step in 0..p - 1 {
            let send_idx = (r + p - step) % p;
            let recv_idx = (r + p - step - 1) % p;
            comm.send(next, FT_AG_TAG, &out[send_idx])?;
            out[recv_idx] = recv_ft(comm, prev, FT_AG_TAG, cfg)?;
        }
        Ok(())
    })?;
    Ok(out)
}

/// Fault-tolerant 1-D halo exchange: like [`crate::halo::exchange_1d`]
/// but each neighbour's arrival must beat the per-neighbour deadline
/// resolved from `cfg.deadline` (measured like
/// [`mpsim::Communicator::irecv_timeout`]); overlap with
/// `interior_compute` is preserved. A missing/late halo surfaces as
/// [`mpsim::Error::Timeout`] and triggers the group abort.
pub fn exchange_1d_ft<T>(
    comm: &Communicator,
    to_prev: &[f64],
    to_next: &[f64],
    cfg: &FtConfig,
    interior_compute: impl FnOnce() -> T,
) -> Result<(crate::halo::Halo, T)> {
    let p = comm.size();
    let r = comm.rank();
    guarded(comm, || {
        let up = if r + 1 < p {
            let t = cfg.deadline.resolve(comm, r + 1);
            Some(comm.irecv_timeout(r + 1, FT_HALO_UP_TAG, t)?)
        } else {
            None
        };
        let down = if r > 0 {
            let t = cfg.deadline.resolve(comm, r - 1);
            Some(comm.irecv_timeout(r - 1, FT_HALO_DOWN_TAG, t)?)
        } else {
            None
        };
        if r > 0 {
            comm.send(r - 1, FT_HALO_UP_TAG, to_prev)?;
        }
        if r + 1 < p {
            comm.send(r + 1, FT_HALO_DOWN_TAG, to_next)?;
        }
        let out = interior_compute();
        let from_next = up.map(|h| comm.wait(h)).transpose()?;
        let from_prev = down.map(|h| comm.wait(h)).transpose()?;
        Ok((
            crate::halo::Halo {
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
    use mpsim::{FaultPlan, NetModel, World};

    fn cfg() -> FtConfig {
        FtConfig::fixed(1e6)
    }

    #[test]
    fn fault_free_allreduce_matches_plain_ring_in_values_and_time() {
        let model = NetModel {
            alpha: 1e-3,
            beta: 1e-6,
            flops: f64::INFINITY,
        };
        let p = 6;
        let n = 30;
        let plain = World::run(p, model, |comm| {
            let mut data = vec![(comm.rank() + 1) as f64; n];
            crate::ring::allreduce_ring(comm, &mut data, ReduceOp::Sum).unwrap();
            (data, comm.now())
        });
        let ft = World::run(p, model, |comm| {
            let mut data = vec![(comm.rank() + 1) as f64; n];
            allreduce_ring_ft(comm, &mut data, ReduceOp::Sum, &cfg()).unwrap();
            (data, comm.now())
        });
        for r in 0..p {
            assert_eq!(plain[r].0, ft[r].0, "rank {r} values");
            assert!((plain[r].1 - ft[r].1).abs() < 1e-15, "rank {r} time");
        }
    }

    #[test]
    fn fault_free_recursive_doubling_ft_matches_plain() {
        let model = NetModel {
            alpha: 1e-3,
            beta: 1e-6,
            flops: f64::INFINITY,
        };
        let p = 8;
        let plain = World::run(p, model, |comm| {
            let mut data = vec![comm.rank() as f64; 16];
            crate::recursive::allreduce_recursive_doubling(comm, &mut data, ReduceOp::Sum).unwrap();
            (data, comm.now())
        });
        let ft = World::run(p, model, |comm| {
            let mut data = vec![comm.rank() as f64; 16];
            allreduce_recursive_doubling_ft(comm, &mut data, ReduceOp::Sum, &cfg()).unwrap();
            (data, comm.now())
        });
        for r in 0..p {
            assert_eq!(plain[r].0, ft[r].0);
            assert!((plain[r].1 - ft[r].1).abs() < 1e-15);
        }
    }

    #[test]
    fn dead_rank_fails_the_whole_group_consistently() {
        let model = NetModel {
            alpha: 1.0,
            beta: 0.001,
            flops: f64::INFINITY,
        };
        // Rank 2 dies just before the collective starts.
        let plan = FaultPlan::new(3).kill(2, 0.5);
        let (out, _) = World::run_with_faults(5, model, plan, |comm| {
            comm.advance_compute(1.0);
            let mut data = vec![1.0; 20];
            allreduce_ring_ft(comm, &mut data, ReduceOp::Sum, &FtConfig::fixed(10.0))
        });
        for (r, res) in out.iter().enumerate() {
            let e = res.as_ref().expect_err("every rank observes the failure");
            match e {
                Error::RankFailed { rank: 2 } => {}
                Error::Aborted { culprit: 2 } => assert_ne!(r, 2),
                // A rank may see the loss as a timeout first (its ring
                // neighbour died before forwarding); it then blames and
                // aborts, so the group still converges.
                Error::Timeout { .. } => assert_ne!(r, 2),
                other => panic!("rank {r}: unexpected error {other:?}"),
            }
        }
    }

    #[test]
    fn corruption_is_detected_and_aborts_the_group() {
        let model = NetModel::free();
        // Corrupt the first ring message from rank 0 to rank 1.
        let plan = FaultPlan::new(11).corrupt_nth(0, 1, 0);
        let (out, stats) = World::run_with_faults(4, model, plan, |comm| {
            let mut data = vec![(comm.rank() + 1) as f64; 8];
            allreduce_ring_ft(comm, &mut data, ReduceOp::Sum, &FtConfig::fixed(100.0))
        });
        // Rank 1 detects the corruption directly; everyone fails.
        assert_eq!(
            out[1],
            Err(Error::Corrupted {
                rank: 0,
                tag: FT_RS_TAG,
                ctx: None
            })
        );
        for (r, res) in out.iter().enumerate() {
            assert!(res.is_err(), "rank {r} must not complete: {res:?}");
        }
        assert_eq!(stats.total_corrupt_detected(), 1);
        assert!(stats.total_aborts() >= 1, "abort was broadcast");
    }

    #[test]
    fn dropped_message_times_out_and_retry_is_counted() {
        let model = NetModel {
            alpha: 1.0,
            beta: 0.0,
            flops: f64::INFINITY,
        };
        let plan = FaultPlan::new(2).drop_nth(1, 2, 0);
        let (out, stats) = World::run_with_faults(3, model, plan, |comm| {
            let mut data = vec![1.0; 6];
            allreduce_ring_ft(
                comm,
                &mut data,
                ReduceOp::Sum,
                &FtConfig::fixed(5.0).with_attempts(2).with_backoff(1.0),
            )
        });
        assert!(
            out.iter().all(|r| r.is_err()),
            "drop fails the group: {out:?}"
        );
        assert!(
            matches!(out[2], Err(Error::Timeout { rank: 1, .. })),
            "{:?}",
            out[2]
        );
        assert_eq!(stats.total_dropped(), 1);
        assert_eq!(stats.ranks[2].retries, 1, "the configured retry ran");
    }

    #[test]
    fn ft_halo_exchange_matches_plain_when_fault_free() {
        let model = NetModel {
            alpha: 1.0,
            beta: 0.5,
            flops: f64::INFINITY,
        };
        let out = World::run(3, model, |comm| {
            let r = comm.rank() as f64;
            let (halo, ()) = exchange_1d_ft(
                comm,
                &[r * 10.0],
                &[r * 10.0 + 1.0],
                &FtConfig::fixed(100.0),
                || (),
            )
            .unwrap();
            (halo, comm.now())
        });
        assert_eq!(out[1].0.from_prev, Some(vec![1.0]));
        assert_eq!(out[1].0.from_next, Some(vec![20.0]));
        // Same exposed cost as the plain exchange: alpha + 1*beta = 1.5.
        for &(_, t) in out.iter().map(|(h, t)| (h, t)).collect::<Vec<_>>().iter() {
            assert!((t - 1.5).abs() < 1e-12, "{t}");
        }
    }

    #[test]
    fn ft_halo_times_out_on_dropped_boundary() {
        let model = NetModel {
            alpha: 1.0,
            beta: 0.0,
            flops: f64::INFINITY,
        };
        let plan = FaultPlan::new(4).drop_nth(1, 0, 0);
        let (out, _) = World::run_with_faults(2, model, plan, |comm| {
            exchange_1d_ft(comm, &[5.0], &[6.0], &FtConfig::fixed(3.0), || ()).map(|(h, ())| h)
        });
        assert!(
            matches!(out[0], Err(Error::Timeout { .. })),
            "rank 0's halo from rank 1 was dropped: {:?}",
            out[0]
        );
        assert!(out[1].is_ok(), "rank 1's own halo arrived: {:?}", out[1]);
    }

    #[test]
    fn model_derived_policies_scale_with_the_network() {
        let m = NetModel {
            alpha: 1e-3,
            beta: 1e-6,
            flops: f64::INFINITY,
        };
        let c = FtConfig::for_model(&m, 1000);
        assert_eq!(c.deadline, Deadline::Fixed(64.0 * (1e-3 + 1e-6 * 1000.0)));
        assert_eq!(c.attempts, 3);
        assert!((c.backoff - 4e-3).abs() < 1e-15);
        assert_eq!(c.backoff_factor, 2.0);
        assert!(c.jitter > 0.0 && !c.speculative);
        let a = FtConfig::adaptive(&m, 1000);
        assert_eq!(
            a.deadline,
            Deadline::Adaptive {
                fallback: c.deadline.fallback()
            }
        );
        assert!(a.speculative);
    }

    #[test]
    fn speculative_rerequest_rescues_a_suspect_straggler() {
        use mpsim::Span;
        let model = NetModel {
            alpha: 1.0,
            beta: 0.0,
            flops: f64::INFINITY,
        };
        // Message #9 on the 0→1 link arrives ~6 s late — past the
        // learned deadline (~mean + 4σ of the warm-up waits) but well
        // inside the speculative window.
        let plan = FaultPlan::new(17).straggle(0, 1, 6.0, 0.0, Span::Once(9));
        let (out, stats) = World::run_with_faults(2, model, plan, |comm| {
            if comm.rank() == 0 {
                // Warm-up traffic with varied pacing so the detector
                // learns a gap/wait distribution with real spread.
                for k in 0..9u64 {
                    comm.advance_compute(1.0 + (k % 3) as f64);
                    comm.send(1, 7, &[k as f64]).unwrap();
                }
                comm.advance_compute(1.0);
                comm.send(1, 7, &[9.0]).unwrap();
                Ok(vec![])
            } else {
                for _ in 0..9 {
                    comm.recv(0, 7).unwrap();
                }
                let learned = comm.adaptive_deadline(0).expect("detector is warm");
                assert!(
                    (4.0..8.0).contains(&learned),
                    "learned deadline should be a few seconds, got {learned}"
                );
                let cfg = FtConfig::adaptive(&model, 1).with_attempts(1);
                recv_ft(comm, 0, 7, &cfg)
            }
        });
        assert_eq!(
            out[1].as_deref(),
            Ok(&[9.0][..]),
            "the straggler was recovered speculatively"
        );
        assert_eq!(stats.ranks[1].timeouts, 1, "the learned deadline tripped");
        assert_eq!(stats.ranks[1].speculative_retries, 1);
        assert_eq!(stats.ranks[1].suspects_flagged, 1);
        assert!(stats.ranks[1].straggler_wait > 0.0);
    }

    #[test]
    fn fault_free_allgatherv_ft_matches_plain() {
        let out = World::run(4, NetModel::free(), |comm| {
            let mine = vec![comm.rank() as f64; comm.rank() + 1];
            let a = crate::ring::allgatherv_ring(comm, &mine).unwrap();
            let b = allgatherv_ring_ft(comm, &mine, &cfg()).unwrap();
            (a, b)
        });
        for (a, b) in &out {
            assert_eq!(a, b);
        }
    }
}
