//! The four benchmark workloads: set-up (inputs from the seed, Eq. 8
//! planning, reference runs), one job (one call into the workload's
//! public entry point) and the check of every job's output.

use collectives::recursive::allreduce_recursive_doubling;
use collectives::{FtConfig, ReduceOp};
use dnn::zoo::{mini_alexnet, mlp};
use dnn::Network;
use integrated::cnn::{synthetic_images, train_cnn_domain, train_cnn_serial, CnnSerialResult};
use integrated::cost::best_grid;
use integrated::ft_trainer::{train_1p5d_ft, train_1p5d_ft_traced, FtTrainConfig};
use integrated::overlap::OverlapPlan;
use integrated::trainer::{
    synthetic_data, train_1p5d_scheduled, train_1p5d_scheduled_traced, train_serial, TrainConfig,
};
use integrated::MachineModel;
use mpsim::fault::checksum;
use mpsim::{Communicator, FaultPlan, NetModel, TraceConfig, World, WorldStats, WorldTrace};
use tensor::conv::Tensor4;
use tensor::Matrix;

/// Workloads the benchmark can run. `BENCHMARK.json` lists all but
/// `cnn_domain`, which `--check` still runs (see `METRICS.md`).
pub const NAMES: [&str; 4] = ["fc_eq8", "cnn_domain", "ft_recover", "skeleton_p512"];

/// Which workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    FcEq8,
    CnnDomain,
    FtRecover,
    SkeletonP512,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "fc_eq8" => Some(Kind::FcEq8),
            "cnn_domain" => Some(Kind::CnnDomain),
            "ft_recover" => Some(Kind::FtRecover),
            "skeleton_p512" => Some(Kind::SkeletonP512),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        NAMES[self as usize]
    }

    /// The workload's network and global batch.
    pub fn net_and_batch(self) -> (Network, usize) {
        match self {
            Kind::FcEq8 => (mlp("fc_eq8", &[1024, 1024, 1024, 1024, 10]), 32),
            Kind::CnnDomain => (mini_alexnet(), 32),
            Kind::FtRecover => (mlp("ft_recover", &[256, 256, 256, 10]), 64),
            Kind::SkeletonP512 => (mlp("mlp-scale", &[32, 64, 64, 10]), 64),
        }
    }

    /// Simulated world size.
    pub fn ranks(self) -> usize {
        match self {
            Kind::FcEq8 | Kind::FtRecover => 16,
            Kind::CnnDomain => 8,
            Kind::SkeletonP512 => 512,
        }
    }
}

/// Seeds of one workload instance, all derived from the command-line
/// seed so the program only ever sees generated inputs.
#[derive(Debug, Clone, Copy)]
pub struct Seeds {
    /// Synthetic data (inputs and labels).
    pub data: u64,
    /// Weight initialisation.
    pub weights: u64,
    /// Fault plan (and skeleton payloads).
    pub faults: u64,
}

impl Seeds {
    pub fn from(seed: u64) -> Seeds {
        let mix = |k: u64| splitmix(seed ^ k.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        Seeds {
            data: mix(1) >> 16,
            weights: mix(2) >> 16,
            faults: mix(3),
        }
    }
}

/// SplitMix64 finaliser: a cheap, well-mixed hash of one word.
pub fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// What a job leaves behind that must repeat bit for bit: the virtual
/// makespan and every count. Two jobs of one workload (or one job on
/// either mpsim backend) must produce equal signatures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Signature {
    pub makespan_bits: u64,
    pub envelopes: u64,
    pub words: u64,
    pub ctrl_msgs: u64,
    /// `(allreduce, allgather, nb_allreduce, nb_allgather)` calls.
    pub calls: (u64, u64, u64, u64),
    /// `(rejoins, abft_corrected, timeouts, retries, ckpt_words)`.
    pub ft: (u64, u64, u64, u64, u64),
    pub recovery_bits: u64,
}

impl Signature {
    pub fn of(stats: &WorldStats) -> Signature {
        Signature {
            makespan_bits: stats.makespan().to_bits(),
            envelopes: stats.total_msgs(),
            words: stats.total_words(),
            ctrl_msgs: stats.ranks.iter().map(|r| r.ctrl_msgs_sent).sum(),
            calls: stats.total_collective_calls(),
            ft: (
                stats.total_rejoins(),
                stats.total_corrupt_corrected(),
                stats.total_timeouts(),
                stats.total_retries(),
                stats.total_ckpt_words(),
            ),
            recovery_bits: stats.max_recovery_secs().to_bits(),
        }
    }

    pub fn makespan(&self) -> f64 {
        f64::from_bits(self.makespan_bits)
    }

    /// One line, parsed back by [`Signature::parse`].
    pub fn encode(&self) -> String {
        format!(
            "{} {} {} {} {} {} {} {} {} {} {} {} {} {}",
            self.makespan_bits,
            self.envelopes,
            self.words,
            self.ctrl_msgs,
            self.calls.0,
            self.calls.1,
            self.calls.2,
            self.calls.3,
            self.ft.0,
            self.ft.1,
            self.ft.2,
            self.ft.3,
            self.ft.4,
            self.recovery_bits
        )
    }

    pub fn parse(line: &str) -> Option<Signature> {
        let v: Vec<u64> = line
            .split_whitespace()
            .map(|s| s.parse().ok())
            .collect::<Option<_>>()?;
        if v.len() != 14 {
            return None;
        }
        Some(Signature {
            makespan_bits: v[0],
            envelopes: v[1],
            words: v[2],
            ctrl_msgs: v[3],
            calls: (v[4], v[5], v[6], v[7]),
            ft: (v[8], v[9], v[10], v[11], v[12]),
            recovery_bits: v[13],
        })
    }
}

/// A finished job: the stats of its world and how many iterations ran.
pub struct JobOut {
    pub stats: WorldStats,
    pub iters: usize,
}

/// The 1.5D FC trainer on the Eq. 8 grid.
pub struct FcJob {
    pub net: Network,
    pub b: usize,
    pub pr: usize,
    pub pc: usize,
    pub x: Matrix,
    pub labels: Vec<usize>,
    pub cfg: TrainConfig,
    pub serial_losses: Vec<f64>,
}

/// The domain+batch parallel CNN trainer.
pub struct CnnJob {
    pub net: Network,
    pub pd: usize,
    pub pc: usize,
    pub x: Tensor4,
    pub labels: Vec<usize>,
    pub cfg: TrainConfig,
    pub serial: CnnSerialResult,
}

/// The fault-tolerant trainer through a kill, a rejoin and a bit flip.
pub struct FtJob {
    pub net: Network,
    pub b: usize,
    pub pr: usize,
    pub pc: usize,
    pub x: Matrix,
    pub labels: Vec<usize>,
    pub cfg: FtTrainConfig,
    pub plan: FaultPlan,
    pub clean_losses: Vec<f64>,
}

/// `scale_sweep`'s 1.5D communication skeleton on a `1 × 512` grid.
pub struct SkelJob {
    pub p: usize,
    pub pr: usize,
    pub pc: usize,
    pub iters: usize,
    pub layer_words: Vec<usize>,
    pub act_words: Vec<usize>,
    pub flops_per_rank: f64,
    pub payload_seed: u64,
    pub checksum: u64,
    pub reference_stats: WorldStats,
}

/// A workload after set-up, ready to run jobs. One exists at a time,
/// so the variants' size difference does not matter.
#[allow(clippy::large_enum_variant)]
pub enum Prepared {
    Fc(FcJob),
    Cnn(CnnJob),
    Ft(FtJob),
    Skel(SkelJob),
}

/// `cnn_domain`'s `pd × pc` grid.
pub const CNN_GRID: (usize, usize) = (4, 2);

impl Prepared {
    /// Everything a job needs that is not the job itself: inputs from
    /// the seed, the Eq. 8 grid, the reference run its outputs are
    /// checked against, and one warm-up job, whose virtual time and
    /// counts every later job must repeat.
    pub fn setup(kind: Kind, seed: u64) -> Result<(Prepared, JobOut), String> {
        let p = Prepared::inputs(kind, seed)?;
        // The skeleton's reference run is its warm-up job.
        let warm = match &p {
            Prepared::Skel(j) => JobOut {
                stats: j.reference_stats.clone(),
                iters: j.iters,
            },
            _ => p.job()?,
        };
        Ok((p, warm))
    }

    /// Inputs from the seed, Eq. 8 planning and the reference runs.
    pub fn inputs(kind: Kind, seed: u64) -> Result<Prepared, String> {
        let seeds = Seeds::from(seed);
        let machine = MachineModel::cori_knl();
        let (net, b) = kind.net_and_batch();
        match kind {
            Kind::FcEq8 => {
                let (pr, pc) = best_grid(&net.weighted_layers(), b as f64, kind.ranks(), &machine);
                if (pr, pc) != (8, 2) {
                    return Err(format!("Eq. 8 picked {pr}x{pc}, expected 8x2"));
                }
                let (x, labels) = synthetic_data(&net, b, seeds.data);
                let cfg = TrainConfig {
                    lr: 0.1,
                    iters: 2,
                    seed: seeds.weights,
                };
                let serial_losses = train_serial(&net, &x, &labels, &cfg).losses;
                Ok(Prepared::Fc(FcJob {
                    net,
                    b,
                    pr,
                    pc,
                    x,
                    labels,
                    cfg,
                    serial_losses,
                }))
            }
            Kind::CnnDomain => {
                let (x, labels) = synthetic_images(&net, b, seeds.data);
                let cfg = TrainConfig {
                    lr: 0.05,
                    iters: 2,
                    seed: seeds.weights,
                };
                let serial = train_cnn_serial(&net, &x, &labels, &cfg);
                Ok(Prepared::Cnn(CnnJob {
                    net,
                    pd: CNN_GRID.0,
                    pc: CNN_GRID.1,
                    x,
                    labels,
                    cfg,
                    serial,
                }))
            }
            Kind::FtRecover => {
                let (pr, pc) = best_grid(&net.weighted_layers(), b as f64, kind.ranks(), &machine);
                if (pr, pc) != (8, 2) {
                    return Err(format!("Eq. 8 picked {pr}x{pc}, expected 8x2"));
                }
                let (x, labels) = synthetic_data(&net, b, seeds.data);
                let cfg = FtTrainConfig {
                    lr: 0.1,
                    iters: 6,
                    seed: seeds.weights,
                    ckpt_every: 2,
                    // The receive policy every test, bench and example
                    // in the repository uses. `FtTrainConfig::default()`'s
                    // adaptive policy is a known defect here (METRICS.md).
                    ft: FtConfig::fixed(10.0).with_attempts(2).with_backoff(0.5),
                    machine,
                    overlap: true,
                    abft: true,
                    ..FtTrainConfig::default()
                };
                let clean = train_1p5d_ft(&net, &x, &labels, &cfg, pr, pc, FaultPlan::default());
                let m = clean.stats.makespan();
                let plan = FaultPlan::new(seeds.faults)
                    .kill(15, 0.35 * m)
                    .rejoin(15, 0.6 * m)
                    .bitflip_compute(0, 1, 0, 40);
                Ok(Prepared::Ft(FtJob {
                    net,
                    b,
                    pr,
                    pc,
                    x,
                    labels,
                    cfg,
                    plan,
                    clean_losses: clean.losses(),
                }))
            }
            Kind::SkeletonP512 => {
                let mut job = skeleton_shape(seed);
                // The reference checksum comes from a first run.
                (job.checksum, job.reference_stats) =
                    skeleton_run(&job, job.iters, NetModel::cori_knl());
                Ok(Prepared::Skel(job))
            }
        }
    }

    /// The job once more through the workload's `*_traced` entry point
    /// (the CNN trainer has none and runs untraced).
    pub fn traced_job(&self) -> (WorldStats, Option<WorldTrace>) {
        let on = TraceConfig::enabled();
        match self {
            Prepared::Fc(j) => {
                let (r, t) = train_1p5d_scheduled_traced(
                    &j.net,
                    &j.x,
                    &j.labels,
                    &j.cfg,
                    j.pr,
                    j.pc,
                    NetModel::cori_knl(),
                    on,
                    OverlapPlan::default(),
                );
                (r.stats, Some(t))
            }
            Prepared::Cnn(j) => {
                let r = train_cnn_domain(
                    &j.net,
                    &j.x,
                    &j.labels,
                    &j.cfg,
                    j.pd,
                    j.pc,
                    NetModel::cori_knl(),
                );
                (r.stats, None)
            }
            Prepared::Ft(j) => {
                let (r, t) = train_1p5d_ft_traced(
                    &j.net,
                    &j.x,
                    &j.labels,
                    &j.cfg,
                    j.pr,
                    j.pc,
                    j.plan.clone(),
                    on,
                );
                (r.stats, Some(t))
            }
            Prepared::Skel(j) => {
                let (_, stats, t) =
                    World::run_traced_with_stats(j.p, NetModel::cori_knl(), on, |c| {
                        skeleton_rank(c, j, j.iters).expect("skeleton rank failed")
                    });
                (stats, Some(t))
            }
        }
    }

    pub fn kind(&self) -> Kind {
        match self {
            Prepared::Fc(_) => Kind::FcEq8,
            Prepared::Cnn(_) => Kind::CnnDomain,
            Prepared::Ft(_) => Kind::FtRecover,
            Prepared::Skel(_) => Kind::SkeletonP512,
        }
    }

    /// Runs one job and checks its output against the set-up reference.
    pub fn job(&self) -> Result<JobOut, String> {
        match self {
            Prepared::Fc(j) => {
                let r = train_1p5d_scheduled(
                    &j.net,
                    &j.x,
                    &j.labels,
                    &j.cfg,
                    j.pr,
                    j.pc,
                    NetModel::cori_knl(),
                    OverlapPlan::default(),
                );
                check_losses(&r.losses(), &j.serial_losses, 1e-9, "serial")?;
                let div = r.replica_divergence();
                if div != 0.0 {
                    return Err(format!("replica divergence {div:e}"));
                }
                Ok(JobOut {
                    stats: r.stats,
                    iters: j.cfg.iters,
                })
            }
            Prepared::Cnn(j) => {
                let r = train_cnn_domain(
                    &j.net,
                    &j.x,
                    &j.labels,
                    &j.cfg,
                    j.pd,
                    j.pc,
                    NetModel::cori_knl(),
                );
                for (rank, o) in r.per_rank.iter().enumerate() {
                    let pairs = o
                        .conv_weights
                        .iter()
                        .zip(&j.serial.conv_weights)
                        .chain(o.fc_weights.iter().zip(&j.serial.fc_weights));
                    for (l, (a, b)) in pairs.enumerate() {
                        let d = a.max_abs_diff(b);
                        if d.is_nan() || d > 1e-8 {
                            return Err(format!("rank {rank} weight {l} off serial by {d:e}"));
                        }
                    }
                }
                Ok(JobOut {
                    stats: r.stats,
                    iters: j.cfg.iters,
                })
            }
            Prepared::Ft(j) => {
                let r = train_1p5d_ft(&j.net, &j.x, &j.labels, &j.cfg, j.pr, j.pc, j.plan.clone());
                let rejoins = r.stats.total_rejoins();
                let fixed = r.stats.total_corrupt_corrected();
                if (rejoins, fixed) != (1, 1) {
                    return Err(format!(
                        "{rejoins} rejoins and {fixed} ABFT corrections, expected 1 and 1"
                    ));
                }
                for (rank, o) in r.per_rank.iter().enumerate() {
                    let o = o
                        .as_ref()
                        .map_err(|e| format!("rank {rank} did not finish: {e:?}"))?;
                    if (o.pr, o.pc) != (j.pr, j.pc) {
                        return Err(format!("rank {rank} ended on {}x{}", o.pr, o.pc));
                    }
                }
                check_losses(&r.losses(), &j.clean_losses, 1e-6, "clean FT run")?;
                Ok(JobOut {
                    stats: r.stats,
                    iters: j.cfg.iters,
                })
            }
            Prepared::Skel(j) => {
                let (sum, stats) = skeleton_run(j, j.iters, NetModel::cori_knl());
                if sum != j.checksum {
                    return Err(format!("checksum {sum} != reference {}", j.checksum));
                }
                Ok(JobOut {
                    stats,
                    iters: j.iters,
                })
            }
        }
    }

    /// The job with zero iterations: spawn, grid, per-rank set-up and
    /// sharding — the fixed cost every job pays.
    pub fn fixed_cost_job(&self) {
        match self {
            Prepared::Fc(j) => {
                let cfg = TrainConfig { iters: 0, ..j.cfg };
                std::hint::black_box(train_1p5d_scheduled(
                    &j.net,
                    &j.x,
                    &j.labels,
                    &cfg,
                    j.pr,
                    j.pc,
                    NetModel::cori_knl(),
                    OverlapPlan::default(),
                ));
            }
            Prepared::Cnn(j) => {
                let cfg = TrainConfig { iters: 0, ..j.cfg };
                std::hint::black_box(train_cnn_domain(
                    &j.net,
                    &j.x,
                    &j.labels,
                    &cfg,
                    j.pd,
                    j.pc,
                    NetModel::cori_knl(),
                ));
            }
            Prepared::Ft(j) => {
                let cfg = FtTrainConfig { iters: 0, ..j.cfg };
                std::hint::black_box(train_1p5d_ft(
                    &j.net,
                    &j.x,
                    &j.labels,
                    &cfg,
                    j.pr,
                    j.pc,
                    FaultPlan::default(),
                ));
            }
            Prepared::Skel(j) => {
                std::hint::black_box(skeleton_run(j, 0, NetModel::cori_knl()));
            }
        }
    }
}

fn check_losses(got: &[f64], want: &[f64], tol: f64, what: &str) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{} losses, {what} has {}", got.len(), want.len()));
    }
    for (t, (a, b)) in got.iter().zip(want).enumerate() {
        let d = (a - b).abs();
        if d.is_nan() || d > tol {
            return Err(format!("loss {t}: {a} vs {what} {b}"));
        }
    }
    Ok(())
}

/// The skeleton's shapes and payload seed, before its reference run.
pub fn skeleton_shape(seed: u64) -> SkelJob {
    let kind = Kind::SkeletonP512;
    let (net, b) = kind.net_and_batch();
    let layers = net.weighted_layers();
    let p = kind.ranks();
    SkelJob {
        p,
        pr: 1,
        pc: p,
        iters: 4,
        layer_words: layers.iter().map(|l| l.weights).collect(),
        act_words: layers.iter().map(|l| l.d_out() * b).collect(),
        flops_per_rank: layers
            .iter()
            .map(|l| l.train_flops_per_sample() * b as f64)
            .sum::<f64>()
            / p as f64,
        payload_seed: Seeds::from(seed).faults,
        checksum: 0,
        reference_stats: WorldStats::default(),
    }
}

/// One rank's payload element: a seeded value in `[-1, 1)`.
fn payload(seed: u64, rank: usize, slot: u64, e: usize) -> f64 {
    let h = splitmix(seed ^ splitmix(((rank as u64) << 40) ^ (slot << 20) ^ e as u64));
    (h >> 11) as f64 / (1u64 << 52) as f64 - 1.0
}

/// The skeleton body of one rank, run under [`World`]: `comm.grid`,
/// then per iteration and layer a compute charge, the ∆W all-reduce
/// over the row communicator and the activation all-reduce over the
/// column communicator, both by recursive doubling. Returns the
/// wrapping sum of the reduced values' checksums.
pub fn skeleton_rank(comm: &Communicator, j: &SkelJob, iters: usize) -> mpsim::Result<u64> {
    let (row, col) = comm.grid(j.pr, j.pc)?;
    let r = comm.rank();
    let nlayers = j.layer_words.len();
    let mut acc = 0u64;
    for it in 0..iters {
        for (l, (&w, &a)) in j.layer_words.iter().zip(&j.act_words).enumerate() {
            comm.advance_flops(j.flops_per_rank / (j.iters * nlayers) as f64);
            let slot = (it * nlayers + l) as u64 * 2;
            let mut grad: Vec<f64> = (0..w.div_ceil(j.pr).max(1))
                .map(|e| payload(j.payload_seed, r, slot, e))
                .collect();
            allreduce_recursive_doubling(&row, &mut grad, ReduceOp::Sum)?;
            acc = acc.wrapping_add(checksum(&grad));
            let mut act: Vec<f64> = (0..a.div_ceil(j.pc).max(1))
                .map(|e| payload(j.payload_seed, r, slot + 1, e))
                .collect();
            allreduce_recursive_doubling(&col, &mut act, ReduceOp::Sum)?;
            acc = acc.wrapping_add(checksum(&act));
        }
    }
    Ok(acc)
}

/// Runs the skeleton world; returns the checksum folded over ranks and
/// the world's stats.
pub fn skeleton_run(j: &SkelJob, iters: usize, model: NetModel) -> (u64, WorldStats) {
    let (outs, stats) = World::run_with_stats(j.p, model, |comm| skeleton_rank(comm, j, iters));
    // Wrapping add: every rank of a group holds the same reduced
    // values, so an XOR fold would cancel pairwise.
    let sum = outs.into_iter().fold(0u64, |acc, o| {
        acc.wrapping_add(o.expect("skeleton rank failed"))
    });
    (sum, stats)
}

/// Child-process name of the known-defect reproduction (not a
/// benchmark workload; `--check` runs it under a tight watchdog).
pub const DEFECT_NAME: &str = "ft_adaptive_defect";

/// `FtTrainConfig::default()`'s adaptive receive policy with overlap on
/// and no faults, on 512-wide layers at 8×2 for two iterations. Prints
/// a result line if the job finishes; the defect is that it does not,
/// while its memory grows without bound.
pub fn adaptive_defect_loop(seed: u64) {
    let seeds = Seeds::from(seed);
    let net = mlp(DEFECT_NAME, &[512, 512, 512, 10]);
    let (x, labels) = synthetic_data(&net, 64, seeds.data);
    let cfg = FtTrainConfig {
        iters: 2,
        seed: seeds.weights,
        overlap: true,
        ..FtTrainConfig::default()
    };
    let t0 = std::time::Instant::now();
    std::hint::black_box(train_1p5d_ft(
        &net,
        &x,
        &labels,
        &cfg,
        8,
        2,
        FaultPlan::default(),
    ));
    println!("job ok {}", t0.elapsed().as_secs_f64() * 1e3);
    println!("result {{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {{}}}}");
}
