//! The traced pass: per-layer metrics, measured from outside by timing
//! calls into each layer's public functions on the workload's own
//! shapes, and by reading the program's virtual-time trace and
//! `WorldStats` counters. Host spans around every call are kept in
//! memory and written at exit beside the metrics.
//!
//! A layer the running workload does not exercise is measured on the
//! shapes of the workload that owns it (`METRICS.md` lists the owner),
//! so every traced run reports every metric.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

use collectives::cost::{recursive_doubling_allreduce, ring_allgather_exact, ring_allreduce_exact};
use collectives::recursive::allreduce_recursive_doubling;
use collectives::ring::allgatherv_ring;
use collectives::{allreduce, ReduceOp};
use distmm::domain_general::{conv_backward as dg_conv_backward, conv_forward as dg_conv_forward};
use distmm::onep5d::{backward as onep5d_backward, forward as onep5d_forward, Grid};
use distmm::part_range;
use dnn::{LayerSpec, Network};
use integrated::cnn::train_cnn_serial;
use integrated::cost::{best_grid, integrated_model_batch};
use integrated::ft_trainer::train_1p5d_ft;
use integrated::trainer::{train_serial, TrainConfig};
use integrated::MachineModel;
use mpsim::{EventKind, FaultPlan, NetModel, World, WorldStats, WorldTrace};
use tensor::abft::{verify_a_bt, verify_at_b, verify_matmul};
use tensor::conv::{conv2d, conv2d_backward, Conv2dParams, Tensor4};
use tensor::init::{uniform, uniform_tensor};
use tensor::matmul::{matmul, matmul_a_bt, matmul_at_b, matmul_flops};
use tensor::Matrix;

use crate::report::{median, metrics_json, Metric};
use crate::workloads::{skeleton_shape, Kind, Prepared, Signature, CNN_GRID};
use crate::TimedPhase;

/// Per-layer metrics: name and unit, in `BENCHMARK.json` order.
/// `vus` is virtual microseconds (deterministic).
pub const METRIC_UNITS: [(&str, &str); 42] = [
    ("tensor.gemm_ms", "ms"),
    ("tensor.gemm_gflops", "GFLOP/s"),
    ("tensor.conv_fwd_ms", "ms"),
    ("tensor.conv_bwd_ms", "ms"),
    ("tensor.conv_gflops", "GFLOP/s"),
    ("tensor.abft_verify_ms", "ms"),
    ("tensor.kernel_share", "ratio"),
    ("collectives.allreduce_ms", "ms"),
    ("collectives.allgather_ms", "ms"),
    ("collectives.rd_allreduce_ms", "ms"),
    ("collectives.calls_per_step", "count"),
    ("collectives.vt_model_ratio", "ratio"),
    ("mpsim.spawn_ms", "ms"),
    ("mpsim.grid_ms", "ms"),
    ("mpsim.envelope_us", "us"),
    ("mpsim.word_ns", "ns"),
    ("mpsim.envelopes", "count"),
    ("mpsim.words", "count"),
    ("mpsim.ctrl_msgs", "count"),
    ("mpsim.envelopes_per_s", "1/s"),
    ("distmm.onep5d_fwd_ms", "ms"),
    ("distmm.onep5d_bwd_ms", "ms"),
    ("distmm.domain_conv_fwd_ms", "ms"),
    ("distmm.domain_conv_bwd_ms", "ms"),
    ("trainer.fixed_ms", "ms"),
    ("trainer.serial_ms", "ms"),
    ("trainer.sim_overhead", "ratio"),
    ("trainer.fwd_vt_us", "vus"),
    ("trainer.bwd_vt_us", "vus"),
    ("trainer.opt_vt_us", "vus"),
    ("trainer.comm_wait_vt_us", "vus"),
    ("trainer.overlap_frac", "ratio"),
    ("cost.eq8_comm_us", "vus"),
    ("cost.eq8_residual_us", "vus"),
    ("ft.clean_job_ms", "ms"),
    ("ft.recovery_vt_us", "vus"),
    ("ft.rejoins", "count"),
    ("ft.abft_corrected", "count"),
    ("ft.timeouts", "count"),
    ("ft.retries", "count"),
    ("ft.ckpt_words", "count"),
    ("trace.overhead", "ratio"),
];

/// Repetitions of each probe; the median is reported.
const REPS: usize = 5;

/// One host-time span of the traced pass.
struct Span {
    name: String,
    start_ns: u128,
    end_ns: u128,
    parent: Option<usize>,
    job: u64,
}

/// Host-time spans kept in memory: name, start, end, the span that
/// caused it, and a job id shared by every span of one job or probe
/// repetition. Group spans (one per layer) carry job id 0 and parent
/// the repetitions inside them.
struct Spans {
    origin: Instant,
    list: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
    next_job: RefCell<u64>,
}

impl Spans {
    fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            list: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            next_job: RefCell::new(0),
        }
    }

    /// Opens a span under the innermost open one and returns its index.
    fn open(&self, name: &str, group: bool) -> usize {
        let parent = self.stack.borrow().last().copied();
        let inherited = parent.map_or(0, |p| self.list.borrow()[p].job);
        let job = if group {
            0
        } else if inherited != 0 {
            inherited
        } else {
            let mut n = self.next_job.borrow_mut();
            *n += 1;
            *n
        };
        let mut list = self.list.borrow_mut();
        list.push(Span {
            name: name.to_string(),
            start_ns: self.origin.elapsed().as_nanos(),
            end_ns: 0,
            parent,
            job,
        });
        self.stack.borrow_mut().push(list.len() - 1);
        list.len() - 1
    }

    fn close(&self, idx: usize) {
        self.stack.borrow_mut().pop();
        self.list.borrow_mut()[idx].end_ns = self.origin.elapsed().as_nanos();
    }

    /// Runs `f` inside a span; returns its result and milliseconds.
    fn time<T>(&self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let idx = self.open(name, false);
        let t0 = Instant::now();
        let out = f();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        self.close(idx);
        (out, ms)
    }

    /// Opens the group span of one layer; it closes when the guard drops.
    fn group(&self, name: &str) -> Group<'_> {
        Group {
            spans: self,
            idx: self.open(name, true),
        }
    }

    /// Median milliseconds of `reps` runs of `f`, each its own span.
    fn median_ms<T>(&self, name: &str, reps: usize, mut f: impl FnMut() -> T) -> f64 {
        let times: Vec<f64> = (0..reps)
            .map(|_| {
                let (out, ms) = self.time(name, &mut f);
                std::hint::black_box(out);
                ms
            })
            .collect();
        median(&times)
    }

    fn to_json(&self) -> String {
        let mut s = String::from("[\n");
        let list = self.list.borrow();
        for (i, sp) in list.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                s,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"job\": {}}}{}",
                sp.name,
                sp.start_ns,
                sp.end_ns,
                sp.job,
                if i + 1 == list.len() { "" } else { "," }
            );
        }
        s.push(']');
        s
    }
}

/// An open group span.
struct Group<'a> {
    spans: &'a Spans,
    idx: usize,
}

impl Drop for Group<'_> {
    fn drop(&mut self) {
        self.spans.close(self.idx);
    }
}

/// Shapes of a 1.5D FC workload: its network, global batch and grid.
struct FcShape {
    net: Network,
    b: usize,
    pr: usize,
    pc: usize,
}

impl FcShape {
    /// The running workload's own shapes if it is an FC workload,
    /// otherwise `fc_eq8`'s.
    fn of(p: &Prepared) -> FcShape {
        match p {
            Prepared::Fc(j) => FcShape {
                net: j.net.clone(),
                b: j.b,
                pr: j.pr,
                pc: j.pc,
            },
            Prepared::Ft(j) => FcShape {
                net: j.net.clone(),
                b: j.b,
                pr: j.pr,
                pc: j.pc,
            },
            _ => FcShape::planned(Kind::FcEq8),
        }
    }

    /// An FC workload's shapes on its Eq. 8 grid.
    fn planned(kind: Kind) -> FcShape {
        let (net, b) = kind.net_and_batch();
        let (pr, pc) = best_grid(
            &net.weighted_layers(),
            b as f64,
            kind.ranks(),
            &MachineModel::cori_knl(),
        );
        FcShape { net, b, pr, pc }
    }

    /// `(d_in, d_out)` of every weighted layer.
    fn dims(&self) -> Vec<(usize, usize)> {
        self.net
            .weighted_layers()
            .iter()
            .map(|l| (l.d_in(), l.d_out()))
            .collect()
    }

    /// Rank `(i, j)`'s weight-shard rows and batch-shard columns.
    fn shard(&self, d_out: usize, i: usize, j: usize) -> (usize, usize) {
        (
            part_range(d_out, self.pr, i).len(),
            part_range(self.b, self.pc, j).len(),
        )
    }
}

/// Operands of rank `(0, 0)`'s three GEMMs for one layer.
struct GemmOperands {
    w: Matrix,
    x: Matrix,
    dy: Matrix,
}

fn gemm_operands(s: &FcShape, seed: u64) -> Vec<GemmOperands> {
    s.dims()
        .iter()
        .enumerate()
        .map(|(l, &(d_in, d_out))| {
            let (rows, cols) = s.shard(d_out, 0, 0);
            let k = seed.wrapping_add(3 * l as u64);
            GemmOperands {
                w: uniform(rows, d_in, -1.0, 1.0, k),
                x: uniform(d_in, cols, -1.0, 1.0, k + 1),
                dy: uniform(rows, cols, -1.0, 1.0, k + 2),
            }
        })
        .collect()
}

/// One rank's forward, ∆W and ∆X products for one step, and their
/// FLOPs. Checks that the replayed FLOPs over every rank of the grid
/// equal Σ `train_flops_per_sample` × B.
fn gemm_probe(spans: &Spans, s: &FcShape, seed: u64) -> Result<(f64, f64), String> {
    let mut replayed = 0.0;
    for &(d_in, d_out) in &s.dims() {
        for i in 0..s.pr {
            for j in 0..s.pc {
                let (rows, cols) = s.shard(d_out, i, j);
                replayed += 3.0 * matmul_flops(rows, d_in, cols);
            }
        }
    }
    let expected = s.net.train_flops_per_sample() * s.b as f64;
    if (replayed - expected).abs() > 1e-9 * expected {
        return Err(format!(
            "replayed GEMM FLOPs {replayed} != train_flops_per_sample x B = {expected}"
        ));
    }
    let ops = gemm_operands(s, seed);
    let flops: f64 = ops
        .iter()
        .map(|o| 3.0 * matmul_flops(o.w.rows(), o.w.cols(), o.x.cols()))
        .sum();
    let ms = spans.median_ms("tensor.gemm", REPS, || {
        for o in &ops {
            std::hint::black_box(matmul(&o.w, &o.x));
            std::hint::black_box(matmul_a_bt(&o.dy, &o.x));
            std::hint::black_box(matmul_at_b(&o.w, &o.dy));
        }
    });
    Ok((ms, flops / (ms * 1e-3) / 1e9))
}

/// ABFT verification of the three products, on `ft_recover`'s shapes.
fn abft_probe(spans: &Spans, s: &FcShape, seed: u64) -> f64 {
    let ops = gemm_operands(s, seed);
    let products: Vec<(Matrix, Matrix, Matrix)> = ops
        .iter()
        .map(|o| {
            (
                matmul(&o.w, &o.x),
                matmul_a_bt(&o.dy, &o.x),
                matmul_at_b(&o.w, &o.dy),
            )
        })
        .collect();
    spans.median_ms("tensor.abft_verify", REPS, || {
        for (o, (y, dw, dx)) in ops.iter().zip(&products) {
            let (mut y, mut dw, mut dx) = (y.clone(), dw.clone(), dx.clone());
            std::hint::black_box(verify_matmul(&o.w, &o.x, &mut y));
            std::hint::black_box(verify_a_bt(&o.dy, &o.x, &mut dw));
            std::hint::black_box(verify_at_b(&o.w, &o.dy, &mut dx));
        }
    })
}

/// One conv layer of the CNN workload: parameters and input shape.
struct ConvLayer {
    params: Conv2dParams,
    in_h: usize,
    in_w: usize,
}

/// Shapes of `cnn_domain`: its conv layers, batch shard and strips.
struct ConvShape {
    layers: Vec<ConvLayer>,
    b_local: usize,
    pd: usize,
}

impl ConvShape {
    fn of(p: &Prepared) -> ConvShape {
        let (net, b, pd, pc) = match p {
            Prepared::Cnn(j) => (j.net.clone(), j.x.n, j.pd, j.pc),
            _ => {
                let (net, b) = Kind::CnnDomain.net_and_batch();
                (net, b, CNN_GRID.0, CNN_GRID.1)
            }
        };
        let layers = net
            .layers()
            .filter_map(|(spec, i, _)| match *spec {
                LayerSpec::Conv {
                    out_c,
                    kh,
                    kw,
                    stride,
                    pad,
                } => Some(ConvLayer {
                    params: Conv2dParams {
                        in_c: i.c,
                        out_c,
                        kh,
                        kw,
                        stride,
                        pad,
                    },
                    in_h: i.h,
                    in_w: i.w,
                }),
                _ => None,
            })
            .collect();
        ConvShape {
            layers,
            b_local: part_range(b, pc, 0).len(),
            pd,
        }
    }
}

/// Local conv forward/backward on every strip of every conv layer, as
/// `domain_general` runs them (a halo-extended window, zero padding
/// folded in); reported per rank: `(fwd ms, bwd ms, GFLOP/s)`.
fn conv_probe(spans: &Spans, s: &ConvShape, seed: u64) -> (f64, f64, f64) {
    struct Strip {
        x: Tensor4,
        w: Matrix,
        dy: Tensor4,
        p: Conv2dParams,
    }
    let mut strips = Vec::new();
    let mut flops = 0.0;
    for (l, c) in s.layers.iter().enumerate() {
        let (out_h, out_w) = c.params.out_hw(c.in_h, c.in_w);
        for i in 0..s.pd {
            let rows = part_range(out_h, s.pd, i).len();
            if rows == 0 {
                continue;
            }
            let ext_h = (rows - 1) * c.params.stride + c.params.kh;
            let ext_w = c.in_w + 2 * c.params.pad;
            let k = seed.wrapping_add(100 * l as u64 + 3 * i as u64);
            let p = Conv2dParams { pad: 0, ..c.params };
            strips.push(Strip {
                x: uniform_tensor(s.b_local, p.in_c, ext_h, ext_w, -1.0, 1.0, k),
                w: uniform(p.out_c, p.patch_len(), -1.0, 1.0, k + 1),
                dy: uniform_tensor(s.b_local, p.out_c, rows, out_w, -1.0, 1.0, k + 2),
                p,
            });
            flops += 3.0 * 2.0 * c.params.weight_count() as f64 * (rows * out_w * s.b_local) as f64;
        }
    }
    let pd = s.pd as f64;
    let fwd = spans.median_ms("tensor.conv_fwd", REPS, || {
        for st in &strips {
            std::hint::black_box(conv2d(&st.x, &st.w, &st.p));
        }
    }) / pd;
    let bwd = spans.median_ms("tensor.conv_bwd", REPS, || {
        for st in &strips {
            std::hint::black_box(conv2d_backward(&st.x, &st.w, &st.dy, &st.p));
        }
    }) / pd;
    (fwd, bwd, flops / pd / ((fwd + bwd) * 1e-3) / 1e9)
}

/// Host ms of a world of `p` ranks running `f`, median of `reps`.
fn world_ms(
    spans: &Spans,
    name: &str,
    reps: usize,
    p: usize,
    f: impl Fn(&mpsim::Communicator) + Sync,
) -> f64 {
    spans.median_ms(name, reps, || World::run(p, NetModel::cori_knl(), &f))
}

/// Host ms and virtual makespan of one world running `f` once per rep.
fn world_ms_vt(
    spans: &Spans,
    name: &str,
    p: usize,
    f: impl Fn(&mpsim::Communicator) + Sync,
) -> (f64, f64) {
    let mut vt = 0.0;
    let ms = spans.median_ms(name, REPS, || {
        let (_, stats) = World::run_with_stats(p, NetModel::cori_knl(), &f);
        vt = stats.makespan();
    });
    (ms, vt)
}

/// Per-step virtual span totals by trainer phase, max over ranks.
fn phase_vt(trace: &WorldTrace, name: &str, iters: usize) -> f64 {
    trace
        .ranks
        .iter()
        .map(|r| {
            r.events
                .iter()
                .filter(|e| e.kind == EventKind::Span && e.cat == "trainer" && e.name == name)
                .map(|e| e.dur())
                .sum::<f64>()
        })
        .fold(0.0, f64::max)
        / iters as f64
}

/// Measured communication per step: the α–β transfer charged to
/// blocking receives plus the channel transfer of non-blocking
/// collectives, max over ranks.
fn measured_comm_per_step(stats: &WorldStats, iters: usize) -> f64 {
    stats
        .ranks
        .iter()
        .map(|r| r.transfer_secs + r.channel_secs)
        .fold(0.0, f64::max)
        / iters as f64
}

/// The traced pass. `timed` is the untraced timed phase of the same
/// process, `reference` its warm-up job's signature.
pub fn traced_pass(
    p: &Prepared,
    timed: &TimedPhase,
    reference: &Signature,
    iters: usize,
    run_seed: u64,
    seconds: f64,
    lines: &mut Vec<String>,
) -> Result<Vec<Metric>, String> {
    let spans = Spans::new();
    let kind = p.kind();
    let seed = crate::workloads::Seeds::from(run_seed).data;
    let job_ms_p50 = median(&timed.job_ms);
    let mut m: Vec<Metric> = Vec::new();
    let mut put = |name: &'static str, value: f64| {
        let unit = METRIC_UNITS
            .iter()
            .find(|(n, _)| *n == name)
            .expect("metric is listed")
            .1;
        m.push(Metric::new(name, unit, value));
    };

    // Traced jobs: the program's own virtual-time trace.
    let group = spans.group("jobs.traced");
    let mut traced_ms = Vec::new();
    let mut last = None;
    let start = Instant::now();
    while traced_ms.len() < 3 || start.elapsed().as_secs_f64() < seconds / 2.0 {
        let (out, ms) = spans.time("job.traced", || p.traced_job());
        traced_ms.push(ms);
        last = Some(out);
    }
    let (traced_stats, trace) = last.expect("at least one traced job");
    if Signature::of(&traced_stats) != *reference {
        return Err("tracing changed virtual time or a count".into());
    }

    drop(group);
    let group = spans.group("tensor");
    let fc = FcShape::of(p);
    let (gemm_ms, gemm_gflops) = gemm_probe(&spans, &fc, seed)?;
    put("tensor.gemm_ms", gemm_ms);
    put("tensor.gemm_gflops", gemm_gflops);
    let conv = ConvShape::of(p);
    let (conv_fwd, conv_bwd, conv_gflops) = conv_probe(&spans, &conv, seed);
    put("tensor.conv_fwd_ms", conv_fwd);
    put("tensor.conv_bwd_ms", conv_bwd);
    put("tensor.conv_gflops", conv_gflops);
    let ft_shape = match p {
        Prepared::Ft(_) => FcShape::of(p),
        _ => FcShape::planned(Kind::FtRecover),
    };
    let abft_ms = abft_probe(&spans, &ft_shape, seed);
    put("tensor.abft_verify_ms", abft_ms);
    let ranks = kind.ranks() as f64;
    let kernel_ms = match kind {
        Kind::FcEq8 => gemm_ms,
        Kind::FtRecover => gemm_ms + abft_ms,
        Kind::CnnDomain => conv_fwd + conv_bwd,
        Kind::SkeletonP512 => 0.0,
    };
    put(
        "tensor.kernel_share",
        kernel_ms * ranks * iters as f64 / job_ms_p50,
    );

    // collectives, on the 1.5D grid's ∆W-shard and activation sizes.
    drop(group);
    let group = spans.group("collectives");
    let dims = fc.dims();
    let dw_words: Vec<usize> = dims
        .iter()
        .map(|&(d_in, d_out)| fc.shard(d_out, 0, 0).0 * d_in)
        .collect();
    let act_words: Vec<usize> = dims
        .iter()
        .map(|&(_, d_out)| {
            let (rows, cols) = fc.shard(d_out, 0, 0);
            rows * cols
        })
        .collect();
    let (ar_ms, ar_vt) = world_ms_vt(&spans, "collectives.allreduce", fc.pc, |c| {
        for &w in &dw_words {
            let mut v = vec![1.0; w];
            allreduce(c, &mut v, ReduceOp::Sum).expect("allreduce");
        }
    });
    put("collectives.allreduce_ms", ar_ms);
    let (ag_ms, ag_vt) = world_ms_vt(&spans, "collectives.allgather", fc.pr, |c| {
        for &w in &act_words {
            std::hint::black_box(allgatherv_ring(c, &vec![1.0; w]).expect("allgather"));
        }
    });
    put("collectives.allgather_ms", ag_ms);
    let skel = skeleton_shape(run_seed);
    let (skel_p, skel_words) = (skel.p, &skel.layer_words);
    let empty_512 = world_ms(&spans, "mpsim.spawn.512", 3, skel_p, |_| {});
    let (rd_ms, rd_vt) = world_ms_vt(&spans, "collectives.rd_allreduce", skel_p, |c| {
        for &w in skel_words {
            let mut v = vec![1.0; w];
            allreduce_recursive_doubling(c, &mut v, ReduceOp::Sum).expect("rd allreduce");
        }
    });
    put("collectives.rd_allreduce_ms", rd_ms - empty_512);
    let calls = reference.calls;
    put(
        "collectives.calls_per_step",
        (calls.0 + calls.1 + calls.2 + calls.3) as f64 / iters as f64,
    );
    let model = NetModel::cori_knl();
    let ar_pred: f64 = dw_words
        .iter()
        .map(|&w| ring_allreduce_exact(fc.pc, w as f64).seconds(&model))
        .sum();
    put("collectives.vt_model_ratio", ar_vt / ar_pred);
    let rd_pred: f64 = skel_words
        .iter()
        .map(|&w| recursive_doubling_allreduce(skel_p, w as f64).seconds(&model))
        .sum();
    let ag_pred: f64 = act_words
        .iter()
        .map(|&w| ring_allgather_exact(fc.pr, (w * fc.pr) as f64).seconds(&model))
        .sum();
    lines.push(format!(
        "collectives vt/model: ring allreduce {:.4}, ring allgather {:.4}, rd allreduce (P=512) {:.4}",
        ar_vt / ar_pred,
        ag_vt / ag_pred,
        rd_vt / rd_pred
    ));

    // mpsim, at the workload's own P and grid.
    drop(group);
    let group = spans.group("mpsim");
    let p_w = kind.ranks();
    let (gpr, gpc) = match p {
        Prepared::Fc(j) => (j.pr, j.pc),
        Prepared::Ft(j) => (j.pr, j.pc),
        Prepared::Cnn(j) => (j.pd, j.pc),
        Prepared::Skel(j) => (j.pr, j.pc),
    };
    let spawn = world_ms(&spans, "mpsim.spawn", REPS, p_w, |_| {});
    put("mpsim.spawn_ms", spawn);
    let grid_ms = world_ms(&spans, "mpsim.grid", 3, p_w, |c| {
        std::hint::black_box(c.grid(gpr, gpc).expect("grid"));
    });
    put("mpsim.grid_ms", grid_ms - spawn);
    let ring = |words: usize, rounds: usize| {
        move |c: &mpsim::Communicator| {
            let n = c.size();
            let (next, prev) = ((c.rank() + 1) % n, (c.rank() + n - 1) % n);
            let mut v = vec![1.0; words];
            for r in 0..rounds {
                v = c
                    .sendrecv(next, &v, prev, 7 + r as u64)
                    .expect("ring sendrecv");
            }
        }
    };
    let rounds = 64;
    let small = world_ms(&spans, "mpsim.ring.1w", REPS, p_w, ring(1, rounds));
    let envelope_us = (small - spawn) * 1e3 / (p_w * rounds) as f64;
    put("mpsim.envelope_us", envelope_us);
    let big_words = 64 * 1024;
    let big = world_ms(&spans, "mpsim.ring.64kw", 3, p_w, ring(big_words, 1));
    let word_ns = (big - spawn - envelope_us * 1e-3 * p_w as f64) * 1e6 / (p_w * big_words) as f64;
    put("mpsim.word_ns", word_ns);
    put("mpsim.envelopes", reference.envelopes as f64);
    put("mpsim.words", reference.words as f64);
    put("mpsim.ctrl_msgs", reference.ctrl_msgs as f64);
    put(
        "mpsim.envelopes_per_s",
        reference.envelopes as f64 / (job_ms_p50 * 1e-3),
    );

    drop(group);
    let group = spans.group("distmm");
    // distmm: one layer (the largest) of the 1.5D ops in the grid's
    // world, and every conv layer of the domain-parallel CNN at pd.
    let (l_in, l_out) = *dims
        .iter()
        .max_by_key(|&&(a, b)| a * b)
        .expect("a weighted layer");
    let setup_grid = |c: &mpsim::Communicator| {
        let g = Grid::new(c, fc.pr, fc.pc).expect("grid");
        let (rows, cols) = fc.shard(l_out, g.i, g.j);
        let w = uniform(rows, l_in, -1.0, 1.0, seed + c.rank() as u64);
        let x = uniform(l_in, cols, -1.0, 1.0, seed + 1000 + c.rank() as u64);
        let dy = uniform(l_out, cols, -1.0, 1.0, seed + 2000 + c.rank() as u64);
        (g, w, x, dy)
    };
    let p_fc = fc.pr * fc.pc;
    let base = world_ms(&spans, "distmm.onep5d.setup", REPS, p_fc, |c| {
        std::hint::black_box(setup_grid(c));
    });
    let fwd = world_ms(&spans, "distmm.onep5d.fwd", REPS, p_fc, |c| {
        let (g, w, x, _) = setup_grid(c);
        std::hint::black_box(onep5d_forward(&g, &w, &x).expect("forward"));
    });
    let fwd_bwd = world_ms(&spans, "distmm.onep5d.fwd_bwd", REPS, p_fc, |c| {
        let (g, w, x, dy) = setup_grid(c);
        std::hint::black_box(onep5d_forward(&g, &w, &x).expect("forward"));
        std::hint::black_box(onep5d_backward(&g, &w, &x, &dy).expect("backward"));
    });
    put("distmm.onep5d_fwd_ms", fwd - base);
    put("distmm.onep5d_bwd_ms", fwd_bwd - fwd);

    let strips = |c: &mpsim::Communicator| {
        conv.layers
            .iter()
            .enumerate()
            .map(|(l, cl)| {
                let rows = part_range(cl.in_h, conv.pd, c.rank()).len();
                let (out_h, out_w) = cl.params.out_hw(cl.in_h, cl.in_w);
                let out_rows = part_range(out_h, conv.pd, c.rank()).len();
                let k = seed + 10 * l as u64 + 1000 * c.rank() as u64;
                (
                    uniform_tensor(conv.b_local, cl.params.in_c, rows, cl.in_w, -1.0, 1.0, k),
                    uniform(cl.params.out_c, cl.params.patch_len(), -1.0, 1.0, k + 1),
                    uniform_tensor(
                        conv.b_local,
                        cl.params.out_c,
                        out_rows,
                        out_w,
                        -1.0,
                        1.0,
                        k + 2,
                    ),
                )
            })
            .collect::<Vec<_>>()
    };
    let dbase = world_ms(&spans, "distmm.domain.setup", REPS, conv.pd, |c| {
        std::hint::black_box(strips(c));
    });
    let dfwd = world_ms(&spans, "distmm.domain.fwd", REPS, conv.pd, |c| {
        for ((x, w, _), cl) in strips(c).iter().zip(&conv.layers) {
            std::hint::black_box(dg_conv_forward(c, x, w, &cl.params, cl.in_h).expect("conv fwd"));
        }
    });
    let dfwd_bwd = world_ms(&spans, "distmm.domain.fwd_bwd", REPS, conv.pd, |c| {
        for ((x, w, dy), cl) in strips(c).iter().zip(&conv.layers) {
            std::hint::black_box(dg_conv_forward(c, x, w, &cl.params, cl.in_h).expect("conv fwd"));
            std::hint::black_box(
                dg_conv_backward(c, x, w, dy, &cl.params, cl.in_h).expect("conv bwd"),
            );
        }
    });
    let pd = conv.pd as f64;
    put("distmm.domain_conv_fwd_ms", (dfwd - dbase) / pd);
    put("distmm.domain_conv_bwd_ms", (dfwd_bwd - dfwd) / pd);

    // integrated: fixed cost, serial counterpart, phase spans, Eq. 8.
    drop(group);
    let group = spans.group("integrated");
    put(
        "trainer.fixed_ms",
        spans.median_ms("trainer.fixed", 3, || p.fixed_cost_job()),
    );
    let serial_ms = match p {
        Prepared::Fc(j) => spans.median_ms("trainer.serial", 3, || {
            train_serial(&j.net, &j.x, &j.labels, &j.cfg)
        }),
        Prepared::Ft(j) => {
            let cfg = TrainConfig {
                lr: j.cfg.lr,
                iters: j.cfg.iters,
                seed: j.cfg.seed,
            };
            spans.median_ms("trainer.serial", 3, || {
                train_serial(&j.net, &j.x, &j.labels, &cfg)
            })
        }
        Prepared::Cnn(j) => spans.median_ms("trainer.serial", 3, || {
            train_cnn_serial(&j.net, &j.x, &j.labels, &j.cfg)
        }),
        // The skeleton has no serial counterpart.
        Prepared::Skel(_) => 0.0,
    };
    put("trainer.serial_ms", serial_ms);
    put(
        "trainer.sim_overhead",
        if serial_ms > 0.0 {
            job_ms_p50 / serial_ms
        } else {
            0.0
        },
    );

    // Phase spans and Eq. 8 come from an FC workload's trace: the
    // running one, or fc_eq8's.
    let fc_owner;
    let (fc_stats, fc_trace, fc_iters) = match (p, &trace) {
        (Prepared::Fc(_) | Prepared::Ft(_), Some(t)) => (&traced_stats, t, iters),
        _ => {
            let (owner, warm) = Prepared::setup(Kind::FcEq8, run_seed)?;
            let (stats, t) = spans.time("job.traced.fc_eq8", || owner.traced_job()).0;
            fc_owner = (stats, t.expect("fc_eq8 has a traced entry point"));
            (&fc_owner.0, &fc_owner.1, warm.iters)
        }
    };
    let us = 1e6;
    put(
        "trainer.fwd_vt_us",
        phase_vt(fc_trace, "forward", fc_iters) * us,
    );
    put(
        "trainer.bwd_vt_us",
        phase_vt(fc_trace, "backward", fc_iters) * us,
    );
    put(
        "trainer.opt_vt_us",
        phase_vt(fc_trace, "optimizer_step", fc_iters) * us,
    );
    put(
        "trainer.comm_wait_vt_us",
        fc_stats.max_comm_wait_secs() / fc_iters as f64 * us,
    );
    put("trainer.overlap_frac", fc_stats.measured_overlap_fraction());
    let eq8 = integrated_model_batch(&fc.net.weighted_layers(), fc.b as f64, fc.pr, fc.pc)
        .seconds(&MachineModel::cori_knl());
    put("cost.eq8_comm_us", eq8 * us);
    put(
        "cost.eq8_residual_us",
        (measured_comm_per_step(fc_stats, fc_iters) - eq8) * us,
    );

    // Fault tolerance, on ft_recover's job.
    let ft_owner;
    let ft_job = match p {
        Prepared::Ft(j) => j,
        _ => {
            ft_owner = Prepared::inputs(Kind::FtRecover, run_seed)?;
            match &ft_owner {
                Prepared::Ft(j) => j,
                _ => unreachable!("inputs(FtRecover) is an FT job"),
            }
        }
    };
    put(
        "ft.clean_job_ms",
        spans.median_ms("ft.clean_job", 3, || {
            train_1p5d_ft(
                &ft_job.net,
                &ft_job.x,
                &ft_job.labels,
                &ft_job.cfg,
                ft_job.pr,
                ft_job.pc,
                FaultPlan::default(),
            )
        }),
    );
    let ft_stats = match p {
        Prepared::Ft(_) => traced_stats.clone(),
        _ => {
            spans
                .time("ft.faulty_job", || {
                    train_1p5d_ft(
                        &ft_job.net,
                        &ft_job.x,
                        &ft_job.labels,
                        &ft_job.cfg,
                        ft_job.pr,
                        ft_job.pc,
                        ft_job.plan.clone(),
                    )
                })
                .0
                .stats
        }
    };
    put("ft.recovery_vt_us", ft_stats.max_recovery_secs() * us);
    put("ft.rejoins", ft_stats.total_rejoins() as f64);
    put(
        "ft.abft_corrected",
        ft_stats.total_corrupt_corrected() as f64,
    );
    put("ft.timeouts", ft_stats.total_timeouts() as f64);
    put("ft.retries", ft_stats.total_retries() as f64);
    put("ft.ckpt_words", ft_stats.total_ckpt_words() as f64);

    drop(group);
    put("trace.overhead", median(&traced_ms) / job_ms_p50);
    lines.push(format!(
        "traced pass: {} traced jobs, {} host spans",
        traced_ms.len(),
        spans.list.borrow().len()
    ));
    write_spans(&spans, kind, &m, lines);
    // Report in the listed order.
    m.sort_by_key(|x| METRIC_UNITS.iter().position(|(n, _)| *n == x.name));
    Ok(m)
}

/// Writes the metrics and the spans to `.bench_out/` under the
/// working directory.
fn write_spans(spans: &Spans, kind: Kind, metrics: &[Metric], lines: &mut Vec<String>) {
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!("{}.trace.json", kind.name()));
    let body = format!(
        "{{\"metrics\": {},\n\"spans\": {}}}\n",
        metrics_json(metrics),
        spans.to_json()
    );
    match std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, body)) {
        Ok(()) => lines.push(format!("spans and metrics written to {}", path.display())),
        Err(e) => lines.push(format!("could not write {}: {e}", path.display())),
    }
}
