//! Ablation: the overlap fraction. The paper's Fig. 8 fixes the
//! overlappable share at 2/3 (the backprop all-reduces); this sweeps
//! it from 0 (Fig. 7, no overlap) to 1 (fully hidden communication),
//! showing how the integrated approach's advantage decays as overlap
//! machinery improves — the paper's own caveat that better domain-
//! specific hardware will make the *compute* portion shrink and bring
//! communication (and hence their method) back to the fore.
//!
//! Two executed checks follow the analytic sweep, both on the one
//! overlap engine (`train_1p5d_scheduled`): the measured fraction of
//! its legacy FIFO plan (`OverlapPlan::legacy()`) against the paper's
//! 2/3, and a bucket-size sweep of its default plan next to the
//! autotuner's pick.
//!
//! ```text
//! cargo run -p bench --bin ablation_overlap
//! ```

use bench::figures::pure_batch_baseline;
use bench::{parse_args, Setup};
use dnn::zoo::mlp;
use integrated::optimizer::sweep_conv_batch_fc_grids;
use integrated::overlap::{autotune, overlapped_total, OverlapPlan, PAPER_BACKPROP_FRACTION};
use integrated::report::{fmt_seconds, fmt_speedup, Table};
use integrated::trainer::{synthetic_data, train_1p5d_scheduled, TrainConfig};
use mpsim::NetModel;

fn main() {
    let args = parse_args();
    let setup = Setup::table1();
    let layers = setup.net.weighted_layers();
    let (b, p) = (2048.0, 512usize);
    let evals =
        sweep_conv_batch_fc_grids(&setup.net, &layers, b, p, &setup.machine, &setup.compute);
    let base = pure_batch_baseline(&evals).expect("pure batch present");

    let mut t = Table::new(
        format!("overlap-fraction sweep, AlexNet, B = {b}, P = {p} (Fig. 7 family)"),
        &[
            "fraction",
            "pure-batch total",
            "best config",
            "best total",
            "speedup",
        ],
    );
    for frac in [0.0, 1.0 / 3.0, 0.5, 2.0 / 3.0, 0.9, 1.0] {
        let base_t = overlapped_total(base.comm_seconds, base.compute_seconds, frac);
        let (name, best_t) = evals
            .iter()
            .map(|e| {
                (
                    e.strategy.name.clone(),
                    overlapped_total(e.comm_seconds, e.compute_seconds, frac),
                )
            })
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
            .expect("non-empty");
        t.row(vec![
            format!("{frac:.2}"),
            fmt_seconds(base_t),
            name,
            fmt_seconds(best_t),
            fmt_speedup(base_t / best_t),
        ]);
    }
    print!("{}", if args.csv { t.to_csv() } else { t.render() });

    // The sweep above treats the fraction as a free parameter; the
    // executed trainer measures it as hidden/(hidden + exposed) channel
    // time — the share of the non-blocking transfers that compute
    // actually covered (blocking collectives never enter the ratio).
    // Run the overlap engine's legacy FIFO plan on an FC proxy (the
    // analytic AlexNet at P = 512 is too big to execute here) and
    // compare with the paper's assumed 2/3.
    let net = mlp("alexnet-fc-proxy", &[1152, 512, 512, 10]);
    let (x, labels) = synthetic_data(&net, 64, 42);
    let cfg = TrainConfig {
        lr: 0.1,
        iters: 2,
        seed: 11,
    };
    let ovl = train_1p5d_scheduled(
        &net,
        &x,
        &labels,
        &cfg,
        4,
        4,
        NetModel::cori_knl(),
        OverlapPlan::legacy(),
    );
    let frac = ovl.measured_overlap_fraction();
    let divergence = (frac - PAPER_BACKPROP_FRACTION).abs() / PAPER_BACKPROP_FRACTION;
    println!(
        "\nexecuted check ({}, 4x4 grid): measured overlap fraction {frac:.3} \
         (hidden/(hidden+exposed) channel time) vs the paper's {PAPER_BACKPROP_FRACTION:.3}{}",
        net.name,
        if divergence > 0.10 {
            format!(
                " — DIVERGES {:.0}%: perfect hiding needs enough compute to hide\n\
                 behind; see fig8_exec for the per-grid executed numbers",
                100.0 * divergence
            )
        } else {
            " (within 10%)".to_string()
        }
    );

    // Second ablation axis: the bucket fusion size of the *scheduled*
    // engine. Small buckets flush early (more chances to hide, more α
    // per ring); one giant bucket degenerates to a single end-of-
    // backward launch that only the cross-iteration interleave can
    // hide. The autotuner's chosen point for the same network × grid
    // closes the table.
    let net = mlp("alexnet-fc-exec", &[384, 256, 256, 10]);
    let (x, labels) = synthetic_data(&net, 384, 42);
    let cfg = TrainConfig {
        lr: 0.1,
        iters: 2,
        seed: 11,
    };
    let (pr, pc) = (2usize, 2usize);
    let model = NetModel::cori_knl();
    let mut t = Table::new(
        format!(
            "bucket-size sweep, {} B=384, {pr}x{pc} grid, {} iterations (scheduled engine)",
            net.name, cfg.iters
        ),
        &["bucket words", "makespan", "measured frac", "nb ARs"],
    );
    let mut sweep_row = |label: String, plan: OverlapPlan| {
        let res = train_1p5d_scheduled(&net, &x, &labels, &cfg, pr, pc, model, plan);
        let (_, _, nb_ar, _) = res.stats.total_collective_calls();
        t.row(vec![
            label,
            fmt_seconds(res.stats.makespan()),
            format!("{:.3}", res.measured_overlap_fraction()),
            nb_ar.to_string(),
        ]);
    };
    for exp in 11..=17 {
        let bucket_words = 1usize << exp;
        sweep_row(
            format!("2^{exp} = {bucket_words}"),
            OverlapPlan {
                bucket_words,
                ..OverlapPlan::default()
            },
        );
    }
    let report = autotune(&net, &x, &labels, &cfg, pr, pc, model);
    sweep_row(
        format!(
            "autotuned: {}{}{}",
            report.chosen.bucket_words,
            if report.chosen.dx_overlap { " +dx" } else { "" },
            if report.chosen.fwd_prefetch {
                " +prefetch"
            } else {
                ""
            },
        ),
        report.chosen,
    );
    println!();
    print!("{}", if args.csv { t.to_csv() } else { t.render() });
}
