//! Criterion: collective algorithms on the simulated cluster — the
//! ablation of the paper's assumed algorithms (ring all-reduce, Bruck
//! all-gather) against the standard alternatives. Wall-clock here
//! measures the *simulator's* execution (thread + channel overhead),
//! confirming the substrate is fast enough for the larger experiments;
//! the *virtual-time* comparison between algorithms lives in the
//! collectives crate's tests.

use collectives::recursive::{allreduce_rabenseifner, allreduce_recursive_doubling};
use collectives::ring::{allgather_ring, allreduce_ring};
use collectives::{allgather, ReduceOp};
use criterion::{criterion_group, criterion_main, Criterion};
use mpsim::{NetModel, World};
use std::hint::black_box;

const P: usize = 8;
const N: usize = 4096;

fn bench_allreduce(c: &mut Criterion) {
    let mut g = c.benchmark_group("allreduce_8ranks_4096w");
    g.sample_size(20);
    g.bench_function("ring", |b| {
        b.iter(|| {
            World::run(P, NetModel::cori_knl(), |comm| {
                let mut data = vec![comm.rank() as f64; N];
                allreduce_ring(comm, &mut data, ReduceOp::Sum, None).unwrap();
                black_box(data[0])
            })
        })
    });
    g.bench_function("recursive_doubling", |b| {
        b.iter(|| {
            World::run(P, NetModel::cori_knl(), |comm| {
                let mut data = vec![comm.rank() as f64; N];
                allreduce_recursive_doubling(comm, &mut data, ReduceOp::Sum).unwrap();
                black_box(data[0])
            })
        })
    });
    g.bench_function("rabenseifner", |b| {
        b.iter(|| {
            World::run(P, NetModel::cori_knl(), |comm| {
                let mut data = vec![comm.rank() as f64; N];
                allreduce_rabenseifner(comm, &mut data, ReduceOp::Sum).unwrap();
                black_box(data[0])
            })
        })
    });
    g.finish();
}

fn bench_allgather(c: &mut Criterion) {
    let mut g = c.benchmark_group("allgather_8ranks_512w_blocks");
    g.sample_size(20);
    g.bench_function("bruck", |b| {
        b.iter(|| {
            World::run(P, NetModel::cori_knl(), |comm| {
                let mine = vec![comm.rank() as f64; N / P];
                black_box(allgather(comm, &mine).unwrap().len())
            })
        })
    });
    g.bench_function("ring", |b| {
        b.iter(|| {
            World::run(P, NetModel::cori_knl(), |comm| {
                let mine = vec![comm.rank() as f64; N / P];
                black_box(allgather_ring(comm, &mine, None).unwrap().len())
            })
        })
    });
    g.finish();
}

criterion_group!(benches, bench_allreduce, bench_allgather);
criterion_main!(benches);
