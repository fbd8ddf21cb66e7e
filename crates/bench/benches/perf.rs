//! Criterion micro-benchmarks for the core algorithms.
//!
//! §3.5 motivates the I-to-S embedding partly on cost grounds ("the
//! pair-wise I-to-I asynchrony score calculation could take an
//! unacceptable amount of time"); the `embedding` group quantifies that
//! gap on this implementation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use so_capping::{allocate_caps, ClassDemand};
use so_cluster::{balanced_kmeans, kmeans, KMeansConfig};
use so_core::{
    asynchrony_score, pairwise_score_vectors, score_vectors, ServiceTraces, SmoothPlacer,
};
use so_parallel::serial_scope;
use so_powertree::{Assignment, NodeAggregates, PowerTopology};
use so_workloads::DcScenario;

fn bench_scoring(c: &mut Criterion) {
    let fleet = DcScenario::dc2()
        .generate_fleet(256)
        .expect("fleet generates");
    let traces = fleet.averaged_traces();

    let mut group = c.benchmark_group("scoring");
    for n in [16usize, 64, 256] {
        group.bench_with_input(BenchmarkId::new("asynchrony_score", n), &n, |b, &n| {
            b.iter(|| asynchrony_score(traces[..n].iter()).expect("non-empty set"))
        });
    }
    group.finish();
}

fn bench_embedding(c: &mut Criterion) {
    let fleet = DcScenario::dc2()
        .generate_fleet(192)
        .expect("fleet generates");
    let members: Vec<usize> = (0..fleet.len()).collect();
    let straces = ServiceTraces::extract(&fleet, &members, 8).expect("services exist");

    let mut group = c.benchmark_group("embedding");
    group.sample_size(10);
    group.bench_function("i_to_s_192", |b| {
        b.iter(|| score_vectors(&fleet, &members, &straces).expect("embedding succeeds"))
    });
    group.bench_function("pairwise_i_to_i_192", |b| {
        b.iter(|| pairwise_score_vectors(&fleet, &members).expect("embedding succeeds"))
    });
    group.finish();
}

fn bench_clustering(c: &mut Criterion) {
    let fleet = DcScenario::dc3()
        .generate_fleet(256)
        .expect("fleet generates");
    let members: Vec<usize> = (0..fleet.len()).collect();
    let straces = ServiceTraces::extract(&fleet, &members, 8).expect("services exist");
    let points = score_vectors(&fleet, &members, &straces).expect("embedding succeeds");

    let mut group = c.benchmark_group("clustering");
    group.bench_function("kmeans_256x8_k8", |b| {
        b.iter(|| kmeans(&points, KMeansConfig::new(8)).expect("k-means succeeds"))
    });
    group.bench_function("balanced_kmeans_256x8_k8", |b| {
        b.iter(|| balanced_kmeans(&points, KMeansConfig::new(8)).expect("k-means succeeds"))
    });
    group.finish();
}

fn bench_placement(c: &mut Criterion) {
    let fleet = DcScenario::dc2()
        .generate_fleet(320)
        .expect("fleet generates");
    let topo = PowerTopology::builder()
        .suites(1)
        .msbs_per_suite(2)
        .sbs_per_msb(2)
        .rpps_per_sb(2)
        .racks_per_rpp(4)
        .rack_capacity(12)
        .build()
        .expect("shape is valid");

    let mut group = c.benchmark_group("placement");
    group.sample_size(10);
    group.bench_function("smooth_place_320", |b| {
        b.iter(|| {
            SmoothPlacer::default()
                .place(&fleet, &topo)
                .expect("placement succeeds")
        })
    });
    group.finish();
}

/// Serial vs parallel placement on a fleet-scale topology (10k instances,
/// 512 racks). Identical work and bit-identical output in both arms — the
/// only difference is the thread budget, so the ratio is the speedup of
/// the parallel helpers on this machine. On a single-core runner both
/// arms degenerate to the same serial loop.
fn bench_parallel_placement(c: &mut Criterion) {
    let fleet = DcScenario::dc2()
        .generate_fleet(10_000)
        .expect("fleet generates");
    // 4 suites x 2 MSBs x 2 SBs x 4 RPPs x 4 racks x 40 servers = 10_240.
    let topo = PowerTopology::builder()
        .suites(4)
        .msbs_per_suite(2)
        .sbs_per_msb(2)
        .rpps_per_sb(4)
        .racks_per_rpp(4)
        .rack_capacity(40)
        .build()
        .expect("shape is valid");

    let mut group = c.benchmark_group("parallel_placement");
    group.sample_size(10);
    group.bench_function("smooth_place_10k_parallel", |b| {
        b.iter(|| {
            SmoothPlacer::default()
                .place(&fleet, &topo)
                .expect("placement succeeds")
        })
    });
    group.bench_function("smooth_place_10k_serial", |b| {
        b.iter(|| {
            serial_scope(|| {
                SmoothPlacer::default()
                    .place(&fleet, &topo)
                    .expect("placement succeeds")
            })
        })
    });
    group.finish();
}

fn bench_aggregation(c: &mut Criterion) {
    let fleet = DcScenario::dc1()
        .generate_fleet(320)
        .expect("fleet generates");
    let topo = PowerTopology::builder()
        .suites(1)
        .msbs_per_suite(2)
        .sbs_per_msb(2)
        .rpps_per_sb(2)
        .racks_per_rpp(4)
        .rack_capacity(12)
        .build()
        .expect("shape is valid");
    let assignment = Assignment::round_robin(&topo, 320).expect("fleet fits");
    let traces = fleet.test_traces();

    let mut group = c.benchmark_group("aggregation");
    group.sample_size(20);
    group.bench_function("node_aggregates_320x1008", |b| {
        b.iter(|| NodeAggregates::compute(&topo, &assignment, traces).expect("aggregation"))
    });
    group.finish();
}

fn bench_capping(c: &mut Criterion) {
    let topo = PowerTopology::builder()
        .suites(1)
        .msbs_per_suite(2)
        .sbs_per_msb(2)
        .rpps_per_sb(2)
        .racks_per_rpp(4)
        .rack_capacity(12)
        .build()
        .expect("shape is valid");
    let demands = vec![
        ClassDemand {
            high: 1_500.0,
            medium: 300.0,
            low: 1_800.0
        };
        topo.racks().len()
    ];
    let budgets: Vec<f64> = topo
        .nodes()
        .iter()
        .map(|n| if n.is_rack() { 3_000.0 } else { f64::INFINITY })
        .collect();

    let mut group = c.benchmark_group("capping");
    group.bench_function("allocate_caps_32_racks", |b| {
        b.iter(|| allocate_caps(&topo, &demands, &budgets).expect("allocation"))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_scoring,
    bench_embedding,
    bench_clustering,
    bench_placement,
    bench_parallel_placement,
    bench_aggregation,
    bench_capping
);
criterion_main!(benches);
