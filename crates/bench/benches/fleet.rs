//! Fleet throughput: one mixed-cluster workload replayed at several
//! cluster sizes, measuring how simulation cost grows with node count.

use avfs_fleet::{EnergyAware, Fleet, NodeConfig, NodeKind};
use avfs_sim::time::SimDuration;
use avfs_workloads::{GeneratorConfig, WorkloadTrace};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

/// A mixed cluster alternating X-Gene 2 and X-Gene 3 nodes.
fn cluster(nodes: usize) -> Vec<NodeConfig> {
    (0..nodes)
        .map(|i| {
            let kind = if i % 2 == 0 {
                NodeKind::XGene2
            } else {
                NodeKind::XGene3
            };
            NodeConfig::new(kind, 0x5EED + i as u64)
        })
        .collect()
}

fn trace(cores: usize) -> WorkloadTrace {
    let mut gen = GeneratorConfig::paper_default(cores, 11);
    gen.duration = SimDuration::from_secs(120);
    gen.job_scale = 0.2;
    WorkloadTrace::generate(&gen)
}

fn bench_fleet_grid(c: &mut Criterion) {
    let mut g = c.benchmark_group("fleet_grid");
    g.sample_size(10);
    for nodes in [2usize, 4, 8] {
        // Total cores: alternating 8/32-core nodes.
        let cores = (0..nodes).map(|i| if i % 2 == 0 { 8 } else { 32 }).sum();
        let t = trace(cores);
        g.bench_function(format!("nodes{nodes}"), |b| {
            b.iter(|| {
                let fleet = Fleet::builder().nodes(cluster(nodes)).build();
                black_box(fleet.run(&t, &mut EnergyAware::new()))
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_fleet_grid);
criterion_main!(benches);
