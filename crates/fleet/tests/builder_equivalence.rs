//! [`Fleet::builder`]'s piecewise setters are pinned to a wholesale
//! [`FleetConfig`] bit for bit: same node list, seed, and policy in —
//! identical [`FleetSummary::fingerprint`] and merged journal out.

use avfs_fleet::{EnergyAware, Fleet, FleetConfig, FleetSummary, NodeConfig, NodeKind};
use avfs_sim::time::SimDuration;
use avfs_workloads::{GeneratorConfig, WorkloadTrace};

fn nodes() -> Vec<NodeConfig> {
    vec![
        NodeConfig::new(NodeKind::XGene2, 101),
        NodeConfig::new(NodeKind::XGene3, 103),
    ]
}

fn trace() -> WorkloadTrace {
    let mut cfg = GeneratorConfig::paper_default(16, 7);
    cfg.duration = SimDuration::from_secs(90);
    cfg.job_scale = 0.15;
    WorkloadTrace::generate(&cfg)
}

fn run(fleet: Fleet) -> FleetSummary {
    fleet.run(&trace(), &mut EnergyAware::new())
}

#[test]
fn piecewise_builder_matches_wholesale_config() {
    let mut cfg = FleetConfig::new(nodes());
    cfg.telemetry = true;
    let wholesale = run(Fleet::builder().config(cfg).build());
    let piecewise = run(Fleet::builder()
        .node(NodeConfig::new(NodeKind::XGene2, 101))
        .node(NodeConfig::new(NodeKind::XGene3, 103))
        .telemetry(true)
        .build());
    assert!(wholesale.completed > 0, "nothing completed");
    assert_eq!(piecewise.fingerprint(), wholesale.fingerprint());
    assert_eq!(piecewise.journal, wholesale.journal);
}
