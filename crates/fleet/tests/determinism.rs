//! Fleet determinism: same seed ⇒ byte-identical `FleetSummary`
//! fingerprint and telemetry journal on every run, under every built-in
//! routing policy.

use avfs_fleet::{
    EnergyAware, Fleet, FleetConfig, FleetSummary, LeastQueued, NodeConfig, NodeKind, RoundRobin,
    RoutingPolicy,
};
use avfs_sim::time::SimDuration;
use avfs_workloads::{GeneratorConfig, WorkloadTrace};

fn small_cluster() -> FleetConfig {
    let nodes = vec![
        NodeConfig::new(NodeKind::XGene2, 101),
        NodeConfig::new(NodeKind::XGene2, 102),
        NodeConfig::new(NodeKind::XGene3, 103),
        NodeConfig::new(NodeKind::XGene3, 104),
    ];
    let mut cfg = FleetConfig::new(nodes);
    cfg.telemetry = true;
    cfg
}

fn small_trace(seed: u64) -> WorkloadTrace {
    let mut cfg = GeneratorConfig::paper_default(32, seed);
    cfg.duration = SimDuration::from_secs(90);
    cfg.job_scale = 0.15;
    WorkloadTrace::generate(&cfg)
}

/// Fresh policy per run: routing state (e.g. the round-robin cursor)
/// belongs to one run.
fn policy(which: &str) -> Box<dyn RoutingPolicy> {
    match which {
        "rr" => Box::new(RoundRobin::new()),
        "lq" => Box::new(LeastQueued::new()),
        _ => Box::new(EnergyAware::new()),
    }
}

fn run_with(policy: &mut dyn RoutingPolicy) -> FleetSummary {
    let fleet = Fleet::builder().config(small_cluster()).build();
    fleet.run(&small_trace(7), policy)
}

#[test]
fn journal_is_present_and_tagged() {
    let summary = run_with(&mut EnergyAware::new());
    let journal = summary.journal.as_deref().unwrap_or("");
    assert!(!journal.is_empty());
    assert!(
        journal.contains("\"kind\":\"fleet_route\""),
        "no routing events in journal"
    );
    // Node-tagged lines from every node, in id order after the
    // coordinator block.
    for id in 0..4 {
        assert!(
            journal.contains(&format!("\"node\":{id}")),
            "node {id} missing from merged journal"
        );
    }
}

#[test]
fn identical_seeds_identical_runs() {
    let a = run_with(&mut EnergyAware::new());
    let b = run_with(&mut EnergyAware::new());
    assert_eq!(a.fingerprint(), b.fingerprint());
    assert_eq!(a.journal, b.journal);
    assert!(a.conserves_jobs());
}

#[test]
fn every_policy_is_run_to_run_deterministic() {
    for label in ["rr", "lq", "ea"] {
        let a = run_with(policy(label).as_mut());
        let b = run_with(policy(label).as_mut());
        assert!(a.admission.submitted > 0, "{label}: empty trace");
        assert!(a.completed > 0, "{label}: nothing completed");
        assert_eq!(
            a.fingerprint(),
            b.fingerprint(),
            "{label}: summary diverged"
        );
        assert_eq!(a.journal, b.journal, "{label}: journal diverged");
        assert!(a.conserves_jobs(), "{label}: conservation broke");
    }
}

#[test]
fn policies_differ_in_placement() {
    // Sanity that the policies are not all aliases of each other: the
    // energy-aware router must produce a different per-node admission
    // split than round-robin on a heterogeneous cluster.
    let rr = run_with(&mut RoundRobin::new());
    let ea = run_with(&mut EnergyAware::new());
    let split = |s: &FleetSummary| -> Vec<u64> { s.nodes.iter().map(|n| n.admitted).collect() };
    assert_ne!(split(&rr), split(&ea), "policies placed jobs identically");
}
