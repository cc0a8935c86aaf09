//! Cross-artifact consistency: the experiment harnesses must agree with
//! each other the way the paper's figures agree.

use avfs_chip::vmin::DroopClass;
use avfs_core::configs::EvalConfig;
use avfs_experiments::{
    characterization, droops, energy, factors, perfchar, server_eval, tables, Machine, Scale,
};
use avfs_sched::metrics::RunMetrics;
use avfs_sched::system::{System, SystemConfig};
use avfs_sched::Report;
use avfs_telemetry::json::{self, Json};
use avfs_telemetry::{Telemetry, TraceKind, Value};
use avfs_workloads::generator::{GeneratorConfig, WorkloadTrace};

#[test]
fn fig3_agrees_with_table2_at_matching_configs() {
    // Figure 3's 32T@3GHz safe Vmin must sit at Table II's 830 mV row
    // (within the benchmark spread and one 5 mV search step).
    let fig3 = characterization::fig3(Machine::XGene3, Scale::Quick);
    let table2 = tables::table2();
    let t2_value = table2.value("[55mV,65mV)", "Vmin @3GHz (mV)").unwrap();
    for v in fig3.column("32T@3.0GHz") {
        assert!(
            (v - t2_value).abs() <= 15.0,
            "fig3 {v} vs table2 {t2_value}"
        );
    }
    // Half-speed column tracks the 1.5 GHz Table II row.
    let t2_half = table2.value("[55mV,65mV)", "Vmin @1.5GHz (mV)").unwrap();
    for v in fig3.column("32T@1.5GHz") {
        assert!((v - t2_half).abs() <= 15.0, "fig3 {v} vs table2 {t2_half}");
    }
}

#[test]
fn fig3_vmin_orderings() {
    // Lower frequency → lower (or equal) Vmin; fewer threads → lower Vmin.
    let t = characterization::fig3(Machine::XGene2, Scale::Quick);
    for row in &t.rows {
        let get = |col: &str| {
            let idx = t.headers.iter().position(|h| h == col).unwrap();
            row[idx].as_f64().unwrap()
        };
        assert!(get("8T@1.2GHz") <= get("8T@2.4GHz"));
        assert!(get("8T@0.9GHz") < get("8T@1.2GHz"));
        // 4T-spreaded utilizes all 4 PMDs like 8T, so its Vmin is
        // "virtually the same" (Fig. 3) — only the workload margin moves.
        assert!((get("4T(spreaded)@2.4GHz") - get("8T@2.4GHz")).abs() <= 15.0);
        // 2T-spreaded drops a droop class and sits clearly lower.
        assert!(get("2T(spreaded)@2.4GHz") <= get("4T(spreaded)@2.4GHz") + 10.0);
    }
}

#[test]
fn fig4_pmd2_is_the_most_robust_on_xgene2() {
    // The paper singles out PMD2 (cores 4,5) as the most robust and
    // PMD0/PMD1 as the most sensitive.
    let t = characterization::fig4(Scale::Quick);
    let vmin_of = |label: &str| t.value(label, "safe Vmin (max over benchmarks)").unwrap();
    assert!(vmin_of("core4") < vmin_of("core0"));
    assert!(vmin_of("core4") < vmin_of("core2"));
    assert!(vmin_of("cores4,5") < vmin_of("cores0,1"));
}

#[test]
fn fig4_two_core_vmin_not_below_single_core() {
    let t = characterization::fig4(Scale::Quick);
    let single = t.value("core0", "safe Vmin (max over benchmarks)").unwrap();
    let pair = t
        .value("cores0,1", "safe Vmin (max over benchmarks)")
        .unwrap();
    assert!(pair >= single - 10.0, "pair {pair} vs single {single}");
}

#[test]
fn fig5_curves_order_by_droop_class() {
    // At any sub-Vmin voltage, wider allocations (higher droop class)
    // fail at least as often: 8T ≥ 4T-spreaded ≥ 4T-clustered on X-Gene 2
    // at max frequency.
    let t = characterization::fig5(Machine::XGene2, Scale::Quick);
    let full = t.column("8T@2.4GHz");
    let spread = t.column("4T(spreaded)@2.4GHz");
    let clust = t.column("4T(clustered)@2.4GHz");
    for i in 0..full.len() {
        assert!(full[i] >= spread[i] - 0.12, "row {i}");
        assert!(spread[i] >= clust[i] - 0.12, "row {i}");
    }
    // And the reduced-frequency line fails last (needs deeper undervolt).
    let div = t.column("8T@0.9GHz");
    let first_failing_full = full.iter().position(|&p| p > 0.05).unwrap();
    let first_failing_div = div.iter().position(|&p| p > 0.05).unwrap();
    assert!(first_failing_div > first_failing_full);
}

#[test]
fn fig6_bands_tile_like_the_paper() {
    // The same configuration appears "hot" in its own band and "cold" one
    // band up — the diagonal structure across the two panels.
    let top = droops::fig6(DroopClass::D55, Scale::Quick);
    let mid = droops::fig6(DroopClass::D45, Scale::Quick);
    for bench in ["namd", "CG"] {
        let spread16_top = top.value(bench, "16T(spreaded)@3.0GHz").unwrap();
        let clust16_top = top.value(bench, "16T(clustered)@3.0GHz").unwrap();
        let clust16_mid = mid.value(bench, "16T(clustered)@3.0GHz").unwrap();
        assert!(spread16_top > 10.0);
        assert!(clust16_top < spread16_top / 10.0);
        assert!(
            clust16_mid > 10.0,
            "{bench}: 16T clustered quiet in its own band"
        );
    }
}

#[test]
fn fig8_and_fig9_identify_the_same_extremes() {
    let f8 = perfchar::fig8(Machine::XGene3, Scale::Quick);
    let f9 = perfchar::fig9(Machine::XGene3, Scale::Quick);
    // Benchmarks with ratio near 1 in fig8 are CPU-intensive in fig9.
    for bench in ["namd", "EP"] {
        assert!(f8.value(bench, "ratio").unwrap() > 0.9);
        assert!(f9.value(bench, "32T").unwrap() < 3_000.0);
    }
    for bench in ["CG", "milc"] {
        assert!(f8.value(bench, "ratio").unwrap() < 0.5);
        assert!(f9.value(bench, "32T").unwrap() > 3_000.0);
    }
}

#[test]
fn fig10_factors_are_consistent_with_fig3_columns() {
    let f10 = factors::fig10(Machine::XGene2);
    let f3 = characterization::fig3(Machine::XGene2, Scale::Quick);
    let division_pct = f10
        .value(
            "clock division (total below half speed)",
            "Vmin reduction (%)",
        )
        .unwrap();
    // Recompute the division percentage from fig3's own columns (mean
    // across benchmarks).
    let mean = |col: &str| {
        let v = f3.column(col);
        v.iter().sum::<f64>() / v.len() as f64
    };
    let recomputed = (mean("8T@2.4GHz") - mean("8T@0.9GHz")) / mean("8T@2.4GHz") * 100.0;
    assert!(
        (division_pct - recomputed).abs() < 2.5,
        "fig10 {division_pct}% vs fig3 {recomputed}%"
    );
}

#[test]
fn fig11_energy_and_fig12_ed2p_are_consistent() {
    // ED2P = E × T², so for a fixed benchmark/column the ratio between the
    // two tables is T² — and longer-running (lower-frequency) configs must
    // show a larger ED2P-to-energy ratio.
    let e = energy::fig11(Machine::XGene3);
    let d = energy::fig12(Machine::XGene3);
    // CPU-bound: halving frequency roughly doubles the implied delay, so
    // the ED2P/E ratio (= T²) must clearly grow.
    let t2 = |bench: &str, col: &str| d.value(bench, col).unwrap() / e.value(bench, col).unwrap();
    assert!(t2("namd", "32T@1.5GHz") > t2("namd", "32T@3.0GHz") * 2.0);
    // Memory-bound under heavy contention: delay barely moves (frequency
    // relief offsets the slower core), so the implied T² stays in a
    // narrow band around its full-speed value.
    let ratio = t2("CG", "32T@1.5GHz") / t2("CG", "32T@3.0GHz");
    assert!((0.6..=1.6).contains(&ratio), "CG T² ratio {ratio}");
}

#[test]
fn fig7_extremes_match_fig8_ordering() {
    // The benchmarks that benefit most from spreading in fig7 are the
    // memory-intensive ones of fig8.
    let f7 = energy::fig7();
    let f8 = perfchar::fig8(Machine::XGene2, Scale::Quick);
    for bench in ["CG", "FT", "milc"] {
        assert!(f7.value(bench, "difference (%)").unwrap() > 0.0, "{bench}");
        assert!(f8.value(bench, "ratio").unwrap() < 0.7, "{bench}");
    }
    for bench in ["namd", "EP"] {
        assert!(f7.value(bench, "difference (%)").unwrap() < 0.0, "{bench}");
        assert!(f8.value(bench, "ratio").unwrap() > 0.9, "{bench}");
    }
}

#[test]
fn quick_artifacts_render_to_markdown_and_csv() {
    let dir = std::env::temp_dir().join("avfs-exp-test");
    let t = tables::table1();
    assert!(t.to_markdown().contains("Table I"));
    t.write_csv(&dir).expect("csv write");
    let csv = std::fs::read_to_string(dir.join("table1.csv")).expect("csv read");
    assert!(csv.contains("Nominal voltage"));
}

/// The §VI-B evaluation replayed one configuration after another from
/// public parts, with `telemetry` on the Optimal run only: the reference
/// the concurrent `server_eval::evaluate_with_observer` must reproduce.
fn sequential_eval(
    machine: Machine,
    scale: Scale,
    seed: u64,
    telemetry: &Telemetry,
) -> Vec<(String, RunMetrics)> {
    let cores = machine.chip_builder().spec().cores as usize;
    let mut gen = GeneratorConfig::paper_default(cores, seed);
    gen.duration = scale.server_window();
    if scale == Scale::Quick {
        gen.job_scale = 0.25;
    }
    let trace = WorkloadTrace::generate(&gen);
    EvalConfig::ALL
        .iter()
        .map(|&cfg| {
            let chip = machine.chip_builder().build();
            let run_telemetry = if cfg == EvalConfig::Optimal {
                telemetry.clone()
            } else {
                Telemetry::null()
            };
            run_telemetry.trace(TraceKind::Init, || {
                vec![
                    ("experiment", Value::from("server_eval")),
                    ("machine", Value::from(machine.name())),
                    ("config", Value::from(cfg.label())),
                ]
            });
            let mut driver = cfg.driver_with_observer(&chip, run_telemetry.clone());
            let mut system = System::builder(chip, machine.perf_model())
                .config(SystemConfig::default())
                .observer(run_telemetry)
                .build();
            let metrics = system.run(&trace, driver.as_mut());
            (cfg.label().to_string(), metrics)
        })
        .collect()
}

fn assert_same_runs(concurrent: &[(String, RunMetrics)], sequential: &[(String, RunMetrics)]) {
    assert_eq!(concurrent.len(), EvalConfig::ALL.len());
    assert_eq!(concurrent.len(), sequential.len());
    for ((label, c), (want, s)) in concurrent.iter().zip(sequential) {
        assert_eq!(label, want);
        assert_eq!(c.fingerprint(), s.fingerprint(), "{label}");
        assert!(
            c == s,
            "{label}: concurrent run differs from the sequential replay"
        );
    }
}

#[test]
fn concurrent_server_eval_matches_a_sequential_replay() {
    for machine in [Machine::XGene2, Machine::XGene3] {
        for seed in [3, 11] {
            let concurrent = server_eval::evaluate(machine, Scale::Quick, seed);
            assert_eq!(concurrent.machine, machine.name());
            let sequential = sequential_eval(machine, Scale::Quick, seed, &Telemetry::null());
            assert_same_runs(&concurrent.runs, &sequential);
        }
    }
}

#[test]
fn concurrent_server_eval_journal_matches_a_sequential_replay() {
    let hub = Telemetry::hub();
    let concurrent = server_eval::evaluate_with_observer(Machine::XGene2, Scale::Quick, 5, &hub);
    let reference = Telemetry::hub();
    let sequential = sequential_eval(Machine::XGene2, Scale::Quick, 5, &reference);
    assert_same_runs(&concurrent.runs, &sequential);
    let journal = hub.export_jsonl().unwrap_or_default();
    assert!(journal.contains("\"config\":\"Optimal\""), "{journal:.200}");
    assert!(!journal.contains("\"config\":\"Baseline\""));
    assert_eq!(Some(journal), reference.export_jsonl());
}

#[test]
fn traced_table3_journal_reads_back_through_the_codec() {
    const KINDS: [TraceKind; 20] = [
        TraceKind::Init,
        TraceKind::MonitorSample,
        TraceKind::Classification,
        TraceKind::Replan,
        TraceKind::ActionDispatch,
        TraceKind::MailboxCall,
        TraceKind::MailboxFault,
        TraceKind::RecoveryTransition,
        TraceKind::DroopGuard,
        TraceKind::Watchdog,
        TraceKind::FleetRoute,
        TraceKind::FleetShed,
        TraceKind::NodeFenced,
        TraceKind::NodeRecovered,
        TraceKind::NodeDegraded,
        TraceKind::JobRedispatch,
        TraceKind::CampaignCell,
        TraceKind::DriftEvent,
        TraceKind::TableSwap,
        TraceKind::Recharacterization,
    ];
    let hub = Telemetry::hub();
    server_eval::table3_4_with_observer(Machine::XGene2, Scale::Quick, 2024, &hub);
    let journal = hub.export_jsonl().expect("a hub exports its journal");
    let mut last_seq = None;
    for line in journal.lines() {
        let event = json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        let seq = event.get("seq").and_then(Json::as_u64).expect("seq");
        assert!(last_seq < Some(seq), "seq {seq} after {last_seq:?}");
        last_seq = Some(seq);
        let kind = event.get("kind").and_then(Json::as_str).expect("kind");
        assert!(
            KINDS.iter().any(|k| k.as_str() == kind),
            "unknown kind {kind:?}"
        );
    }
    assert!(last_seq.is_some(), "empty journal");
}
