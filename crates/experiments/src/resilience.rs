//! Beyond-paper resilience experiment: energy savings vs injected fault
//! rate.
//!
//! The same server trace replays under the Optimal daemon while the chip
//! injects seeded faults (mailbox refusals/drops/latency spikes, PMU
//! glitches, droop excursions, migration hangs) at increasing
//! per-operation rates. The output is a degradation curve — savings vs
//! the fault-free ondemand baseline should decay gracefully toward, and
//! never below, zero — plus the daemon's own recovery counters, so a run
//! shows not just *that* it survived but *how* (retries, safe-mode
//! round-trips, watchdog rescues, droop guardband engagements).

use crate::report::{Cell, Table};
use crate::{Machine, Scale};
use avfs_chip::fault::{FaultPlan, FaultStats};
use avfs_chip::topology::CoreSet;
use avfs_core::configs::EvalConfig;
use avfs_core::daemon::{Daemon, DaemonStats};
use avfs_sched::metrics::RunMetrics;
use avfs_sched::system::{System, SystemConfig};
use avfs_telemetry::{Telemetry, TraceKind, Value};
use avfs_workloads::generator::{GeneratorConfig, WorkloadTrace};

/// Fault rates swept by the full experiment.
pub const FULL_RATES: [f64; 6] = [0.0, 0.01, 0.02, 0.05, 0.10, 0.20];

/// Short sweep for the CI soak (`exp resilience --smoke`): the
/// bit-identical anchor at rate 0 and the acceptance point at 5%.
pub const SMOKE_RATES: [f64; 2] = [0.0, 0.05];

/// One Optimal-daemon run under an armed fault plan.
#[derive(Debug, Clone)]
pub struct ResilienceRun {
    /// Per-operation fault rate of every category.
    pub rate: f64,
    /// Run metrics under injection.
    pub metrics: RunMetrics,
    /// The daemon's recovery counters after the run.
    pub daemon: DaemonStats,
    /// What the chip actually injected.
    pub injected: FaultStats,
    /// Rail voltage when the run ended, mV.
    pub end_voltage_mv: u32,
    /// The run ended inside the rail window at a voltage safe for the
    /// (drained) machine.
    pub end_state_ok: bool,
}

/// Results of the fault-rate sweep on one machine.
#[derive(Debug, Clone)]
pub struct ResilienceResults {
    /// Which machine.
    pub machine: String,
    /// The fault-free ondemand baseline the savings are measured against.
    pub baseline: RunMetrics,
    /// One run per swept rate, in sweep order.
    pub runs: Vec<ResilienceRun>,
}

impl ResilienceResults {
    /// Savings of run `i` vs the nominal baseline, as a fraction.
    pub fn savings(&self, i: usize) -> f64 {
        self.runs[i].metrics.energy_savings_vs(&self.baseline)
    }

    /// Checks the sweep's acceptance properties: every run drained the
    /// whole trace, ended in a safe rail state, and kept strictly
    /// positive savings over the nominal baseline.
    pub fn validate(&self) -> Result<(), String> {
        let jobs = self.baseline.completed.len();
        for (i, run) in self.runs.iter().enumerate() {
            if run.metrics.completed.len() != jobs {
                return Err(format!(
                    "rate {}: completed {} jobs, baseline completed {jobs}",
                    run.rate,
                    run.metrics.completed.len()
                ));
            }
            if !run.end_state_ok {
                return Err(format!(
                    "rate {}: ended outside the safe rail window at {} mV",
                    run.rate, run.end_voltage_mv
                ));
            }
            let savings = self.savings(i);
            if savings <= 0.0 {
                return Err(format!(
                    "rate {}: savings {:.2}% not strictly positive",
                    run.rate,
                    savings * 100.0
                ));
            }
        }
        Ok(())
    }
}

/// The generated server trace every run of the sweep replays.
fn trace_for(machine: Machine, scale: Scale, seed: u64) -> WorkloadTrace {
    let cores = machine.chip_builder().spec().cores as usize;
    let mut gen = GeneratorConfig::paper_default(cores, seed);
    gen.duration = scale.server_window();
    if scale == Scale::Quick {
        gen.job_scale = 0.25;
    }
    WorkloadTrace::generate(&gen)
}

/// Runs the Optimal daemon over `trace` with `plan` armed (or not).
#[cfg(test)]
fn run_optimal(machine: Machine, trace: &WorkloadTrace, plan: Option<FaultPlan>) -> RunMetrics {
    let mut chip = machine.chip_builder().build();
    chip.set_fault_plan(plan);
    let mut daemon = Daemon::optimal(&chip);
    let mut system = System::new(chip, machine.perf_model(), SystemConfig::default());
    system.run(trace, &mut daemon)
}

/// Runs the fault-rate sweep: one fault-free ondemand baseline, then the
/// Optimal daemon once per rate with a seeded plan armed.
pub fn sweep(machine: Machine, scale: Scale, seed: u64, rates: &[f64]) -> ResilienceResults {
    sweep_with_observer(machine, scale, seed, rates, &Telemetry::null())
}

/// [`sweep`] with a telemetry handle installed into every faulted run's
/// chip, scheduler, and daemon. Each run opens with an `Init` trace
/// carrying its fault rate; the hub's monotone clock means later runs'
/// events stamp at or after earlier runs' (the journal is still
/// byte-identical across identical seeded invocations). The fault-free
/// baseline is not instrumented — the journal stays a fault/recovery
/// record.
pub fn sweep_with_observer(
    machine: Machine,
    scale: Scale,
    seed: u64,
    rates: &[f64],
    telemetry: &Telemetry,
) -> ResilienceResults {
    let trace = trace_for(machine, scale, seed);

    let baseline = {
        let chip = machine.chip_builder().build();
        let mut driver = EvalConfig::Baseline.driver(&chip);
        let mut system = System::new(chip, machine.perf_model(), SystemConfig::default());
        system.run(&trace, driver.as_mut())
    };

    let runs = rates
        .iter()
        .enumerate()
        .map(|(i, &rate)| {
            let mut chip = machine.chip_builder().build();
            chip.set_fault_plan(Some(FaultPlan::uniform(seed.wrapping_add(i as u64), rate)));
            telemetry.trace(TraceKind::Init, || {
                vec![
                    ("experiment", Value::from("resilience")),
                    ("machine", Value::from(machine.name())),
                    ("rate", Value::from(rate)),
                ]
            });
            let mut daemon = Daemon::optimal(&chip);
            daemon.set_telemetry(telemetry.clone());
            let mut system = System::builder(chip, machine.perf_model())
                .config(SystemConfig::default())
                .observer(telemetry.clone())
                .build();
            let metrics = system.run(&trace, &mut daemon);
            let chip = system.chip();
            let end_state_ok = chip.voltage() <= chip.nominal_voltage()
                && chip.is_voltage_safe_for(CoreSet::EMPTY);
            ResilienceRun {
                rate,
                metrics,
                daemon: daemon.stats(),
                injected: chip.fault_stats(),
                end_voltage_mv: chip.voltage().as_mv(),
                end_state_ok,
            }
        })
        .collect();

    ResilienceResults {
        machine: machine.name().to_string(),
        baseline,
        runs,
    }
}

fn slug(machine_name: &str) -> String {
    machine_name.to_lowercase().replace(' ', "")
}

/// The degradation curve: energy and savings vs fault rate, one row per
/// swept rate.
pub fn degradation_curve(results: &ResilienceResults) -> Table {
    let mut t = Table::new(
        &format!("resilience-curve-{}", slug(&results.machine)),
        &format!(
            "Resilience — energy savings vs fault rate (Optimal vs fault-free Baseline {:.1} J), {}",
            results.baseline.energy_j, results.machine
        ),
        &[
            "fault rate",
            "Energy (J)",
            "Savings (%)",
            "Time (s)",
            "Unsafe time (s)",
            "Voltage changes",
            "Migrations",
            "End state OK",
        ],
    );
    for (i, run) in results.runs.iter().enumerate() {
        t.push_row(vec![
            Cell::f(run.rate, 2),
            Cell::f(run.metrics.energy_j, 1),
            Cell::f(results.savings(i) * 100.0, 1),
            Cell::f(run.metrics.makespan.as_secs_f64(), 0),
            Cell::f(run.metrics.unsafe_time_s, 3),
            run.metrics.voltage_changes.into(),
            run.metrics.migrations.into(),
            Cell::Int(run.end_state_ok as i64),
        ]);
    }
    t
}

/// The recovery counters: what was injected and how the daemon absorbed
/// it, one row per swept rate.
pub fn recovery_stats(results: &ResilienceResults) -> Table {
    let mut t = Table::new(
        &format!("resilience-recovery-{}", slug(&results.machine)),
        &format!(
            "Resilience — injected faults and recovery activity, {}",
            results.machine
        ),
        &[
            "fault rate",
            "injected",
            "mailbox",
            "PMU glitches",
            "migration hangs",
            "droop excursions",
            "retries",
            "backoff (us)",
            "safe entries",
            "safe exits",
            "watchdog fires",
            "droop guards",
        ],
    );
    for run in &results.runs {
        t.push_row(vec![
            Cell::f(run.rate, 2),
            run.injected.total().into(),
            run.injected.mailbox_total().into(),
            run.injected.pmu_glitches.into(),
            run.injected.migration_hangs.into(),
            run.injected.droop_excursions.into(),
            run.daemon.retries.into(),
            run.daemon.backoff_us.into(),
            run.daemon.safe_mode_entries.into(),
            run.daemon.safe_mode_exits.into(),
            run.daemon.watchdog_fires.into(),
            run.daemon.droop_emergencies.into(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_zero_is_bit_identical_to_the_unfaulted_optimal_run() {
        let trace = trace_for(Machine::XGene2, Scale::Quick, 7);
        let plain = run_optimal(Machine::XGene2, &trace, None);
        let results = sweep(Machine::XGene2, Scale::Quick, 7, &[0.0]);
        let armed = &results.runs[0];
        assert_eq!(
            armed.metrics.energy_j.to_bits(),
            plain.energy_j.to_bits(),
            "armed zero-rate plan changed the energy: {} vs {}",
            armed.metrics.energy_j,
            plain.energy_j
        );
        assert_eq!(armed.metrics.voltage_changes, plain.voltage_changes);
        assert_eq!(armed.metrics.migrations, plain.migrations);
        assert_eq!(armed.injected.total(), 0);
        assert_eq!(armed.daemon.mailbox_faults, 0);
        assert_eq!(armed.daemon.safe_mode_entries, 0);
        results.validate().expect("zero-rate sweep validates");
    }

    #[test]
    fn five_percent_faults_degrade_gracefully() {
        let results = sweep(Machine::XGene2, Scale::Quick, 7, &SMOKE_RATES);
        results.validate().expect("smoke sweep validates");
        let faulted = &results.runs[1];
        assert!(
            faulted.injected.total() > 0,
            "5% plan injected nothing: {:?}",
            faulted.injected
        );
        assert!(
            faulted.daemon.mailbox_faults > 0 || faulted.daemon.droop_emergencies > 0,
            "daemon never observed a fault: {:?}",
            faulted.daemon
        );
        // Strictly positive savings, and no better than the clean run.
        let clean = results.savings(0);
        let under_faults = results.savings(1);
        assert!(under_faults > 0.0, "savings {under_faults}");
        assert!(
            under_faults <= clean + 0.02,
            "faults should not improve savings: {under_faults} vs {clean}"
        );
    }

    #[test]
    fn sweep_is_deterministic_and_tables_roundtrip() {
        let a = sweep(Machine::XGene2, Scale::Quick, 11, &[0.05]);
        let b = sweep(Machine::XGene2, Scale::Quick, 11, &[0.05]);
        assert_eq!(
            a.runs[0].metrics.energy_j.to_bits(),
            b.runs[0].metrics.energy_j.to_bits()
        );
        assert_eq!(a.runs[0].daemon, b.runs[0].daemon);
        assert_eq!(a.runs[0].injected, b.runs[0].injected);

        let curve = degradation_curve(&a);
        let recovery = recovery_stats(&a);
        assert_eq!(curve.rows.len(), 1);
        assert_eq!(recovery.rows.len(), 1);
        // The JSON export of the recovery stats round-trips through the
        // shared report schema.
        for t in [&curve, &recovery] {
            let parsed = Table::from_json(&t.to_json()).expect("parses");
            assert_eq!(&parsed, t);
        }
    }
}
