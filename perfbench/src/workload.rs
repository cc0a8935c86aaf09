//! The three workloads: their inputs, one untraced and one traced
//! iteration each, and the output checks.
//!
//! An *instance* is one workload seed. Untraced iterations call the same
//! experiments-crate entry points `exp` calls. Traced iterations rebuild
//! the server evaluation from the scheduler's incremental stepping API
//! with the driver and observer wrapped (see [`crate::profile`]), so each
//! layer is timed from outside.

use crate::profile::{self, Count, Inclusive, Layer, TimedDriver, TimedObserver};
use avfs_core::configs::EvalConfig;
use avfs_experiments::report::Table;
use avfs_experiments::server_eval::{self, EvalResults};
use avfs_experiments::{
    characterization, droops, energy, factors, fleet, perfchar, tables, telemetry_report, Machine,
    Scale,
};
use avfs_fleet::{EnergyAware, Fleet, FleetSummary};
use avfs_sched::driver::Driver;
use avfs_sched::metrics::RunMetrics;
use avfs_sched::report::Report;
use avfs_sched::system::{System, SystemConfig};
use avfs_telemetry::{Telemetry, TelemetryHub, TraceKind, Value};
use avfs_workloads::generator::{GeneratorConfig, WorkloadTrace};
use std::sync::{Arc, Mutex, PoisonError};

/// The simulated results every traced run reports, with their units;
/// 0 on workloads that do not compute them.
pub const HEADLINE_METRICS: [(&str, &str); 10] = [
    ("xg2.energy_savings_pct", "%"),
    ("xg2.time_penalty_pct", "%"),
    ("xg3.energy_savings_pct", "%"),
    ("xg3.time_penalty_pct", "%"),
    ("cluster.energy_savings_pct", "%"),
    ("cluster.time_penalty_pct", "%"),
    ("experiments.xg2_savings_gap_pp", "pp"),
    ("experiments.xg2_penalty_gap_pp", "pp"),
    ("experiments.xg3_savings_gap_pp", "pp"),
    ("experiments.xg3_penalty_gap_pp", "pp"),
];

/// The paper's headline results (§VI-B), for the accuracy gaps.
const PAPER_XG2: (f64, f64) = (25.2, 3.2);
/// X-Gene 3: energy savings and time penalty, percent.
const PAPER_XG3: (f64, f64) = (22.3, 2.5);

/// Which workload a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every artifact of `exp all` at paper scale, telemetry off.
    PaperArtifacts,
    /// Table III on X-Gene 2 with a telemetry hub on the Optimal run,
    /// the journal exported and summarised as `exp table3 --trace` does.
    JournalXg2,
    /// The quick-scale cluster evaluation plus one audited fleet run.
    FleetEval,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperArtifacts,
        Workload::JournalXg2,
        Workload::FleetEval,
    ];

    /// The name the command line uses.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperArtifacts => "paper-artifacts",
            Workload::JournalXg2 => "journal-xg2",
            Workload::FleetEval => "fleet-eval",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The machines whose server evaluation this workload runs.
    fn machines(self) -> &'static [Machine] {
        match self {
            Workload::PaperArtifacts => &Machine::BOTH,
            Workload::JournalXg2 => &[Machine::XGene2],
            Workload::FleetEval => &[],
        }
    }
}

/// The generated inputs of one instance: what the program is handed
/// (the seed and, for the audited fleet run, the cluster trace) and the
/// job counts its outputs are checked against.
#[derive(Debug)]
pub struct Instance {
    /// The workload seed.
    pub seed: u64,
    /// Jobs in the server trace of each machine the workload evaluates.
    jobs: Vec<(Machine, usize)>,
    /// The cluster trace (fleet-eval only).
    cluster: Option<WorkloadTrace>,
}

/// The Paper-scale server-evaluation trace exactly as
/// `server_eval::evaluate` generates it.
fn server_trace_config(machine: Machine, seed: u64) -> GeneratorConfig {
    let cores = machine.chip_builder().spec().cores as usize;
    let mut gen = GeneratorConfig::paper_default(cores, seed);
    gen.duration = Scale::Paper.server_window();
    gen
}

/// Builds an instance's inputs: its traces, and the chips, power tables
/// and policy tables (daemon drivers) the program constructs before it
/// runs anything. The caller times this as one set-up.
pub fn set_up(workload: Workload, seed: u64) -> Instance {
    let mut jobs = Vec::new();
    for &machine in workload.machines() {
        let trace = WorkloadTrace::generate(&server_trace_config(machine, seed));
        jobs.push((machine, trace.arrivals.len()));
        let chip = machine.chip_builder().build();
        for cfg in EvalConfig::ALL {
            std::hint::black_box(cfg.driver(&chip));
        }
        std::hint::black_box(chip);
    }
    let cluster = (workload == Workload::FleetEval).then(|| {
        let trace = fleet::cluster_trace(Scale::Quick, seed);
        std::hint::black_box(audited_fleet(seed));
        trace
    });
    Instance {
        seed,
        jobs,
        cluster,
    }
}

/// The fleet of the audited run: the default cluster with Optimal nodes,
/// built with every builder default except per-epoch audits.
fn audited_fleet(seed: u64) -> Fleet {
    Fleet::builder()
        .nodes(fleet::node_configs(seed, EvalConfig::Optimal))
        .audit(true)
        .build()
}

/// What one iteration produced: a digest of everything it output, the
/// failed checks, and the headline simulated results.
#[derive(Debug)]
pub struct Outcome {
    /// FNV-1a digest of the rendered artifacts, fingerprints and journal.
    pub digest: u64,
    /// Failed checks of the program's own promises: safe operation, every
    /// job completed, fleet conservation and audits.
    pub problems: Vec<String>,
    /// Failed checks of the measurement itself: a traced rebuild that
    /// does not reproduce the program's own output.
    pub integrity: Vec<String>,
    /// Headline simulated results, named as in [`HEADLINE_METRICS`].
    pub headline: Vec<(&'static str, f64)>,
}

/// Incremental FNV-1a.
#[derive(Debug, Clone, Copy)]
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn add(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Separator, so concatenations of different pieces differ.
        self.0 = (self.0 ^ 0xff).wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn tables(&mut self, tables: &[Table]) {
        for t in tables {
            self.add(t.to_markdown().as_bytes());
        }
    }
}

/// Checks every run of a server evaluation: safe throughout and all
/// `jobs` of the trace completed.
fn check_eval(results: &EvalResults, jobs: usize, problems: &mut Vec<String>) {
    for (label, m) in &results.runs {
        if m.unsafe_time_s > 0.0 {
            problems.push(format!(
                "{} {label}: unsafe time {} s",
                results.machine, m.unsafe_time_s
            ));
        }
        if m.completed.len() != jobs {
            problems.push(format!(
                "{} {label}: {} of {jobs} jobs completed",
                results.machine,
                m.completed.len()
            ));
        }
    }
}

fn add_fingerprints(digest: &mut Digest, results: &EvalResults) {
    for (_, m) in &results.runs {
        digest.add(m.fingerprint().as_bytes());
    }
}

/// Metric names of a machine's headline results: energy savings, time
/// penalty, and their gaps to the paper.
fn headline_names(machine: Machine) -> [&'static str; 4] {
    match machine {
        Machine::XGene2 => [
            "xg2.energy_savings_pct",
            "xg2.time_penalty_pct",
            "experiments.xg2_savings_gap_pp",
            "experiments.xg2_penalty_gap_pp",
        ],
        Machine::XGene3 => [
            "xg3.energy_savings_pct",
            "xg3.time_penalty_pct",
            "experiments.xg3_savings_gap_pp",
            "experiments.xg3_penalty_gap_pp",
        ],
    }
}

/// Optimal-vs-Baseline energy savings and time penalty, percent, as
/// Tables III/IV print them.
fn headline(results: &EvalResults) -> (f64, f64) {
    let base = results.baseline();
    let optimal = results.config("Optimal").unwrap_or(base);
    (
        optimal.energy_savings_vs(base) * 100.0,
        optimal.time_penalty_vs(base) * 100.0,
    )
}

/// Tables I–II and Figures 3–12, in `exp all` order.
fn characterization_tables() -> Vec<Table> {
    use avfs_chip::vmin::DroopClass;
    let scale = Scale::Paper;
    let mut out = vec![tables::table1(), tables::table2(), tables::table2_policy()];
    out.extend(Machine::BOTH.map(|m| characterization::fig3(m, scale)));
    out.push(characterization::fig4(scale));
    out.extend(Machine::BOTH.map(|m| characterization::fig5(m, scale)));
    out.push(droops::fig6(DroopClass::D55, scale));
    out.push(droops::fig6(DroopClass::D45, scale));
    out.push(energy::fig7());
    out.extend(Machine::BOTH.map(|m| perfchar::fig8(m, scale)));
    out.push(perfchar::fig9(Machine::XGene3, scale));
    out.extend(Machine::BOTH.map(factors::fig10));
    out.extend(Machine::BOTH.map(energy::fig11));
    out.extend(Machine::BOTH.map(energy::fig12));
    out
}

/// Everything one iteration computed, before it is [`check`]ed.
#[derive(Debug)]
pub struct Output {
    tables: Vec<Table>,
    evals: Vec<(Machine, EvalResults)>,
    journal: Option<String>,
    fleet: Option<(fleet::FleetEvalResults, Result<(), String>, FleetSummary)>,
}

/// The program work of one untraced iteration — the program's own entry
/// points, called as `exp` calls them. The caller times this.
pub fn run_untraced(workload: Workload, inst: &Instance) -> Output {
    let seed = inst.seed;
    let paper = Scale::Paper;
    let (xg2, xg3) = (Machine::XGene2, Machine::XGene3);
    match workload {
        Workload::PaperArtifacts => {
            let mut tables = characterization_tables();
            let r14 = server_eval::evaluate(Machine::XGene3, paper, seed);
            tables.push(server_eval::fig14(&r14, 60));
            let r15 = server_eval::evaluate(Machine::XGene3, paper, seed);
            tables.push(server_eval::fig15(&r15, 60));
            let (t3, r3) = server_eval::table3_4(Machine::XGene2, paper, seed);
            let (t4, r4) = server_eval::table3_4(Machine::XGene3, paper, seed);
            tables.extend([t3, t4]);
            Output {
                tables,
                evals: vec![(xg3, r14), (xg3, r15), (xg2, r3), (xg3, r4)],
                journal: None,
                fleet: None,
            }
        }
        Workload::JournalXg2 => {
            let telemetry = Telemetry::hub();
            let (t3, r3) =
                server_eval::table3_4_with_observer(Machine::XGene2, paper, seed, &telemetry);
            let journal = telemetry.export_jsonl().unwrap_or_default();
            let snapshot = telemetry.snapshot().unwrap_or_default();
            let events: Vec<_> = telemetry
                .with_hub(|h| h.journal().cloned().collect())
                .unwrap_or_default();
            let nominal = Machine::XGene2.chip_builder().build().nominal_voltage();
            let mut tables = vec![t3];
            tables.extend(telemetry_report::summary(&snapshot, &events, nominal));
            Output {
                tables,
                evals: vec![(xg2, r3)],
                journal: Some(journal),
                fleet: None,
            }
        }
        Workload::FleetEval => {
            let results = fleet::evaluate(Scale::Quick, seed);
            let valid = fleet::validate(&results);
            let tables = vec![
                fleet::policy_table(&results),
                fleet::node_table(&results),
                fleet::determinism_table(&results),
            ];
            let audited = match &inst.cluster {
                Some(trace) => audited_fleet(seed).run(trace, &mut EnergyAware::new()),
                None => unreachable!("fleet-eval instances carry a cluster trace"),
            };
            Output {
                tables,
                evals: Vec::new(),
                journal: None,
                fleet: Some((results, valid, audited)),
            }
        }
    }
}

/// Checks an iteration's output and digests it.
pub fn check(inst: &Instance, raw: &Output) -> Outcome {
    let mut problems = Vec::new();
    let mut digest = Digest::new();
    let mut headline_rows = Vec::new();
    digest.tables(&raw.tables);
    for (machine, results) in &raw.evals {
        // Every evaluated machine has its trace in the instance.
        let jobs = inst
            .jobs
            .iter()
            .find(|(m, _)| m == machine)
            .map_or(0, |j| j.1);
        check_eval(results, jobs, &mut problems);
        add_fingerprints(&mut digest, results);
    }
    if let Some(journal) = &raw.journal {
        if journal.is_empty() {
            problems.push("empty telemetry journal".into());
        }
        digest.add(journal.as_bytes());
    }
    // Tables III and IV: the last evaluation of each machine.
    for machine in Machine::BOTH {
        if let Some((_, r)) = raw.evals.iter().rev().find(|(m, _)| *m == machine) {
            let (savings, penalty) = headline(r);
            let paper = match machine {
                Machine::XGene2 => PAPER_XG2,
                Machine::XGene3 => PAPER_XG3,
            };
            headline_rows.extend(headline_names(machine).into_iter().zip([
                savings,
                penalty,
                savings - paper.0,
                penalty - paper.1,
            ]));
        }
    }
    if let Some((results, valid, audited)) = &raw.fleet {
        if let Err(e) = valid {
            problems.push(format!("fleet::validate: {e}"));
        }
        let all = std::iter::once(&results.baseline)
            .chain(&results.runs)
            .chain(std::iter::once(audited));
        for s in all {
            if s.lost_jobs != 0 || s.duplicate_completions != 0 {
                problems.push(format!(
                    "{}: {} lost, {} duplicated jobs",
                    s.policy, s.lost_jobs, s.duplicate_completions
                ));
            }
            if s.unsafe_time_s > 0.0 {
                problems.push(format!("{}: unsafe time {} s", s.policy, s.unsafe_time_s));
            }
            digest.add(s.fingerprint().as_bytes());
        }
        let failed = audited.failed_audits();
        if !failed.is_empty() || audited.audits.is_empty() {
            problems.push(format!(
                "audited fleet run: {} of {} epoch audits failed",
                failed.len(),
                audited.audits.len()
            ));
        }
        if !audited.conserves_jobs() {
            problems.push("audited fleet run: job conservation broke".into());
        }
        let ea = results.energy_aware();
        headline_rows.push((
            "cluster.energy_savings_pct",
            ea.energy_savings_vs(&results.baseline),
        ));
        headline_rows.push((
            "cluster.time_penalty_pct",
            ea.time_penalty_vs(&results.baseline),
        ));
    }
    Outcome {
        digest: digest.0,
        problems,
        integrity: Vec::new(),
        headline: headline_rows,
    }
}

/// Reference results for the traced run: what the program's own entry
/// points produce for the instance, which the rebuilt evaluation must
/// reproduce bit for bit.
#[derive(Debug)]
pub struct Reference {
    /// `server_eval::evaluate` per machine the workload evaluates.
    evals: Vec<(Machine, EvalResults)>,
    /// The journal `evaluate_with_observer` writes (journal-xg2 only).
    journal: Option<String>,
}

/// Computes the [`Reference`] for `inst`.
pub fn reference(workload: Workload, inst: &Instance) -> Reference {
    let telemetry = match workload {
        Workload::JournalXg2 => Telemetry::hub(),
        _ => Telemetry::null(),
    };
    let evals = workload
        .machines()
        .iter()
        .map(|&m| {
            let r = server_eval::evaluate_with_observer(m, Scale::Paper, inst.seed, &telemetry);
            (m, r)
        })
        .collect();
    Reference {
        evals,
        journal: telemetry.export_jsonl(),
    }
}

/// Replays `trace` through the incremental stepping API exactly as
/// `System::run` does, counting event-loop iterations.
fn run_stepped(system: &mut System, trace: &WorkloadTrace, driver: &mut dyn Driver) -> RunMetrics {
    let mut st = system.begin_run(driver);
    let mut arrivals = trace.arrivals.iter().peekable();
    while let Some(a) = arrivals.peek() {
        let t = a.at.max(system.now());
        system.step_until(&mut st, driver, t);
        while let Some(a) = arrivals.next_if(|a| a.at <= system.now()) {
            system.inject_arrival(&mut st, driver, a.bench, a.threads, a.scale);
        }
    }
    system.run_to_completion(&mut st, driver);
    profile::count(Count::SchedIterations, st.iterations());
    system.finish_run(st)
}

/// `server_eval::evaluate_with_observer`, rebuilt from its public parts
/// with every layer call inside a span.
fn traced_server_eval(machine: Machine, seed: u64, telemetry: &Telemetry) -> EvalResults {
    profile::inclusive(Inclusive::ServerEval, || {
        profile::span(Layer::ExperimentsEvaluate, || {
            let gen = server_trace_config(machine, seed);
            let trace = profile::span(Layer::WorkloadsGenerate, || WorkloadTrace::generate(&gen));
            profile::count(Count::WorkloadsArrivals, trace.arrivals.len() as u64);
            let runs = EvalConfig::ALL
                .iter()
                .map(|&cfg| {
                    let chip = profile::span(Layer::ChipBuild, || machine.chip_builder().build());
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
                    let inner = profile::span(Layer::DaemonBuild, || {
                        cfg.driver_with_observer(&chip, run_telemetry.clone())
                    });
                    // The Baseline policy is the scheduler's own default
                    // placement, not the daemon: its calls stay in sched.
                    let mut driver: Box<dyn Driver> = match cfg {
                        EvalConfig::Baseline => inner,
                        _ => Box::new(TimedDriver::new(inner)),
                    };
                    let which = match cfg {
                        EvalConfig::Baseline => Inclusive::RunBaseline,
                        EvalConfig::SafeVmin => Inclusive::RunSafeVmin,
                        EvalConfig::Placement => Inclusive::RunPlacement,
                        EvalConfig::Optimal => Inclusive::RunOptimal,
                    };
                    let (metrics, system) = profile::inclusive(which, || {
                        profile::span(Layer::Sched, || {
                            let mut system = System::builder(chip, machine.perf_model())
                                .config(SystemConfig::default())
                                .observer(run_telemetry)
                                .build();
                            let m = run_stepped(&mut system, &trace, driver.as_mut());
                            (m, system)
                        })
                    });
                    let mailbox = system.chip().mailbox_stats();
                    profile::count(Count::ChipVoltageChanges, mailbox.voltage_changes);
                    profile::count(Count::ChipMailboxRequests, mailbox.requests);
                    profile::count(Count::ChipMailboxRefusals, mailbox.refusals);
                    profile::count(Count::ChipMailboxDrops, mailbox.drops);
                    profile::count(Count::SchedRejected, system.rejected_actions());
                    profile::count(Count::SchedMigrations, metrics.migrations);
                    (cfg.label().to_string(), metrics)
                })
                .collect();
            EvalResults {
                machine: machine.name().to_string(),
                runs,
            }
        })
    })
}

/// Compares a rebuilt evaluation with the program's own, run by run.
fn check_identical(rebuilt: &EvalResults, reference: &EvalResults, problems: &mut Vec<String>) {
    for ((label, m), (_, r)) in rebuilt.runs.iter().zip(&reference.runs) {
        if m.fingerprint() != r.fingerprint() || m != r {
            problems.push(format!(
                "{} {label}: traced run differs from server_eval::evaluate",
                rebuilt.machine
            ));
        }
    }
}

/// [`check`], plus the traced run's promise: every rebuilt run, and the
/// journal, is bit-identical to what the program's own entry points
/// produced for the instance.
pub fn check_traced(inst: &Instance, reference: &Reference, out: &Output) -> Outcome {
    let mut outcome = check(inst, out);
    for (machine, rebuilt) in &out.evals {
        match reference.evals.iter().find(|(m, _)| m == machine) {
            Some((_, r)) => check_identical(rebuilt, r, &mut outcome.integrity),
            None => outcome
                .integrity
                .push(format!("{machine}: no reference evaluation")),
        }
    }
    if reference.journal.is_some() && out.journal != reference.journal {
        outcome
            .integrity
            .push("traced journal differs from evaluate_with_observer's".into());
    }
    outcome
}

/// The program work of one traced iteration on the reference instance;
/// the per-layer totals accrue in [`crate::profile`].
pub fn run_traced(workload: Workload, inst: &Instance) -> Output {
    let seed = inst.seed;
    let (xg2, xg3) = (Machine::XGene2, Machine::XGene3);
    match workload {
        Workload::PaperArtifacts => {
            let mut tables = profile::span(Layer::ChipCharacterization, characterization_tables);
            let null = Telemetry::null();
            let r14 = traced_server_eval(Machine::XGene3, seed, &null);
            tables.push(profile::span(Layer::ExperimentsRender, || {
                server_eval::fig14(&r14, 60)
            }));
            let r15 = traced_server_eval(Machine::XGene3, seed, &null);
            tables.push(profile::span(Layer::ExperimentsRender, || {
                server_eval::fig15(&r15, 60)
            }));
            let r3 = traced_server_eval(Machine::XGene2, seed, &null);
            let r4 = traced_server_eval(Machine::XGene3, seed, &null);
            Output {
                tables,
                evals: vec![(xg3, r14), (xg3, r15), (xg2, r3), (xg3, r4)],
                journal: None,
                fleet: None,
            }
        }
        Workload::JournalXg2 => {
            let hub = Arc::new(Mutex::new(TelemetryHub::new()));
            let telemetry = Telemetry::custom(Box::new(TimedObserver::new(Arc::clone(&hub))));
            let r3 = traced_server_eval(Machine::XGene2, seed, &telemetry);
            let (journal, snapshot, events, dropped) =
                profile::span(Layer::TelemetryExport, || {
                    let h = hub.lock().unwrap_or_else(PoisonError::into_inner);
                    let events: Vec<_> = h.journal().cloned().collect();
                    (h.export_jsonl(), h.snapshot(), events, h.dropped())
                });
            profile::count(Count::TelemetryJournalBytes, journal.len() as u64);
            profile::count(Count::TelemetryDropped, dropped);
            let nominal = profile::span(Layer::ChipBuild, || {
                Machine::XGene2.chip_builder().build().nominal_voltage()
            });
            let tables = profile::span(Layer::ExperimentsRender, || {
                telemetry_report::summary(&snapshot, &events, nominal)
            });
            Output {
                tables,
                evals: vec![(xg2, r3)],
                journal: Some(journal),
                fleet: None,
            }
        }
        Workload::FleetEval => {
            let results =
                profile::span(Layer::FleetEvaluate, || fleet::evaluate(Scale::Quick, seed));
            let (valid, tables) = profile::span(Layer::ExperimentsRender, || {
                (
                    fleet::validate(&results),
                    vec![
                        fleet::policy_table(&results),
                        fleet::node_table(&results),
                        fleet::determinism_table(&results),
                    ],
                )
            });
            let audited = match &inst.cluster {
                Some(trace) => profile::span(Layer::FleetRun, || {
                    audited_fleet(seed).run(trace, &mut EnergyAware::new())
                }),
                None => unreachable!("fleet-eval instances carry a cluster trace"),
            };
            profile::count(Count::FleetEpochs, audited.audits.len() as u64);
            profile::count(Count::FleetCompleted, audited.completed);
            profile::count(Count::FleetRedispatched, audited.redispatch.reassigned);
            profile::count(Count::FleetLostJobs, audited.lost_jobs);
            profile::count(Count::FleetDuplicates, audited.duplicate_completions);
            profile::count(Count::FleetDaemonInvocations, audited.daemon.invocations);
            Output {
                tables,
                evals: Vec::new(),
                journal: None,
                fleet: Some((results, valid, audited)),
            }
        }
    }
}

/// Wall time of one plain Optimal X-Gene 2 run of `inst`, ms, with the
/// given telemetry — the pair behind `telemetry.overhead_pct`.
pub fn optimal_run_ms(seed: u64, telemetry: Telemetry) -> f64 {
    let machine = Machine::XGene2;
    let trace = WorkloadTrace::generate(&server_trace_config(machine, seed));
    let chip = machine.chip_builder().build();
    let mut driver = EvalConfig::Optimal.driver_with_observer(&chip, telemetry.clone());
    let mut system = System::builder(chip, machine.perf_model())
        .config(SystemConfig::default())
        .observer(telemetry)
        .build();
    let start = std::time::Instant::now();
    std::hint::black_box(system.run(&trace, driver.as_mut()));
    start.elapsed().as_secs_f64() * 1e3
}
