//! End-to-end benchmark of the AVFS reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-artifacts|journal-xg2|fleet-eval> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics; with
//! `--trace 1` it measures the per-layer metrics instead. A readable
//! report goes to standard output, and its last line is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! See `perfbench/README.md` for the workloads, the metrics and how to
//! read them.

mod host;
mod profile;
mod stats;
mod workload;

use profile::{Count, Inclusive, Layer, Sample};
use stats::{median, relative_spread, tail, Outcomes};
use std::process::ExitCode;
use std::time::Instant;
use workload::{Outcome, Workload};

/// The workload seed when none is given: `exp`'s default, so the
/// simulated results printed match `exp table3 table4` and
/// `exp fleet --quick`.
const DEFAULT_SEED: u64 = 2024;

/// Full passes over a run's instances, at least: every instance is
/// measured twice or more and its digests compared.
const MIN_CYCLES: usize = 2;

/// Set-ups of a run's instance set; `setup_s` is their median.
const SETUP_REPEATS: usize = 15;

/// Traced iterations a traced run makes at least.
const MIN_TRACED: usize = 8;

/// Wall-clock cap on the measuring loop, so a run ends in time on a host
/// far slower than expected.
const MAX_LOOP_SECONDS: f64 = 120.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or(format!(
                    "unknown workload `{name}` (known: {})",
                    Workload::ALL.map(Workload::name).join(", ")
                ))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => {
                seconds = value()?
                    .parse()
                    .map_err(|e| format!("bad --seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Workload instances (seeds) one untraced run cycles through. Iteration
/// time depends on the generated trace — across seeds the standard
/// deviation is 11% (journal-xg2), 18% (paper-artifacts) and 26%
/// (fleet-eval) of the mean — so a run measures many instances and its
/// median does not hinge on one trace. Sized so a pass takes about 10 s
/// on a 2-vCPU host.
fn instances_per_run(w: Workload) -> u64 {
    match w {
        Workload::PaperArtifacts => 36,
        Workload::JournalXg2 => 96,
        Workload::FleetEval => 32,
    }
}

/// The seed of a run's `k`-th instance: the run's own seed first, then
/// seeds drawn from it (splitmix64). The same run seed always yields the
/// same instances.
fn instance_seed(seed: u64, k: u64) -> u64 {
    if k == 0 {
        return seed;
    }
    let mut z = seed.wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Peak resident set size of this process, MiB: `VmHWM` of
/// `/proc/self/status`. (`getrusage`'s `ru_maxrss` would not do: it keeps
/// the peak of the process image before `exec`, so under `cargo run` it
/// reports cargo's own footprint.)
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kib / 1024.0)
        })
        .unwrap_or(f64::NAN)
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What a run hands to the printer.
#[derive(Default)]
struct Report {
    outcomes: Outcomes,
    /// Failed checks of the measurement itself (non-reproducible output);
    /// any entry makes the run incorrect.
    integrity: Vec<String>,
    /// Every failed check, for the readable report.
    messages: Vec<String>,
    metrics: Vec<Metric>,
    notes: Vec<String>,
}

impl Report {
    /// Counts one iteration. Its digest must equal `expected`, the digest
    /// the same instance produced before; a difference, like any
    /// integrity failure, is a failed check of the measurement.
    fn tally(&mut self, seed: u64, out: &Outcome, expected: u64) {
        let mut integrity = out.integrity.clone();
        if out.digest != expected {
            integrity.push(format!(
                "digest {:016x} differs from {expected:016x} of the same instance",
                out.digest
            ));
        }
        let failed: Vec<String> = out
            .problems
            .iter()
            .chain(&integrity)
            .map(|p| format!("seed {seed}: {p}"))
            .collect();
        self.outcomes.record(seed, &failed);
        self.integrity.extend(integrity);
        self.messages.extend(failed);
    }
}

fn time_ms<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// Measures the end-to-end metrics.
fn run_untraced(args: &Args) -> Report {
    let w = args.workload;
    let mut report = Report::default();

    // Set up the whole instance set several times, each between two
    // kernel timings; the instances of the last one are measured.
    let (mut setup_s, mut raw_setup_s) = (Vec::new(), Vec::new());
    let mut instances = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let before = host::kernel_ms();
        let (set, ms) = time_ms(|| {
            (0..instances_per_run(w))
                .map(|k| workload::set_up(w, instance_seed(args.seed, k)))
                .collect::<Vec<_>>()
        });
        let kernel = (before + host::kernel_ms()) / 2.0;
        raw_setup_s.push(ms / 1e3);
        setup_s.push(host::normalize(ms, kernel) / 1e3);
        instances = set;
    }

    // Warm-up on the run's own seed (untimed): its digest and simulated
    // results are what the report prints.
    let warm = workload::check(&instances[0], &workload::run_untraced(w, &instances[0]));

    let mut digests: Vec<Option<u64>> = vec![None; instances.len()];
    let (mut iter_ms, mut raw_ms) = (Vec::new(), Vec::new());
    let mut kernel_before = host::kernel_ms();
    let loop_start = Instant::now();
    let mut cycles = 0;
    'measure: loop {
        for (inst, digest) in instances.iter().zip(&mut digests) {
            let (raw, ms) = time_ms(|| workload::run_untraced(w, inst));
            let out = workload::check(inst, &raw);
            // The kernel runs once the output is freed, on the heap the
            // iteration left behind, as the next iteration will.
            drop(raw);
            let kernel_after = host::kernel_ms();
            raw_ms.push(ms);
            iter_ms.push(host::normalize(ms, (kernel_before + kernel_after) / 2.0));
            kernel_before = kernel_after;
            let expected = *digest.get_or_insert(out.digest);
            report.tally(inst.seed, &out, expected);
            // The first pass always completes, so every instance is
            // checked and `attempted` depends on the seed alone.
            if cycles > 0 && loop_start.elapsed().as_secs_f64() >= MAX_LOOP_SECONDS {
                break 'measure;
            }
        }
        cycles += 1;
        if cycles >= MIN_CYCLES && loop_start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }

    let (p90, tail_note) = match tail(&iter_ms, 90.0) {
        Some(t) => (
            t.value,
            format!(
                "iter_ms_p90 is the p{:.1} of {} iterations ({} above it)",
                t.percentile, t.count, t.above
            ),
        ),
        None => (f64::NAN, "too few iterations for a tail percentile".into()),
    };
    report.metrics = vec![
        metric("setup_s", median(&setup_s).unwrap_or(f64::NAN), "s"),
        metric("iter_ms_p50", median(&iter_ms).unwrap_or(f64::NAN), "ms"),
        metric("iter_ms_p90", p90, "ms"),
        metric("peak_rss_mb", peak_rss_mib(), "MiB"),
    ];
    let n = &mut report.notes;
    n.push(tail_note);
    n.push(format!(
        "{} instances (seed {} first) x {cycles} passes",
        instances.len(),
        args.seed,
    ));
    n.push(format!(
        "times scaled to a {} ms calibration kernel; unscaled: iter_ms_p50 {:.4}, setup_s {:.6}",
        host::REFERENCE_MS,
        median(&raw_ms).unwrap_or(f64::NAN),
        median(&raw_setup_s).unwrap_or(f64::NAN)
    ));
    if let Some(spread) = relative_spread(&iter_ms) {
        n.push(format!(
            "iteration times in this run: IQR/median {spread:.3}"
        ));
    }
    n.push(format!(
        "failed_ops_frac = {} ({} of {} instances, over {} iterations)",
        report.outcomes.failed_frac(),
        report.outcomes.failed(),
        report.outcomes.attempted(),
        iter_ms.len()
    ));
    n.push(format!("digest (seed {}): {:016x}", args.seed, warm.digest));
    for (name, value) in &warm.headline {
        n.push(format!("{name} = {value:.4}"));
    }
    report
}

/// Median over traced iterations of `f(iteration)`.
fn per_iteration(samples: &[Sample], f: impl Fn(&Sample) -> f64) -> f64 {
    let values: Vec<f64> = samples.iter().map(f).collect();
    median(&values).unwrap_or(0.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Measures the per-layer metrics: traced iterations on the run's own
/// seed, alternating with untraced ones for the tracing overhead.
fn run_traced(args: &Args) -> Report {
    let w = args.workload;
    let mut report = Report::default();
    let inst = workload::set_up(w, args.seed);
    let reference = workload::reference(w, &inst);

    // Warm-up pair (untimed): the digests every later iteration repeats.
    let untraced_digest = workload::check(&inst, &workload::run_untraced(w, &inst)).digest;
    profile::start(true);
    let raw = workload::run_traced(w, &inst);
    let first = profile::finish();
    let warm = workload::check_traced(&inst, &reference, &raw);
    report.tally(inst.seed, &warm, warm.digest);
    drop(raw);

    let mut samples: Vec<Sample> = Vec::new();
    let (mut traced_ms, mut untraced_ms) = (Vec::new(), Vec::new());
    let (mut hub_ms, mut null_ms) = (Vec::new(), Vec::new());
    let loop_start = Instant::now();
    while samples.len() < MIN_TRACED || loop_start.elapsed().as_secs_f64() < args.seconds {
        if loop_start.elapsed().as_secs_f64() >= MAX_LOOP_SECONDS {
            break;
        }
        profile::start(true);
        let (raw, ms) = time_ms(|| workload::run_traced(w, &inst));
        let sample = profile::finish();
        let mut out = workload::check_traced(&inst, &reference, &raw);
        if sample.counts != first.counts {
            out.integrity
                .push("work counts differ between traced iterations".into());
        }
        report.tally(inst.seed, &out, warm.digest);
        traced_ms.push(ms);
        samples.push(sample);

        let (raw, ms) = time_ms(|| workload::run_untraced(w, &inst));
        untraced_ms.push(ms);
        report.tally(inst.seed, &workload::check(&inst, &raw), untraced_digest);

        if w == Workload::JournalXg2 {
            use avfs_telemetry::Telemetry;
            hub_ms.push(workload::optimal_run_ms(inst.seed, Telemetry::hub()));
            null_ms.push(workload::optimal_run_ms(inst.seed, Telemetry::null()));
        }
    }

    let s = &samples;
    let c = |c: Count| first.count(c) as f64;
    let mut m: Vec<Metric> = Vec::new();
    for &layer in Layer::ALL {
        m.push(metric(
            layer.label(),
            per_iteration(s, |x| x.self_ms(layer)),
            "ms",
        ));
    }
    for &i in Inclusive::ALL {
        m.push(metric(
            i.label(),
            per_iteration(s, |x| x.inclusive_ms(i)),
            "ms",
        ));
    }
    for &count in Count::ALL {
        m.push(metric(count.label(), c(count), "count"));
    }
    let per_unit = |layer: Layer, count: Count, unit_ns: f64| {
        per_iteration(s, |x| {
            ratio(x.self_ms(layer) * unit_ns, x.count(count) as f64)
        })
    };
    m.push(metric(
        "sched.ns_per_iteration",
        per_unit(Layer::Sched, Count::SchedIterations, 1e6),
        "ns",
    ));
    m.push(metric(
        "daemon.ns_per_call",
        per_unit(Layer::Daemon, Count::DaemonCalls, 1e6),
        "ns",
    ));
    m.push(metric(
        "daemon.useful_frac",
        ratio(c(Count::DaemonUseful), c(Count::DaemonCalls)),
        "fraction",
    ));
    m.push(metric(
        "telemetry.ns_per_call",
        per_unit(Layer::Telemetry, Count::TelemetryCalls, 1e6),
        "ns",
    ));
    let (hub, null) = (
        median(&hub_ms).unwrap_or(0.0),
        median(&null_ms).unwrap_or(0.0),
    );
    m.push(metric(
        "telemetry.overhead_pct",
        ratio(hub - null, null) * 100.0,
        "%",
    ));
    m.push(metric(
        "fleet.ms_per_epoch",
        per_unit(Layer::FleetRun, Count::FleetEpochs, 1.0),
        "ms",
    ));
    let walls: Vec<(f64, &Sample)> = traced_ms.iter().copied().zip(s).collect();
    let unattributed: Vec<f64> = walls.iter().map(|(ms, x)| ms - x.attributed_ms()).collect();
    let attributed: Vec<f64> = walls
        .iter()
        .map(|(ms, x)| ratio(x.attributed_ms(), *ms))
        .collect();
    let (traced_p50, untraced_p50) = (
        median(&traced_ms).unwrap_or(0.0),
        median(&untraced_ms).unwrap_or(0.0),
    );
    m.push(metric(
        "experiments.unattributed_ms",
        median(&unattributed).unwrap_or(0.0),
        "ms",
    ));
    m.push(metric(
        "bench.attributed_frac",
        median(&attributed).unwrap_or(0.0),
        "fraction",
    ));
    m.push(metric("bench.traced_iter_ms_p50", traced_p50, "ms"));
    m.push(metric("bench.untraced_iter_ms_p50", untraced_p50, "ms"));
    m.push(metric(
        "bench.tracing_overhead_ms",
        traced_p50 - untraced_p50,
        "ms",
    ));
    let simulated = |name: &str| {
        warm.headline
            .iter()
            .find(|h| h.0 == name)
            .map_or(0.0, |h| h.1)
    };
    for (name, unit) in workload::HEADLINE_METRICS {
        m.push(metric(name, simulated(name), unit));
    }
    report.metrics = m;
    report.notes.push(format!(
        "{} traced + {} untraced iterations on seed {}; traced digest {:016x}",
        samples.len(),
        untraced_ms.len(),
        args.seed,
        warm.digest,
    ));
    report
}

/// Prints the readable report and the final JSON line.
fn print(args: &Args, report: &Report) {
    let correct = report.integrity.is_empty() && report.outcomes.attempted() > 0;
    println!(
        "== perfbench {} seed {} ({}) ==",
        args.workload.name(),
        args.seed,
        if args.trace { "traced" } else { "untraced" }
    );
    for m in &report.metrics {
        println!("{:<36} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for note in &report.notes {
        println!("  {note}");
    }
    let mut shown: Vec<&String> = Vec::new();
    for problem in &report.messages {
        if !shown.contains(&problem) && shown.len() < 20 {
            println!("  FAILED CHECK: {problem}");
            shown.push(problem);
        }
    }
    println!(
        "  {} of {} instances failed their output checks; measurement {}",
        report.outcomes.failed(),
        report.outcomes.attempted(),
        if correct {
            "reproducible"
        } else {
            "NOT reproducible"
        }
    );
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() {
                format!("{}", m.value)
            } else {
                "null".into()
            };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.outcomes.attempted(),
        report.outcomes.failed(),
        metrics.join(", ")
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let report = if args.trace {
        run_traced(&args)
    } else {
        run_untraced(&args)
    };
    print(&args, &report);
    ExitCode::SUCCESS
}
