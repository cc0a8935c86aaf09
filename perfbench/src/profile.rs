//! Outside-in layer attribution for the traced run.
//!
//! Every timed call into a layer's public API runs inside [`span`]. A
//! span's *self* time is its wall time minus the time of the spans
//! nested inside it, so self times of all layers add up to the time
//! spent inside top-level spans and nothing is counted twice. The
//! wrappers here — [`TimedDriver`] around the `Driver` the scheduler
//! calls, and [`TimedObserver`] around the `Observer` telemetry calls —
//! open the nested spans from outside the program; no program code is
//! instrumented.
//!
//! State is thread-local: the benchmark drives every workload from one
//! thread. Work the program hands to its own threads (the fleet's node
//! pool) is inside the span that called it. With the profiler disabled
//! a span is one thread-local flag check.

use avfs_sched::driver::{Action, Driver, SysEvent, SystemView};
use avfs_sim::time::SimTime;
use avfs_telemetry::{Observer, TelemetryHub, TraceKind, Value};
use std::cell::RefCell;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

macro_rules! named_enum {
    ($(#[$meta:meta])* $name:ident { $($variant:ident => $label:literal,)* }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $name { $($variant,)* }

        impl $name {
            /// Every variant, in report order.
            pub const ALL: &'static [$name] = &[$($name::$variant,)*];

            /// The metric name this variant reports under.
            pub fn label(self) -> &'static str {
                match self { $($name::$variant => $label,)* }
            }
        }
    };
}

named_enum! {
    /// Where a span's self time is charged. Names follow the workspace
    /// crates.
    Layer {
        Sched => "sched.self_ms",
        Daemon => "daemon.self_ms",
        DaemonBuild => "daemon.build_ms",
        Telemetry => "telemetry.self_ms",
        TelemetryExport => "telemetry.export_ms",
        ChipBuild => "chip.build_ms",
        ChipCharacterization => "chip.characterization_ms",
        WorkloadsGenerate => "workloads.generate_ms",
        FleetEvaluate => "fleet.evaluate_ms",
        FleetRun => "fleet.run_ms",
        ExperimentsEvaluate => "experiments.evaluate_self_ms",
        ExperimentsRender => "experiments.render_ms",
    }
}

named_enum! {
    /// Exact work counts recorded at the same boundaries as the spans.
    Count {
        SchedIterations => "sched.iterations",
        SchedMigrations => "sched.migrations",
        SchedRejected => "sched.rejected_actions",
        DaemonCalls => "daemon.calls",
        DaemonMonitorTick => "daemon.calls.monitor_tick",
        DaemonArrived => "daemon.calls.arrived",
        DaemonFinished => "daemon.calls.finished",
        DaemonClassChanged => "daemon.calls.class_changed",
        DaemonFault => "daemon.calls.fault",
        DaemonUseful => "daemon.useful_calls",
        ActionPin => "daemon.actions.pin",
        ActionPmdStep => "daemon.actions.pmd_step",
        ActionVoltage => "daemon.actions.voltage",
        ActionGovernor => "daemon.actions.governor",
        ChipVoltageChanges => "chip.voltage_changes",
        ChipMailboxRequests => "chip.mailbox_requests",
        ChipMailboxRefusals => "chip.mailbox_refusals",
        ChipMailboxDrops => "chip.mailbox_drops",
        WorkloadsArrivals => "workloads.arrivals",
        TelemetryCalls => "telemetry.calls",
        TelemetryRecords => "telemetry.records",
        TelemetryJournalBytes => "telemetry.journal_bytes",
        TelemetryDropped => "telemetry.dropped",
        FleetEpochs => "fleet.epochs",
        FleetCompleted => "fleet.completed",
        FleetRedispatched => "fleet.redispatched",
        FleetLostJobs => "fleet.lost_jobs",
        FleetDuplicates => "fleet.duplicate_completions",
        FleetDaemonInvocations => "fleet.daemon_invocations",
    }
}

named_enum! {
    /// Inclusive timers: wall time of one kind of call, children
    /// included. Reported beside the self times, never summed with them.
    Inclusive {
        RunBaseline => "sched.run_ms.baseline",
        RunSafeVmin => "sched.run_ms.safe_vmin",
        RunPlacement => "sched.run_ms.placement",
        RunOptimal => "sched.run_ms.optimal",
        ServerEval => "experiments.evaluate_ms",
    }
}

/// One traced iteration's totals.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Sample {
    /// Self nanoseconds per [`Layer`], in `Layer::ALL` order.
    pub self_ns: Vec<u64>,
    /// Counts per [`Count`], in `Count::ALL` order.
    pub counts: Vec<u64>,
    /// Inclusive nanoseconds per [`Inclusive`], in `Inclusive::ALL` order.
    pub inclusive_ns: Vec<u64>,
}

impl Sample {
    fn zeroed() -> Self {
        Sample {
            self_ns: vec![0; Layer::ALL.len()],
            counts: vec![0; Count::ALL.len()],
            inclusive_ns: vec![0; Inclusive::ALL.len()],
        }
    }

    /// Self time charged to `layer`, ms.
    pub fn self_ms(&self, layer: Layer) -> f64 {
        self.self_ns[layer as usize] as f64 / 1e6
    }

    /// Sum of every layer's self time, ms.
    pub fn attributed_ms(&self) -> f64 {
        self.self_ns.iter().sum::<u64>() as f64 / 1e6
    }

    /// The count recorded for `c`.
    pub fn count(&self, c: Count) -> u64 {
        self.counts[c as usize]
    }

    /// Inclusive time of `i`, ms.
    pub fn inclusive_ms(&self, i: Inclusive) -> f64 {
        self.inclusive_ns[i as usize] as f64 / 1e6
    }
}

struct Profiler {
    enabled: bool,
    sample: Sample,
    /// Open spans: child nanoseconds accrued so far, innermost last.
    stack: Vec<u64>,
}

thread_local! {
    static PROFILER: RefCell<Profiler> = RefCell::new(Profiler {
        enabled: false,
        sample: Sample::zeroed(),
        stack: Vec::with_capacity(8),
    });
}

fn enabled() -> bool {
    PROFILER.with(|p| p.borrow().enabled)
}

/// Clears the totals and turns recording on (`true`) or off.
pub fn start(on: bool) {
    PROFILER.with(|p| {
        let mut p = p.borrow_mut();
        p.enabled = on;
        p.sample = Sample::zeroed();
        p.stack.clear();
    });
}

/// Turns recording off and returns the totals since [`start`].
pub fn finish() -> Sample {
    PROFILER.with(|p| {
        let mut p = p.borrow_mut();
        p.enabled = false;
        std::mem::replace(&mut p.sample, Sample::zeroed())
    })
}

/// Runs `f`, charging its wall time minus nested spans to `layer`.
pub fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    PROFILER.with(|p| p.borrow_mut().stack.push(0));
    let start = Instant::now();
    let out = f();
    let elapsed = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    PROFILER.with(|p| {
        let mut p = p.borrow_mut();
        let children = p.stack.pop().unwrap_or(0);
        p.sample.self_ns[layer as usize] += elapsed.saturating_sub(children);
        if let Some(parent) = p.stack.last_mut() {
            *parent += elapsed;
        }
    });
    out
}

/// Runs `f` and adds its wall time to the inclusive timer `which`.
pub fn inclusive<R>(which: Inclusive, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let start = Instant::now();
    let out = f();
    let elapsed = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    PROFILER.with(|p| p.borrow_mut().sample.inclusive_ns[which as usize] += elapsed);
    out
}

/// Adds `n` to the count `c` (no-op while recording is off).
pub fn count(c: Count, n: u64) {
    PROFILER.with(|p| {
        let mut p = p.borrow_mut();
        if p.enabled {
            p.sample.counts[c as usize] += n;
        }
    });
}

/// The `Driver` the scheduler calls, timed from outside: each
/// `on_event` is a [`Layer::Daemon`] span, counted by event kind and by
/// the actions it returns.
pub struct TimedDriver {
    inner: Box<dyn Driver + Send>,
}

impl TimedDriver {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn Driver + Send>) -> Self {
        TimedDriver { inner }
    }
}

impl Driver for TimedDriver {
    fn on_event(&mut self, view: &SystemView, event: &SysEvent) -> Vec<Action> {
        let actions = span(Layer::Daemon, || self.inner.on_event(view, event));
        let kind = match event {
            SysEvent::MonitorTick => Count::DaemonMonitorTick,
            SysEvent::ProcessArrived(_) => Count::DaemonArrived,
            SysEvent::ProcessFinished(_) => Count::DaemonFinished,
            SysEvent::ClassChanged(..) => Count::DaemonClassChanged,
            _ => Count::DaemonFault,
        };
        count(Count::DaemonCalls, 1);
        count(kind, 1);
        if !actions.is_empty() {
            count(Count::DaemonUseful, 1);
        }
        for action in &actions {
            count(
                match action {
                    Action::PinProcess(..) => Count::ActionPin,
                    Action::SetPmdStep(..) => Count::ActionPmdStep,
                    Action::SetVoltage(_) => Count::ActionVoltage,
                    Action::SetGovernor(_) => Count::ActionGovernor,
                },
                1,
            );
        }
        actions
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// The `Observer` telemetry calls, timed from outside: forwards every
/// hook to a shared [`TelemetryHub`] inside a [`Layer::Telemetry`] span.
pub struct TimedObserver {
    hub: Arc<Mutex<TelemetryHub>>,
}

impl TimedObserver {
    /// An observer feeding `hub`.
    pub fn new(hub: Arc<Mutex<TelemetryHub>>) -> Self {
        TimedObserver { hub }
    }

    fn forward(&self, f: impl FnOnce(&mut TelemetryHub)) {
        count(Count::TelemetryCalls, 1);
        span(Layer::Telemetry, || {
            f(&mut self.hub.lock().unwrap_or_else(PoisonError::into_inner))
        });
    }
}

impl Observer for TimedObserver {
    fn advance_to(&mut self, at: SimTime) {
        self.forward(|h| h.advance_to(at));
    }

    fn counter_add(&mut self, name: &'static str, delta: u64) {
        self.forward(|h| h.counter_add(name, delta));
    }

    fn gauge_set(&mut self, name: &'static str, value: i64) {
        self.forward(|h| h.gauge_set(name, value));
    }

    fn histogram_observe(&mut self, name: &'static str, value: u64) {
        self.forward(|h| h.histogram_observe(name, value));
    }

    fn record(&mut self, kind: TraceKind, fields: Vec<(&'static str, Value)>) {
        count(Count::TelemetryRecords, 1);
        self.forward(|h| h.record(kind, fields));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u128) {
        let t = Instant::now();
        while t.elapsed().as_nanos() < ns {}
    }

    #[test]
    fn nested_spans_split_self_time_without_double_counting() {
        start(true);
        let outer = Instant::now();
        span(Layer::Sched, || {
            spin(200_000);
            span(Layer::Daemon, || spin(300_000));
        });
        let wall = outer.elapsed().as_nanos() as f64 / 1e6;
        let s = finish();
        assert!(s.self_ms(Layer::Daemon) >= 0.3);
        assert!(s.self_ms(Layer::Sched) >= 0.2);
        // Self times add up to no more than the outer span's wall time.
        assert!(s.attributed_ms() <= wall);
    }

    #[test]
    fn disabled_profiler_records_nothing() {
        start(false);
        span(Layer::Sched, || spin(10_000));
        count(Count::DaemonCalls, 3);
        let s = finish();
        assert_eq!(s.attributed_ms(), 0.0);
        assert_eq!(s.count(Count::DaemonCalls), 0);
    }
}
