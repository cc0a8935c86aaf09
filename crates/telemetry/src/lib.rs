//! Deterministic tracing/metrics layer for the AVFS workspace.
//!
//! The paper's daemon is an online *monitoring* loop; this crate gives
//! the reproduction first-class observability over that loop without
//! compromising the property every experiment leans on: **bit-identical
//! reruns**. Three rules make that hold:
//!
//! * **No wall clock.** Every trace event is stamped with [`SimTime`]
//!   propagated from the simulator via [`Observer::advance_to`]. Two
//!   identical seeded runs therefore produce byte-identical journals.
//! * **Static metric names.** Counters, gauges and histograms are keyed
//!   by `&'static str` and stored in `BTreeMap`s, so snapshots and
//!   exports iterate in a stable order independent of insertion history.
//! * **Bounded memory.** The trace journal is a ring of fixed capacity;
//!   overflow drops the *oldest* events and counts the drops, so a long
//!   run can always keep tracing.
//!
//! The seam between the instrumented crates and this one is the
//! [`Telemetry`] handle: a cheap clonable façade over an optional
//! observer. When constructed with [`Telemetry::null`] every method is a
//! single `Option` branch and the closure passed to [`Telemetry::trace`]
//! is never invoked — no event is built, nothing allocates. That is the
//! zero-cost guarantee `crates/bench` verifies.

pub mod json;

use avfs_sim::time::SimTime;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// Default capacity of the hub's ring journal, in events.
pub const DEFAULT_JOURNAL_CAPACITY: usize = 65_536;

/// Bucket upper bounds (inclusive) shared by every histogram. Decade
/// buckets cover everything the workspace observes — action counts per
/// dispatch through accounted backoff microseconds.
pub const HISTOGRAM_BOUNDS: [u64; 7] = [1, 10, 100, 1_000, 10_000, 100_000, 1_000_000];

/// One field value attached to a trace event.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned counter-like quantity.
    U64(u64),
    /// Signed quantity (gauge deltas, offsets).
    I64(i64),
    /// Measured quantity (power, savings). Serialized via `Display`,
    /// which is deterministic for finite values; non-finite values
    /// serialize as JSON `null`.
    F64(f64),
    /// Flag.
    Bool(bool),
    /// Static label (state names, action kinds).
    Str(&'static str),
    /// Owned label (formatted detail, error text).
    Text(String),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(u64::from(v))
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&'static str> for Value {
    fn from(v: &'static str) -> Self {
        Value::Str(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}

impl Value {
    fn write_json(&self, out: &mut String) {
        match self {
            Value::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Value::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Value::F64(v) if v.is_finite() => {
                let _ = write!(out, "{v}");
            }
            Value::F64(_) => out.push_str("null"),
            Value::Bool(v) => {
                let _ = write!(out, "{v}");
            }
            Value::Str(s) => json::escape_into(out, s),
            Value::Text(s) => json::escape_into(out, s),
        }
    }
}

/// What kind of decision point a trace event records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum TraceKind {
    /// A run or component initialized.
    Init,
    /// One closed monitor window's power/voltage/occupancy sample.
    MonitorSample,
    /// A process's frequency-vs-Vmin class flipped.
    Classification,
    /// The daemon produced a new plan.
    Replan,
    /// The scheduler dispatched a driver's action batch.
    ActionDispatch,
    /// A request entered the SLIMpro mailbox.
    MailboxCall,
    /// A mailbox request failed (injected or window-refused).
    MailboxFault,
    /// The recovery state machine changed state.
    RecoveryTransition,
    /// The droop guardband engaged or released.
    DroopGuard,
    /// The migration watchdog rescued a wedged migration.
    Watchdog,
    /// The fleet front door routed a job to a node.
    FleetRoute,
    /// The fleet front door shed a job (no node could admit it).
    FleetShed,
    /// A fleet node's health machine fenced it (no new work routed).
    NodeFenced,
    /// A fenced fleet node passed probation and rejoined the routable set.
    NodeRecovered,
    /// A fleet node's chip was pessimized by an injected degrade fault.
    NodeDegraded,
    /// A job drained from a failed node was re-dispatched (or exhausted
    /// its retry budget).
    JobRedispatch,
    /// A characterization campaign accepted one measured margin-map cell.
    CampaignCell,
    /// A scripted aging/temperature drift shifted the chip's true Vmin.
    DriftEvent,
    /// The daemon atomically swapped in a recompiled policy table.
    TableSwap,
    /// An online recharacterization pass started or finished.
    Recharacterization,
}

impl TraceKind {
    /// Stable snake_case name used in the JSONL export.
    pub fn as_str(self) -> &'static str {
        match self {
            TraceKind::Init => "init",
            TraceKind::MonitorSample => "monitor_sample",
            TraceKind::Classification => "classification",
            TraceKind::Replan => "replan",
            TraceKind::ActionDispatch => "action_dispatch",
            TraceKind::MailboxCall => "mailbox_call",
            TraceKind::MailboxFault => "mailbox_fault",
            TraceKind::RecoveryTransition => "recovery_transition",
            TraceKind::DroopGuard => "droop_guard",
            TraceKind::Watchdog => "watchdog",
            TraceKind::FleetRoute => "fleet_route",
            TraceKind::FleetShed => "fleet_shed",
            TraceKind::NodeFenced => "node_fenced",
            TraceKind::NodeRecovered => "node_recovered",
            TraceKind::NodeDegraded => "node_degraded",
            TraceKind::JobRedispatch => "job_redispatch",
            TraceKind::CampaignCell => "campaign_cell",
            TraceKind::DriftEvent => "drift_event",
            TraceKind::TableSwap => "table_swap",
            TraceKind::Recharacterization => "recharacterization",
        }
    }
}

impl fmt::Display for TraceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One span-style trace event in the ring journal.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Monotone sequence number, assigned by the hub.
    pub seq: u64,
    /// Simulated time the event was recorded at.
    pub at: SimTime,
    /// Decision point.
    pub kind: TraceKind,
    /// Event-specific fields, in recording order.
    pub fields: Vec<(&'static str, Value)>,
}

impl TraceEvent {
    /// Renders the event as one JSON object (no trailing newline),
    /// escaping strings with [`json::escape_into`].
    pub fn to_json_line(&self) -> String {
        self.to_json_line_tagged(None)
    }

    /// Like [`Self::to_json_line`], with an optional extra integer field
    /// injected right after `kind`. Used by multi-hub aggregators (the
    /// fleet journal) to tag each line with its source without touching
    /// the recorded event.
    pub fn to_json_line_tagged(&self, tag: Option<(&'static str, u64)>) -> String {
        let mut out = String::with_capacity(96);
        let _ = write!(
            out,
            "{{\"seq\":{},\"t_ns\":{},\"kind\":\"{}\"",
            self.seq,
            self.at.as_nanos(),
            self.kind.as_str()
        );
        if let Some((name, value)) = tag {
            let _ = write!(out, ",\"{name}\":{value}");
        }
        for (name, value) in &self.fields {
            out.push(',');
            json::escape_into(&mut out, name);
            out.push(':');
            value.write_json(&mut out);
        }
        out.push('}');
        out
    }
}

/// The sink side of the telemetry seam.
///
/// Implementations must be deterministic functions of the call sequence:
/// no wall clock, no ambient randomness. The instrumented crates only
/// ever talk to an observer through the [`Telemetry`] handle, which
/// serializes access, so `&mut self` methods need no internal locking.
pub trait Observer: Send {
    /// Propagates simulated time; subsequent events are stamped at `at`.
    /// Called by clock-owning layers (the scheduler, the daemon) on
    /// behalf of clock-less ones (the chip).
    fn advance_to(&mut self, _at: SimTime) {}

    /// Adds `delta` to the named monotone counter.
    fn counter_add(&mut self, name: &'static str, delta: u64);

    /// Sets the named gauge to `value`.
    fn gauge_set(&mut self, name: &'static str, value: i64);

    /// Records one observation into the named histogram.
    fn histogram_observe(&mut self, name: &'static str, value: u64);

    /// Appends a trace event with the given fields.
    fn record(&mut self, kind: TraceKind, fields: Vec<(&'static str, Value)>);
}

/// The do-nothing observer: every hook is a no-op the optimizer can
/// erase. [`Telemetry::null`] does not even allocate one — the handle's
/// sink is `None` — but the type exists for callers that want to pass an
/// explicit observer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullObserver;

impl Observer for NullObserver {
    fn counter_add(&mut self, _name: &'static str, _delta: u64) {}
    fn gauge_set(&mut self, _name: &'static str, _value: i64) {}
    fn histogram_observe(&mut self, _name: &'static str, _value: u64) {}
    fn record(&mut self, _kind: TraceKind, _fields: Vec<(&'static str, Value)>) {}
}

/// A fixed-bucket histogram: decade buckets plus count/sum/max.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// `buckets[i]` counts observations `<= HISTOGRAM_BOUNDS[i]`; the
    /// final slot counts overflows.
    pub buckets: [u64; HISTOGRAM_BOUNDS.len() + 1],
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Largest observed value.
    pub max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; HISTOGRAM_BOUNDS.len() + 1],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        let slot = HISTOGRAM_BOUNDS
            .iter()
            .position(|&bound| value <= bound)
            .unwrap_or(HISTOGRAM_BOUNDS.len());
        self.buckets[slot] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Mean observation, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// A point-in-time copy of the hub's metric registries, in stable
/// (sorted-by-name) order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Monotone counters.
    pub counters: BTreeMap<&'static str, u64>,
    /// Last-write-wins gauges.
    pub gauges: BTreeMap<&'static str, i64>,
    /// Fixed-bucket histograms.
    pub histograms: BTreeMap<&'static str, Histogram>,
}

impl MetricsSnapshot {
    /// The named counter's value, 0 if never touched.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The named gauge's value, if ever set.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.get(name).copied()
    }

    /// The named histogram, if it ever observed anything.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }
}

/// The standard observer: metric registries plus a bounded ring journal
/// of trace events, exportable as JSONL.
#[derive(Debug)]
pub struct TelemetryHub {
    now: SimTime,
    next_seq: u64,
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, i64>,
    histograms: BTreeMap<&'static str, Histogram>,
    journal: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl Default for TelemetryHub {
    fn default() -> Self {
        Self::new()
    }
}

impl TelemetryHub {
    /// A hub with the default journal capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_JOURNAL_CAPACITY)
    }

    /// A hub whose ring journal holds at most `capacity` events; older
    /// events are dropped (and counted) past that.
    pub fn with_capacity(capacity: usize) -> Self {
        TelemetryHub {
            now: SimTime::ZERO,
            next_seq: 0,
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
            journal: VecDeque::with_capacity(capacity.min(4096)),
            capacity: capacity.max(1),
            dropped: 0,
        }
    }

    /// The simulated time events are currently stamped with.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Events dropped from the ring so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The journal's live events, oldest first.
    pub fn journal(&self) -> impl Iterator<Item = &TraceEvent> {
        self.journal.iter()
    }

    /// Copies the metric registries out.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
            histograms: self.histograms.clone(),
        }
    }

    /// Renders the whole journal as JSONL (one event per line, trailing
    /// newline). Byte-identical across identical seeded runs.
    pub fn export_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.journal.len() * 96);
        for event in &self.journal {
            out.push_str(&event.to_json_line());
            out.push('\n');
        }
        out
    }

    /// [`Self::export_jsonl`] with every line tagged by an extra integer
    /// field (e.g. `"node":3`) so journals from several hubs can be
    /// concatenated without losing provenance.
    pub fn export_jsonl_tagged(&self, name: &'static str, value: u64) -> String {
        let mut out = String::with_capacity(self.journal.len() * 96);
        for event in &self.journal {
            out.push_str(&event.to_json_line_tagged(Some((name, value))));
            out.push('\n');
        }
        out
    }
}

impl Observer for TelemetryHub {
    fn advance_to(&mut self, at: SimTime) {
        // Monotone: a stale caller (e.g. a chip clone replayed out of
        // band) cannot rewind the stamp.
        if at > self.now {
            self.now = at;
        }
    }

    fn counter_add(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
    }

    fn gauge_set(&mut self, name: &'static str, value: i64) {
        self.gauges.insert(name, value);
    }

    fn histogram_observe(&mut self, name: &'static str, value: u64) {
        self.histograms.entry(name).or_default().observe(value);
    }

    fn record(&mut self, kind: TraceKind, fields: Vec<(&'static str, Value)>) {
        if self.journal.len() >= self.capacity {
            self.journal.pop_front();
            self.dropped += 1;
        }
        let event = TraceEvent {
            seq: self.next_seq,
            at: self.now,
            kind,
            fields,
        };
        self.next_seq += 1;
        self.journal.push_back(event);
    }
}

enum Sink {
    Hub(Arc<Mutex<TelemetryHub>>),
    Custom(Arc<Mutex<Box<dyn Observer>>>),
}

impl Clone for Sink {
    fn clone(&self) -> Self {
        match self {
            Sink::Hub(hub) => Sink::Hub(Arc::clone(hub)),
            Sink::Custom(obs) => Sink::Custom(Arc::clone(obs)),
        }
    }
}

/// Recovers the guarded value even if a panicking thread poisoned the
/// lock — telemetry must never take the control loop down with it.
fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The handle instrumented code holds: a cheap clonable façade over an
/// optional shared observer.
///
/// With [`Telemetry::null`] (the default) every method short-circuits on
/// a `None` check and the closure given to [`trace`](Telemetry::trace)
/// is never called — the zero-cost path `crates/bench` guards. With
/// [`Telemetry::hub`] all clones feed one shared [`TelemetryHub`].
#[derive(Clone, Default)]
pub struct Telemetry {
    sink: Option<Sink>,
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let label = match &self.sink {
            None => "null",
            Some(Sink::Hub(_)) => "hub",
            Some(Sink::Custom(_)) => "custom",
        };
        f.debug_struct("Telemetry").field("sink", &label).finish()
    }
}

impl Telemetry {
    /// The disabled handle: every hook is one branch, no observer exists.
    pub fn null() -> Self {
        Telemetry { sink: None }
    }

    /// A handle over a fresh shared [`TelemetryHub`] with the default
    /// journal capacity.
    pub fn hub() -> Self {
        Self::hub_with_capacity(DEFAULT_JOURNAL_CAPACITY)
    }

    /// A handle over a fresh shared hub with the given journal capacity.
    pub fn hub_with_capacity(capacity: usize) -> Self {
        Telemetry {
            sink: Some(Sink::Hub(Arc::new(Mutex::new(
                TelemetryHub::with_capacity(capacity),
            )))),
        }
    }

    /// A handle over an arbitrary observer implementation.
    pub fn custom(observer: Box<dyn Observer>) -> Self {
        Telemetry {
            sink: Some(Sink::Custom(Arc::new(Mutex::new(observer)))),
        }
    }

    /// True when a real observer is attached. Instrumentation may use
    /// this to skip *computing* expensive inputs, mirroring what
    /// [`trace`](Telemetry::trace) does for event construction.
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    fn with_observer(&self, f: impl FnOnce(&mut dyn Observer)) {
        match &self.sink {
            None => {}
            Some(Sink::Hub(hub)) => f(&mut *lock_unpoisoned(hub)),
            Some(Sink::Custom(obs)) => f(lock_unpoisoned(obs).as_mut()),
        }
    }

    /// Propagates simulated time to the observer.
    pub fn advance_to(&self, at: SimTime) {
        self.with_observer(|obs| obs.advance_to(at));
    }

    /// Adds `delta` to the named monotone counter.
    pub fn counter_add(&self, name: &'static str, delta: u64) {
        self.with_observer(|obs| obs.counter_add(name, delta));
    }

    /// Adds 1 to the named monotone counter.
    pub fn counter_inc(&self, name: &'static str) {
        self.counter_add(name, 1);
    }

    /// Sets the named gauge.
    pub fn gauge_set(&self, name: &'static str, value: i64) {
        self.with_observer(|obs| obs.gauge_set(name, value));
    }

    /// Records one histogram observation.
    pub fn histogram_observe(&self, name: &'static str, value: u64) {
        self.with_observer(|obs| obs.histogram_observe(name, value));
    }

    /// Appends a trace event. `fields` is only invoked when an observer
    /// is attached, so the null path never builds the event.
    pub fn trace(&self, kind: TraceKind, fields: impl FnOnce() -> Vec<(&'static str, Value)>) {
        if self.sink.is_some() {
            self.with_observer(|obs| obs.record(kind, fields()));
        }
    }

    /// Runs `f` against the shared hub, if this handle wraps one.
    /// Returns `None` for null and custom handles.
    pub fn with_hub<R>(&self, f: impl FnOnce(&TelemetryHub) -> R) -> Option<R> {
        match &self.sink {
            Some(Sink::Hub(hub)) => Some(f(&lock_unpoisoned(hub))),
            _ => None,
        }
    }

    /// The hub's metrics snapshot, if this handle wraps a hub.
    pub fn snapshot(&self) -> Option<MetricsSnapshot> {
        self.with_hub(TelemetryHub::snapshot)
    }

    /// The hub's JSONL journal export, if this handle wraps a hub.
    pub fn export_jsonl(&self) -> Option<String> {
        self.with_hub(TelemetryHub::export_jsonl)
    }
}

/// A fixed-slot counter registry for hot paths that cannot afford a map
/// lookup per increment: slots are indexed by a caller-defined enum and
/// named once at construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterRegistry {
    names: &'static [&'static str],
    values: Vec<u64>,
}

impl CounterRegistry {
    /// A registry with one zeroed slot per name.
    pub fn new(names: &'static [&'static str]) -> Self {
        CounterRegistry {
            names,
            values: vec![0; names.len()],
        }
    }

    /// Adds `delta` to slot `idx`. Out-of-range indices are ignored
    /// rather than panicking — telemetry must not crash the daemon.
    pub fn add(&mut self, idx: usize, delta: u64) {
        if let Some(slot) = self.values.get_mut(idx) {
            *slot += delta;
        }
    }

    /// The value in slot `idx` (0 when out of range).
    pub fn get(&self, idx: usize) -> u64 {
        self.values.get(idx).copied().unwrap_or(0)
    }

    /// `(name, value)` pairs in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.names.iter().copied().zip(self.values.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_handle_is_disabled_and_never_calls_the_closure() {
        let t = Telemetry::null();
        assert!(!t.is_enabled());
        t.counter_add("x", 1);
        t.gauge_set("g", -3);
        t.histogram_observe("h", 10);
        t.trace(TraceKind::Replan, || {
            panic!("closure must not run on the null path")
        });
        assert!(t.snapshot().is_none());
        assert!(t.export_jsonl().is_none());
    }

    #[test]
    fn hub_counters_gauges_histograms_roundtrip_through_snapshot() {
        let t = Telemetry::hub();
        t.counter_add("a.count", 2);
        t.counter_inc("a.count");
        t.gauge_set("a.gauge", -7);
        t.histogram_observe("a.hist", 5);
        t.histogram_observe("a.hist", 50_000);
        let snap = t.snapshot().expect("hub handle snapshots");
        assert_eq!(snap.counter("a.count"), 3);
        assert_eq!(snap.counter("never.touched"), 0);
        assert_eq!(snap.gauge("a.gauge"), Some(-7));
        let h = snap.histogram("a.hist").expect("observed");
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 50_005);
        assert_eq!(h.max, 50_000);
        assert!((h.mean() - 25_002.5).abs() < 1e-9);
    }

    #[test]
    fn clones_share_one_hub() {
        let t = Telemetry::hub();
        let u = t.clone();
        t.counter_add("shared", 1);
        u.counter_add("shared", 1);
        assert_eq!(t.snapshot().expect("hub").counter("shared"), 2);
    }

    #[test]
    fn events_are_stamped_with_advanced_sim_time_and_sequenced() {
        let t = Telemetry::hub();
        t.trace(TraceKind::Init, Vec::new);
        t.advance_to(SimTime::from_nanos(1_500));
        t.trace(TraceKind::Replan, || vec![("actions", Value::U64(4))]);
        // advance_to is monotone: a stale time cannot rewind the stamp.
        t.advance_to(SimTime::from_nanos(900));
        t.trace(TraceKind::Watchdog, Vec::new);
        let events: Vec<TraceEvent> = t
            .with_hub(|hub| hub.journal().cloned().collect())
            .expect("hub");
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].seq, 0);
        assert_eq!(events[0].at, SimTime::ZERO);
        assert_eq!(events[1].at, SimTime::from_nanos(1_500));
        assert_eq!(events[2].seq, 2);
        assert_eq!(events[2].at, SimTime::from_nanos(1_500));
    }

    #[test]
    fn json_lines_are_wellformed_and_escaped() {
        let t = Telemetry::hub();
        t.advance_to(SimTime::from_nanos(42));
        t.trace(TraceKind::MailboxFault, || {
            vec![
                ("reason", Value::Text("refused: \"window\"\n".to_string())),
                ("mv", Value::U64(880)),
                ("power_w", Value::F64(12.5)),
                ("nan", Value::F64(f64::NAN)),
                ("ok", Value::Bool(false)),
            ]
        });
        let jsonl = t.export_jsonl().expect("hub");
        assert_eq!(
            jsonl,
            "{\"seq\":0,\"t_ns\":42,\"kind\":\"mailbox_fault\",\
             \"reason\":\"refused: \\\"window\\\"\\n\",\"mv\":880,\
             \"power_w\":12.5,\"nan\":null,\"ok\":false}\n"
        );
    }

    #[test]
    fn ring_journal_drops_oldest_and_counts() {
        let t = Telemetry::hub_with_capacity(2);
        for i in 0..5u64 {
            t.trace(TraceKind::Init, move || vec![("i", Value::U64(i))]);
        }
        t.with_hub(|hub| {
            assert_eq!(hub.dropped(), 3);
            let seqs: Vec<u64> = hub.journal().map(|e| e.seq).collect();
            assert_eq!(seqs, vec![3, 4]);
        })
        .expect("hub");
    }

    #[test]
    fn histogram_buckets_cover_bounds_and_overflow() {
        let mut h = Histogram::default();
        h.observe(0);
        h.observe(1);
        h.observe(2);
        h.observe(1_000_000);
        h.observe(9_999_999);
        assert_eq!(h.buckets[0], 2, "0 and 1 land in the first bucket");
        assert_eq!(h.buckets[1], 1, "2 lands in <=10");
        assert_eq!(h.buckets[HISTOGRAM_BOUNDS.len() - 1], 1);
        assert_eq!(h.buckets[HISTOGRAM_BOUNDS.len()], 1, "overflow slot");
        assert_eq!(h.count, 5);
    }

    #[test]
    fn counter_registry_is_fixed_slot_and_forgiving() {
        static NAMES: [&str; 2] = ["one", "two"];
        let mut reg = CounterRegistry::new(&NAMES);
        reg.add(0, 2);
        reg.add(1, 1);
        reg.add(7, 100); // out of range: ignored
        assert_eq!(reg.get(0), 2);
        assert_eq!(reg.get(7), 0);
        let pairs: Vec<(&str, u64)> = reg.iter().collect();
        assert_eq!(pairs, vec![("one", 2), ("two", 1)]);
    }

    #[test]
    fn custom_observer_receives_all_hooks() {
        #[derive(Default)]
        struct Probe {
            calls: Vec<String>,
        }
        impl Observer for Probe {
            fn advance_to(&mut self, at: SimTime) {
                self.calls.push(format!("t={}", at.as_nanos()));
            }
            fn counter_add(&mut self, name: &'static str, delta: u64) {
                self.calls.push(format!("c:{name}+{delta}"));
            }
            fn gauge_set(&mut self, name: &'static str, value: i64) {
                self.calls.push(format!("g:{name}={value}"));
            }
            fn histogram_observe(&mut self, name: &'static str, value: u64) {
                self.calls.push(format!("h:{name}<{value}"));
            }
            fn record(&mut self, kind: TraceKind, fields: Vec<(&'static str, Value)>) {
                self.calls.push(format!("r:{kind}/{}", fields.len()));
            }
        }
        let t = Telemetry::custom(Box::new(Probe::default()));
        assert!(t.is_enabled());
        t.advance_to(SimTime::from_nanos(9));
        t.counter_add("c", 3);
        t.gauge_set("g", 1);
        t.histogram_observe("h", 2);
        t.trace(TraceKind::Init, Vec::new);
        // Custom sinks have no hub to export from.
        assert!(t.export_jsonl().is_none());
    }
}
