//! Shared state-space machinery for the bounded model checker.
//!
//! The race explorer ([`crate::race`]) samples *seeded random* schedules;
//! the model checker ([`crate::model`]) instead enumerates a *symbolic*
//! event alphabet exhaustively. This module holds what both the checker
//! and the counterexample shrinker need:
//!
//! * [`ModelEvent`] — a seedless, replayable event vocabulary. Finishes
//!   and class flips address processes by *slot* (arrival order), not
//!   pid, so a schedule prefix fully determines what each event means
//!   and any subsequence of a schedule is itself a schedule.
//! * [`World`] — the mirrored system (a real [`Chip`], a real [`Daemon`],
//!   the live process set) with deterministic event application. Every
//!   action of the daemon's plan is applied one atomic write at a time
//!   and the three torn-state properties are evaluated at every boundary,
//!   exactly as in the race explorer.
//! * [`World::fingerprint`] — the state-hash the checker's cache keys
//!   on: rail mV, per-PMD frequency program, masks, governor, and the
//!   daemon's control state (recovery machine, droop guard, class
//!   tracker). Observational state (counters,
//!   telemetry) is deliberately excluded: two worlds with equal
//!   fingerprints transition identically under equal events.
//!
//! No wall clock, no RNG: the whole state space is a pure function of
//! the initial world and the event alphabet.

use avfs_chip::chip::Chip;
use avfs_chip::error::ChipError;
use avfs_chip::freq::FreqStep;
use avfs_chip::topology::CoreSet;
use avfs_core::daemon::Daemon;
use avfs_sched::driver::{Action, Driver, FaultNotice, ProcessView, SysEvent, SystemView};
use avfs_sched::governor::GovernorMode;
use avfs_sched::process::{Pid, ProcessState};
use avfs_sim::time::SimTime;
use avfs_workloads::classify::IntensityClass;
use std::fmt;

/// Bound on synchronous fault→retry rounds per event (mirrors the race
/// explorer; without an armed fault plan the loop runs exactly once).
const FAULT_ROUNDS: usize = 8;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn mix(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(FNV_PRIME)
}

/// One symbolic event in the model's alphabet. The vocabulary is
/// self-contained — no pids, no seeds — so any schedule (a `Vec` of
/// these) replays identically from the same initial [`World`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelEvent {
    /// Periodic monitoring tick.
    Tick,
    /// A new process with `threads` threads of the given class arrives.
    Arrive {
        /// Thread count of the arriving process.
        threads: usize,
        /// Its intensity class (the kernel sampler reports a matching
        /// L3 rate, as in the race explorer).
        class: IntensityClass,
    },
    /// The `slot`-th live process (in arrival order) finishes.
    Finish {
        /// Index into the live process list.
        slot: usize,
    },
    /// The `slot`-th live process flips its intensity class.
    Flip {
        /// Index into the live process list.
        slot: usize,
    },
}

impl ModelEvent {
    /// Compact stable label for JSON output and schedule dumps.
    pub fn label(&self) -> String {
        match *self {
            ModelEvent::Tick => "tick".to_string(),
            ModelEvent::Arrive { threads, class } => {
                format!("arrive(threads={threads},class={})", class_label(class))
            }
            ModelEvent::Finish { slot } => format!("finish(slot={slot})"),
            ModelEvent::Flip { slot } => format!("flip(slot={slot})"),
        }
    }
}

fn class_label(class: IntensityClass) -> &'static str {
    match class {
        IntensityClass::CpuIntensive => "cpu",
        IntensityClass::MemoryIntensive => "mem",
    }
}

impl fmt::Display for ModelEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ModelEvent::Tick => write!(f, "monitor tick"),
            ModelEvent::Arrive { threads, class } => {
                write!(
                    f,
                    "a {threads}-thread {}-intensive process arrives",
                    class_label(class)
                )
            }
            ModelEvent::Finish { slot } => write!(f, "the process in slot {slot} finishes"),
            ModelEvent::Flip { slot } => {
                write!(f, "the process in slot {slot} flips intensity class")
            }
        }
    }
}

/// One live process in the world's mirror of the system.
#[derive(Debug, Clone)]
struct Proc {
    pid: Pid,
    threads: usize,
    state: ProcessState,
    assigned: CoreSet,
    class: IntensityClass,
}

impl Proc {
    fn view(&self) -> ProcessView {
        ProcessView {
            pid: self.pid,
            threads: self.threads,
            state: self.state,
            assigned: self.assigned,
            l3c_per_mcycle: Some(match self.class {
                IntensityClass::CpuIntensive => 200.0,
                IntensityClass::MemoryIntensive => 15_000.0,
            }),
            class: Some(self.class),
            arrived_at: SimTime::ZERO,
            stalled_until: None,
        }
    }
}

/// What one event application did: check/action accounting and any
/// violations found at an interleaving boundary.
#[derive(Debug, Clone, Default)]
pub struct StepReport {
    /// Atomic actions applied.
    pub actions: u64,
    /// Invariant evaluations (one before the plan, one per action).
    pub checks: u64,
    /// Torn-state property violations, in discovery order.
    pub violations: Vec<String>,
}

/// The mirrored system the checker explores: a real chip, a real daemon,
/// and the live process set. Cloning a `World` clones the whole state,
/// so exploration can branch freely.
#[derive(Clone)]
pub struct World {
    chip: Chip,
    daemon: Daemon,
    procs: Vec<Proc>,
    governor: GovernorMode,
    next_pid: u64,
    max_procs: usize,
}

impl World {
    /// A fresh world around `chip` driven by `daemon`, admitting at most
    /// `max_procs` concurrent processes (the branching bound).
    pub fn new(chip: Chip, daemon: Daemon, max_procs: usize) -> Self {
        World {
            chip,
            daemon,
            procs: Vec::new(),
            governor: GovernorMode::Ondemand,
            next_pid: 1,
            max_procs,
        }
    }

    /// The chip under control (read-only).
    pub fn chip(&self) -> &Chip {
        &self.chip
    }

    /// Number of live processes.
    pub fn live_procs(&self) -> usize {
        self.procs.len()
    }

    fn view(&self) -> SystemView {
        let spec = self.chip.spec();
        SystemView {
            now: SimTime::ZERO,
            spec: spec.clone(),
            voltage: self.chip.voltage(),
            pmd_steps: spec
                .all_pmds()
                .map(|p| self.chip.pmd_freq_step(p).unwrap_or(FreqStep::MAX))
                .collect(),
            governor: self.governor,
            droop_alert: self.chip.droop_excursion_active(),
            processes: self.procs.iter().map(Proc::view).collect(),
        }
    }

    fn busy_cores(&self) -> CoreSet {
        self.procs
            .iter()
            .filter(|p| p.state == ProcessState::Running)
            .fold(CoreSet::EMPTY, |acc, p| acc.union(p.assigned))
    }

    /// The events enabled in this state, in a fixed deterministic order:
    /// tick, arrivals (narrow before wide, cpu before mem), finishes,
    /// flips. Arrivals are gated by core capacity and the live-process
    /// bound.
    pub fn enabled_events(&self) -> Vec<ModelEvent> {
        let mut events = vec![ModelEvent::Tick];
        let total_threads: usize = self.procs.iter().map(|p| p.threads).sum();
        let capacity = self.chip.spec().cores as usize;
        if self.procs.len() < self.max_procs {
            for threads in [1usize, 2] {
                if total_threads + threads <= capacity {
                    events.push(ModelEvent::Arrive {
                        threads,
                        class: IntensityClass::CpuIntensive,
                    });
                    events.push(ModelEvent::Arrive {
                        threads,
                        class: IntensityClass::MemoryIntensive,
                    });
                }
            }
        }
        for slot in 0..self.procs.len() {
            events.push(ModelEvent::Finish { slot });
        }
        for slot in 0..self.procs.len() {
            events.push(ModelEvent::Flip { slot });
        }
        events
    }

    /// Applies one symbolic event: updates the mirror, delivers the
    /// corresponding [`SysEvent`] to the daemon, and applies the plan one
    /// atomic action at a time with the torn-state properties evaluated
    /// at every boundary. Returns `None` when the event is not
    /// applicable in this state (out-of-range slot, no capacity) — the
    /// shrinker uses this to discard invalid schedule subsequences.
    pub fn apply_event(&mut self, event: ModelEvent) -> Option<StepReport> {
        let mut report = StepReport::default();
        let sys_event = match event {
            ModelEvent::Tick => SysEvent::MonitorTick,
            ModelEvent::Arrive { threads, class } => {
                let total_threads: usize = self.procs.iter().map(|p| p.threads).sum();
                let capacity = self.chip.spec().cores as usize;
                if self.procs.len() >= self.max_procs || total_threads + threads > capacity {
                    return None;
                }
                let pid = Pid(self.next_pid);
                self.next_pid += 1;
                self.procs.push(Proc {
                    pid,
                    threads,
                    state: ProcessState::Waiting,
                    assigned: CoreSet::EMPTY,
                    class,
                });
                SysEvent::ProcessArrived(pid)
            }
            ModelEvent::Finish { slot } => {
                if slot >= self.procs.len() {
                    return None;
                }
                let p = self.procs.remove(slot);
                SysEvent::ProcessFinished(p.pid)
            }
            ModelEvent::Flip { slot } => {
                let p = self.procs.get_mut(slot)?;
                p.class = match p.class {
                    IntensityClass::CpuIntensive => IntensityClass::MemoryIntensive,
                    IntensityClass::MemoryIntensive => IntensityClass::CpuIntensive,
                };
                let (pid, class) = (p.pid, p.class);
                SysEvent::ClassChanged(pid, class)
            }
        };
        self.deliver(sys_event, &mut report);
        Some(report)
    }

    /// Delivers one event to the daemon and applies its plan under
    /// interleaved checks, feeding fault notices back for a bounded
    /// number of recovery rounds (inert unless a fault plan is armed).
    fn deliver(&mut self, event: SysEvent, report: &mut StepReport) {
        let mut event = event;
        for _round in 0..=FAULT_ROUNDS {
            let view = self.view();
            let actions = self.daemon.on_event(&view, &event);
            self.check_invariants("before plan", report);
            let mut notice = None;
            for (i, action) in actions.into_iter().enumerate() {
                let outcome = self.apply_action(action, report);
                let at = format!("after {event:?} action {i} ({action:?})");
                self.check_invariants(&at, report);
                if outcome.is_some() {
                    notice = outcome;
                    break;
                }
            }
            match notice {
                Some(n) => event = SysEvent::OperationFault(n),
                None => break,
            }
        }
    }

    /// Applies one atomic action — one mailbox/CPPC/affinity write.
    fn apply_action(&mut self, action: Action, report: &mut StepReport) -> Option<FaultNotice> {
        report.actions += 1;
        match action {
            Action::SetVoltage(mv) => match self.chip.set_voltage(mv) {
                Ok(()) => None,
                Err(ChipError::MailboxRefused { .. }) => Some(FaultNotice::VoltageRefused(mv)),
                Err(ChipError::MailboxDropped) => Some(FaultNotice::VoltageDropped(mv)),
                Err(e) => {
                    report
                        .violations
                        .push(format!("daemon requested an unprogrammable voltage: {e}"));
                    None
                }
            },
            Action::SetPmdStep(pmd, step) => {
                if self.governor == GovernorMode::Userspace {
                    if let Err(e) = self.chip.set_pmd_freq_step(pmd, step) {
                        report
                            .violations
                            .push(format!("daemon requested an invalid step: {e}"));
                    }
                }
                None
            }
            Action::PinProcess(pid, cores) => {
                if let Some(p) = self.procs.iter_mut().find(|p| p.pid == pid) {
                    p.assigned = cores;
                    p.state = ProcessState::Running;
                }
                None
            }
            Action::SetGovernor(mode) => {
                self.governor = mode;
                None
            }
        }
    }

    /// The three torn-state properties of the race explorer, evaluated
    /// at one interleaving boundary.
    fn check_invariants(&self, at: &str, report: &mut StepReport) {
        report.checks += 1;

        // Rail within its regulated window.
        let v = self.chip.voltage();
        let (floor, nominal) = (self.chip.spec().vreg_floor_mv, self.chip.spec().nominal_mv);
        if v.as_mv() < floor || v.as_mv() > nominal {
            report
                .violations
                .push(format!("{at}: rail {v} outside [{floor}mV, {nominal}mV]"));
        }

        // No torn V/F pair: the rail covers the safe Vmin of what is
        // running right now at the frequency program right now.
        let busy = self.busy_cores();
        if !self.chip.is_voltage_safe_for(busy) {
            report.violations.push(format!(
                "{at}: torn V/F state — {v} below safe Vmin {} for busy cores {busy}",
                self.chip.current_safe_vmin(busy)
            ));
        }

        // No mid-migration mask: running masks are thread-sized and
        // pairwise disjoint.
        let mut seen = CoreSet::EMPTY;
        for p in self
            .procs
            .iter()
            .filter(|p| p.state == ProcessState::Running)
        {
            if p.assigned.len() != p.threads {
                report.violations.push(format!(
                    "{at}: {} holds {} cores for {} threads",
                    p.pid,
                    p.assigned.len(),
                    p.threads
                ));
            }
            if !seen.intersection(p.assigned).is_empty() {
                report.violations.push(format!(
                    "{at}: {} mask {} overlaps another process",
                    p.pid, p.assigned
                ));
            }
            seen = seen.union(p.assigned);
        }
    }

    /// The state-hash the checker's cache keys on: chip control state
    /// (rail, frequency program, droop flag), governor, pid allocator,
    /// every live process, and the daemon's control fingerprint.
    pub fn fingerprint(&self) -> u64 {
        let mut h = mix(FNV_OFFSET, self.chip.state_digest());
        h = mix(
            h,
            match self.governor {
                GovernorMode::Ondemand => 0,
                GovernorMode::Performance => 1,
                GovernorMode::Powersave => 2,
                GovernorMode::Userspace => 3,
            },
        );
        h = mix(h, self.next_pid);
        for p in &self.procs {
            h = mix(h, p.pid.0);
            h = mix(h, p.threads as u64);
            h = mix(
                h,
                match p.state {
                    ProcessState::Waiting => 0,
                    ProcessState::Running => 1,
                    ProcessState::Finished => 2,
                },
            );
            h = mix(h, p.assigned.bits());
            h = mix(
                h,
                match p.class {
                    IntensityClass::CpuIntensive => 0,
                    IntensityClass::MemoryIntensive => 1,
                },
            );
        }
        mix(h, self.daemon.control_fingerprint())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avfs_chip::presets;

    fn world() -> World {
        let chip = presets::xgene2().build();
        let daemon = Daemon::optimal(&chip);
        World::new(chip, daemon, 2)
    }

    #[test]
    fn fresh_world_enables_tick_and_arrivals_only() {
        let w = world();
        let events = w.enabled_events();
        assert_eq!(events[0], ModelEvent::Tick);
        assert_eq!(events.len(), 5, "{events:?}");
        assert!(events
            .iter()
            .all(|e| !matches!(e, ModelEvent::Finish { .. } | ModelEvent::Flip { .. })));
    }

    #[test]
    fn apply_is_deterministic_and_fingerprint_stable() {
        let mut a = world();
        let mut b = world();
        for ev in [
            ModelEvent::Tick,
            ModelEvent::Arrive {
                threads: 2,
                class: IntensityClass::MemoryIntensive,
            },
            ModelEvent::Flip { slot: 0 },
            ModelEvent::Finish { slot: 0 },
        ] {
            let ra = a.apply_event(ev);
            let rb = b.apply_event(ev);
            assert_eq!(ra.is_some(), rb.is_some());
            assert_eq!(a.fingerprint(), b.fingerprint(), "after {ev}");
        }
    }

    #[test]
    fn inapplicable_events_return_none() {
        let mut w = world();
        assert!(w.apply_event(ModelEvent::Finish { slot: 0 }).is_none());
        assert!(w.apply_event(ModelEvent::Flip { slot: 3 }).is_none());
        // Fill to the process bound; further arrivals are inapplicable.
        for _ in 0..2 {
            let r = w.apply_event(ModelEvent::Arrive {
                threads: 1,
                class: IntensityClass::CpuIntensive,
            });
            assert!(r.is_some());
        }
        assert!(w
            .apply_event(ModelEvent::Arrive {
                threads: 1,
                class: IntensityClass::CpuIntensive,
            })
            .is_none());
    }

    #[test]
    fn fail_safe_daemon_holds_invariants_on_a_straightline_schedule() {
        let mut w = world();
        let schedule = [
            ModelEvent::Tick,
            ModelEvent::Arrive {
                threads: 2,
                class: IntensityClass::MemoryIntensive,
            },
            ModelEvent::Tick,
            ModelEvent::Arrive {
                threads: 1,
                class: IntensityClass::CpuIntensive,
            },
            ModelEvent::Flip { slot: 0 },
            ModelEvent::Finish { slot: 1 },
            ModelEvent::Tick,
        ];
        for ev in schedule {
            if let Some(r) = w.apply_event(ev) {
                assert!(r.violations.is_empty(), "{ev}: {:?}", r.violations);
            }
        }
    }
}
