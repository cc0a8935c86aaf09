//! Self-healing machinery for the daemon's control loop.
//!
//! The real daemon talks to hardware that can misbehave: the SLIMpro
//! mailbox may refuse or lose a request, a migration may wedge in the
//! kernel, and a voltage-droop excursion may transiently raise the safe
//! Vmin. This module holds the pieces that keep the control loop live and
//! the chip safe through all of it:
//!
//! * **Bounded retry with exponential backoff.** A transient mailbox
//!   fault is retried up to a bound, with an exponentially growing,
//!   jittered backoff between attempts. In the simulator the backoff is
//!   *accounted* (the daemon reports how long it would have slept) rather
//!   than advancing simulated time — the fault feedback loop is
//!   synchronous within one event dispatch.
//! * **Safe-mode fallback.** After `safe_mode_threshold` *consecutive*
//!   faults (no intervening healthy event) the daemon stops optimizing:
//!   it requests the nominal voltage and plans as if no undervolt were
//!   available. Aborted action batches keep the old configuration, and
//!   the old configuration is always covered by the current rail voltage
//!   (fail-safe ordering), so holding position is safe.
//! * **Probation.** Safe mode is left in two stages: after a clean
//!   window the machine enters *probation* (still planning pessimistic
//!   voltages), and only after a further clean window does it resume
//!   optimized planning. A single fault during either stage drops it
//!   straight back to safe mode. Because the daemon's plan is a pure
//!   function of the system view, re-entry restores the exact pre-fault
//!   voltage/frequency targets.
//!
//! The three-state machine is deliberately independent of the daemon so
//! it can be tested exhaustively on its own (see also the property tests
//! in `avfs-analyze`).

use avfs_sim::rng::RngStream;
use avfs_sim::time::SimDuration;
use std::fmt;

/// Tuning knobs for the recovery machinery.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryConfig {
    /// Consecutive faults (no intervening healthy event) that trip the
    /// safe-mode fallback.
    pub safe_mode_threshold: u32,
    /// Base backoff before the first retry, microseconds.
    pub backoff_base_us: u64,
    /// Backoff doubles per consecutive fault up to `base << cap_exp`.
    pub backoff_cap_exp: u32,
    /// Healthy events required in safe mode before probation begins.
    pub safe_hold_events: u32,
    /// Healthy events required in probation before optimized planning
    /// resumes.
    pub probation_events: u32,
    /// A migration whose stall extends further than this past "now" is
    /// considered hung and gets rescued (re-pinned). Must exceed the
    /// system's normal migration pause.
    pub watchdog_timeout: SimDuration,
    /// Extra guardband added to every voltage target while a droop
    /// excursion is alerting, mV. Chosen to cover the excursion's Vmin
    /// bump (20 mV in the chip model) with margin.
    pub droop_emergency_mv: u32,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            safe_mode_threshold: 3,
            backoff_base_us: 100,
            backoff_cap_exp: 6,
            safe_hold_events: 4,
            probation_events: 4,
            watchdog_timeout: SimDuration::from_millis(100),
            droop_emergency_mv: 25,
        }
    }
}

/// Where the control loop currently stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryState {
    /// Normal operation: full undervolting per the policy table.
    Optimized,
    /// Fault threshold tripped: nominal voltage, pessimistic planning.
    SafeMode,
    /// Clean window observed in safe mode: still planning pessimistic
    /// voltages, watching for a relapse before resuming optimization.
    Probation,
}

impl RecoveryState {
    /// Stable snake_case label used in telemetry traces and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            RecoveryState::Optimized => "optimized",
            RecoveryState::SafeMode => "safe_mode",
            RecoveryState::Probation => "probation",
        }
    }
}

impl fmt::Display for RecoveryState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What the daemon should do about one fault notice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDecision {
    /// Retry the failed intent after the given (accounted) backoff.
    Retry {
        /// Microseconds the daemon would sleep before this attempt.
        backoff_us: u64,
    },
    /// The consecutive-fault threshold tripped: fall back to nominal
    /// voltage and pessimistic planning.
    EnterSafeMode,
    /// Already in safe mode (or probation, which relapsed): keep
    /// requesting the safe nominal target.
    HoldSafe,
}

/// The three-state fault-recovery machine.
#[derive(Debug, Clone)]
pub struct Recovery {
    config: RecoveryConfig,
    state: RecoveryState,
    consecutive_faults: u32,
    clean_events: u32,
    rng: RngStream,
}

impl Recovery {
    /// A machine in the `Optimized` state; `seed` feeds the backoff
    /// jitter (deterministic per seed).
    pub fn new(config: RecoveryConfig, seed: u64) -> Self {
        Recovery {
            config,
            state: RecoveryState::Optimized,
            consecutive_faults: 0,
            clean_events: 0,
            rng: RngStream::from_root(seed, "daemon-recovery"),
        }
    }

    /// The current state.
    pub fn state(&self) -> RecoveryState {
        self.state
    }

    /// The configuration in effect.
    pub fn config(&self) -> &RecoveryConfig {
        &self.config
    }

    /// True while planning must pessimize voltage targets to nominal.
    pub fn pessimize_voltage(&self) -> bool {
        self.state != RecoveryState::Optimized
    }

    /// Consecutive faults recorded since the last healthy event.
    pub fn consecutive_faults(&self) -> u32 {
        self.consecutive_faults
    }

    /// Healthy events accumulated toward the next state transition.
    pub fn clean_events(&self) -> u32 {
        self.clean_events
    }

    /// Deterministic fingerprint of the machine's control-relevant state:
    /// the state itself plus both progress counters. The backoff-jitter
    /// stream is excluded on purpose — it only flavors the *accounted*
    /// backoff duration reported to telemetry, never a control decision,
    /// so two machines with equal fingerprints behave identically.
    pub fn fingerprint(&self) -> u64 {
        let tag: u64 = match self.state {
            RecoveryState::Optimized => 0,
            RecoveryState::SafeMode => 1,
            RecoveryState::Probation => 2,
        };
        tag | (u64::from(self.consecutive_faults) << 2) | (u64::from(self.clean_events) << 33)
    }

    /// Exponential backoff with ±25% jitter for the `n`-th consecutive
    /// fault (1-based).
    fn backoff_us(&mut self, nth: u32) -> u64 {
        let exp = (nth.saturating_sub(1)).min(self.config.backoff_cap_exp);
        let base = self.config.backoff_base_us << exp;
        // Jitter in [0.75, 1.25) de-synchronizes retry storms.
        let jitter = self.rng.uniform(0.75, 1.25);
        (base as f64 * jitter) as u64
    }

    /// Records one fault notice and decides the response.
    pub fn on_fault(&mut self) -> FaultDecision {
        self.clean_events = 0;
        match self.state {
            RecoveryState::Optimized => {
                self.consecutive_faults += 1;
                if self.consecutive_faults >= self.config.safe_mode_threshold {
                    self.state = RecoveryState::SafeMode;
                    FaultDecision::EnterSafeMode
                } else {
                    let backoff_us = self.backoff_us(self.consecutive_faults);
                    FaultDecision::Retry { backoff_us }
                }
            }
            RecoveryState::Probation => {
                // Relapse: straight back to safe mode, no second chances.
                self.state = RecoveryState::SafeMode;
                FaultDecision::HoldSafe
            }
            RecoveryState::SafeMode => FaultDecision::HoldSafe,
        }
    }

    /// Records one healthy (non-fault) event; returns `true` when the
    /// machine just re-entered `Optimized` (a safe-mode exit).
    pub fn on_clean_event(&mut self) -> bool {
        self.consecutive_faults = 0;
        match self.state {
            RecoveryState::Optimized => false,
            RecoveryState::SafeMode => {
                self.clean_events += 1;
                if self.clean_events >= self.config.safe_hold_events {
                    self.state = RecoveryState::Probation;
                    self.clean_events = 0;
                }
                false
            }
            RecoveryState::Probation => {
                self.clean_events += 1;
                if self.clean_events >= self.config.probation_events {
                    self.state = RecoveryState::Optimized;
                    self.clean_events = 0;
                    true
                } else {
                    false
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine(k: u32) -> Recovery {
        Recovery::new(
            RecoveryConfig {
                safe_mode_threshold: k,
                ..RecoveryConfig::default()
            },
            7,
        )
    }

    #[test]
    fn defaults_are_sane() {
        let c = RecoveryConfig::default();
        assert!(c.safe_mode_threshold >= 1);
        assert!(c.watchdog_timeout > SimDuration::from_millis(2));
        assert!(c.droop_emergency_mv >= 20);
    }

    #[test]
    fn engages_safe_mode_at_exactly_k() {
        for k in 1..=6 {
            let mut r = machine(k);
            for i in 1..k {
                assert!(
                    matches!(r.on_fault(), FaultDecision::Retry { .. }),
                    "fault {i} of k={k} must retry"
                );
                assert_eq!(r.state(), RecoveryState::Optimized);
            }
            assert_eq!(r.on_fault(), FaultDecision::EnterSafeMode, "k={k}");
            assert_eq!(r.state(), RecoveryState::SafeMode);
        }
    }

    #[test]
    fn clean_event_resets_the_consecutive_count() {
        let mut r = machine(3);
        let _ = r.on_fault();
        let _ = r.on_fault();
        let _ = r.on_clean_event();
        // Two more faults are again below the threshold.
        assert!(matches!(r.on_fault(), FaultDecision::Retry { .. }));
        assert!(matches!(r.on_fault(), FaultDecision::Retry { .. }));
        assert_eq!(r.state(), RecoveryState::Optimized);
    }

    #[test]
    fn backoff_grows_and_caps() {
        let mut r = machine(100);
        let mut last = 0u64;
        let mut samples = Vec::new();
        for _ in 0..12 {
            if let FaultDecision::Retry { backoff_us } = r.on_fault() {
                samples.push(backoff_us);
            }
        }
        // Mid-ladder samples grow roughly geometrically (jitter is ±25%,
        // doubling dominates it).
        for (i, &b) in samples.iter().enumerate() {
            if (1..=6).contains(&i) {
                assert!(b > last, "backoff must grow at step {i}: {samples:?}");
            }
            last = b;
        }
        // Capped: no sample exceeds base << cap * 1.25.
        let cap = (100u64 << 6) as f64 * 1.25;
        assert!(samples.iter().all(|&b| (b as f64) <= cap), "{samples:?}");
    }

    #[test]
    fn exit_requires_both_clean_windows() {
        let cfg = RecoveryConfig {
            safe_mode_threshold: 1,
            safe_hold_events: 2,
            probation_events: 3,
            ..RecoveryConfig::default()
        };
        let mut r = Recovery::new(cfg, 1);
        assert_eq!(r.on_fault(), FaultDecision::EnterSafeMode);
        assert!(!r.on_clean_event());
        assert_eq!(r.state(), RecoveryState::SafeMode);
        assert!(!r.on_clean_event());
        assert_eq!(r.state(), RecoveryState::Probation);
        assert!(!r.on_clean_event());
        assert!(!r.on_clean_event());
        assert!(r.on_clean_event(), "third probation event exits");
        assert_eq!(r.state(), RecoveryState::Optimized);
    }

    #[test]
    fn probation_relapse_returns_to_safe_mode() {
        let cfg = RecoveryConfig {
            safe_mode_threshold: 1,
            safe_hold_events: 1,
            probation_events: 5,
            ..RecoveryConfig::default()
        };
        let mut r = Recovery::new(cfg, 2);
        let _ = r.on_fault();
        let _ = r.on_clean_event();
        assert_eq!(r.state(), RecoveryState::Probation);
        assert_eq!(r.on_fault(), FaultDecision::HoldSafe);
        assert_eq!(r.state(), RecoveryState::SafeMode);
        assert!(r.pessimize_voltage());
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let mut a = machine(100);
        let mut b = machine(100);
        for _ in 0..8 {
            assert_eq!(a.on_fault(), b.on_fault());
        }
    }
}
