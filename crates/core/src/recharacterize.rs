//! When to re-measure: the daemon-side recharacterization trigger.
//!
//! A policy table compiled from measurements goes stale when the silicon
//! drifts (aging, temperature). The observable symptom is *elevated
//! droop-guard engagement*: a drifted chip raises its true Vmin, droop
//! excursions bite closer to the programmed voltages, and the guard stays
//! engaged for sustained stretches instead of isolated blips.
//!
//! [`RecharacterizeTrigger`] watches exactly that signal, window by
//! window, and fires when the guard has been engaged for a sustained
//! streak *and* the chip is idle enough to give a campaign exclusive use
//! of the cores. The campaign itself lives in `avfs-characterize` (which
//! depends on this crate, not the other way around); the trigger is the
//! daemon-side scheduling seam.

/// Decides when a drifted chip has earned an idle-window
/// recharacterization pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecharacterizeTrigger {
    /// Consecutive guard-engaged windows required before firing.
    sustain_windows: u32,
    /// Windows to stay quiet after firing (a fresh campaign needs time
    /// to land before the signal is trusted again).
    cooldown_windows: u32,
    /// Current guard-engaged streak.
    streak: u32,
    /// Remaining cooldown, counted down every observed window.
    cooldown_left: u32,
    /// Total times the trigger has fired.
    fires: u64,
}

impl RecharacterizeTrigger {
    /// A trigger that fires after `sustain_windows` consecutive
    /// guard-engaged monitor windows, then holds off for
    /// `cooldown_windows`.
    ///
    /// # Panics
    ///
    /// Panics if `sustain_windows` is zero (the trigger would fire on
    /// every isolated droop blip).
    pub fn new(sustain_windows: u32, cooldown_windows: u32) -> Self {
        assert!(sustain_windows > 0, "sustain must be at least one window");
        RecharacterizeTrigger {
            sustain_windows,
            cooldown_windows,
            streak: 0,
            cooldown_left: 0,
            fires: 0,
        }
    }

    /// Feeds one closed monitor window: whether the droop guard was
    /// engaged, and whether the chip is idle enough to characterize.
    /// Returns `true` when a recharacterization pass should start now.
    pub fn observe(&mut self, droop_guard_active: bool, idle: bool) -> bool {
        let in_cooldown = self.cooldown_left > 0;
        if in_cooldown {
            self.cooldown_left -= 1;
            // Streak accounting continues through cooldown so a guard
            // that never releases re-fires immediately afterwards.
        }
        if droop_guard_active {
            self.streak = self.streak.saturating_add(1);
        } else {
            self.streak = 0;
        }
        if self.streak >= self.sustain_windows && idle && !in_cooldown {
            self.fires += 1;
            self.cooldown_left = self.cooldown_windows;
            self.streak = 0;
            true
        } else {
            false
        }
    }

    /// Current consecutive guard-engaged window count.
    pub fn streak(&self) -> u32 {
        self.streak
    }

    /// How many times the trigger has fired.
    pub fn fires(&self) -> u64 {
        self.fires
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_only_on_a_sustained_streak_while_idle() {
        let mut t = RecharacterizeTrigger::new(3, 0);
        // Isolated blips never fire.
        for _ in 0..10 {
            assert!(!t.observe(true, true) | !t.observe(false, true));
        }
        // Sustained engagement fires on the third window — but only idle.
        let mut t = RecharacterizeTrigger::new(3, 0);
        assert!(!t.observe(true, true));
        assert!(!t.observe(true, true));
        assert!(!t.observe(true, false), "busy chip must not fire");
        assert!(t.observe(true, true), "idle + sustained must fire");
    }

    #[test]
    fn cooldown_suppresses_refires() {
        let mut t = RecharacterizeTrigger::new(2, 5);
        assert!(!t.observe(true, true));
        assert!(t.observe(true, true));
        // Guard still engaged (swap not landed yet): quiet for 5 windows.
        let mut fired = 0;
        for _ in 0..5 {
            if t.observe(true, true) {
                fired += 1;
            }
        }
        assert_eq!(fired, 0, "cooldown violated");
        assert!(t.observe(true, true), "re-fires after cooldown");
        assert_eq!(t.fires(), 2);
    }

    #[test]
    fn release_resets_the_streak() {
        let mut t = RecharacterizeTrigger::new(3, 0);
        assert!(!t.observe(true, true));
        assert!(!t.observe(true, true));
        assert!(!t.observe(false, true));
        assert_eq!(t.streak(), 0);
        assert!(!t.observe(true, true));
        assert!(!t.observe(true, true));
        assert!(t.observe(true, true));
    }
}
