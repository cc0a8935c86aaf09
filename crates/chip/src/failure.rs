//! Failure behaviour below the safe Vmin (the "unsafe region").
//!
//! The paper characterizes the region between the safe Vmin and the crash
//! point by running each configuration 60 times per voltage step and
//! recording abnormal outcomes: silent data corruptions (SDCs), process
//! timeouts, system crashes, and thread hangs (§III-B, Figures 4 and 5).
//!
//! [`FailureModel`] gives the per-run failure probability as a smooth
//! function of undervolting depth, plus a deterministic outcome sampler.
//! The cumulative-pfail curves of Figure 5 are produced by sweeping this
//! model exactly the way the authors swept their hardware.

use crate::vmin::DroopClass;
use crate::voltage::Millivolts;
use avfs_sim::RngStream;
use std::fmt;

/// The outcome of one program execution at a given voltage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum RunOutcome {
    /// Completed with the correct output.
    Correct,
    /// Completed but produced a wrong output (silent data corruption).
    Sdc,
    /// Did not finish within the watchdog window.
    Timeout,
    /// The machine crashed / rebooted.
    SystemCrash,
    /// A thread hung and never completed.
    ThreadHang,
}

impl RunOutcome {
    /// True for any abnormal outcome.
    pub fn is_failure(self) -> bool {
        !matches!(self, RunOutcome::Correct)
    }
}

impl fmt::Display for RunOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RunOutcome::Correct => "correct",
            RunOutcome::Sdc => "SDC",
            RunOutcome::Timeout => "timeout",
            RunOutcome::SystemCrash => "system crash",
            RunOutcome::ThreadHang => "thread hang",
        };
        f.write_str(s)
    }
}

/// Probabilistic failure model for sub-Vmin operation.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureModel {
    /// Width (mV) of the ramp from pfail=0 at the safe Vmin down to
    /// pfail≈1; matches the `unsafe_span_mv` of the Vmin tables.
    unsafe_span_mv: f64,
    /// Sharpness of the pfail ramp; larger = steeper curves in Figure 5.
    steepness: f64,
}

impl FailureModel {
    /// Creates a model with the given unsafe-region width.
    ///
    /// # Panics
    ///
    /// Panics if `unsafe_span_mv` is not positive.
    pub fn new(unsafe_span_mv: u32) -> Self {
        assert!(unsafe_span_mv > 0, "unsafe span must be positive");
        FailureModel {
            unsafe_span_mv: unsafe_span_mv as f64,
            steepness: 3.0,
        }
    }

    /// Per-run failure probability at `voltage` for a configuration whose
    /// safe Vmin is `safe_vmin`.
    ///
    /// Zero at or above the safe Vmin; approaches 1 at the crash point.
    /// Deeper droop classes (more utilized PMDs) fail slightly faster for
    /// the same undervolt, which is why the Figure 5 curves for max-thread
    /// configurations sit to the right of the clustered ones.
    pub fn pfail(&self, voltage: Millivolts, safe_vmin: Millivolts, class: DroopClass) -> f64 {
        if voltage >= safe_vmin {
            return 0.0;
        }
        let depth_mv = (safe_vmin - voltage) as f64;
        // Class factor: D25 → 1.00, D35 → 1.12, D45 → 1.24, D55 → 1.36.
        let class_factor = 1.0 + 0.12 * class.index() as f64;
        let x = depth_mv * class_factor / self.unsafe_span_mv;
        1.0 - (-self.steepness * x * x).exp()
    }

    /// Samples the outcome of one run.
    ///
    /// The failure-mode mixture follows the paper's qualitative reporting:
    /// shallow undervolts mostly manifest as SDCs and hangs; deep
    /// undervolts mostly crash the system.
    pub fn sample_outcome(
        &self,
        voltage: Millivolts,
        safe_vmin: Millivolts,
        class: DroopClass,
        rng: &mut RngStream,
    ) -> RunOutcome {
        let p = self.pfail(voltage, safe_vmin, class);
        if !rng.chance(p) {
            return RunOutcome::Correct;
        }
        // Depth fraction in [0,1] across the unsafe span.
        let depth = ((safe_vmin - voltage) as f64 / self.unsafe_span_mv).clamp(0.0, 1.0);
        // Mixture shifts from SDC-dominated to crash-dominated with depth.
        let p_crash = 0.10 + 0.70 * depth;
        let p_sdc = (0.55 - 0.35 * depth).max(0.05);
        let p_hang = 0.15;
        let u = rng.next_f64();
        if u < p_crash {
            RunOutcome::SystemCrash
        } else if u < p_crash + p_sdc {
            RunOutcome::Sdc
        } else if u < p_crash + p_sdc + p_hang {
            RunOutcome::ThreadHang
        } else {
            RunOutcome::Timeout
        }
    }

    /// Empirical pfail over `runs` sampled executions (the 60-run sweeps
    /// of §III-B).
    pub fn empirical_pfail(
        &self,
        voltage: Millivolts,
        safe_vmin: Millivolts,
        class: DroopClass,
        runs: u32,
        rng: &mut RngStream,
    ) -> f64 {
        if runs == 0 {
            return 0.0;
        }
        let failures = (0..runs)
            .filter(|_| {
                self.sample_outcome(voltage, safe_vmin, class, rng)
                    .is_failure()
            })
            .count();
        failures as f64 / runs as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> FailureModel {
        FailureModel::new(50)
    }

    #[test]
    fn no_failures_at_or_above_safe_vmin() {
        let m = model();
        let safe = Millivolts::new(800);
        assert_eq!(m.pfail(Millivolts::new(800), safe, DroopClass::D25), 0.0);
        assert_eq!(m.pfail(Millivolts::new(900), safe, DroopClass::D55), 0.0);
    }

    #[test]
    fn pfail_increases_with_depth() {
        let m = model();
        let safe = Millivolts::new(800);
        let shallow = m.pfail(Millivolts::new(790), safe, DroopClass::D25);
        let deep = m.pfail(Millivolts::new(760), safe, DroopClass::D25);
        assert!(shallow > 0.0);
        assert!(deep > shallow);
        assert!(deep <= 1.0);
    }

    #[test]
    fn pfail_near_one_at_crash_point() {
        let m = model();
        let safe = Millivolts::new(800);
        let p = m.pfail(Millivolts::new(750), safe, DroopClass::D25);
        assert!(p > 0.9, "pfail at crash point was {p}");
    }

    #[test]
    fn higher_droop_class_fails_earlier() {
        let m = model();
        let safe = Millivolts::new(800);
        let v = Millivolts::new(780);
        let low = m.pfail(v, safe, DroopClass::D25);
        let high = m.pfail(v, safe, DroopClass::D55);
        assert!(high > low);
    }

    #[test]
    fn outcomes_are_deterministic_per_stream() {
        let m = model();
        let safe = Millivolts::new(800);
        let mut a = RngStream::from_root(5, "fail");
        let mut b = RngStream::from_root(5, "fail");
        for _ in 0..100 {
            assert_eq!(
                m.sample_outcome(Millivolts::new(770), safe, DroopClass::D35, &mut a),
                m.sample_outcome(Millivolts::new(770), safe, DroopClass::D35, &mut b)
            );
        }
    }

    #[test]
    fn outcome_mixture_shifts_with_depth() {
        let m = model();
        let safe = Millivolts::new(800);
        let mut rng = RngStream::from_root(6, "mix");
        let count_crashes = |v: u32, rng: &mut RngStream| {
            (0..2000)
                .filter(|_| {
                    matches!(
                        m.sample_outcome(Millivolts::new(v), safe, DroopClass::D45, rng),
                        RunOutcome::SystemCrash
                    )
                })
                .count()
        };
        let shallow_crashes = count_crashes(792, &mut rng);
        let deep_crashes = count_crashes(752, &mut rng);
        assert!(
            deep_crashes > shallow_crashes,
            "deep {deep_crashes} vs shallow {shallow_crashes}"
        );
    }

    #[test]
    fn empirical_pfail_tracks_analytic() {
        let m = model();
        let safe = Millivolts::new(800);
        let v = Millivolts::new(775);
        let analytic = m.pfail(v, safe, DroopClass::D35);
        let mut rng = RngStream::from_root(7, "emp");
        let emp = m.empirical_pfail(v, safe, DroopClass::D35, 5_000, &mut rng);
        assert!((emp - analytic).abs() < 0.03, "emp {emp} vs {analytic}");
    }

    #[test]
    fn empirical_pfail_zero_runs() {
        let m = model();
        let mut rng = RngStream::from_root(8, "none");
        assert_eq!(
            m.empirical_pfail(
                Millivolts::new(700),
                Millivolts::new(800),
                DroopClass::D25,
                0,
                &mut rng
            ),
            0.0
        );
    }

    #[test]
    fn outcome_display_and_is_failure() {
        assert!(!RunOutcome::Correct.is_failure());
        for o in [
            RunOutcome::Sdc,
            RunOutcome::Timeout,
            RunOutcome::SystemCrash,
            RunOutcome::ThreadHang,
        ] {
            assert!(o.is_failure());
            assert!(!o.to_string().is_empty());
        }
    }
}
