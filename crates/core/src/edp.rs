//! Energy-delay metrics and the frequency-policy rationale (§V-B).
//!
//! The paper uses the energy-delay-squared product (`ED2P = E × D²`) to
//! compare configurations because plain energy rewards arbitrarily slow
//! systems. The helpers here estimate, from a process's memory share, how
//! a frequency reduction moves its delay, energy, and ED2P — the analytic
//! justification for the daemon's rule "reduce frequency only for
//! memory-intensive processes".

/// Predicted relative effect of running a workload at a fraction of full
/// frequency (all quantities relative to the full-speed run).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalingEstimate {
    /// Delay multiplier (≥ 1 for frequency reductions).
    pub delay: f64,
    /// Dynamic-energy multiplier (voltage effects not included).
    pub dynamic_energy: f64,
    /// ED2P multiplier combining both.
    pub ed2p: f64,
}

/// Estimates the effect of scaling core frequency to `freq_ratio`
/// (e.g. 0.5 for half speed) on a workload spending `mem_fraction` of its
/// full-speed time in memory stalls, with a dynamic-power share
/// `dyn_power_share` of total power and an optional voltage ratio
/// `volt_ratio` enabled by the lower frequency class.
///
/// The delay model is the core/memory split of §IV-B:
/// `D(r) = (1 - m) / r + m`. Power scales as `r·v²` for the dynamic share
/// and `v²..v³` for the static share (we use `v²` — conservative).
///
/// # Panics
///
/// Panics if `freq_ratio` is not in `(0, 1]` or `mem_fraction` not in
/// `[0, 1)`.
pub fn scaling_estimate(
    mem_fraction: f64,
    freq_ratio: f64,
    dyn_power_share: f64,
    volt_ratio: f64,
) -> ScalingEstimate {
    assert!(
        freq_ratio > 0.0 && freq_ratio <= 1.0,
        "freq ratio {freq_ratio} out of (0,1]"
    );
    assert!(
        (0.0..1.0).contains(&mem_fraction),
        "mem fraction {mem_fraction} out of [0,1)"
    );
    let delay = (1.0 - mem_fraction) / freq_ratio + mem_fraction;
    let v2 = volt_ratio * volt_ratio;
    let dyn_share = dyn_power_share.clamp(0.0, 1.0);
    // Power relative to full speed; energy = power × delay.
    let rel_power = dyn_share * freq_ratio * v2 + (1.0 - dyn_share) * v2;
    let energy = rel_power * delay;
    ScalingEstimate {
        delay,
        dynamic_energy: energy,
        ed2p: energy * delay * delay,
    }
}

/// True when reducing to `freq_ratio` is predicted to improve (reduce)
/// ED2P for a workload with the given memory share — the daemon's
/// frequency-policy test.
pub fn frequency_reduction_improves_ed2p(
    mem_fraction: f64,
    freq_ratio: f64,
    dyn_power_share: f64,
    volt_ratio: f64,
) -> bool {
    scaling_estimate(mem_fraction, freq_ratio, dyn_power_share, volt_ratio).ed2p < 1.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_bound_worsens_ed2p_at_half_speed() {
        // namd-like (m≈0.02): delay ≈ 1.96 → ED2P explodes even with a
        // voltage bonus.
        let est = scaling_estimate(0.02, 0.5, 0.7, 0.95);
        assert!(est.delay > 1.9);
        assert!(est.ed2p > 1.5, "ed2p {}", est.ed2p);
        assert!(!frequency_reduction_improves_ed2p(0.02, 0.5, 0.7, 0.95));
    }

    #[test]
    fn memory_bound_improves_ed2p_at_half_speed() {
        // CG-like under multicore contention: the effective memory share
        // rises to ~0.85 (Figure 8), and on X-Gene 2 the reduced class
        // enables a deep voltage cut (≈0.85 of the max-class Vmin). This
        // is exactly the regime where Figure 12's memory-intensive curves
        // invert.
        let est = scaling_estimate(0.85, 0.5, 0.7, 0.85);
        assert!(est.delay < 1.2);
        assert!(est.ed2p < 1.0, "ed2p {}", est.ed2p);
        assert!(frequency_reduction_improves_ed2p(0.85, 0.5, 0.7, 0.85));
    }

    #[test]
    fn full_speed_is_identity() {
        let est = scaling_estimate(0.3, 1.0, 0.7, 1.0);
        assert!((est.delay - 1.0).abs() < 1e-12);
        assert!((est.dynamic_energy - 1.0).abs() < 1e-12);
        assert!((est.ed2p - 1.0).abs() < 1e-12);
    }

    #[test]
    fn voltage_bonus_helps_energy() {
        let without = scaling_estimate(0.5, 0.5, 0.7, 1.0);
        let with = scaling_estimate(0.5, 0.5, 0.7, 0.9);
        assert!(with.dynamic_energy < without.dynamic_energy);
        assert!(with.ed2p < without.ed2p);
        assert_eq!(with.delay, without.delay);
    }

    #[test]
    fn there_is_a_crossover_mem_fraction() {
        // Somewhere between namd and CG the half-speed decision flips —
        // the existence of the Figure 12 crossover (voltage ratio of the
        // X-Gene 2 divided class).
        let improves = |m: f64| frequency_reduction_improves_ed2p(m, 0.5, 0.7, 0.85);
        assert!(!improves(0.05));
        assert!(improves(0.85));
        let mut lo = 0.05;
        let mut hi = 0.85;
        for _ in 0..40 {
            let mid = 0.5 * (lo + hi);
            if improves(mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        // The crossover sits in a plausible mid-to-high range.
        assert!(lo > 0.2 && hi < 0.85, "crossover near {lo}");
    }

    #[test]
    #[should_panic(expected = "freq ratio")]
    fn rejects_zero_ratio() {
        let _ = scaling_estimate(0.5, 0.0, 0.7, 1.0);
    }
}
