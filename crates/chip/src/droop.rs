//! Stochastic voltage-droop event generation (Figure 6).
//!
//! The X-Gene 3 exposes an embedded "oscilloscope": PMU counters that
//! record the number and magnitude of voltage-droop events. §IV-A of the
//! paper uses it to show that the *maximum droop magnitude* is set by the
//! number of utilized PMDs (Table II), not by the workload: a 16-PMD
//! allocation at 3 GHz produces droops in [55, 65) mV for every program,
//! while an 8-PMD allocation produces (almost) none in that band.
//!
//! [`DroopModel`] generates per-interval droop events with exactly that
//! structure: each utilized-PMD class emits events in its own band and in
//! all lower bands (smaller droops are more frequent), with a rate
//! proportional to switching activity, and essentially zero events in any
//! band *above* its class.

use crate::vmin::DroopClass;
use avfs_sim::RngStream;

/// Summary of droop events observed over an interval, bucketed by the
/// Table II magnitude bands.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DroopCounts {
    /// Events per band, indexed like [`DroopClass::index`]:
    /// `[25,35) / [35,45) / [45,55) / [55,65)` mV.
    pub per_band: [u64; 4],
}

impl DroopCounts {
    /// Total events across all bands.
    pub fn total(&self) -> u64 {
        self.per_band.iter().sum()
    }

    /// Events in the band of `class`.
    pub fn in_band(&self, class: DroopClass) -> u64 {
        self.per_band[class.index()]
    }

    /// Accumulates another count set.
    pub fn add(&mut self, other: &DroopCounts) {
        for (a, b) in self.per_band.iter_mut().zip(other.per_band.iter()) {
            *a += b;
        }
    }

    /// The highest band with at least one event, if any.
    pub fn max_band(&self) -> Option<DroopClass> {
        DroopClass::ALL
            .iter()
            .rev()
            .find(|c| self.per_band[c.index()] > 0)
            .copied()
    }
}

/// Droop-event generator parameters for one chip.
#[derive(Debug, Clone, PartialEq)]
pub struct DroopModel {
    /// Expected events per 1 M cycles in the class's own (top) band at
    /// full switching activity.
    top_band_rate_per_mcycle: f64,
    /// Rate multiplier per band *below* the top band (smaller droops are
    /// more frequent): band k below top gets `rate * lower_band_gain^k`.
    lower_band_gain: f64,
    /// Residual leakage rate into the band *above* the class (nearly zero;
    /// the paper reports "almost zero droops" there).
    above_band_rate_per_mcycle: f64,
}

impl Default for DroopModel {
    fn default() -> Self {
        DroopModel {
            top_band_rate_per_mcycle: 220.0,
            lower_band_gain: 2.2,
            above_band_rate_per_mcycle: 0.02,
        }
    }
}

impl DroopModel {
    /// Creates a model with explicit rates.
    ///
    /// # Panics
    ///
    /// Panics if any rate is negative or `lower_band_gain < 1`.
    pub fn new(
        top_band_rate_per_mcycle: f64,
        lower_band_gain: f64,
        above_band_rate_per_mcycle: f64,
    ) -> Self {
        assert!(top_band_rate_per_mcycle >= 0.0, "negative droop rate");
        assert!(lower_band_gain >= 1.0, "lower bands cannot be rarer");
        assert!(above_band_rate_per_mcycle >= 0.0, "negative leak rate");
        DroopModel {
            top_band_rate_per_mcycle,
            lower_band_gain,
            above_band_rate_per_mcycle,
        }
    }

    /// Expected events per 1 M cycles in each band for a configuration in
    /// droop class `class` with switching `activity` in `[0, 1]`.
    pub fn expected_rates(&self, class: DroopClass, activity: f64) -> [f64; 4] {
        let activity = activity.clamp(0.0, 1.0);
        let top = class.index();
        let mut rates = [0.0; 4];
        for (band, rate) in rates.iter_mut().enumerate() {
            *rate = if band == top {
                self.top_band_rate_per_mcycle * activity
            } else if band < top {
                // Lower bands: geometrically more frequent.
                self.top_band_rate_per_mcycle
                    * activity
                    * self.lower_band_gain.powi((top - band) as i32)
            } else {
                // Above the class's band: near zero, independent of
                // workload — this is the Figure 6 signature. Bands further
                // above the class are steeply rarer still.
                let dist = (band - top) as i32;
                self.above_band_rate_per_mcycle * activity * 1e-3f64.powi(dist - 1)
            };
        }
        rates
    }

    /// Samples the droop events over `cycles` cycles.
    pub fn sample(
        &self,
        class: DroopClass,
        activity: f64,
        cycles: u64,
        rng: &mut RngStream,
    ) -> DroopCounts {
        let mcycles = cycles as f64 / 1e6;
        let rates = self.expected_rates(class, activity);
        let mut counts = DroopCounts::default();
        for (band, rate) in rates.iter().enumerate() {
            counts.per_band[band] = rng.poisson(rate * mcycles);
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_band_signature_matches_figure6() {
        // Figure 6 left: 32T and 16T-spreaded (class D55) produce droops in
        // [55,65); 16T-clustered (class D45) has almost zero there.
        let m = DroopModel::default();
        let mut rng = RngStream::from_root(1, "droop");
        let d55 = m.sample(DroopClass::D55, 0.9, 100_000_000, &mut rng);
        let d45 = m.sample(DroopClass::D45, 0.9, 100_000_000, &mut rng);
        assert!(d55.in_band(DroopClass::D55) > 1_000);
        assert!(d45.in_band(DroopClass::D55) < d55.in_band(DroopClass::D55) / 100);
        // Figure 6 right: D45 produces [45,55) droops; D35 almost none.
        let d35 = m.sample(DroopClass::D35, 0.9, 100_000_000, &mut rng);
        assert!(d45.in_band(DroopClass::D45) > 1_000);
        assert!(d35.in_band(DroopClass::D45) < d45.in_band(DroopClass::D45) / 100);
    }

    #[test]
    fn smaller_droops_are_more_frequent() {
        let m = DroopModel::default();
        let rates = m.expected_rates(DroopClass::D55, 1.0);
        assert!(rates[0] > rates[1]);
        assert!(rates[1] > rates[2]);
        assert!(rates[2] > rates[3]);
        assert!(rates[3] > 0.0);
    }

    #[test]
    fn activity_scales_rates() {
        let m = DroopModel::default();
        let full = m.expected_rates(DroopClass::D45, 1.0);
        let half = m.expected_rates(DroopClass::D45, 0.5);
        for (f, h) in full.iter().zip(half.iter()) {
            assert!((h - f / 2.0).abs() < 1e-9);
        }
    }

    #[test]
    fn zero_activity_zero_droops() {
        let m = DroopModel::default();
        let mut rng = RngStream::from_root(2, "quiet");
        let c = m.sample(DroopClass::D55, 0.0, 10_000_000, &mut rng);
        assert_eq!(c.total(), 0);
    }

    #[test]
    fn counts_accumulate() {
        let mut a = DroopCounts {
            per_band: [1, 2, 3, 4],
        };
        let b = DroopCounts {
            per_band: [10, 20, 30, 40],
        };
        a.add(&b);
        assert_eq!(a.per_band, [11, 22, 33, 44]);
        assert_eq!(a.total(), 110);
        assert_eq!(a.max_band(), Some(DroopClass::D55));
    }

    #[test]
    fn max_band_of_empty_counts() {
        assert_eq!(DroopCounts::default().max_band(), None);
    }

    #[test]
    fn max_band_tracks_droop_class() {
        // In a long-enough run the maximum observed band equals the
        // configuration's droop class — the paper's key Table II claim.
        let m = DroopModel::default();
        let mut rng = RngStream::from_root(3, "band");
        for class in DroopClass::ALL {
            let c = m.sample(class, 0.9, 1_000_000_000, &mut rng);
            // The near-zero leak above the class band makes strictly
            // higher bands possible but vanishingly rare; accept class or
            // one above.
            let max = c.max_band().expect("events expected");
            assert!(
                max == class || max == class.next_up(),
                "class {class} produced max band {max}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "rarer")]
    fn rejects_inverted_gain() {
        let _ = DroopModel::new(100.0, 0.5, 0.0);
    }
}
