//! Per-PMD frequency control with clock-skipping / clock-division
//! semantics.
//!
//! Both X-Gene chips expose frequency in **1/8 steps of fmax** (§II-A).
//! How a step is *implemented* determines its safe-Vmin behaviour (§II-B):
//!
//! * ratio > 1/2 — **clock skipping** on the input clock: the effective
//!   pulse train still contains full-rate edges, so Vmin matches the
//!   maximum frequency ([`FreqVminClass::Max`]).
//! * ratio = 1/2 — natural **clock division**: Vmin drops a step
//!   ([`FreqVminClass::Reduced`], ≈3 % on the studied parts).
//! * ratio < 1/2 — chip-specific:
//!   - **X-Gene 2** under CPPC reaches true division below half speed, and
//!     the paper measured a further large Vmin drop (≈15 % total at
//!     0.9 GHz): [`FreqVminClass::Divided`].
//!   - **X-Gene 3** showed no benefit below half speed — Vmin stays at the
//!     half-speed level, so such steps only cost performance.
//!
//! [`CppcBehavior`] encodes those two empirical mappings.

use crate::error::ChipError;
use std::fmt;

/// A clock frequency in MHz.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct FrequencyMhz(u32);

impl FrequencyMhz {
    /// Creates a frequency from raw MHz.
    pub const fn new(mhz: u32) -> Self {
        FrequencyMhz(mhz)
    }

    /// Raw MHz.
    pub const fn as_mhz(self) -> u32 {
        self.0
    }

    /// GHz as a float.
    pub fn as_ghz(self) -> f64 {
        self.0 as f64 / 1_000.0
    }
}

impl fmt::Display for FrequencyMhz {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}MHz", self.0)
    }
}

impl From<u32> for FrequencyMhz {
    fn from(mhz: u32) -> Self {
        FrequencyMhz(mhz)
    }
}

/// A frequency step: `step/8 × fmax`, with `step` in `1..=8`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FreqStep(u8);

impl FreqStep {
    /// The maximum step (full speed, 8/8).
    pub const MAX: FreqStep = FreqStep(8);
    /// Half speed (4/8), the natural clock-division point.
    pub const HALF: FreqStep = FreqStep(4);
    /// The lowest step (1/8 of fmax).
    pub const MIN: FreqStep = FreqStep(1);

    /// Creates a step.
    ///
    /// # Errors
    ///
    /// Returns [`ChipError::InvalidFreqStep`] unless `1 <= step <= 8`.
    pub fn new(step: u8) -> Result<Self, ChipError> {
        if (1..=8).contains(&step) {
            Ok(FreqStep(step))
        } else {
            Err(ChipError::InvalidFreqStep(step))
        }
    }

    /// Creates a step, clamping out-of-range requests into `1..=8`.
    ///
    /// For call sites whose argument is a constant or already validated,
    /// where a `Result` would only invite `expect` (see `avfs-analyze`'s
    /// lint pass).
    pub const fn new_clamped(step: u8) -> Self {
        if step < 1 {
            FreqStep(1)
        } else if step > 8 {
            FreqStep(8)
        } else {
            FreqStep(step)
        }
    }

    /// The raw numerator (denominator is always 8).
    pub const fn numerator(self) -> u8 {
        self.0
    }

    /// The requested frequency for a chip with the given fmax.
    pub fn frequency(self, fmax: FrequencyMhz) -> FrequencyMhz {
        FrequencyMhz::new(fmax.as_mhz() * self.0 as u32 / 8)
    }

    /// The ratio `step/8` as a float.
    pub fn ratio(self) -> f64 {
        self.0 as f64 / 8.0
    }

    /// All steps from lowest to highest.
    pub fn all() -> impl Iterator<Item = FreqStep> {
        (1..=8).map(FreqStep)
    }

    /// The next step up, saturating at [`FreqStep::MAX`].
    pub fn step_up(self) -> FreqStep {
        let next = FreqStep((self.0 + 1).min(8));
        debug_assert!(
            (1..=8).contains(&next.0),
            "step_up left the valid range: {next}"
        );
        next
    }

    /// The next step down, saturating at [`FreqStep::MIN`].
    pub fn step_down(self) -> FreqStep {
        let next = FreqStep((self.0 - 1).max(1));
        debug_assert!(
            (1..=8).contains(&next.0),
            "step_down left the valid range: {next}"
        );
        next
    }

    /// The step nearest to `target` for a chip with the given fmax,
    /// rounding up so that the delivered frequency is at least the target
    /// where possible.
    pub fn nearest_at_least(target: FrequencyMhz, fmax: FrequencyMhz) -> FreqStep {
        for step in Self::all() {
            if step.frequency(fmax) >= target {
                return step;
            }
        }
        FreqStep::MAX
    }
}

impl fmt::Display for FreqStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/8", self.0)
    }
}

/// The safe-Vmin class a frequency setting belongs to.
///
/// Lower classes permit lower safe Vmin; the ordering is
/// `Max > Reduced > Divided` in required voltage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FreqVminClass {
    /// Vmin as deep as clock division allows (X-Gene 2 below half speed;
    /// ≈15 % below the max-frequency Vmin).
    Divided,
    /// Vmin one skipping step below maximum (half speed; ≈3 % lower).
    Reduced,
    /// Vmin as at the maximum frequency (any ratio above 1/2).
    Max,
}

impl fmt::Display for FreqVminClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FreqVminClass::Divided => write!(f, "divided"),
            FreqVminClass::Reduced => write!(f, "reduced"),
            FreqVminClass::Max => write!(f, "max"),
        }
    }
}

/// How a chip's CPPC firmware maps requested steps to Vmin classes and
/// effective frequencies (§II-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum CppcBehavior {
    /// X-Gene 2: above half speed the CPPC interleaving keeps Vmin at the
    /// max-frequency level; half speed earns the skipping step; below half
    /// speed true clock division activates and Vmin drops dramatically.
    DivisionBelowHalf,
    /// X-Gene 3: no additional Vmin benefit below half speed — every step
    /// at or below half maps to [`FreqVminClass::Reduced`].
    NoBenefitBelowHalf,
}

impl CppcBehavior {
    /// The Vmin class for a requested step under this firmware behaviour.
    pub fn vmin_class(self, step: FreqStep) -> FreqVminClass {
        let n = step.numerator();
        if n > 4 {
            FreqVminClass::Max
        } else if n == 4 {
            FreqVminClass::Reduced
        } else {
            match self {
                CppcBehavior::DivisionBelowHalf => FreqVminClass::Divided,
                CppcBehavior::NoBenefitBelowHalf => FreqVminClass::Reduced,
            }
        }
    }

    /// The Vmin class governing a *set* of per-PMD steps: the chip-wide
    /// rail must satisfy the most demanding PMD, i.e. the maximum class.
    pub fn vmin_class_of_steps<I: IntoIterator<Item = FreqStep>>(self, steps: I) -> FreqVminClass {
        steps
            .into_iter()
            .map(|s| self.vmin_class(s))
            .max()
            .unwrap_or(FreqVminClass::Divided)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_construction_and_bounds() {
        assert!(FreqStep::new(0).is_err());
        assert!(FreqStep::new(9).is_err());
        assert_eq!(FreqStep::new(8).unwrap(), FreqStep::MAX);
        assert_eq!(FreqStep::new(4).unwrap(), FreqStep::HALF);
    }

    #[test]
    fn new_clamped_saturates_at_the_bounds() {
        assert_eq!(FreqStep::new_clamped(0), FreqStep::MIN);
        assert_eq!(FreqStep::new_clamped(3).numerator(), 3);
        assert_eq!(FreqStep::new_clamped(8), FreqStep::MAX);
        assert_eq!(FreqStep::new_clamped(200), FreqStep::MAX);
    }

    #[test]
    fn step_frequencies_on_xgene2() {
        // fmax = 2400: steps are multiples of 300 MHz, as in the paper.
        let freqs: Vec<u32> = FreqStep::all()
            .map(|s| s.frequency(FrequencyMhz::new(2400)).as_mhz())
            .collect();
        assert_eq!(freqs, vec![300, 600, 900, 1200, 1500, 1800, 2100, 2400]);
    }

    #[test]
    fn step_frequencies_on_xgene3() {
        // fmax = 3000: 375 MHz granularity.
        let fmax = FrequencyMhz::new(3000);
        assert_eq!(FreqStep::MIN.frequency(fmax).as_mhz(), 375);
        assert_eq!(FreqStep::HALF.frequency(fmax).as_mhz(), 1500);
        assert_eq!(FreqStep::MAX.frequency(fmax).as_mhz(), 3000);
    }

    #[test]
    fn step_up_down_saturate() {
        assert_eq!(FreqStep::MAX.step_up(), FreqStep::MAX);
        assert_eq!(FreqStep::MIN.step_down(), FreqStep::MIN);
        assert_eq!(FreqStep::HALF.step_up().numerator(), 5);
        assert_eq!(FreqStep::HALF.step_down().numerator(), 3);
    }

    #[test]
    fn nearest_at_least_rounds_up() {
        let fmax = FrequencyMhz::new(2400);
        // 1000 MHz on a 2400 MHz chip needs step 4 (1200 MHz).
        assert_eq!(
            FreqStep::nearest_at_least(FrequencyMhz::new(1000), fmax).numerator(),
            4
        );
        // Exactly 1200 also picks step 4.
        assert_eq!(
            FreqStep::nearest_at_least(FrequencyMhz::new(1200), fmax).numerator(),
            4
        );
        // Anything above fmax saturates at 8/8.
        assert_eq!(
            FreqStep::nearest_at_least(FrequencyMhz::new(99_999), fmax),
            FreqStep::MAX
        );
    }

    #[test]
    fn xgene2_class_mapping() {
        let b = CppcBehavior::DivisionBelowHalf;
        // 2.4 GHz (8/8) and 1.5..2.1 GHz: max class.
        assert_eq!(b.vmin_class(FreqStep::MAX), FreqVminClass::Max);
        assert_eq!(b.vmin_class(FreqStep::new(5).unwrap()), FreqVminClass::Max);
        // 1.2 GHz (4/8): reduced (the paper's ≈3 % step).
        assert_eq!(b.vmin_class(FreqStep::HALF), FreqVminClass::Reduced);
        // 0.9 GHz (3/8): divided (the paper's ≈15 % point).
        assert_eq!(
            b.vmin_class(FreqStep::new(3).unwrap()),
            FreqVminClass::Divided
        );
    }

    #[test]
    fn xgene3_class_mapping() {
        let b = CppcBehavior::NoBenefitBelowHalf;
        assert_eq!(b.vmin_class(FreqStep::MAX), FreqVminClass::Max);
        assert_eq!(b.vmin_class(FreqStep::HALF), FreqVminClass::Reduced);
        // Below half: no further benefit on X-Gene 3.
        assert_eq!(
            b.vmin_class(FreqStep::new(2).unwrap()),
            FreqVminClass::Reduced
        );
    }

    #[test]
    fn class_of_steps_takes_the_worst() {
        let b = CppcBehavior::DivisionBelowHalf;
        let steps = [FreqStep::new(3).unwrap(), FreqStep::MAX];
        assert_eq!(b.vmin_class_of_steps(steps), FreqVminClass::Max);
        let low = [FreqStep::new(3).unwrap(), FreqStep::new(2).unwrap()];
        assert_eq!(b.vmin_class_of_steps(low), FreqVminClass::Divided);
        // Empty set is vacuously the least demanding class.
        assert_eq!(
            b.vmin_class_of_steps(std::iter::empty()),
            FreqVminClass::Divided
        );
    }

    #[test]
    fn class_ordering_matches_voltage_demand() {
        assert!(FreqVminClass::Max > FreqVminClass::Reduced);
        assert!(FreqVminClass::Reduced > FreqVminClass::Divided);
    }
}
