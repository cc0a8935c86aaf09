//! Performance monitoring unit (PMU) counters.
//!
//! The paper's daemon reads exactly two things from the PMU: elapsed
//! cycles and L2-miss counts (= L3-cache accesses) per process, sampled
//! over 1 M-cycle windows through a tiny kernel module (§VI-A). The droop
//! "oscilloscope" counters of Figure 6 live here too.
//!
//! Counters are free-running and wrap-free (`u64` at GHz rates outlasts
//! any simulation); readers take deltas, exactly like the kernel module
//! described in the paper ("one read of one PMU counter and one read of
//! the same register after 1M cycles").

use crate::droop::DroopCounts;
use crate::topology::CoreId;

/// Free-running counters for one core.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreCounters {
    /// Core clock cycles while not gated.
    pub cycles: u64,
    /// Retired instructions.
    pub instructions: u64,
    /// L2 cache misses — i.e. L3 cache accesses, the daemon's
    /// classification signal.
    pub l3_accesses: u64,
}

impl CoreCounters {
    /// Accumulates an increment.
    pub fn add(&mut self, cycles: u64, instructions: u64, l3_accesses: u64) {
        self.cycles += cycles;
        self.instructions += instructions;
        self.l3_accesses += l3_accesses;
    }

    /// The delta `self - earlier` (used by samplers).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is ahead of `self`.
    pub fn delta_since(&self, earlier: &CoreCounters) -> CoreCounters {
        debug_assert!(self.cycles >= earlier.cycles, "counter went backwards");
        CoreCounters {
            cycles: self.cycles - earlier.cycles,
            instructions: self.instructions - earlier.instructions,
            l3_accesses: self.l3_accesses - earlier.l3_accesses,
        }
    }

    /// Instructions per cycle over this (delta) window; 0 for empty
    /// windows.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// L3 accesses per 1 M cycles over this (delta) window — the paper's
    /// classification metric (threshold: 3000).
    pub fn l3_per_mcycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.l3_accesses as f64 * 1e6 / self.cycles as f64
        }
    }
}

/// Chip-level PMU state: per-core counters plus the droop sensor.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipPmu {
    cores: Vec<CoreCounters>,
    droops: DroopCounts,
}

impl ChipPmu {
    /// Creates a PMU for a chip with `cores` cores.
    pub fn new(cores: usize) -> Self {
        ChipPmu {
            cores: vec![CoreCounters::default(); cores],
            droops: DroopCounts::default(),
        }
    }

    /// Read a core's counters.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn core(&self, core: CoreId) -> &CoreCounters {
        &self.cores[core.index()]
    }

    /// Accumulates execution onto a core's counters.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn record(&mut self, core: CoreId, cycles: u64, instructions: u64, l3_accesses: u64) {
        self.cores[core.index()].add(cycles, instructions, l3_accesses);
    }

    /// Accumulates droop detections.
    pub fn record_droops(&mut self, counts: &DroopCounts) {
        self.droops.add(counts);
    }

    /// The cumulative droop counts (the embedded-oscilloscope registers).
    pub fn droops(&self) -> &DroopCounts {
        &self.droops
    }

    /// Number of cores the PMU covers.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// Resets every counter to zero (e.g. between characterization runs).
    pub fn reset(&mut self) {
        for c in &mut self.cores {
            *c = CoreCounters::default();
        }
        self.droops = DroopCounts::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vmin::DroopClass;

    #[test]
    fn record_and_read() {
        let mut pmu = ChipPmu::new(4);
        pmu.record(CoreId::new(1), 1_000_000, 800_000, 4_000);
        let c = pmu.core(CoreId::new(1));
        assert_eq!(c.cycles, 1_000_000);
        assert!((c.ipc() - 0.8).abs() < 1e-12);
        assert!((c.l3_per_mcycle() - 4_000.0).abs() < 1e-9);
        // Untouched cores stay zero.
        assert_eq!(pmu.core(CoreId::new(0)).cycles, 0);
    }

    #[test]
    fn deltas_subtract() {
        let mut pmu = ChipPmu::new(1);
        pmu.record(CoreId::new(0), 1_000_000, 500_000, 1_000);
        let snapshot = *pmu.core(CoreId::new(0));
        pmu.record(CoreId::new(0), 1_000_000, 900_000, 5_000);
        let delta = pmu.core(CoreId::new(0)).delta_since(&snapshot);
        assert_eq!(delta.cycles, 1_000_000);
        assert_eq!(delta.instructions, 900_000);
        assert!((delta.l3_per_mcycle() - 5_000.0).abs() < 1e-9);
    }

    #[test]
    fn empty_window_rates_are_zero() {
        let c = CoreCounters::default();
        assert_eq!(c.ipc(), 0.0);
        assert_eq!(c.l3_per_mcycle(), 0.0);
    }

    #[test]
    fn droop_counters_accumulate() {
        let mut pmu = ChipPmu::new(2);
        pmu.record_droops(&DroopCounts {
            per_band: [5, 3, 1, 0],
        });
        pmu.record_droops(&DroopCounts {
            per_band: [1, 1, 1, 1],
        });
        assert_eq!(pmu.droops().total(), 13);
        assert_eq!(pmu.droops().in_band(DroopClass::D25), 6);
    }

    #[test]
    fn reset_zeroes_everything() {
        let mut pmu = ChipPmu::new(2);
        pmu.record(CoreId::new(0), 10, 10, 10);
        pmu.record_droops(&DroopCounts {
            per_band: [1, 0, 0, 0],
        });
        pmu.reset();
        assert_eq!(pmu.core(CoreId::new(0)).cycles, 0);
        assert_eq!(pmu.droops().total(), 0);
    }
}
