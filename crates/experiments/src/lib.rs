//! Experiment harnesses reproducing every table and figure of the paper.
//!
//! Each module regenerates one (or one family of) paper artifact(s) and
//! returns [`report::Table`]s with the same rows/series the paper plots:
//!
//! | Module | Paper artifact |
//! |--------|----------------|
//! | [`tables`] | Table I (platform parameters), Table II (droop classes ↔ Vmin) |
//! | [`characterization`] | Fig. 3 (safe Vmin per benchmark/threads/frequency), Fig. 4 (single/two-core safe regions), Fig. 5 (pfail curves) |
//! | [`droops`] | Fig. 6 (droop detections per magnitude band) |
//! | [`perfchar`] | Fig. 8 (contention slowdown), Fig. 9 (L3C access rates) |
//! | [`factors`] | Fig. 10 (Vmin factor decomposition) |
//! | [`energy`] | Fig. 7 (clustered vs spreaded energy), Fig. 11 (energy), Fig. 12 (ED2P) |
//! | [`server_eval`] | Fig. 14 (power trace), Fig. 15 (load trace), Tables III/IV (four configurations) |
//! | [`ablations`] | beyond-paper sweeps: fail-safe off, classification threshold, guardband width, migration cost |
//! | [`characterize`] | beyond-paper measured-margin campaigns: reclaimed savings vs a conservative preset, mid-run drift drill, stale-table degradation curve |
//! | [`resilience`] | beyond-paper fault-injection sweep: savings-vs-fault-rate degradation curve and recovery counters |
//! | [`fleet_resilience`] | beyond-paper cluster fault tolerance: node-failure degradation curve, crash drill, bit-identity gates |
//! | [`telemetry_report`] | beyond-paper: `--trace` journal and metrics rendered as summary tables |
//!
//! Every harness takes a [`Scale`] so integration tests can run the same
//! code path in seconds while `cargo run -p avfs-experiments --bin exp`
//! regenerates the full-size artifacts.

pub mod ablations;
pub mod characterization;
pub mod characterize;
pub mod droops;
pub mod energy;
pub mod factors;
pub mod fleet;
pub mod fleet_resilience;
pub mod perfchar;
pub mod report;
pub mod resilience;
pub mod server_eval;
pub mod tables;
pub mod telemetry_report;

/// Which machine an experiment targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Machine {
    /// 8-core X-Gene 2.
    XGene2,
    /// 32-core X-Gene 3.
    XGene3,
}

impl Machine {
    /// Both machines, in paper order.
    pub const BOTH: [Machine; 2] = [Machine::XGene2, Machine::XGene3];

    /// The chip preset builder for this machine.
    pub fn chip_builder(self) -> avfs_chip::presets::ChipBuilder {
        match self {
            Machine::XGene2 => avfs_chip::presets::xgene2(),
            Machine::XGene3 => avfs_chip::presets::xgene3(),
        }
    }

    /// The matching performance model.
    pub fn perf_model(self) -> avfs_workloads::PerfModel {
        match self {
            Machine::XGene2 => avfs_workloads::PerfModel::xgene2(),
            Machine::XGene3 => avfs_workloads::PerfModel::xgene3(),
        }
    }

    /// The machine's name as the paper writes it.
    pub fn name(self) -> &'static str {
        match self {
            Machine::XGene2 => "X-Gene 2",
            Machine::XGene3 => "X-Gene 3",
        }
    }
}

impl std::fmt::Display for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Experiment size: full paper-scale campaigns or a fast subset that
/// exercises the identical code path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Seconds-scale runs for tests and smoke checks.
    Quick,
    /// The paper's dimensions (1000-run Vmin campaigns, 1-hour traces).
    Paper,
}

impl Scale {
    /// Vmin-campaign runs per voltage level (paper: 1000).
    pub fn vmin_runs(self) -> u32 {
        match self {
            Scale::Quick => 50,
            Scale::Paper => 1000,
        }
    }

    /// Unsafe-region sweep runs per voltage level (paper: 60).
    pub fn sweep_runs(self) -> u32 {
        match self {
            Scale::Quick => 20,
            Scale::Paper => 60,
        }
    }

    /// Server-evaluation window.
    pub fn server_window(self) -> avfs_sim::time::SimDuration {
        match self {
            Scale::Quick => avfs_sim::time::SimDuration::from_secs(600),
            Scale::Paper => avfs_sim::time::SimDuration::from_secs(3_600),
        }
    }

    /// Cycles observed per droop measurement (paper reads counters over
    /// long steady runs).
    pub fn droop_cycles(self) -> u64 {
        match self {
            Scale::Quick => 50_000_000,
            Scale::Paper => 1_000_000_000,
        }
    }
}
