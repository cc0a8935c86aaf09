//! The paper's contribution: an online monitoring + placement daemon for
//! balanced energy and performance on multicore CPUs.
//!
//! This crate implements §VI of *"Adaptive Voltage/Frequency Scaling and
//! Core Allocation for Balanced Energy and Performance on Multicore CPUs"*
//! (HPCA 2019) on top of the simulated substrate:
//!
//! * [`policy`] — the characterized safe-Vmin policy table (Table II):
//!   droop class from utilized PMDs × frequency class → safe voltage,
//!   with a worst-case workload margin;
//! * [`monitor`] — the Monitoring part: per-process L3C-rate tracking and
//!   CPU- vs memory-intensive classification (threshold 3000 per
//!   1 M cycles, Figure 9);
//! * [`allocation`] — the core-allocation planner: CPU-intensive
//!   processes *clustered* onto the fewest PMDs at full speed,
//!   memory-intensive processes *spreaded* across the remaining PMDs at
//!   reduced speed (Figures 7/11/12);
//! * [`daemon`] — the Placement part (Figure 13): reacts to process
//!   arrivals, completions, and class changes; migrates processes;
//!   programs per-PMD frequencies; and adjusts the rail voltage with the
//!   **fail-safe ordering** — raise voltage *before* any change that
//!   could raise the safe Vmin, lower it only afterwards;
//! * [`recovery`] — the fault-recovery machinery: bounded jittered retry
//!   for failed SLIMpro requests, the three-state safe-mode fallback
//!   (optimized → safe mode → probation), and the tuning knobs for the
//!   migration watchdog and droop-emergency guardband;
//! * [`configs`] — the four evaluation configurations of §VI-B
//!   (Baseline / Safe Vmin / Placement / Optimal) as ready-made drivers;
//! * [`edp`] — ED2P/EDP estimation helpers used by the frequency policy
//!   rationale.
//!
//! # Example
//!
//! ```
//! use avfs_chip::presets;
//! use avfs_core::configs::EvalConfig;
//! use avfs_sched::system::{System, SystemConfig};
//! use avfs_workloads::{GeneratorConfig, PerfModel, WorkloadTrace};
//! use avfs_sim::time::SimDuration;
//!
//! let mut gen = GeneratorConfig::paper_default(8, 1);
//! gen.duration = SimDuration::from_secs(120);
//! gen.job_scale = 0.15;
//! let trace = WorkloadTrace::generate(&gen);
//!
//! let chip = presets::xgene2().build();
//! let mut driver = EvalConfig::Optimal.driver(&chip);
//! let mut system = System::new(chip, PerfModel::xgene2(), SystemConfig::default());
//! let metrics = system.run(&trace, driver.as_mut());
//! assert_eq!(metrics.unsafe_time_s, 0.0); // fail-safe ordering held
//! ```

pub mod allocation;
pub mod configs;
pub mod daemon;
pub mod edp;
pub mod monitor;
pub mod policy;
pub mod recharacterize;
pub mod recovery;

pub use configs::EvalConfig;
pub use daemon::{Daemon, DaemonConfig};
pub use policy::{PolicyError, PolicyTable};
pub use recovery::{Recovery, RecoveryConfig, RecoveryState};
