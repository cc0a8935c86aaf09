//! The four evaluation configurations of §VI-B as ready-made drivers.
//!
//! * **Baseline** — default kernel placement, `ondemand` governor,
//!   nominal voltage: the system as shipped.
//! * **SafeVmin** — same scheduling, but the rail follows the
//!   characterized Table II voltages: isolates the guardband's cost.
//! * **Placement** — the daemon steers placement and per-PMD frequency
//!   at nominal voltage: isolates the allocation/frequency policy.
//! * **Optimal** — everything on: the paper's headline configuration.

use crate::daemon::Daemon;
use avfs_chip::chip::Chip;
use avfs_sched::driver::{DefaultPolicy, Driver};
use avfs_telemetry::Telemetry;
use std::fmt;

/// One of the paper's four evaluation configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EvalConfig {
    /// Default placement + ondemand + nominal voltage.
    Baseline,
    /// Default placement + ondemand + characterized voltage.
    SafeVmin,
    /// Daemon placement/frequency + nominal voltage.
    Placement,
    /// Daemon placement/frequency + characterized voltage.
    Optimal,
}

impl EvalConfig {
    /// All four configurations in the paper's table order.
    pub const ALL: [EvalConfig; 4] = [
        EvalConfig::Baseline,
        EvalConfig::SafeVmin,
        EvalConfig::Placement,
        EvalConfig::Optimal,
    ];

    /// Builds the driver implementing this configuration for `chip`.
    /// The driver is `Send`, so a caller may move it to another thread.
    pub fn driver(self, chip: &Chip) -> Box<dyn Driver + Send> {
        self.driver_with_observer(chip, Telemetry::null())
    }

    /// Builds the driver with a telemetry handle installed. The baseline
    /// policy makes no decisions worth tracing, so it ignores the
    /// observer; the three daemon configurations report through it.
    pub fn driver_with_observer(self, chip: &Chip, telemetry: Telemetry) -> Box<dyn Driver + Send> {
        let with = |mut d: Daemon| {
            d.set_telemetry(telemetry.clone());
            Box::new(d) as Box<dyn Driver + Send>
        };
        match self {
            EvalConfig::Baseline => Box::new(DefaultPolicy::ondemand()),
            EvalConfig::SafeVmin => with(Daemon::safe_vmin_only(chip)),
            EvalConfig::Placement => with(Daemon::placement_only(chip)),
            EvalConfig::Optimal => with(Daemon::optimal(chip)),
        }
    }

    /// The label used in Tables III/IV.
    pub fn label(self) -> &'static str {
        match self {
            EvalConfig::Baseline => "Baseline",
            EvalConfig::SafeVmin => "Safe Vmin",
            EvalConfig::Placement => "Placement",
            EvalConfig::Optimal => "Optimal",
        }
    }
}

impl fmt::Display for EvalConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avfs_chip::presets;

    #[test]
    fn drivers_have_expected_names() {
        let chip = presets::xgene2().build();
        assert_eq!(EvalConfig::Baseline.driver(&chip).name(), "baseline");
        assert_eq!(EvalConfig::SafeVmin.driver(&chip).name(), "safe-vmin");
        assert_eq!(EvalConfig::Placement.driver(&chip).name(), "placement");
        assert_eq!(EvalConfig::Optimal.driver(&chip).name(), "optimal");
    }

    #[test]
    fn labels_match_paper_tables() {
        let labels: Vec<&str> = EvalConfig::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels, ["Baseline", "Safe Vmin", "Placement", "Optimal"]);
    }
}
