//! SLIMpro management-processor interface.
//!
//! Both X-Gene chips carry a Scalable Lightweight Intelligent Management
//! processor (SLIMpro) that monitors sensors and regulates the PCP supply
//! voltage; the running kernel talks to it through a mailbox (§II-A). The
//! paper's daemon adjusts voltage exclusively through this path, so the
//! model exposes the same narrow message interface rather than letting
//! software poke the rail directly.

use crate::voltage::Millivolts;

/// A request to the management processor.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum MailboxRequest {
    /// Set the PCP rail to the given voltage.
    SetVoltage(Millivolts),
    /// Read the current PCP rail voltage.
    GetVoltage,
    /// Read the instantaneous PCP power sensor.
    ReadPowerSensor,
    /// Read firmware identification.
    GetFirmwareInfo,
}

/// A response from the management processor.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum MailboxResponse {
    /// The voltage request was applied.
    VoltageSet(Millivolts),
    /// The current rail voltage.
    Voltage(Millivolts),
    /// PCP power in milliwatts (sensor granularity).
    PowerMw(u64),
    /// Firmware name/version string.
    FirmwareInfo(String),
    /// The request was refused (e.g. voltage out of the regulated range).
    Refused {
        /// Human-readable reason.
        reason: String,
    },
    /// No response arrived: the request (or its reply) was lost in
    /// flight. The caller cannot tell whether the request was applied
    /// and must retry idempotently.
    Dropped,
}

impl MailboxResponse {
    /// True when the response indicates the request was honoured.
    pub fn is_ok(&self) -> bool {
        !matches!(
            self,
            MailboxResponse::Refused { .. } | MailboxResponse::Dropped
        )
    }
}

/// Statistics the SLIMpro keeps about mailbox traffic; useful for
/// verifying the daemon is "minimally intrusive" (§VI-A).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MailboxStats {
    /// Total requests processed.
    pub requests: u64,
    /// Voltage-change requests that were applied.
    pub voltage_changes: u64,
    /// Requests refused.
    pub refusals: u64,
    /// Requests (or responses) lost in flight.
    pub drops: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refused_is_not_ok() {
        assert!(!MailboxResponse::Refused {
            reason: "out of range".into()
        }
        .is_ok());
        assert!(MailboxResponse::Voltage(Millivolts::new(900)).is_ok());
        assert!(MailboxResponse::PowerMw(12_000).is_ok());
    }

    #[test]
    fn dropped_is_not_ok() {
        assert!(!MailboxResponse::Dropped.is_ok());
    }
}
