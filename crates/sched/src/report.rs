//! The fingerprint surface for run results.
//!
//! [`Report::fingerprint`] is the digest that tests and the benchmark
//! harness compare to decide whether two runs were byte-identical. It
//! is deterministic by construction: key sets are static, floats are
//! digested via `to_bits`, and collections are traversed in their
//! stored (already deterministic) order.

use crate::metrics::RunMetrics;

/// Uniform reporting surface for run results ([`RunMetrics`], and
/// `DaemonStats` / `FleetSummary` in the crates that own them).
pub trait Report {
    /// A deterministic digest of everything observable in the result.
    /// Two runs are byte-identical in this surface iff their
    /// fingerprints match (floats are compared via `to_bits`, so even
    /// sub-ulp drift is caught).
    fn fingerprint(&self) -> String;
}

impl Report for RunMetrics {
    fn fingerprint(&self) -> String {
        // Completion records folded positionally so the digest covers
        // every record without rendering them all.
        let mut rec_fold: u64 = 0xcbf2_9ce4_8422_2325;
        for r in &self.completed {
            for v in [
                r.pid.0,
                r.arrived_at.as_nanos(),
                r.finished_at.as_nanos(),
                r.threads as u64,
                u64::from(r.migrations),
            ] {
                rec_fold = (rec_fold ^ v).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        format!(
            "makespan_ns={} energy={:016x} avg_power={:016x} completed={} \
             records={rec_fold:016x} migrations={} vchanges={} unsafe={:016x} failures={}",
            self.makespan.as_nanos(),
            self.energy_j.to_bits(),
            self.avg_power_w.to_bits(),
            self.completed.len(),
            self.migrations,
            self.voltage_changes,
            self.unsafe_time_s.to_bits(),
            self.failures,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::ProcessRecord;
    use crate::process::Pid;
    use avfs_sim::time::{SimDuration, SimTime};

    fn sample() -> RunMetrics {
        RunMetrics {
            makespan: SimDuration::from_secs(10),
            energy_j: 123.5,
            avg_power_w: 12.35,
            completed: vec![ProcessRecord {
                pid: Pid(7),
                arrived_at: SimTime::from_secs(1),
                finished_at: SimTime::from_secs(4),
                threads: 2,
                migrations: 1,
            }],
            migrations: 1,
            voltage_changes: 3,
            unsafe_time_s: 0.0,
            failures: 0,
            ..RunMetrics::default()
        }
    }

    #[test]
    fn fingerprint_is_sensitive_to_sub_ulp_energy_changes() {
        let a = sample();
        let mut b = sample();
        assert_eq!(Report::fingerprint(&a), Report::fingerprint(&b));
        b.energy_j = f64::from_bits(b.energy_j.to_bits() + 1);
        assert_ne!(Report::fingerprint(&a), Report::fingerprint(&b));
    }
}
