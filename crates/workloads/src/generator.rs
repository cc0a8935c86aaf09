//! The random server-workload generator (§VI-B).
//!
//! The paper evaluates its daemon on a generated "typical server workload":
//! programs drawn at random from a 35-program pool (29 SPEC CPU2006 + 6
//! NPB), issued at random timeslots over a configurable window, with heavy,
//! average, light, and idle load phases, and never more active processes
//! than the machine has cores. The same trace is then replayed under every
//! configuration (Baseline / Safe Vmin / Placement / Optimal), which is
//! what makes Tables III/IV comparable — [`WorkloadTrace`] is that
//! replayable artifact.

use crate::catalog::Benchmark;
use avfs_sim::time::{SimDuration, SimTime};
use avfs_sim::RngStream;

/// One job issue in a workload trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// When the job is issued.
    pub at: SimTime,
    /// Which benchmark it runs.
    pub bench: Benchmark,
    /// How many threads the job uses (1 for SPEC copies; 2/4/8 for
    /// parallel NPB jobs).
    pub threads: usize,
    /// Job-size scale relative to the benchmark's reference input
    /// (varies job durations, as real server requests vary).
    pub scale: f64,
}

/// Configuration of the workload generator.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratorConfig {
    /// Window length (the paper uses 1 hour).
    pub duration: SimDuration,
    /// Hard cap on concurrently active threads (the chip's core count).
    pub max_concurrent_threads: usize,
    /// Root seed; the same seed reproduces the same trace exactly.
    pub seed: u64,
    /// Global job-size scale (1.0 = reference inputs; smaller = shorter
    /// jobs, useful for fast tests).
    pub job_scale: f64,
    /// The benchmark pool to draw from.
    pub pool: Vec<Benchmark>,
}

impl GeneratorConfig {
    /// The paper's setup: a 1-hour window over the 35-program pool with
    /// the given core cap.
    pub fn paper_default(max_concurrent_threads: usize, seed: u64) -> Self {
        GeneratorConfig {
            duration: SimDuration::from_secs(3_600),
            max_concurrent_threads,
            seed,
            job_scale: 1.0,
            pool: Benchmark::server_pool(),
        }
    }
}

/// A replayable workload: time-ordered job arrivals.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadTrace {
    /// Arrivals in non-decreasing time order.
    pub arrivals: Vec<Arrival>,
    /// The generation window.
    pub duration: SimDuration,
}

/// Load phases the generator cycles through, resembling a server's day.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Heavy,
    Average,
    Light,
    Idle,
}

impl Phase {
    /// Target fraction of the thread cap kept busy in this phase.
    fn target_utilization(self, rng: &mut RngStream) -> f64 {
        match self {
            Phase::Heavy => rng.uniform(0.75, 1.0),
            Phase::Average => rng.uniform(0.35, 0.60),
            Phase::Light => rng.uniform(0.08, 0.25),
            Phase::Idle => 0.0,
        }
    }

    /// The next phase: a random walk biased so heavy and idle are
    /// visited but average dominates, as in Figure 15's load profile.
    fn next(self, rng: &mut RngStream) -> Phase {
        let u = rng.next_f64();
        match self {
            Phase::Idle | Phase::Heavy => {
                if u < 0.6 {
                    Phase::Average
                } else if u < 0.8 {
                    Phase::Light
                } else if self == Phase::Idle {
                    Phase::Heavy
                } else {
                    Phase::Idle
                }
            }
            _ => {
                if u < 0.35 {
                    Phase::Heavy
                } else if u < 0.6 {
                    Phase::Average
                } else if u < 0.85 {
                    Phase::Light
                } else {
                    Phase::Idle
                }
            }
        }
    }
}

impl WorkloadTrace {
    /// Generates a trace from the configuration.
    ///
    /// The generator walks through load phases (2–6 minutes each) and
    /// issues jobs whenever the *estimated* number of in-flight threads is
    /// below the phase target, drawing the program, thread count, and job
    /// size at random. Estimated job durations use a conservative 2×
    /// margin over the solo runtime so the thread cap holds even when the
    /// replayed system runs slower than solo estimates.
    ///
    /// # Panics
    ///
    /// Panics if the pool is empty, the cap is zero, or `job_scale` is
    /// not positive.
    pub fn generate(config: &GeneratorConfig) -> WorkloadTrace {
        assert!(!config.pool.is_empty(), "empty benchmark pool");
        assert!(config.max_concurrent_threads > 0, "zero thread cap");
        assert!(config.job_scale > 0.0, "job scale must be positive");

        let mut rng = RngStream::from_root(config.seed, "workload-generator");
        let mut arrivals = Vec::new();
        // (estimated finish time, threads) of in-flight jobs.
        let mut in_flight: Vec<(SimTime, usize)> = Vec::new();

        let end = SimTime::ZERO + config.duration;
        let mut now = SimTime::ZERO;
        let mut phase = Phase::Average;
        let mut phase_end = now + phase_len(&mut rng);
        let mut target = phase.target_utilization(&mut rng);

        while now < end {
            in_flight.retain(|&(finish, _)| finish > now);
            let busy: usize = in_flight.iter().map(|&(_, t)| t).sum();
            let wanted = (target * config.max_concurrent_threads as f64).round() as usize;

            if busy < wanted {
                let bench = *rng.pick(&config.pool);
                let profile = bench.profile();
                let headroom = config.max_concurrent_threads - busy;
                let threads = if profile.parallel {
                    // NPB jobs use 2, 4, or 8 threads, capped by headroom.
                    let options = [2usize, 4, 8];
                    let t = *rng.pick(&options);
                    t.min(headroom).max(1)
                } else {
                    1
                };
                let scale = rng.uniform(0.25, 1.0) * config.job_scale;
                arrivals.push(Arrival {
                    at: now,
                    bench,
                    threads,
                    scale,
                });
                // Conservative duration estimate: 2× solo at reference.
                let est_s = profile.ref_time_s * scale * 2.0;
                let finish = now + SimDuration::from_secs_f64(est_s);
                in_flight.push((finish, threads));
            }

            // Advance: short hops while filling, longer when satisfied.
            let hop_mean_s = if busy < wanted { 2.0 } else { 8.0 };
            now += SimDuration::from_secs_f64(rng.exponential(hop_mean_s).clamp(0.2, 60.0));

            if now >= phase_end {
                phase = phase.next(&mut rng);
                target = phase.target_utilization(&mut rng);
                phase_end = now + phase_len(&mut rng);
            }
        }

        WorkloadTrace {
            arrivals,
            duration: config.duration,
        }
    }

    /// Number of jobs in the trace.
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// True when the trace has no arrivals.
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }

    /// Total threads requested across all arrivals.
    pub fn total_threads(&self) -> usize {
        self.arrivals.iter().map(|a| a.threads).sum()
    }

    /// The peak number of threads in flight under the generator's own
    /// (conservative) duration estimates — by construction at most the
    /// configured cap.
    pub fn estimated_peak_threads(&self) -> usize {
        let mut events: Vec<(SimTime, i64)> = Vec::new();
        for a in &self.arrivals {
            let est_s = a.bench.profile().ref_time_s * a.scale * 2.0;
            events.push((a.at, a.threads as i64));
            events.push((
                a.at + SimDuration::from_secs_f64(est_s),
                -(a.threads as i64),
            ));
        }
        events.sort();
        let mut cur = 0i64;
        let mut peak = 0i64;
        for (_, d) in events {
            cur += d;
            peak = peak.max(cur);
        }
        peak.max(0) as usize
    }
}

fn phase_len(rng: &mut RngStream) -> SimDuration {
    SimDuration::from_secs_f64(rng.uniform(120.0, 360.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Suite;

    fn config(seed: u64) -> GeneratorConfig {
        GeneratorConfig::paper_default(32, seed)
    }

    #[test]
    fn generation_is_deterministic() {
        let a = WorkloadTrace::generate(&config(7));
        let b = WorkloadTrace::generate(&config(7));
        assert_eq!(a, b);
        let c = WorkloadTrace::generate(&config(8));
        assert_ne!(a, c);
    }

    #[test]
    fn arrivals_are_time_ordered() {
        let t = WorkloadTrace::generate(&config(1));
        assert!(t.arrivals.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn one_hour_trace_has_server_scale_job_count() {
        let t = WorkloadTrace::generate(&config(2));
        // A 1-hour window on a 32-core machine with ~100 s jobs should see
        // on the order of hundreds of jobs.
        assert!(t.len() > 50, "only {} jobs", t.len());
        assert!(t.len() < 5_000, "{} jobs is implausible", t.len());
    }

    #[test]
    fn respects_thread_cap_by_construction() {
        for seed in 0..5 {
            let t = WorkloadTrace::generate(&config(seed));
            assert!(
                t.estimated_peak_threads() <= 32,
                "seed {seed}: peak {}",
                t.estimated_peak_threads()
            );
        }
    }

    #[test]
    fn pool_membership_is_respected() {
        let t = WorkloadTrace::generate(&config(3));
        for a in &t.arrivals {
            let p = a.bench.profile();
            assert_ne!(p.suite, Suite::Parsec, "server pool excludes PARSEC");
        }
    }

    #[test]
    fn spec_jobs_are_single_threaded_npb_parallel() {
        let t = WorkloadTrace::generate(&config(4));
        let mut saw_parallel = false;
        for a in &t.arrivals {
            let p = a.bench.profile();
            if p.parallel {
                assert!(a.threads >= 1 && a.threads <= 8);
                if a.threads > 1 {
                    saw_parallel = true;
                }
            } else {
                assert_eq!(a.threads, 1, "{}", a.bench);
            }
        }
        assert!(saw_parallel, "expected some multi-threaded NPB jobs");
    }

    #[test]
    fn includes_idle_and_heavy_periods() {
        // Across the window there should be stretches with no estimated
        // activity (idle phases) and stretches near the cap (heavy).
        let t = WorkloadTrace::generate(&config(5));
        let peak = t.estimated_peak_threads();
        assert!(peak >= 16, "never got busy: peak {peak}");
        // Find the largest gap between consecutive arrivals: idle phases
        // make it large.
        let max_gap_s = t
            .arrivals
            .windows(2)
            .map(|w| (w[1].at - w[0].at).as_secs_f64())
            .fold(0.0f64, f64::max);
        assert!(max_gap_s > 60.0, "largest gap only {max_gap_s}s");
    }

    #[test]
    fn scales_bound_job_sizes() {
        let t = WorkloadTrace::generate(&config(6));
        assert!(t.arrivals.iter().all(|a| a.scale > 0.0 && a.scale <= 1.0));
    }

    #[test]
    fn small_cap_generates_small_jobs() {
        let t = WorkloadTrace::generate(&GeneratorConfig::paper_default(8, 9));
        assert!(t.arrivals.iter().all(|a| a.threads <= 8));
        assert!(t.estimated_peak_threads() <= 8);
    }

    #[test]
    #[should_panic(expected = "empty benchmark pool")]
    fn empty_pool_rejected() {
        let mut c = config(0);
        c.pool.clear();
        let _ = WorkloadTrace::generate(&c);
    }
}
