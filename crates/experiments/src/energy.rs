//! Energy and ED2P trade-offs: Figures 7, 11, and 12.
//!
//! These harnesses evaluate steady-state multicore runs analytically —
//! N threads/copies of one benchmark on one machine at one frequency,
//! allocation, and voltage — and report per-instance-normalized energy
//! (§II-B) and ED2P (§V-B). Per the paper's methodology, Figure 7 runs
//! at nominal voltage (isolating the allocation effect) while Figures 11
//! and 12 run each configuration at its safe Vmin.

use crate::characterization::{CharConfig, ThreadAlloc};
use crate::report::{Cell, Table};
use crate::Machine;
use avfs_chip::freq::FreqStep;
use avfs_chip::power::{PmdLoad, PowerInputs};
use avfs_chip::voltage::Millivolts;
use avfs_workloads::catalog::Benchmark;

/// Voltage policy for a steady-state evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VoltageMode {
    /// The chip's nominal voltage.
    Nominal,
    /// The configuration's safe Vmin (per Figure 3 / Table II).
    SafeVmin,
}

/// One evaluated operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunPoint {
    /// Execution time of the (parallel or replicated) run, seconds.
    pub time_s: f64,
    /// Average PCP power, watts.
    pub power_w: f64,
    /// Energy normalized per instance (§II-B): total for parallel jobs,
    /// total/N for N single-thread copies, joules.
    pub energy_j: f64,
    /// ED2P with the per-instance energy, J·s².
    pub ed2p: f64,
    /// The voltage the run used.
    pub voltage: Millivolts,
}

/// Evaluates a steady multicore run of `bench` analytically.
pub fn steady_run(
    machine: Machine,
    bench: Benchmark,
    config: &CharConfig,
    voltage_mode: VoltageMode,
) -> RunPoint {
    let chip = machine.chip_builder().build();
    let perf = machine.perf_model();
    let spec = chip.spec().clone();
    let profile = bench.profile();

    let freq = config.step.frequency(spec.fmax());
    let ratio = freq.as_mhz() as f64 / spec.fmax_mhz as f64;
    let work = perf.thread_work(&profile, config.threads);

    // Contention: all threads run the same program.
    let pressure = perf.pressure_at(&profile, ratio) * config.threads as f64;
    let utilized = config.alloc.utilized_pmds(&spec, config.threads);
    let pairs_share_l2 = match config.alloc {
        ThreadAlloc::Clustered => config.threads >= 2,
        ThreadAlloc::Spreaded => config.threads > spec.pmds() as usize,
    };
    let l2_mult = perf.l2_share_mult(pairs_share_l2.then_some(profile.mem_fraction));
    let mem_mult = perf.mem_contention_mult(pressure) * l2_mult;

    let time_s = perf.exec_time_s(&work, freq.as_mhz(), mem_mult);
    let activity = perf.effective_activity(&profile, &work, freq.as_mhz(), mem_mult);

    // Voltage per the mode.
    let voltage = match voltage_mode {
        VoltageMode::Nominal => chip.nominal_voltage(),
        VoltageMode::SafeVmin => chip.vmin_model().safe_vmin(&config.query(&chip, bench)),
    };

    // Per-PMD loads.
    let mut loads = vec![PmdLoad::IDLE; spec.pmds() as usize];
    let mut remaining = config.threads;
    for load in loads.iter_mut().take(utilized) {
        let per_pmd = match config.alloc {
            ThreadAlloc::Clustered => 2.min(remaining),
            ThreadAlloc::Spreaded => {
                // One per PMD on the first lap; extras double up.
                if config.threads <= spec.pmds() as usize {
                    1
                } else {
                    2.min(remaining)
                }
            }
        };
        *load = PmdLoad {
            freq_mhz: freq.as_mhz(),
            active_cores: per_pmd as u8,
            activity,
        };
        remaining -= per_pmd;
    }
    let inputs = PowerInputs {
        voltage,
        pmd_loads: loads,
        mem_traffic: (pressure / perf.mem_capacity).min(1.0),
    };
    let power_w = chip.power_model().power_w(&inputs);

    let total_energy = power_w * time_s;
    let energy_j = if profile.parallel {
        total_energy
    } else {
        total_energy / config.threads as f64
    };
    RunPoint {
        time_s,
        power_w,
        energy_j,
        ed2p: energy_j * time_s * time_s,
        voltage,
    }
}

/// Figure 7: energy at 4 threads, clustered vs spreaded, X-Gene 2 at
/// 2.4 GHz and nominal voltage, for all 25 benchmarks (sorted from
/// CPU-intensive to memory-intensive, as the paper plots them).
pub fn fig7() -> Table {
    let mut table = Table::new(
        "fig07-xgene2",
        "Figure 7 — energy (J) of 4T clustered vs spreaded, X-Gene 2 @2.4GHz",
        &[
            "benchmark",
            "clustered (J)",
            "spreaded (J)",
            "difference (%)",
            "mem fraction",
        ],
    );
    let mut rows: Vec<(Benchmark, f64, f64)> = Benchmark::characterized()
        .into_iter()
        .map(|bench| {
            let mk = |alloc| CharConfig {
                threads: 4,
                alloc,
                step: FreqStep::MAX,
            };
            let clustered = steady_run(
                Machine::XGene2,
                bench,
                &mk(ThreadAlloc::Clustered),
                VoltageMode::Nominal,
            );
            let spreaded = steady_run(
                Machine::XGene2,
                bench,
                &mk(ThreadAlloc::Spreaded),
                VoltageMode::Nominal,
            );
            (bench, clustered.energy_j, spreaded.energy_j)
        })
        .collect();
    rows.sort_by(|a, b| {
        a.0.profile()
            .mem_fraction
            .partial_cmp(&b.0.profile().mem_fraction)
            .unwrap()
    });
    for (bench, clustered, spreaded) in rows {
        // Paper convention: positive % = spreaded is the better (lower
        // energy is clustered... no —) the red line shows
        // (clustered − spreaded)/spreaded: positive = clustered needs
        // more energy = memory-intensive side.
        let diff_pct = (clustered - spreaded) / spreaded * 100.0;
        table.push_row(vec![
            bench.name().into(),
            Cell::f(clustered, 1),
            Cell::f(spreaded, 1),
            Cell::f(diff_pct, 1),
            Cell::f(bench.profile().mem_fraction, 2),
        ]);
    }
    table
}

/// The five benchmarks of Figures 11/12, CPU- to memory-intensive.
pub fn fig11_benchmarks() -> [Benchmark; 5] {
    [
        Benchmark::SpecNamd,
        Benchmark::NpbEp,
        Benchmark::SpecMilc,
        Benchmark::NpbCg,
        Benchmark::NpbFt,
    ]
}

fn fig11_configs(machine: Machine) -> Vec<CharConfig> {
    let (threads, steps): (Vec<usize>, Vec<FreqStep>) = match machine {
        Machine::XGene2 => (
            vec![8, 4, 2],
            vec![FreqStep::MAX, FreqStep::HALF, FreqStep::new(3).unwrap()],
        ),
        Machine::XGene3 => (vec![32, 16, 8], vec![FreqStep::MAX, FreqStep::HALF]),
    };
    let mut out = Vec::new();
    for step in steps {
        for &t in &threads {
            out.push(CharConfig {
                threads: t,
                alloc: ThreadAlloc::Spreaded,
                step,
            });
        }
    }
    out
}

fn fig11_12_table(machine: Machine, ed2p: bool) -> Table {
    let chip = machine.chip_builder().build();
    let configs = fig11_configs(machine);
    let mut headers = vec!["benchmark".to_string()];
    headers.extend(configs.iter().map(|c| c.label(chip.spec())));
    let (metric, fig) = if ed2p {
        ("ED2P (J·s²)", 12)
    } else {
        ("energy (J)", 11)
    };
    let mut table = Table {
        id: format!(
            "fig{fig}-{}",
            machine.name().to_lowercase().replace(' ', "")
        ),
        title: format!("Figure {fig} — {metric} at safe Vmin, {machine}"),
        headers,
        rows: Vec::new(),
    };
    for bench in fig11_benchmarks() {
        let mut row: Vec<Cell> = vec![bench.name().into()];
        for config in &configs {
            let point = steady_run(machine, bench, config, VoltageMode::SafeVmin);
            row.push(if ed2p {
                Cell::f(point.ed2p, 0)
            } else {
                Cell::f(point.energy_j, 1)
            });
        }
        table.push_row(row);
    }
    table
}

/// Figure 11: energy per configuration at safe Vmin.
pub fn fig11(machine: Machine) -> Table {
    fig11_12_table(machine, false)
}

/// Figure 12: ED2P per configuration at safe Vmin.
pub fn fig12(machine: Machine) -> Table {
    fig11_12_table(machine, true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7_sign_pattern_matches_the_paper() {
        let t = fig7();
        // CPU-intensive end: clustered is better (negative difference).
        let namd = t.value("namd", "difference (%)").unwrap();
        let ep = t.value("EP", "difference (%)").unwrap();
        assert!(namd < -4.0, "namd {namd}");
        assert!(ep < -4.0, "EP {ep}");
        // Memory-intensive end: spreaded is better (positive difference).
        let cg = t.value("CG", "difference (%)").unwrap();
        let milc = t.value("milc", "difference (%)").unwrap();
        assert!(cg > 3.0, "CG {cg}");
        assert!(milc > 3.0, "milc {milc}");
        // The paper's range: roughly −10 % … +15 %.
        for v in t.column("difference (%)") {
            assert!((-15.0..=20.0).contains(&v), "diff {v}");
        }
    }

    #[test]
    fn fig7_has_a_crossover() {
        // Sorted by memory intensity, the sign flips once from negative
        // (clustered better) to positive (spreaded better).
        let t = fig7();
        let diffs = t.column("difference (%)");
        assert!(diffs.first().unwrap() < &0.0);
        assert!(diffs.last().unwrap() > &0.0);
    }

    #[test]
    fn fig11_xgene2_division_saves_energy_for_everyone() {
        // Paper: X-Gene 2 at 0.9 GHz reports significant energy savings
        // for all cases (deep Vmin via clock division).
        let t = fig11(Machine::XGene2);
        for bench in ["namd", "EP", "milc", "CG", "FT"] {
            let e_max = t.value(bench, "8T@2.4GHz").unwrap();
            let e_div = t.value(bench, "8T@0.9GHz").unwrap();
            assert!(e_div < e_max, "{bench}: {e_div} !< {e_max}");
        }
    }

    #[test]
    fn fig11_memory_wins_at_half_speed_cpu_does_not() {
        let t = fig11(Machine::XGene3);
        // Memory-intensive: lower frequency → lower energy.
        for bench in ["milc", "CG", "FT"] {
            let e_max = t.value(bench, "32T@3.0GHz").unwrap();
            let e_half = t.value(bench, "32T@1.5GHz").unwrap();
            assert!(e_half < e_max, "{bench}: {e_half} !< {e_max}");
        }
        // CPU-intensive: max frequency gives the best energy.
        for bench in ["namd", "EP"] {
            let e_max = t.value(bench, "32T@3.0GHz").unwrap();
            let e_half = t.value(bench, "32T@1.5GHz").unwrap();
            assert!(e_max < e_half, "{bench}: {e_max} !< {e_half}");
        }
    }

    #[test]
    fn fig12_ed2p_crossover() {
        let t = fig12(Machine::XGene3);
        // CPU-intensive: ED2P at max frequency is the lowest.
        for bench in ["namd", "EP"] {
            let at_max = t.value(bench, "32T@3.0GHz").unwrap();
            let at_half = t.value(bench, "32T@1.5GHz").unwrap();
            assert!(at_max < at_half, "{bench}");
        }
        // Memory-intensive: frequency is inversely proportional to ED2P
        // efficiency.
        for bench in ["CG", "FT", "milc"] {
            let at_max = t.value(bench, "32T@3.0GHz").unwrap();
            let at_half = t.value(bench, "32T@1.5GHz").unwrap();
            assert!(at_half < at_max, "{bench}");
        }
    }

    #[test]
    fn steady_run_uses_lower_voltage_at_lower_frequency() {
        let config_max = CharConfig {
            threads: 8,
            alloc: ThreadAlloc::Clustered,
            step: FreqStep::MAX,
        };
        let config_div = CharConfig {
            step: FreqStep::new(3).unwrap(),
            ..config_max
        };
        let at_max = steady_run(
            Machine::XGene2,
            Benchmark::NpbLu,
            &config_max,
            VoltageMode::SafeVmin,
        );
        let at_div = steady_run(
            Machine::XGene2,
            Benchmark::NpbLu,
            &config_div,
            VoltageMode::SafeVmin,
        );
        assert!(at_div.voltage < at_max.voltage);
        assert!(at_max.voltage < Millivolts::new(980));
    }

    #[test]
    fn spec_energy_is_per_instance() {
        // Doubling copies of a SPEC benchmark (ignoring contention
        // changes) must roughly double total power but keep per-instance
        // energy in the same ballpark.
        let c2 = CharConfig {
            threads: 2,
            alloc: ThreadAlloc::Spreaded,
            step: FreqStep::MAX,
        };
        let c4 = CharConfig { threads: 4, ..c2 };
        let p2 = steady_run(
            Machine::XGene3,
            Benchmark::SpecGamess,
            &c2,
            VoltageMode::Nominal,
        );
        let p4 = steady_run(
            Machine::XGene3,
            Benchmark::SpecGamess,
            &c4,
            VoltageMode::Nominal,
        );
        assert!(p4.power_w > p2.power_w * 1.3);
        assert!(p4.energy_j < p2.energy_j * 1.5);
    }
}
