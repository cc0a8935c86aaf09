//! PCP-domain power model.
//!
//! All energy numbers in the paper are measured on the PCP (Processor
//! ComPlex) power domain: cores, L1/L2/L3 caches, and memory controllers,
//! all on one voltage rail. The model here is the standard CMOS
//! decomposition:
//!
//! * per-core **dynamic** power `k_dyn · activity · f · (V/Vnom)²`;
//! * per-active-PMD **clock-tree overhead** `k_pmd · f · (V/Vnom)²` — this
//!   term is why clustering threads onto fewer PMDs saves energy for
//!   CPU-bound workloads (Figure 7, left side);
//! * chip **leakage** `P_leak · (V/Vnom)³` (superlinear in V);
//! * **uncore** (L3 + memory controllers) with a static part and a part
//!   proportional to memory traffic, both on the same rail.
//!
//! Idle PMDs are clock-gated and contribute only leakage (which is folded
//! into the chip-level term). Constants are calibrated per chip in
//! [`crate::presets`] to land near the paper's operating points (TDP-scale
//! full load; single-digit-watt idle on X-Gene 2).

use crate::voltage::Millivolts;

/// Load description for one PMD over an evaluation interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PmdLoad {
    /// The PMD's effective clock, MHz.
    pub freq_mhz: u32,
    /// Number of cores in this PMD executing work (0..=cores_per_pmd).
    pub active_cores: u8,
    /// Mean switching activity of the active cores, in `[0, 1]`
    /// (roughly IPC-proportional; memory-stalled cores switch less).
    pub activity: f64,
}

impl PmdLoad {
    /// A fully idle (clock-gated) PMD.
    pub const IDLE: PmdLoad = PmdLoad {
        freq_mhz: 0,
        active_cores: 0,
        activity: 0.0,
    };

    /// True when no core in the PMD is executing.
    pub fn is_idle(&self) -> bool {
        self.active_cores == 0
    }
}

/// Chip-level inputs for one power evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerInputs {
    /// The rail voltage.
    pub voltage: Millivolts,
    /// Per-PMD loads, indexed by PMD.
    pub pmd_loads: Vec<PmdLoad>,
    /// Aggregate memory traffic in `[0, 1]` (1 = L3/DRAM path saturated).
    pub mem_traffic: f64,
}

/// Calibrated power-model constants for one chip.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerModel {
    /// Nominal voltage the constants were calibrated at.
    pub nominal_mv: u32,
    /// Dynamic W per active core per GHz at nominal voltage, activity 1.
    pub k_dyn_core_w_per_ghz: f64,
    /// Clock-tree W per *active* PMD per GHz at nominal voltage.
    pub k_pmd_w_per_ghz: f64,
    /// Dynamic W per GHz for an idle core inside an active PMD (its L1s
    /// and interface still clock).
    pub k_idle_core_w_per_ghz: f64,
    /// Chip leakage at nominal voltage, W.
    pub leak_w: f64,
    /// Static uncore power at nominal voltage, W.
    pub uncore_static_w: f64,
    /// Additional uncore power at saturated memory traffic, W.
    pub uncore_dyn_w: f64,
    /// Cores per PMD (needed to count idle cores in active PMDs).
    pub cores_per_pmd: u8,
}

impl PowerModel {
    /// Instantaneous PCP power in watts for the given inputs.
    ///
    /// # Panics
    ///
    /// Panics if an active-core count exceeds `cores_per_pmd`.
    pub fn power_w(&self, inputs: &PowerInputs) -> f64 {
        let vr = inputs.voltage.as_mv() as f64 / self.nominal_mv as f64;
        let vr2 = vr * vr;
        let vr3 = vr2 * vr;

        let mut dyn_w = 0.0;
        for load in &inputs.pmd_loads {
            assert!(
                load.active_cores <= self.cores_per_pmd,
                "{} active cores in a {}-core PMD",
                load.active_cores,
                self.cores_per_pmd
            );
            if load.is_idle() {
                continue; // clock-gated: only leakage, counted chip-wide
            }
            let f_ghz = load.freq_mhz as f64 / 1_000.0;
            let act = load.activity.clamp(0.0, 1.0);
            let idle_cores = (self.cores_per_pmd - load.active_cores) as f64;
            dyn_w += load.active_cores as f64 * self.k_dyn_core_w_per_ghz * act * f_ghz;
            dyn_w += self.k_pmd_w_per_ghz * f_ghz;
            dyn_w += idle_cores * self.k_idle_core_w_per_ghz * f_ghz;
        }

        let uncore_w =
            self.uncore_static_w + self.uncore_dyn_w * inputs.mem_traffic.clamp(0.0, 1.0);

        dyn_w * vr2 + uncore_w * vr2 + self.leak_w * vr3
    }

    /// Power of the fully idle chip at `voltage` (all PMDs gated).
    pub fn idle_power_w(&self, voltage: Millivolts, pmds: usize) -> f64 {
        self.power_w(&PowerInputs {
            voltage,
            pmd_loads: vec![PmdLoad::IDLE; pmds],
            mem_traffic: 0.0,
        })
    }

    /// Builds the lookup table that evaluates this model without
    /// re-deriving per-operating-point constants. See [`PowerLut`].
    pub fn build_lut(
        &self,
        freqs_mhz: impl IntoIterator<Item = u32>,
        floor_mv: u32,
        nominal_mv: u32,
    ) -> PowerLut {
        PowerLut::new(self.clone(), freqs_mhz, floor_mv, nominal_mv)
    }

    /// Power at full load: every core active at `freq_mhz` with the given
    /// activity.
    pub fn full_load_power_w(
        &self,
        voltage: Millivolts,
        pmds: usize,
        freq_mhz: u32,
        activity: f64,
        mem_traffic: f64,
    ) -> f64 {
        self.power_w(&PowerInputs {
            voltage,
            pmd_loads: vec![
                PmdLoad {
                    freq_mhz,
                    active_cores: self.cores_per_pmd,
                    activity,
                };
                pmds
            ],
            mem_traffic,
        })
    }
}

/// Precomputed per-PMD dynamic-power terms for one (frequency,
/// active-core-count) operating point. Each field is one factor or term
/// of [`PowerModel::power_w`]'s inner loop, produced by *the same
/// floating-point operations in the same order*, so substituting them is
/// bit-exact.
#[derive(Debug, Clone, Copy)]
struct PmdTerm {
    /// `active_cores · k_dyn` — the left-to-right prefix of the dynamic
    /// term; the runtime factors (`· activity · f_ghz`) are applied in
    /// the original order on top.
    c_dyn: f64,
    /// `k_pmd · f_ghz`, the whole clock-tree term.
    t_pmd: f64,
    /// `(idle_cores · k_idle) · f_ghz`, the whole idle-core term.
    t_idle: f64,
    /// `freq_mhz / 1000.0`.
    f_ghz: f64,
}

/// A power lookup table: [`PowerModel::power_w`] with every quantity
/// that depends only on (frequency step, voltage step, active-core
/// count) precomputed at construction, following the analytic-model
/// tabulation approach (Hofmann et al.). Activity and memory traffic
/// stay runtime inputs — they are continuous.
///
/// Evaluation is **bit-identical** to the model it was built from: each
/// precomputed value is produced by the exact operation sequence the
/// live path would execute. Inputs outside the tabulated domain (an
/// off-table frequency, a voltage outside `[floor, nominal]`) fall back
/// to the live model.
#[derive(Debug, Clone)]
pub struct PowerLut {
    model: PowerModel,
    floor_mv: u32,
    /// `(vr², vr³)` per millivolt in `floor_mv..=nominal_mv`.
    vr: Vec<(f64, f64)>,
    /// Tabulated frequencies, MHz (tiny: one per [`crate::freq::FreqStep`]).
    freqs_mhz: Vec<u32>,
    /// `terms[freq_idx · (cores_per_pmd + 1) + active_cores]`.
    terms: Vec<PmdTerm>,
}

impl PowerLut {
    /// Tabulates `model` over the given frequencies and the voltage
    /// window `floor_mv..=nominal_mv`.
    fn new(
        model: PowerModel,
        freqs_mhz: impl IntoIterator<Item = u32>,
        floor_mv: u32,
        nominal_mv: u32,
    ) -> Self {
        let vr = (floor_mv..=nominal_mv)
            .map(|mv| {
                let vr = mv as f64 / model.nominal_mv as f64;
                let vr2 = vr * vr;
                (vr2, vr2 * vr)
            })
            .collect();
        let mut freqs: Vec<u32> = freqs_mhz.into_iter().collect();
        freqs.sort_unstable();
        freqs.dedup();
        let stride = model.cores_per_pmd as usize + 1;
        let mut terms = Vec::with_capacity(freqs.len() * stride);
        for &mhz in &freqs {
            let f_ghz = mhz as f64 / 1_000.0;
            for n in 0..stride {
                let idle_cores = (model.cores_per_pmd - n as u8) as f64;
                terms.push(PmdTerm {
                    c_dyn: n as f64 * model.k_dyn_core_w_per_ghz,
                    t_pmd: model.k_pmd_w_per_ghz * f_ghz,
                    t_idle: idle_cores * model.k_idle_core_w_per_ghz * f_ghz,
                    f_ghz,
                });
            }
        }
        PowerLut {
            model,
            floor_mv,
            vr,
            freqs_mhz: freqs,
            terms,
        }
    }

    /// The model this table was built from.
    pub fn model(&self) -> &PowerModel {
        &self.model
    }

    /// Instantaneous PCP power in watts — bit-identical to
    /// [`PowerModel::power_w`] on the same inputs.
    ///
    /// # Panics
    ///
    /// Panics if an active-core count exceeds `cores_per_pmd` (same
    /// contract as the live model).
    pub fn power_w(&self, inputs: &PowerInputs) -> f64 {
        let mv = inputs.voltage.as_mv();
        let Some(&(vr2, vr3)) = mv
            .checked_sub(self.floor_mv)
            .and_then(|i| self.vr.get(i as usize))
        else {
            return self.model.power_w(inputs);
        };

        let stride = self.model.cores_per_pmd as usize + 1;
        let mut dyn_w = 0.0;
        for load in &inputs.pmd_loads {
            assert!(
                load.active_cores <= self.model.cores_per_pmd,
                "{} active cores in a {}-core PMD",
                load.active_cores,
                self.model.cores_per_pmd
            );
            if load.is_idle() {
                continue; // clock-gated: only leakage, counted chip-wide
            }
            let Some(fi) = self.freqs_mhz.iter().position(|&f| f == load.freq_mhz) else {
                return self.model.power_w(inputs);
            };
            let term = &self.terms[fi * stride + load.active_cores as usize];
            let act = load.activity.clamp(0.0, 1.0);
            dyn_w += term.c_dyn * act * term.f_ghz;
            dyn_w += term.t_pmd;
            dyn_w += term.t_idle;
        }

        let uncore_w = self.model.uncore_static_w
            + self.model.uncore_dyn_w * inputs.mem_traffic.clamp(0.0, 1.0);

        dyn_w * vr2 + uncore_w * vr2 + self.model.leak_w * vr3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> PowerModel {
        // X-Gene 2-like constants.
        PowerModel {
            nominal_mv: 980,
            k_dyn_core_w_per_ghz: 1.1,
            k_pmd_w_per_ghz: 0.3,
            k_idle_core_w_per_ghz: 0.08,
            leak_w: 2.0,
            uncore_static_w: 1.2,
            uncore_dyn_w: 1.5,
            cores_per_pmd: 2,
        }
    }

    fn full(m: &PowerModel, v: u32) -> f64 {
        m.full_load_power_w(Millivolts::new(v), 4, 2400, 1.0, 0.5)
    }

    #[test]
    fn full_load_is_tdp_scale() {
        let m = model();
        let p = full(&m, 980);
        assert!(p > 20.0 && p < 35.0, "full-load power {p}W");
    }

    #[test]
    fn idle_is_small_but_nonzero() {
        let m = model();
        let p = m.idle_power_w(Millivolts::new(980), 4);
        assert!(p > 1.0 && p < 6.0, "idle power {p}W");
    }

    #[test]
    fn undervolting_saves_quadratically_plus() {
        let m = model();
        let p_nom = full(&m, 980);
        let p_uv = full(&m, 900);
        let vr2 = (900.0f64 / 980.0).powi(2);
        // Savings at least the quadratic factor (leakage is cubic).
        assert!(p_uv < p_nom * vr2 * 1.001, "p_uv {p_uv} vs bound");
        assert!(p_uv > p_nom * vr2 * vr2.sqrt() * 0.9);
    }

    #[test]
    fn frequency_scales_dynamic_only() {
        let m = model();
        let v = Millivolts::new(980);
        let p_full = m.full_load_power_w(v, 4, 2400, 1.0, 0.0);
        let p_half = m.full_load_power_w(v, 4, 1200, 1.0, 0.0);
        let static_w = m.idle_power_w(v, 4);
        let dyn_full = p_full - static_w;
        let dyn_half = p_half - static_w;
        assert!((dyn_half - dyn_full / 2.0).abs() < 1e-9);
    }

    #[test]
    fn clustering_uses_less_power_than_spreading() {
        // 4 active cores with the same total work: 2 PMDs (clustered) vs
        // 4 PMDs with one core each (spreaded). Spreading pays two extra
        // PMD clock trees — the Figure 7 effect for CPU-bound programs.
        let m = model();
        let v = Millivolts::new(980);
        let clustered = PowerInputs {
            voltage: v,
            pmd_loads: vec![
                PmdLoad {
                    freq_mhz: 2400,
                    active_cores: 2,
                    activity: 1.0,
                },
                PmdLoad {
                    freq_mhz: 2400,
                    active_cores: 2,
                    activity: 1.0,
                },
                PmdLoad::IDLE,
                PmdLoad::IDLE,
            ],
            mem_traffic: 0.1,
        };
        let spreaded = PowerInputs {
            voltage: v,
            pmd_loads: vec![
                PmdLoad {
                    freq_mhz: 2400,
                    active_cores: 1,
                    activity: 1.0,
                };
                4
            ],
            mem_traffic: 0.1,
        };
        let pc = m.power_w(&clustered);
        let ps = m.power_w(&spreaded);
        assert!(ps > pc, "spreaded {ps}W should exceed clustered {pc}W");
        // The gap should be noticeable (several percent) but not huge.
        let gap = (ps - pc) / pc;
        assert!(gap > 0.02 && gap < 0.25, "gap {gap}");
    }

    #[test]
    fn memory_traffic_adds_uncore_power() {
        let m = model();
        let v = Millivolts::new(980);
        let lo = m.full_load_power_w(v, 4, 2400, 0.8, 0.0);
        let hi = m.full_load_power_w(v, 4, 2400, 0.8, 1.0);
        assert!((hi - lo - 1.5).abs() < 1e-9);
    }

    #[test]
    fn activity_reduces_core_power() {
        // A memory-stalled core (low activity) burns less than a busy one.
        let m = model();
        let v = Millivolts::new(980);
        let busy = m.full_load_power_w(v, 4, 2400, 1.0, 0.5);
        let stalled = m.full_load_power_w(v, 4, 2400, 0.4, 0.5);
        assert!(stalled < busy);
    }

    #[test]
    #[should_panic(expected = "active cores")]
    fn rejects_overfull_pmd() {
        let m = model();
        let _ = m.power_w(&PowerInputs {
            voltage: Millivolts::new(980),
            pmd_loads: vec![PmdLoad {
                freq_mhz: 2400,
                active_cores: 3,
                activity: 1.0,
            }],
            mem_traffic: 0.0,
        });
    }

    #[test]
    fn lut_matches_model_over_full_domain_on_both_presets() {
        // Every operating point the simulator can reach: each preset's 8
        // frequency steps × every legal rail millivolt × every
        // active-core count, at several activity and traffic levels.
        // Bit-equality, not tolerance — the LUT substitutes for the
        // model inside digest-checked runs.
        use crate::freq::FreqStep;
        use crate::presets;
        for builder in [presets::xgene2(), presets::xgene3()] {
            let chip = builder.build();
            let spec = chip.spec();
            let model = chip.power_model();
            let lut = chip.power_lut();
            let fmax = crate::freq::FrequencyMhz::new(spec.fmax_mhz);
            for step in FreqStep::all() {
                let mhz = step.frequency(fmax).as_mhz();
                for mv in (spec.vreg_floor_mv..=spec.nominal_mv).step_by(7) {
                    for n in 0..=model.cores_per_pmd {
                        for act in [0.0, 0.37, 1.0] {
                            for traffic in [0.0, 0.61, 1.0] {
                                let inputs = PowerInputs {
                                    voltage: Millivolts::new(mv),
                                    pmd_loads: vec![
                                        PmdLoad {
                                            freq_mhz: mhz,
                                            active_cores: n,
                                            activity: act,
                                        },
                                        PmdLoad::IDLE,
                                    ],
                                    mem_traffic: traffic,
                                };
                                assert_eq!(
                                    model.power_w(&inputs).to_bits(),
                                    lut.power_w(&inputs).to_bits(),
                                    "{mhz} MHz, {mv} mV, {n} cores, act {act}, traffic {traffic}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn lut_falls_back_to_model_off_table() {
        let m = model();
        let lut = m.build_lut([2400, 1200], 600, 980);
        // Off-table frequency and out-of-window voltages still answer,
        // bit-identically to the live model.
        for (mhz, mv) in [(1337, 900), (2400, 599), (2400, 981), (2400, 1200)] {
            let inputs = PowerInputs {
                voltage: Millivolts::new(mv),
                pmd_loads: vec![PmdLoad {
                    freq_mhz: mhz,
                    active_cores: 2,
                    activity: 0.8,
                }],
                mem_traffic: 0.4,
            };
            assert_eq!(
                m.power_w(&inputs).to_bits(),
                lut.power_w(&inputs).to_bits(),
                "{mhz} MHz at {mv} mV"
            );
        }
    }

    #[test]
    #[should_panic(expected = "active cores")]
    fn lut_rejects_overfull_pmd() {
        let m = model();
        let lut = m.build_lut([2400], 600, 980);
        let _ = lut.power_w(&PowerInputs {
            voltage: Millivolts::new(980),
            pmd_loads: vec![PmdLoad {
                freq_mhz: 2400,
                active_cores: 3,
                activity: 1.0,
            }],
            mem_traffic: 0.0,
        });
    }

    #[test]
    fn idle_pmd_constant_is_idle() {
        assert!(PmdLoad::IDLE.is_idle());
        assert!(!PmdLoad {
            freq_mhz: 300,
            active_cores: 1,
            activity: 0.1
        }
        .is_idle());
    }
}
