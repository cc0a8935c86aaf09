//! Bounded explicit-state model checking of the Daemon↔Chip↔Sched loop.
//!
//! [`check`] enumerates *every* interleaving of the symbolic event
//! alphabet ([`crate::statespace::ModelEvent`]) up to a configurable
//! depth, on both chip presets, evaluating the three torn-state
//! properties at every atomic-action boundary (and the full static
//! invariant registry once per preset — those invariants are functions
//! of construction-time tables only, so one evaluation covers every
//! explored state). Where the race explorer samples 160 seeded
//! schedules, this is exhaustive within the bound: zero violations here
//! means *no* reachable torn state exists in ≤ depth events, period.
//!
//! One reduction keeps the frontier tractable without giving up
//! exhaustiveness: a **state-hash cache**. States are fingerprinted
//! (rail mV, frequency program, masks, recovery state —
//! [`crate::statespace::World::fingerprint`]) and a revisited state's
//! subtree is pruned: every continuation from an equal state is already
//! covered.
//!
//! On a violation the exploration stops and the offending schedule is
//! handed to the delta-debugging shrinker ([`crate::shrink`]), which
//! minimizes it to a 1-minimal, seedlessly replayable repro.

use crate::shrink;
use crate::statespace::{ModelEvent, StepReport, World};
use avfs_chip::presets;
use avfs_core::daemon::Daemon;
use std::collections::BTreeSet;
use std::fmt;

/// Exploration knobs.
#[derive(Debug, Clone)]
pub struct ModelOptions {
    /// Event-depth bound: every interleaving of at most this many events
    /// is covered.
    pub depth: usize,
    /// Maximum concurrently live processes (branching bound).
    pub max_procs: usize,
}

impl Default for ModelOptions {
    fn default() -> Self {
        ModelOptions {
            depth: 6,
            max_procs: 2,
        }
    }
}

/// A violating schedule, minimized.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// The shrunken schedule (replay from a fresh world reproduces).
    pub schedule: Vec<ModelEvent>,
    /// Length of the schedule as first discovered, before shrinking.
    pub original_len: usize,
    /// Violations the shrunken schedule reproduces.
    pub violations: Vec<String>,
}

impl fmt::Display for Counterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "counterexample (shrunk {} -> {} events; replay from a fresh system):",
            self.original_len,
            self.schedule.len()
        )?;
        for (i, ev) in self.schedule.iter().enumerate() {
            writeln!(f, "  {}. {ev}", i + 1)?;
        }
        for v in &self.violations {
            writeln!(f, "  violated: {v}")?;
        }
        Ok(())
    }
}

/// Exploration outcome for one preset.
#[derive(Debug, Clone, Default)]
pub struct PresetModelReport {
    /// Preset name.
    pub name: String,
    /// Distinct states visited.
    pub states: u64,
    /// Event applications executed during exploration.
    pub transitions: u64,
    /// Transitions whose target state was already cached (subtree
    /// pruned).
    pub cache_hits: u64,
    /// Paths cut by the depth bound.
    pub bound_hits: u64,
    /// Interleaved invariant evaluations.
    pub checks: u64,
    /// Static registry violations (evaluated once; see module docs).
    pub registry_violations: Vec<String>,
    /// First violating schedule found, shrunk — `None` when clean.
    pub counterexample: Option<Counterexample>,
}

impl PresetModelReport {
    /// True when neither the exploration nor the static registry found
    /// anything.
    pub fn is_clean(&self) -> bool {
        self.counterexample.is_none() && self.registry_violations.is_empty()
    }
}

impl fmt::Display for PresetModelReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} states, {} transitions, {} cache-pruned, {} bound cutoffs, {} checks, {}",
            self.name,
            self.states,
            self.transitions,
            self.cache_hits,
            self.bound_hits,
            self.checks,
            if self.is_clean() {
                "no violations".to_string()
            } else {
                format!(
                    "{} violation(s)",
                    self.registry_violations.len() + usize::from(self.counterexample.is_some())
                )
            }
        )
    }
}

/// Outcome of a full `model` run.
#[derive(Debug, Clone, Default)]
pub struct ModelReport {
    /// The depth bound explored.
    pub depth: usize,
    /// Per-preset results.
    pub presets: Vec<PresetModelReport>,
}

impl ModelReport {
    /// True when every preset explored clean.
    pub fn is_clean(&self) -> bool {
        self.presets.iter().all(PresetModelReport::is_clean)
    }
}

struct Explorer {
    opts: ModelOptions,
    visited: BTreeSet<u64>,
    report: PresetModelReport,
    counterexample_path: Option<Vec<ModelEvent>>,
}

impl Explorer {
    fn new(name: &str, opts: ModelOptions) -> Self {
        Explorer {
            opts,
            visited: BTreeSet::new(),
            report: PresetModelReport {
                name: name.to_string(),
                ..PresetModelReport::default()
            },
            counterexample_path: None,
        }
    }

    fn explore(&mut self, root: &World) {
        self.visited.insert(root.fingerprint());
        self.report.states += 1;
        let mut path = Vec::new();
        self.dfs(root, 0, &mut path);
    }

    fn account(&mut self, step: &StepReport) {
        self.report.transitions += 1;
        self.report.checks += step.checks;
    }

    fn dfs(&mut self, world: &World, depth: usize, path: &mut Vec<ModelEvent>) {
        if self.counterexample_path.is_some() {
            return;
        }
        if depth == self.opts.depth {
            self.report.bound_hits += 1;
            return;
        }
        for event in world.enabled_events() {
            if self.counterexample_path.is_some() {
                return;
            }
            let mut child = world.clone();
            let Some(step) = child.apply_event(event) else {
                continue;
            };
            self.account(&step);
            if !step.violations.is_empty() {
                let mut cx = path.clone();
                cx.push(event);
                self.counterexample_path = Some(cx);
                return;
            }
            let fingerprint = child.fingerprint();
            if self.visited.contains(&fingerprint) {
                self.report.cache_hits += 1;
            } else {
                self.visited.insert(fingerprint);
                self.report.states += 1;
                path.push(event);
                self.dfs(&child, depth + 1, path);
                path.pop();
                if self.counterexample_path.is_some() {
                    return;
                }
            }
        }
    }
}

/// Explores one world exhaustively up to the bound; on a violation the
/// schedule is shrunk before being reported.
pub fn check_world(name: &str, root: &World, opts: &ModelOptions) -> PresetModelReport {
    let mut explorer = Explorer::new(name, opts.clone());
    explorer.explore(root);
    let mut report = explorer.report;
    if let Some(found) = explorer.counterexample_path {
        let original_len = found.len();
        let (schedule, violations) = shrink::shrink(root, &found);
        report.counterexample = Some(Counterexample {
            schedule,
            original_len,
            violations,
        });
    }
    report
}

/// Runs the bounded checker on both chip presets with the paper's
/// Optimal daemon, folding in the static invariant registry (evaluated
/// once per preset — its inputs are construction-time constants).
pub fn check(opts: &ModelOptions) -> ModelReport {
    let mut report = ModelReport {
        depth: opts.depth,
        presets: Vec::new(),
    };
    for (name, builder) in [
        ("X-Gene 2", presets::xgene2()),
        ("X-Gene 3", presets::xgene3()),
    ] {
        let chip = builder.build();
        let daemon = Daemon::optimal(&chip);
        let root = World::new(chip, daemon, opts.max_procs);
        let mut preset = check_world(name, &root, opts);
        let cx = crate::context::AnalysisContext::from_builder(name, &builder);
        preset.registry_violations = crate::invariant::check_all(&cx)
            .into_iter()
            .map(|v| v.to_string())
            .collect();
        report.presets.push(preset);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(depth: usize) -> ModelOptions {
        ModelOptions {
            depth,
            ..ModelOptions::default()
        }
    }

    #[test]
    fn shallow_exhaustive_exploration_is_clean_on_both_presets() {
        let report = check(&opts(3));
        assert!(
            report.is_clean(),
            "{:#?}",
            report
                .presets
                .iter()
                .map(|p| (&p.name, &p.counterexample, &p.registry_violations))
                .collect::<Vec<_>>()
        );
        for p in &report.presets {
            assert!(p.states > 1, "{p}");
            assert!(p.checks > 0, "{p}");
        }
    }

    #[test]
    fn exploration_is_deterministic() {
        let a = check(&opts(3));
        let b = check(&opts(3));
        for (pa, pb) in a.presets.iter().zip(&b.presets) {
            assert_eq!(pa.states, pb.states);
            assert_eq!(pa.transitions, pb.transitions);
            assert_eq!(pa.cache_hits, pb.cache_hits);
        }
    }
}
