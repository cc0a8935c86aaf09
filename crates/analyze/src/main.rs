//! `avfs-analyze` — invariant checker, domain lints, race explorer,
//! bounded model checker, and policy-domain prover.
//!
//! ```text
//! cargo run -p avfs-analyze -- invariants
//! cargo run -p avfs-analyze -- lint [--update-allowlist]
//! cargo run -p avfs-analyze -- race [--schedules N] [--events N] [--seed S] [--fault-rate F]
//! cargo run -p avfs-analyze -- fleet [--seed S]
//! cargo run -p avfs-analyze -- model [--depth N] [--max-procs N]
//! cargo run -p avfs-analyze -- prove-policy [--measured] [--seed S]
//! cargo run -p avfs-analyze -- check-margins [--seed S]
//! cargo run -p avfs-analyze -- all
//! ```
//!
//! Every subcommand accepts `--format text|json`. Exit codes: 0 clean,
//! 1 violations found, 2 usage error — so CI can distinguish "the code
//! is broken" from "the invocation is broken" (`scripts/check.sh` runs
//! the gates individually).

use avfs_analyze::invariant::{check_all, registry};
use avfs_analyze::{fleet, lint, margins, model, proof, race};
use avfs_telemetry::json;
use std::collections::BTreeMap;
use std::process::ExitCode;

const EXIT_CLEAN: u8 = 0;
const EXIT_VIOLATIONS: u8 = 1;
const EXIT_USAGE: u8 = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
}

fn usage() {
    eprintln!(
        "usage: avfs-analyze <subcommand> [flags]\n\
         \n\
         subcommands:\n\
         \x20 invariants                 evaluate the domain-invariant registry on both presets\n\
         \x20 lint [--update-allowlist]  ratcheted source lints over crates/*/src\n\
         \x20 race [--schedules N] [--events N] [--seed S] [--fault-rate F]\n\
         \x20                            seeded interleaving exploration\n\
         \x20 fleet [--seed S]           cluster-level conservation/safety checks\n\
         \x20 model [--depth N] [--max-procs N]\n\
         \x20                            exhaustive bounded model checking\n\
         \x20 prove-policy [--measured] [--seed S]\n\
         \x20                            enumerate the full voltage-policy domain\n\
         \x20                            (--measured proves campaign-compiled tables)\n\
         \x20 check-margins [--seed S]   audit measured margin maps against ground truth\n\
         \x20 all                        every gate above, in order\n\
         \n\
         every subcommand accepts --format text|json\n\
         exit codes: 0 clean, 1 violations, 2 usage error"
    );
}

/// Strict flag parsing: every argument must be a known flag; value
/// flags must have a value. Anything else is a usage error.
fn parse_args(
    args: &[String],
    value_flags: &[&str],
    bare_flags: &[&str],
) -> Result<BTreeMap<String, String>, String> {
    let mut out = BTreeMap::new();
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if bare_flags.contains(&a) {
            out.insert(a.to_string(), String::new());
            i += 1;
        } else if value_flags.contains(&a) {
            let Some(v) = args.get(i + 1) else {
                return Err(format!("flag {a} requires a value"));
            };
            out.insert(a.to_string(), v.clone());
            i += 2;
        } else {
            return Err(format!("unknown flag: {a}"));
        }
    }
    Ok(out)
}

fn get_format(flags: &BTreeMap<String, String>) -> Result<Format, String> {
    match flags.get("--format").map(String::as_str) {
        None | Some("text") => Ok(Format::Text),
        Some("json") => Ok(Format::Json),
        Some(other) => Err(format!("--format must be text or json, got {other}")),
    }
}

fn get_usize(
    flags: &BTreeMap<String, String>,
    flag: &str,
    default: usize,
) -> Result<usize, String> {
    match flags.get(flag) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("flag {flag}: invalid value {v:?}")),
    }
}

fn get_u64(flags: &BTreeMap<String, String>, flag: &str, default: u64) -> Result<u64, String> {
    match flags.get(flag) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("flag {flag}: invalid value {v:?}")),
    }
}

fn get_f64(flags: &BTreeMap<String, String>, flag: &str, default: f64) -> Result<f64, String> {
    match flags.get(flag) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("flag {flag}: invalid value {v:?}")),
    }
}

/// Renders `s` as a quoted, escaped JSON string.
fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    json::escape_into(&mut out, s);
    out
}

/// Renders a JSON array of strings.
fn string_array(items: &[String]) -> String {
    let rendered: Vec<String> = items.iter().map(|s| string(s)).collect();
    format!("[{}]", rendered.join(","))
}

/// One gate's outcome: whether it was clean, and its JSON rendering
/// (emitted when `--format json`; `all` aggregates them).
struct Outcome {
    clean: bool,
    json: String,
}

fn run_invariants(format: Format) -> Outcome {
    let checks = registry();
    if format == Format::Text {
        println!("registered invariants: {}", checks.len());
        for inv in &checks {
            println!("  {:<26} {}", inv.name(), inv.description());
        }
    }
    let mut clean = true;
    let mut presets_json = Vec::new();
    for cx in avfs_analyze::AnalysisContext::presets() {
        let violations: Vec<String> = check_all(&cx).iter().map(|v| v.to_string()).collect();
        if format == Format::Text {
            if violations.is_empty() {
                println!("{}: all {} invariants hold", cx.name, checks.len());
            } else {
                println!("{}: {} violation(s)", cx.name, violations.len());
                for v in &violations {
                    println!("  {v}");
                }
            }
        }
        clean &= violations.is_empty();
        presets_json.push(format!(
            "{{\"name\":{},\"violations\":{}}}",
            string(&cx.name),
            string_array(&violations)
        ));
    }
    Outcome {
        clean,
        json: format!(
            "{{\"command\":\"invariants\",\"registered\":{},\"presets\":[{}],\"clean\":{clean}}}",
            checks.len(),
            presets_json.join(",")
        ),
    }
}

fn run_lint(format: Format, update_allowlist: bool) -> Outcome {
    let root = lint::workspace_root();
    let allowlist_path = root.join("crates/analyze/lint-allowlist.txt");
    let allowlist = std::fs::read_to_string(&allowlist_path)
        .map(|text| lint::parse_allowlist(&text))
        .unwrap_or_default();
    let report = lint::run(&root, &allowlist);
    if format == Format::Text {
        println!(
            "linted {} files: {} finding(s), {} over the allowlist, {} stale allowlist entr{}",
            report.files,
            report.findings.len(),
            report.new_violations.len(),
            report.stale.len(),
            if report.stale.len() == 1 { "y" } else { "ies" }
        );
    }
    if update_allowlist {
        let rendered = lint::render_allowlist(&report.findings);
        match std::fs::write(&allowlist_path, rendered) {
            Ok(()) => {
                println!("allowlist regenerated at {}", allowlist_path.display());
                return Outcome {
                    clean: true,
                    json: "{\"command\":\"lint\",\"updated\":true}".to_string(),
                };
            }
            Err(e) => {
                eprintln!("failed to write {}: {e}", allowlist_path.display());
                return Outcome {
                    clean: false,
                    json: "{\"command\":\"lint\",\"updated\":false}".to_string(),
                };
            }
        }
    }
    if format == Format::Text {
        for (rule, path, found, allowed) in &report.new_violations {
            println!("NEW [{rule}] {path}: {found} found, {allowed} allowlisted");
            for f in report
                .findings
                .iter()
                .filter(|f| f.rule == rule && f.path == *path)
            {
                println!("  {f}");
            }
        }
        for (rule, path, found, allowed) in &report.stale {
            println!(
                "STALE [{rule}] {path}: allowlist froze {allowed} but only {found} remain — \
                 tighten the allowlist to {found} (edit lint-allowlist.txt or rerun with --update-allowlist)"
            );
        }
    }
    let entry_json = |entries: &[(String, String, usize, usize)]| -> String {
        let rendered: Vec<String> = entries
            .iter()
            .map(|(rule, path, found, allowed)| {
                format!(
                    "{{\"rule\":{},\"path\":{},\"found\":{found},\"allowed\":{allowed}}}",
                    string(rule),
                    string(path)
                )
            })
            .collect();
        format!("[{}]", rendered.join(","))
    };
    let clean = report.is_clean();
    Outcome {
        clean,
        json: format!(
            "{{\"command\":\"lint\",\"files\":{},\"findings\":{},\"new_violations\":{},\"stale\":{},\"clean\":{clean}}}",
            report.files,
            report.findings.len(),
            entry_json(&report.new_violations),
            entry_json(&report.stale)
        ),
    }
}

fn run_race(
    format: Format,
    schedules: usize,
    events: usize,
    seed: u64,
    fault_rate: f64,
) -> Outcome {
    let report = race::explore_with_faults(schedules, events, seed, fault_rate);
    if format == Format::Text {
        println!("{report}");
        for v in &report.violations {
            println!("  {v}");
        }
    }
    let clean = report.is_clean();
    Outcome {
        clean,
        json: format!(
            "{{\"command\":\"race\",\"schedules\":{},\"events\":{},\"actions\":{},\"checks\":{},\"faults\":{},\"violations\":{},\"clean\":{clean}}}",
            report.schedules,
            report.events,
            report.actions,
            report.checks,
            report.faults,
            string_array(&report.violations)
        ),
    }
}

fn run_fleet(format: Format, seed: u64) -> Outcome {
    let report = fleet::explore(seed);
    let violations: Vec<String> = report.violations.iter().map(|v| v.to_string()).collect();
    if format == Format::Text {
        println!("{report}");
        for v in &violations {
            println!("  {v}");
        }
    }
    let policies: Vec<String> = report.policies.iter().map(|p| p.to_string()).collect();
    let clean = report.is_clean();
    Outcome {
        clean,
        json: format!(
            "{{\"command\":\"fleet\",\"policies\":{},\"submitted\":{},\"violations\":{},\"clean\":{clean}}}",
            string_array(&policies),
            report.submitted,
            string_array(&violations)
        ),
    }
}

fn counterexample_json(cx: &model::Counterexample) -> String {
    let labels: Vec<String> = cx.schedule.iter().map(|e| e.label()).collect();
    format!(
        "{{\"original_len\":{},\"schedule\":{},\"violations\":{}}}",
        cx.original_len,
        string_array(&labels),
        string_array(&cx.violations)
    )
}

fn run_model(format: Format, depth: usize, max_procs: usize) -> Outcome {
    let opts = model::ModelOptions { depth, max_procs };
    let report = model::check(&opts);
    if format == Format::Text {
        println!("bounded model check, depth {}:", report.depth);
        for p in &report.presets {
            println!("  {p}");
            for v in &p.registry_violations {
                println!("    registry: {v}");
            }
            if let Some(cx) = &p.counterexample {
                print!("{cx}");
            }
        }
    }
    let presets_json: Vec<String> = report
        .presets
        .iter()
        .map(|p| {
            format!(
                "{{\"name\":{},\"states\":{},\"transitions\":{},\"cache_hits\":{},\"bound_hits\":{},\"checks\":{},\"registry_violations\":{},\"counterexample\":{}}}",
                string(&p.name),
                p.states,
                p.transitions,
                p.cache_hits,
                p.bound_hits,
                p.checks,
                string_array(&p.registry_violations),
                p.counterexample
                    .as_ref()
                    .map_or_else(|| "null".to_string(), counterexample_json)
            )
        })
        .collect();
    let clean = report.is_clean();
    Outcome {
        clean,
        json: format!(
            "{{\"command\":\"model\",\"depth\":{},\"presets\":[{}],\"clean\":{clean}}}",
            report.depth,
            presets_json.join(",")
        ),
    }
}

fn run_prove_policy(format: Format, measured: bool, seed: u64) -> Outcome {
    let report = if measured {
        margins::prove_measured(seed)
    } else {
        proof::prove()
    };
    if format == Format::Text {
        print!("{report}");
    }
    let presets_json: Vec<String> = report
        .presets
        .iter()
        .map(|p| {
            format!(
                "{{\"name\":{},\"cells\":{},\"min_guardband_mv\":{},\"violations\":{}}}",
                string(&p.name),
                p.cells,
                p.min_guardband_mv,
                string_array(&p.violations)
            )
        })
        .collect();
    let clean = report.is_clean();
    Outcome {
        clean,
        json: format!(
            "{{\"command\":\"prove-policy\",\"measured\":{measured},\"cells\":{},\"presets\":[{}],\"clean\":{clean}}}",
            report.cells(),
            presets_json.join(",")
        ),
    }
}

fn run_check_margins(format: Format, seed: u64) -> Outcome {
    let report = margins::check(seed);
    if format == Format::Text {
        print!("{report}");
    }
    let presets_json: Vec<String> = report
        .presets
        .iter()
        .map(|p| {
            let proof_json = p.proof.as_ref().map_or_else(
                || "null".to_string(),
                |proof| {
                    format!(
                        "{{\"cells\":{},\"min_guardband_mv\":{},\"violations\":{}}}",
                        proof.cells,
                        proof.min_guardband_mv,
                        string_array(&proof.violations)
                    )
                },
            );
            format!(
                "{{\"name\":{},\"measured_cells\":{},\"probes\":{},\"discarded\":{},\"min_truth_slack_mv\":{},\"violations\":{},\"proof\":{proof_json}}}",
                string(&p.name),
                p.measured_cells,
                p.probes,
                p.discarded,
                p.min_truth_slack_mv,
                string_array(&p.violations)
            )
        })
        .collect();
    let clean = report.is_clean();
    Outcome {
        clean,
        json: format!(
            "{{\"command\":\"check-margins\",\"seed\":{},\"presets\":[{}],\"clean\":{clean}}}",
            report.seed,
            presets_json.join(",")
        ),
    }
}

fn dispatch(cmd: &str, rest: &[String]) -> Result<(Format, Outcome), String> {
    match cmd {
        "invariants" => {
            let flags = parse_args(rest, &["--format"], &[])?;
            let format = get_format(&flags)?;
            Ok((format, run_invariants(format)))
        }
        "lint" => {
            let flags = parse_args(rest, &["--format"], &["--update-allowlist"])?;
            let format = get_format(&flags)?;
            Ok((
                format,
                run_lint(format, flags.contains_key("--update-allowlist")),
            ))
        }
        "race" => {
            let flags = parse_args(
                rest,
                &[
                    "--format",
                    "--schedules",
                    "--events",
                    "--seed",
                    "--fault-rate",
                ],
                &[],
            )?;
            let format = get_format(&flags)?;
            Ok((
                format,
                run_race(
                    format,
                    get_usize(&flags, "--schedules", 160)?,
                    get_usize(&flags, "--events", 24)?,
                    get_u64(&flags, "--seed", 0xA5F5_0001)?,
                    get_f64(&flags, "--fault-rate", 0.0)?,
                ),
            ))
        }
        "fleet" => {
            let flags = parse_args(rest, &["--format", "--seed"], &[])?;
            let format = get_format(&flags)?;
            Ok((
                format,
                run_fleet(format, get_u64(&flags, "--seed", 0xF1EE_7001)?),
            ))
        }
        "model" => {
            let flags = parse_args(rest, &["--format", "--depth", "--max-procs"], &[])?;
            let format = get_format(&flags)?;
            Ok((
                format,
                run_model(
                    format,
                    get_usize(&flags, "--depth", 6)?,
                    get_usize(&flags, "--max-procs", 2)?,
                ),
            ))
        }
        "prove-policy" => {
            let flags = parse_args(rest, &["--format", "--seed"], &["--measured"])?;
            let format = get_format(&flags)?;
            Ok((
                format,
                run_prove_policy(
                    format,
                    flags.contains_key("--measured"),
                    get_u64(&flags, "--seed", margins::DEFAULT_SEED)?,
                ),
            ))
        }
        "check-margins" => {
            let flags = parse_args(rest, &["--format", "--seed"], &[])?;
            let format = get_format(&flags)?;
            Ok((
                format,
                run_check_margins(format, get_u64(&flags, "--seed", margins::DEFAULT_SEED)?),
            ))
        }
        "all" => {
            let flags = parse_args(rest, &["--format"], &[])?;
            let format = get_format(&flags)?;
            let outcomes = vec![
                run_invariants(format),
                run_lint(format, false),
                run_race(format, 160, 24, 0xA5F5_0001, 0.0),
                run_race(format, 96, 24, 0xFA17_0002, 0.10),
                run_fleet(format, 0xF1EE_7001),
                run_model(format, 6, 2),
                run_prove_policy(format, false, margins::DEFAULT_SEED),
                run_check_margins(format, margins::DEFAULT_SEED),
            ];
            let clean = outcomes.iter().all(|o| o.clean);
            let parts: Vec<String> = outcomes.into_iter().map(|o| o.json).collect();
            Ok((
                format,
                Outcome {
                    clean,
                    json: format!(
                        "{{\"command\":\"all\",\"results\":[{}],\"clean\":{clean}}}",
                        parts.join(",")
                    ),
                },
            ))
        }
        other => Err(format!("unknown subcommand: {other}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        usage();
        return ExitCode::from(EXIT_USAGE);
    };
    match dispatch(cmd, &args[1..]) {
        Ok((format, outcome)) => {
            if format == Format::Json {
                // JSON mode prints exactly one object on stdout.
                println!("{}", outcome.json);
            }
            ExitCode::from(if outcome.clean {
                EXIT_CLEAN
            } else {
                EXIT_VIOLATIONS
            })
        }
        Err(msg) => {
            eprintln!("error: {msg}\n");
            usage();
            ExitCode::from(EXIT_USAGE)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_string_arrays() {
        let items = vec!["plain".to_string(), "with \"quote\"".to_string()];
        assert_eq!(string_array(&items), r#"["plain","with \"quote\""]"#);
        assert_eq!(string_array(&[]), "[]");
    }
}
