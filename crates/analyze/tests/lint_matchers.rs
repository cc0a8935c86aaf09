//! Fixture-driven tests for the lint rule matchers themselves: known
//! positives and negatives per rule, asserting *exact* hit counts so a
//! matcher that silently loosens or tightens fails here before it
//! corrupts the ratchet.

use avfs_analyze::lint::{rules, scan_source, Rule};

fn count_for(rule_name: &str, path: &str, source: &str) -> usize {
    let all: Vec<Rule> = rules();
    scan_source(&all, path, source)
        .iter()
        .filter(|f| f.rule == rule_name)
        .count()
}

const NEUTRAL_PATH: &str = "crates/core/src/daemon.rs";
const SENSITIVE_PATH: &str = "crates/telemetry/src/export.rs";

#[test]
fn unwrap_exact_counts() {
    let src = "fn f() {\n    a.unwrap();\n    b.unwrap().c.unwrap();\n    d.unwrap_or(3);\n}\n";
    assert_eq!(count_for("unwrap", NEUTRAL_PATH, src), 3);
}

#[test]
fn unwrap_ignores_comments_strings_and_test_blocks() {
    let src = "\
fn f() {
    // a.unwrap() in prose
    let s = \"b.unwrap()\";
}
#[cfg(test)]
mod tests {
    fn g() {
        c.unwrap();
        d.unwrap();
    }
}
";
    assert_eq!(count_for("unwrap", NEUTRAL_PATH, src), 0);
}

#[test]
fn expect_exact_counts() {
    let src = "fn f() {\n    a.expect(\"x\");\n    // b.expect(\"y\")\n    c.expected();\n}\n";
    assert_eq!(count_for("expect", NEUTRAL_PATH, src), 1);
}

#[test]
fn float_eq_exact_counts() {
    let src = "\
fn f() {
    if x == 0.5 {}
    if 1.25 != y {}
    if a == b {}
    if n == 5 {}
    // if z == 2.0 {}
}
";
    assert_eq!(count_for("float-eq", NEUTRAL_PATH, src), 2);
}

#[test]
fn thread_sleep_exact_counts() {
    let src = "\
fn f() {
    std::thread::sleep(d);
    thread::sleep(e);
    // thread::sleep(commented);
    let s = \"thread::sleep\";
}
";
    assert_eq!(count_for("thread-sleep", NEUTRAL_PATH, src), 2);
}

#[test]
fn narrowing_cast_needs_a_domain_word_on_the_line() {
    let src = "\
fn f() {
    let a = len as u8;
    let b = vmin_mv as u16;
    let c = freq_value as i8;
    let d = count as u16;
}
";
    assert_eq!(count_for("narrowing-cast", NEUTRAL_PATH, src), 2);
}

#[test]
fn raw_unit_param_fires_on_fn_signatures_only() {
    let src = "\
pub fn set(mv: u32) {}
struct S { margin_mv: u32 }
fn freq(mhz: u64, name: &str) {}
fn fine(v: Millivolts) {}
";
    assert_eq!(count_for("raw-unit-param", NEUTRAL_PATH, src), 2);
}

#[test]
fn wall_clock_exact_counts() {
    let src = "\
fn f() {
    let t0 = Instant::now();
    let t1 = std::time::Instant::now();
    let w = SystemTime::now();
    // Instant::now() in a comment
    let s = \"Instant::now()\";
    let ok = sim.now();
}
";
    assert_eq!(count_for("wall-clock", NEUTRAL_PATH, src), 3);
}

#[test]
fn wall_clock_is_exempt_inside_test_modules() {
    let src = "\
#[cfg(test)]
mod tests {
    fn g() {
        let t = Instant::now();
    }
}
";
    assert_eq!(count_for("wall-clock", NEUTRAL_PATH, src), 0);
}

#[test]
fn hash_order_fires_only_on_determinism_sensitive_paths() {
    let src = "\
use std::collections::HashMap;
fn f() {
    let m: HashMap<u32, u32> = HashMap::new();
    let s: HashSet<u32> = HashSet::new();
}
";
    // Line 1: one HashMap. Line 3: two HashMap. Line 4: two HashSet.
    assert_eq!(count_for("hash-order", SENSITIVE_PATH, src), 5);
    assert_eq!(count_for("hash-order", NEUTRAL_PATH, src), 0);
}

#[test]
fn hash_order_scope_covers_every_keyword() {
    let src = "use std::collections::HashMap;\n";
    for path in [
        "crates/telemetry/src/journal.rs",
        "crates/telemetry/src/export.rs",
        "crates/analyze/src/statespace.rs",
        "crates/telemetry/src/json.rs",
        "crates/chip/src/digest.rs",
        "crates/sim/src/trace.rs",
        "crates/core/src/fingerprint.rs",
    ] {
        assert_eq!(count_for("hash-order", path, src), 1, "{path}");
    }
    assert_eq!(
        count_for("hash-order", "crates/sched/src/driver.rs", src),
        0
    );
}

#[test]
fn btree_collections_never_fire_hash_order() {
    let src = "use std::collections::{BTreeMap, BTreeSet};\nfn f() { let m: BTreeMap<u32, u32> = BTreeMap::new(); }\n";
    assert_eq!(count_for("hash-order", SENSITIVE_PATH, src), 0);
}

#[test]
fn allow_deprecated_fires_on_both_attribute_forms() {
    let src = "\
#[allow(deprecated)]
fn legacy_caller() {}
#![allow(deprecated)]
#[allow(deprecated, unused)]
fn f() {}
";
    // Outer attr, inner attr, and the combined-list form all count.
    assert_eq!(count_for("allow-deprecated", NEUTRAL_PATH, src), 3);
}

#[test]
fn allow_deprecated_ignores_comments_strings_and_test_blocks() {
    let src = "\
fn f() {
    // #[allow(deprecated)] in prose
    let s = \"#[allow(deprecated)]\";
}
#[cfg(test)]
mod tests {
    #[allow(deprecated)]
    fn legacy_equivalence() {}
}
";
    assert_eq!(count_for("allow-deprecated", NEUTRAL_PATH, src), 0);
}
