//! Scaling times by the host's current speed.
//!
//! The speed of a shared virtual host drifts: on the 2-vCPU machine this
//! benchmark was written on, the same X-Gene 3 evaluation took 72 ms in
//! one 10-second window and 128 ms a minute later, with no steal time
//! and CPU time tracking wall time. Different parts of the program slowed
//! together — the `journal-xg2` iteration stayed within ±4% of 0.44× the
//! X-Gene 3 evaluation throughout — so a fixed piece of work with the same
//! character, timed beside each iteration, measures the host's speed.
//! Untraced times are reported scaled to the speed at which that kernel
//! ([`kernel_ms`]) takes [`REFERENCE_MS`]: a change to the program moves
//! the iteration but not the kernel, while a change of host speed moves
//! both.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Kernel time, ms, that scaled times refer to.
pub const REFERENCE_MS: f64 = 7.0;

/// Kernel steps per timing (about 7 ms on the reference host).
const KERNEL_STEPS: u32 = 30_000;

/// The calibration kernel: churn in a `BTreeMap` of up to 1024 entries
/// carrying small `Vec`s, float updates, and JSON-like lines formatted
/// into a growing `String` — the allocation-heavy, branchy mix of the
/// scheduler's process tables and the journal writer, built and dropped
/// on every timing. It shares no code with the program beyond the
/// standard library, and every timing does the same work.
///
/// Chosen by timing the X-Gene 3 evaluation, the `journal-xg2` iteration
/// and candidate kernels side by side for 3–8 minutes at a time while the
/// host's speed drifted, and comparing the spread (standard deviation
/// over mean) of 20-second window medians: 8% unscaled, 1.7% scaled by
/// this kernel. Kernels of random accesses to a fixed table (32 KiB to
/// 16 MiB) or of pure ALU work tracked worse (5–20%), and their timings
/// depended on what had run just before them: up to 2.3× slower on the
/// first timing after an iteration than on the next. This kernel timed
/// the same after either workload.
pub fn kernel_ms() -> f64 {
    let start = Instant::now();
    let mut map: BTreeMap<u64, (f64, Vec<u32>)> = BTreeMap::new();
    let mut out = String::new();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for i in 0..KERNEL_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let key = x & 0x3FF;
        let f = (x >> 11) as f64 / (1u64 << 53) as f64;
        let entry = map.entry(key).or_insert_with(|| (f, Vec::new()));
        entry.0 = entry.0 * 0.9 + f.sqrt();
        if entry.1.len() < 8 {
            entry.1.push(i);
        } else {
            entry.1.clear();
        }
        let v = entry.0;
        if i % 8 == 0 {
            let _ = writeln!(out, "{{\"t\":{i},\"v\":{v:.4},\"k\":{key}}}");
        }
        if i % 4 == 0 {
            map.remove(&((x >> 20) & 0x3FF));
        }
    }
    std::hint::black_box((&map, &out));
    drop((map, out));
    start.elapsed().as_secs_f64() * 1e3
}

/// `ms` measured while the kernel took `kernel_ms`, scaled to the
/// reference speed.
pub fn normalize(ms: f64, kernel_ms: f64) -> f64 {
    ms * REFERENCE_MS / kernel_ms
}
