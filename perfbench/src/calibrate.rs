//! Host-speed calibration.
//!
//! On a shared host the same work runs up to 1.5x slower for minutes at a
//! time, and every workload slows by about the same factor. Each run
//! therefore times this fixed standard-library kernel between its units of
//! work and scales its timings to a reference host speed (`REFERENCE_MS`
//! of kernel time). The kernel is benchmark code, so a change to the
//! product cannot move it.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::stats::ms;

/// Kernel time of the reference host speed (the fast state of the 2-core
/// box the benchmark was sized on).
pub const REFERENCE_MS: f64 = 2.5;

/// Times the kernel three times and returns the fastest, in milliseconds.
pub fn kernel_ms() -> f64 {
    (0..3).map(|_| kernel()).fold(f64::INFINITY, f64::min)
}

/// Ordered-map inserts, a sort and string formatting over a fixed
/// pseudo-random sequence: allocation-heavy, like the product's own work.
fn kernel() -> f64 {
    let started = Instant::now();
    let mut map = BTreeMap::new();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for i in 0..20_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x % 50_000, i);
    }
    let mut keys: Vec<u64> = map.keys().copied().collect();
    keys.sort_unstable_by(|a, b| b.cmp(a));
    let text: Vec<String> = keys.iter().take(4_000).map(u64::to_string).collect();
    std::hint::black_box(text.join(",").len());
    ms(started.elapsed())
}
