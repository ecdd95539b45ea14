//! The paper's Table II and Table IV, pinned byte for byte.
//!
//! `tests/accuracy.rs` checks accuracy only within a tolerance; these
//! goldens also pin every per-application key and cluster count and every
//! case's cluster size, trials, time and screenshots. Both renders are
//! deterministic (fixed seeds, simulated time), so any change in the text
//! is a change in behaviour. To regenerate after an intended change:
//! `cargo run --release -p ocasta-bench --bin table2 > crates/bench/tests/golden/table2.txt`
//! (and likewise `table4`).

fn assert_golden(name: &str, rendered: &str, golden: &str) {
    if rendered != golden {
        let line = rendered
            .lines()
            .zip(golden.lines())
            .position(|(r, g)| r != g)
            .map_or_else(
                || "a missing or extra line".to_owned(),
                |i| format!("line {}", i + 1),
            );
        panic!("{name} differs from its golden at {line}:\n{rendered}\n--- golden ---\n{golden}");
    }
}

#[test]
fn table2_matches_its_golden() {
    assert_golden(
        "Table II",
        &ocasta_bench::table2::run(),
        include_str!("golden/table2.txt"),
    );
}

#[test]
fn table4_matches_its_golden() {
    assert_golden(
        "Table IV",
        &ocasta_bench::table4::run(),
        include_str!("golden/table4.txt"),
    );
}
