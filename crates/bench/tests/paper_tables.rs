//! Every table and figure of the paper, pinned byte for byte.
//!
//! `tests/accuracy.rs` checks accuracy only within a tolerance; these
//! goldens also pin every per-application key and cluster count and every
//! case's cluster size, trials, time and screenshots (Tables II and IV),
//! the trace statistics (Table I), the error catalog (Table III), and
//! every point of Figures 2–4. All renders are deterministic (fixed
//! seeds, simulated time), so any change in the text is a change in
//! behaviour. To regenerate after an intended change:
//! `cargo run --release -p ocasta-bench --bin table2 > crates/bench/tests/golden/table2.txt`
//! (and likewise `table1`, `table3`, `table4`, `fig2`, `fig3` and `fig4`).
//! Figure 2 is the slowest render, about 20 s in a debug build.

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
fn table1_matches_its_golden() {
    assert_golden(
        "Table I",
        &ocasta_bench::table1::run(),
        include_str!("golden/table1.txt"),
    );
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

#[test]
fn table3_matches_its_golden() {
    assert_golden(
        "Table III",
        &ocasta_bench::table3::run(),
        include_str!("golden/table3.txt"),
    );
}

#[test]
fn fig2_matches_its_golden() {
    assert_golden(
        "Figure 2",
        &ocasta_bench::fig2::run(),
        include_str!("golden/fig2.txt"),
    );
}

#[test]
fn fig3_matches_its_golden() {
    assert_golden(
        "Figure 3",
        &ocasta_bench::fig3::run(),
        include_str!("golden/fig3.txt"),
    );
}

#[test]
fn fig4_matches_its_golden() {
    assert_golden(
        "Figure 4",
        &ocasta_bench::fig4::run(),
        include_str!("golden/fig4.txt"),
    );
}
