//! Tier-1 VOPR gate: every fault scenario must pass on pinned seeds with
//! the verdict report its golden pins, the report must be
//! byte-deterministic, and every reproducer the `failing_seeds/` corpus
//! has ever recorded must replay clean forever.
//!
//! The goldens under `tests/golden/vopr/` are the release stdout of
//! `ocasta vopr --scenario <name> --seed <n>`, one file per pinned pair.
//! A diff there is a behaviour change. To regenerate after an intended
//! one: `ocasta vopr --scenario baseline --seed 7 >
//! tests/golden/vopr/baseline-7.txt`, and likewise for every scenario
//! of `ocasta vopr --list` under both pinned seeds.

use std::fs;
use std::path::Path;

use ocasta::{run_vopr, vopr_scenario_names};

/// The pinned seed pair every scenario runs under in tier-1 (and in the
/// CI smoke matrix, which diffs each verdict against its golden — keep
/// `.github/workflows/ci.yml` in sync).
const SEEDS: [u64; 2] = [7, 1042];

#[test]
fn every_scenario_passes_on_pinned_seeds() {
    let goldens = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/vopr");
    for scenario in vopr_scenario_names() {
        for seed in SEEDS {
            let outcome = run_vopr(scenario, seed)
                .unwrap_or_else(|e| panic!("{scenario} seed {seed} failed to run: {e}"));
            let report = outcome.report();
            assert!(
                outcome.passed(),
                "{scenario} seed {seed} violated an invariant:\n{report}"
            );
            assert!(
                outcome.checks.len() >= 4,
                "{scenario}: every scenario checks all four standing invariants"
            );
            let path = goldens.join(format!("{scenario}-{seed}.txt"));
            let golden =
                fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            assert_eq!(
                report,
                golden,
                "{scenario} seed {seed}: verdict report differs from {}",
                path.display()
            );
        }
    }
}

/// `tests/golden/vopr/` holds exactly one `<scenario>-<seed>.txt` per
/// listed scenario and pinned seed, and nothing else, so a renamed or
/// dropped scenario cannot leave an orphaned golden behind.
#[test]
fn golden_corpus_is_exactly_the_scenario_matrix() {
    let goldens = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/vopr");
    let mut found: Vec<String> = fs::read_dir(&goldens)
        .expect("tests/golden/vopr exists")
        .map(|e| {
            let name = e.expect("readable entry").file_name();
            name.into_string().expect("UTF-8 file name")
        })
        .collect();
    found.sort();
    let mut expected: Vec<String> = vopr_scenario_names()
        .iter()
        .flat_map(|scenario| SEEDS.map(|seed| format!("{scenario}-{seed}.txt")))
        .collect();
    expected.sort();
    assert_eq!(found, expected, "golden files vs scenario x seed matrix");
}

/// Same scenario + same seed ⇒ byte-identical verdict report. This is
/// the property that makes a `failing_seeds/` entry a *reproducer* rather
/// than an anecdote, so it is checked on a mix of feed-driven scenarios
/// (including the shuffling one) and real-threads engine scenarios.
#[test]
fn verdict_reports_are_byte_deterministic() {
    for scenario in [
        "baseline",
        "reorder-feed",
        "dead-shell-churn",
        "sweep-vs-pin",
        "pin-churn",
        "kill-ingest-worker",
        "killed-worker-amid-pin-churn",
    ] {
        let first = run_vopr(scenario, 7).unwrap().report();
        let second = run_vopr(scenario, 7).unwrap().report();
        assert_eq!(first, second, "{scenario}: reports must be byte-identical");
    }
}

/// Scans `failing_seeds/*.md` for `replay: vopr --scenario <name> --seed
/// <n>` lines and replays every one. Entries are never deleted, so every
/// bug the matrix ever flushed out stays pinned as a regression test.
#[test]
fn failing_seeds_corpus_replays_clean() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("failing_seeds");
    let mut replayed = 0usize;
    let mut entries: Vec<_> = fs::read_dir(&dir)
        .expect("failing_seeds/ exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| {
            p.extension().is_some_and(|x| x == "md")
                && p.file_name().is_some_and(|n| n != "README.md")
        })
        .collect();
    entries.sort();
    for path in entries {
        let text = fs::read_to_string(&path).expect("readable entry");
        for line in text.lines() {
            let Some(rest) = line.trim().strip_prefix("replay: vopr --scenario ") else {
                continue;
            };
            let mut parts = rest.split_whitespace();
            let scenario = parts.next().expect("scenario name");
            assert_eq!(
                parts.next(),
                Some("--seed"),
                "{}: malformed replay line",
                path.display()
            );
            let seed: u64 = parts
                .next()
                .and_then(|s| s.parse().ok())
                .unwrap_or_else(|| panic!("{}: bad seed", path.display()));
            let outcome =
                run_vopr(scenario, seed).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            assert!(
                outcome.passed(),
                "{} regressed:\n{}",
                path.display(),
                outcome.report()
            );
            replayed += 1;
        }
    }
    assert!(
        replayed >= 3,
        "the corpus pins at least the three PR 7 bugfix reproducers, found {replayed}"
    );
}
