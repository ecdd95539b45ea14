//! Failure injection: malformed inputs, degenerate histories and clock
//! anomalies must degrade gracefully, never panic.

use ocasta::{
    search, singleton_clusters, FixOracle, Ocasta, Screenshot, SearchConfig, Timestamp, Trace,
    Trial, Ttkv, TtkvError, Value,
};

#[test]
fn corrupted_trace_files_are_rejected_with_positions() {
    let mut trace = Trace::new("t", 1);
    trace.push(ocasta::AccessEvent::write(
        Timestamp::from_secs(1),
        "a/k",
        1,
    ));
    let good = trace.save_to_string();

    // Flip individual lines into garbage: every corruption must surface as
    // a parse error naming the right line, not a panic or silent skip.
    for (lineno, line) in good.lines().enumerate() {
        let mut corrupted: Vec<String> = good.lines().map(str::to_owned).collect();
        corrupted[lineno] = format!("@@corrupt@@ {line}");
        let text = corrupted.join("\n");
        match Trace::load_from_str(&text) {
            Err(TtkvError::Parse { line, .. }) => assert_eq!(line, lineno + 1),
            other => panic!("line {lineno}: expected parse error, got {other:?}"),
        }
    }
}

#[test]
fn truncated_ttkv_files_are_rejected() {
    let mut store = Ttkv::new();
    store.write(
        Timestamp::from_secs(1),
        "k",
        Value::List(vec![Value::from(1), Value::from(2)]),
    );
    let mut bytes = Vec::new();
    store.save(&mut bytes).unwrap();
    // Chop bytes off the end: every strict prefix of a segment is a
    // structured error — never a panic, never a partial store.
    for cut in 0..bytes.len() {
        match Ttkv::load(&bytes[..cut]) {
            Err(TtkvError::Corrupt { .. }) => {}
            other => panic!("cut {cut}: expected a corrupt segment, got {other:?}"),
        }
    }
}

#[test]
fn out_of_order_events_replay_consistently() {
    let mut trace = Trace::new("skew", 1);
    // A merged multi-machine trace with interleaved, unsorted timestamps.
    for (t, v) in [(50u64, 5i64), (10, 1), (30, 3), (20, 2), (40, 4)] {
        trace.push(ocasta::AccessEvent::write(
            Timestamp::from_secs(t),
            "a/k",
            v,
        ));
    }
    let store = trace.replay(ocasta::TimePrecision::Seconds);
    for (t, v) in [(10u64, 1i64), (20, 2), (30, 3), (40, 4), (50, 5)] {
        assert_eq!(
            store.value_at("a/k", Timestamp::from_secs(t)),
            Some(&Value::from(v))
        );
    }
}

#[test]
fn clustering_empty_and_read_only_stores() {
    let engine = Ocasta::default();
    assert!(engine.cluster_store(&Ttkv::new()).is_empty());

    let mut read_only = Ttkv::new();
    read_only.read("a");
    read_only.read("b");
    let clustering = engine.cluster_store(&read_only);
    assert!(clustering.is_empty(), "never-modified keys are excluded");
}

#[test]
fn search_with_no_versions_reports_unfixed() {
    let store = Ttkv::new();
    let trial = Trial::new("noop", |_| Screenshot::new());
    let outcome = search(
        &store,
        &singleton_clusters(&store),
        &trial,
        &FixOracle::new(|_| true),
        &SearchConfig::default(),
    );
    assert!(!outcome.is_fixed());
    assert_eq!(outcome.total_trials, 0);
    assert_eq!(outcome.total_screenshots, 0);
}

#[test]
fn search_bounds_outside_history_are_harmless() {
    let mut store = Ttkv::new();
    store.write(Timestamp::from_secs(100), "a/k", Value::from(true));
    store.write(Timestamp::from_secs(200), "a/k", Value::from(false));
    let trial = Trial::new("probe", |config| {
        let mut shot = Screenshot::new();
        shot.add_if(config.get_bool("a/k").unwrap_or(false), "on");
        shot
    });
    // Start bound after the whole history: nothing to search.
    let config = SearchConfig {
        start_time: Some(Timestamp::from_days(99)),
        ..SearchConfig::default()
    };
    let outcome = search(
        &store,
        &singleton_clusters(&store),
        &trial,
        &FixOracle::element_visible("on"),
        &config,
    );
    assert_eq!(outcome.total_trials, 0);
    // End bound before the whole history: likewise.
    let config = SearchConfig {
        end_time: Some(Timestamp::from_secs(1)),
        ..SearchConfig::default()
    };
    let outcome = search(
        &store,
        &singleton_clusters(&store),
        &trial,
        &FixOracle::element_visible("on"),
        &config,
    );
    assert_eq!(outcome.total_trials, 0);
}

#[test]
fn deletion_only_history_is_searchable() {
    // A key whose entire recorded history is tombstones (e.g. an app that
    // cleared a setting repeatedly): rollback patches must not panic and
    // the search must simply fail to fix.
    let mut store = Ttkv::new();
    store.delete(Timestamp::from_secs(10), "a/ghost");
    store.delete(Timestamp::from_secs(99), "a/ghost");
    let trial = Trial::new("probe", |config| {
        let mut shot = Screenshot::new();
        shot.add_if(config.contains("a/ghost"), "ghost");
        shot
    });
    let outcome = search(
        &store,
        &singleton_clusters(&store),
        &trial,
        &FixOracle::element_visible("ghost"),
        &SearchConfig::default(),
    );
    assert!(!outcome.is_fixed());
    assert!(outcome.total_trials >= 1);
}

#[test]
fn parser_garbage_does_not_panic() {
    for garbage in [
        "",
        "\u{0}\u{1}\u{2}",
        "{{{{{{",
        "<a><b></b>",
        "[=",
        "((((",
        "/ / /",
        &"x".repeat(10_000),
    ] {
        for format in ocasta::Format::ALL {
            let _ = ocasta::parse(format, garbage);
        }
        let _ = ocasta::detect_format(garbage);
    }
}
