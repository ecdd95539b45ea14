//! End-to-end pipeline integration: workload generation → trace files →
//! TTKV replay → clustering → ground-truth recovery.

use ocasta::{
    generate, model_by_name, GeneratorConfig, Key, Ocasta, TimePrecision, Timestamp, Trace, Ttkv,
    Value,
};

#[test]
fn generated_trace_roundtrips_through_file_format() {
    let model = model_by_name("evolution").unwrap();
    let mut trace = model.generate_trace(20, 5);
    let text = trace.save_to_string();
    let mut loaded = Trace::load_from_str(&text).unwrap();
    assert_eq!(trace.name(), loaded.name());
    assert_eq!(trace.days(), loaded.days());
    assert_eq!(trace.events(), loaded.events());
    assert_eq!(trace.read_counts(), loaded.read_counts());
    // And the replayed stores agree exactly.
    assert_eq!(
        trace.replay(TimePrecision::Seconds),
        loaded.replay(TimePrecision::Seconds)
    );
}

#[test]
fn ttkv_roundtrips_after_replay() {
    let model = model_by_name("gedit").unwrap();
    let store = model.generate_trace(30, 9).replay(TimePrecision::Seconds);
    let mut bytes = Vec::new();
    store.save(&mut bytes).unwrap();
    let loaded = Ttkv::load(bytes.as_slice()).unwrap();
    assert_eq!(store, loaded);
}

#[test]
fn clustering_recovers_planted_groups() {
    // Evolution's three error-scenario pairs are always written together;
    // the pipeline must recover each of them as one cluster.
    let model = model_by_name("evolution").unwrap();
    let store = model
        .generate_trace(45, 1001)
        .replay(TimePrecision::Seconds);
    let clustering = Ocasta::default().cluster_store(&store);
    for (a, b) in [
        (
            "evolution/offline/start_offline",
            "evolution/offline/sync_folders",
        ),
        (
            "evolution/mail/mark_seen",
            "evolution/mail/mark_seen_timeout",
        ),
        (
            "evolution/composer/reply_start",
            "evolution/composer/signature_top",
        ),
    ] {
        let cluster = clustering
            .cluster_of(a)
            .unwrap_or_else(|| panic!("{a} clustered"));
        assert!(
            cluster.iter().any(|k| k.as_str() == b),
            "{a} and {b} should share a cluster; got {cluster:?}"
        );
        assert_eq!(cluster.len(), 2, "{a}'s cluster should be exactly the pair");
    }
}

#[test]
fn coupled_dialogs_produce_oversized_clusters() {
    // gedit's two unrelated settings are flushed together by its dialog;
    // black-box clustering cannot tell and must merge them (the paper's
    // oversized-cluster failure mode).
    let model = model_by_name("gedit").unwrap();
    let store = model
        .generate_trace(45, 1005)
        .replay(TimePrecision::Seconds);
    let clustering = Ocasta::default().cluster_store(&store);
    let cluster = clustering
        .cluster_of("gedit/view/wrap_mode")
        .expect("wrap_mode was modified");
    assert_eq!(cluster.len(), 2);
    assert!(cluster
        .iter()
        .any(|k| k.as_str() == "gedit/editor/tab_width"));
    assert!(
        !model.cluster_is_correct(cluster),
        "the merged pair is not truly related"
    );
}

#[test]
fn multi_machine_merge_aggregates_per_user() {
    // The paper merges the same user's traces from several lab machines.
    let model = model_by_name("eog").unwrap();
    let store_a = model.generate_trace(10, 1).replay(TimePrecision::Seconds);
    let store_b = model.generate_trace(10, 2).replay(TimePrecision::Seconds);
    let mut merged = store_a.clone();
    merged.merge(&store_b);
    let sa = store_a.stats();
    let sb = store_b.stats();
    let sm = merged.stats();
    assert_eq!(sm.writes, sa.writes + sb.writes);
    assert_eq!(sm.reads, sa.reads + sb.reads);
    assert!(sm.keys >= sa.keys.max(sb.keys));
}

#[test]
fn cluster_app_matches_full_store_for_single_app_traces() {
    let model = model_by_name("chrome").unwrap();
    let store = model.generate_trace(40, 77).replay(TimePrecision::Seconds);
    let engine = Ocasta::default();
    let whole = engine.cluster_store(&store);
    let scoped = engine.cluster_app(&store, &Key::new("chrome"));
    assert_eq!(whole.clusters(), scoped.clusters());
}

#[test]
fn cluster_app_matches_full_store_on_pruned_stores() {
    // `app/old`'s whole history falls before the horizon: a retention
    // sweep leaves its record but no mutation, so neither query may
    // cluster it, not even as a singleton.
    let mut store = Ttkv::new();
    store.write(Timestamp::from_secs(1), "app/old", Value::from(1));
    store.write(Timestamp::from_secs(100), "app/a", Value::from(1));
    store.write(Timestamp::from_secs(100), "app/b", Value::from(2));
    store.prune_before(Timestamp::from_secs(50));
    let engine = Ocasta::default();
    let whole = engine.cluster_store(&store);
    let scoped = engine.cluster_app(&store, &Key::new("app"));
    assert_eq!(
        whole.clusters(),
        [vec![Key::new("app/a"), Key::new("app/b")]]
    );
    assert_eq!(whole.clusters(), scoped.clusters());
    assert!(scoped.cluster_of("app/old").is_none());
}

#[test]
fn trace_generator_is_deterministic_across_calls() {
    let model = model_by_name("wmp").unwrap();
    let config = GeneratorConfig::new("det", 25, 4);
    let a = generate(&config, std::slice::from_ref(&model.spec));
    let b = generate(&config, std::slice::from_ref(&model.spec));
    assert_eq!(a, b);
}
