//! An injected worker kill is a quiet unwind: the run still reports
//! `IngestError::WorkerPanicked` for the machine, but the panic hook never
//! runs, so nothing reaches stderr.
//!
//! This is its own test binary because it replaces the process-wide panic
//! hook, which would otherwise count panics from unrelated tests running
//! on other threads.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use ocasta_fleet::{
    ingest_live, FaultPlan, FleetConfig, IngestError, IngestOptions, MachineSpec, ShardedTtkv,
};
use ocasta_trace::WorkloadSpec;

#[test]
fn an_injected_worker_kill_runs_no_panic_hook() {
    let hook_calls = Arc::new(AtomicUsize::new(0));
    let seen = Arc::clone(&hook_calls);
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        let text = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("");
        if text.contains("fault injection") {
            seen.fetch_add(1, Ordering::SeqCst);
        }
    }));

    let machines: Vec<MachineSpec> = (0..3)
        .map(|i| MachineSpec::new(format!("m{i}"), 2, 7 + i, vec![WorkloadSpec::new("app")]))
        .collect();
    let config = FleetConfig {
        shards: 2,
        ingest_threads: 2,
        ..FleetConfig::default()
    };
    let faults = FaultPlan {
        kill_worker_at_machine: Some(1),
        ..FaultPlan::default()
    };
    let result = ingest_live(
        &machines,
        &config,
        &ShardedTtkv::new(config.shards),
        IngestOptions {
            faults: Some(&faults),
            ..IngestOptions::default()
        },
    );
    let _ = std::panic::take_hook();

    match result {
        Err(IngestError::WorkerPanicked {
            machine: Some(name),
            message,
        }) => {
            assert_eq!(name, "m1");
            assert_eq!(message, "fault injection: worker killed at machine index 1");
        }
        other => panic!("expected the injected kill, got {other:?}"),
    }
    assert_eq!(
        hook_calls.load(Ordering::SeqCst),
        0,
        "the kill ran the panic hook"
    );
}
