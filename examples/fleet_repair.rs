//! The full Ocasta loop at fleet scale: ingest a simulated fleet
//! concurrently, pin a cluster catalog from the live stream and a history
//! snapshot from the live sharded store *while ingestion is still
//! running*, then repair users' configuration errors with the parallel
//! rollback search — sessions and ingestion proceeding side by side.
//!
//! Run with: `cargo run --example fleet_repair --release`

use ocasta::fleet::{fleet_machines, FleetRunConfig};
use ocasta::{
    fleet_ingest_live, scenarios, FleetConfig, IngestOptions, Ocasta, OcastaStream, RepairSession,
    SearchConfig, ShardedTtkv, TimeDelta, Timestamp, WriteLanes,
};

fn main() {
    // 1. The fleet: 6 machines running the apps our two broken users use.
    let config = FleetRunConfig {
        machines: 6,
        days: 12,
        seed: 21,
        apps: vec!["chrome".into(), "acrobat".into()],
        engine: FleetConfig {
            shards: 8,
            ingest_threads: 2,
            batch_size: 128,
            ..FleetConfig::default()
        },
        ..FleetRunConfig::default()
    };
    let machines = fleet_machines(&config).expect("catalog apps resolve");

    // 2. The live tiers: a caller-owned sharded store (stays readable while
    //    ingestion appends) and the streaming clustering fed by the tap.
    let sharded = ShardedTtkv::new(config.engine.shards);
    let lanes = WriteLanes::new(config.engine.shards);
    let engine = Ocasta::default();
    let mut stream = OcastaStream::new(&engine);

    // Two users hit two Table III errors (Chrome's missing bookmark bar,
    // Acrobat's vanished menu bar).
    let all = scenarios();
    let broken = [
        all.iter()
            .find(|s| s.id == 13)
            .expect("scenario 13")
            .clone(),
        all.iter()
            .find(|s| s.id == 15)
            .expect("scenario 15")
            .clone(),
    ];

    std::thread::scope(|scope| {
        // 3. Ingestion runs in the background for the whole example.
        let ingest = scope.spawn(|| {
            let options = IngestOptions {
                tap: Some(&lanes),
                ..IngestOptions::default()
            };
            fleet_ingest_live(&machines, &config.engine, &sharded, options)
                .expect("no WAL lane, no fault plan")
        });

        // 4. Wait until the stream has seen enough of the fleet, then PIN:
        //    catalog first (so its horizon is a lower bound), snapshot
        //    second. Ingestion does not stop.
        loop {
            stream.drain_lanes(&lanes);
            let finished = ingest.is_finished();
            if stream.horizon().events >= 2_000 || finished {
                if finished {
                    stream.drain_lanes(&lanes); // absorb the tail
                }
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let live = stream.clustering();
        let snapshot = sharded.snapshot_store();
        // Sampled *after* the snapshot: if ingestion is still running now,
        // the pinned history is certainly a mid-ingest prefix.
        let pinned_mid_ingest = !ingest.is_finished();
        println!(
            "pinned: catalog at epoch {} ({} events), snapshot of {} writes, ingest running: {}",
            live.horizon.epoch,
            live.horizon.events,
            snapshot.stats().writes,
            pinned_mid_ingest,
        );

        // 5. Each user's session: inject their error into their own copy of
        //    the pinned snapshot, guarantee the offending keys are
        //    searchable (singleton fallback for keys the young stream may
        //    not have clustered yet), and run the parallel rollback search.
        let reports: Vec<_> = broken
            .iter()
            .enumerate()
            .map(|(user, scenario)| {
                let mut catalog = live.catalog();
                for key in scenario.offending_keys() {
                    catalog.ensure_singleton(&key);
                }
                let mut store = snapshot.clone();
                let end = store.last_mutation_time().unwrap_or(Timestamp::EPOCH);
                scenario.inject(
                    &mut store,
                    end + TimeDelta::from_mins(5 * (user as u64 + 1)),
                );
                let session = RepairSession::new(
                    format!("user{user}"),
                    store,
                    catalog,
                    SearchConfig {
                        trial_cost: scenario.trial_cost,
                        ..SearchConfig::default()
                    },
                )
                .with_threads(2);
                let scenario = scenario.clone();
                scope.spawn(move || {
                    let report = session.run(&scenario.trial(), &scenario.oracle());
                    (scenario, report)
                })
            })
            // Collect the handles *first* so every session is running
            // before any is joined (a lazy spawn->join chain would run
            // them one after another).
            .collect::<Vec<_>>()
            .into_iter()
            .map(|handle| handle.join().expect("session panicked"))
            .collect();

        for (scenario, report) in &reports {
            println!(
                "{}: error #{} ({}) fixed={} in {} of {} trials, {} screenshots, \
                 pinned epoch {}",
                report.user,
                scenario.id,
                scenario.description,
                report.is_fixed(),
                report.outcome.trials_to_fix.unwrap_or(0),
                report.outcome.total_trials,
                report.outcome.screenshots_to_fix,
                report.horizon.epoch,
            );
            assert!(report.is_fixed(), "rollback search must clear the symptom");
        }

        // 6. Ingestion ran underneath the whole time; let it finish.
        let ingest_report = ingest.join().expect("ingest thread panicked");
        println!("ingested: {ingest_report}");
        let final_store = sharded.snapshot_store();
        println!(
            "fleet store grew to {} writes while sessions repaired against their pins",
            final_store.stats().writes,
        );
    });
}
