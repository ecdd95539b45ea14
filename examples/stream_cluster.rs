//! Streaming clustering end to end: ingest a simulated fleet concurrently
//! while serving live clusterings from the event stream — no stop-the-world
//! rescan — then prove the final answer equals the batch pipeline's.
//!
//! Run with: `cargo run --example stream_cluster --release`

use ocasta::fleet::{fleet_machines, FleetRunConfig};
use ocasta::{
    fleet_ingest_live, FleetConfig, IngestOptions, Ocasta, OcastaStream, ShardedTtkv, WriteLanes,
};

fn main() {
    // 1. Describe the fleet: 6 machines, 15 days, three desktop apps each.
    let config = FleetRunConfig {
        machines: 6,
        days: 15,
        seed: 7,
        apps: vec!["gedit".into(), "evolution".into(), "chrome".into()],
        engine: FleetConfig {
            shards: 8,
            ingest_threads: 4,
            batch_size: 128,
            ..FleetConfig::default()
        },
        ..FleetRunConfig::default()
    };
    let machines = fleet_machines(&config).expect("catalog apps resolve");

    // 2. Attach analytics lanes to the ingestion engine: every accepted
    //    batch also lands, outside the shard locks, in a per-shard lane.
    let sharded = ShardedTtkv::new(config.engine.shards);
    let lanes = WriteLanes::new(config.engine.shards);
    let engine = Ocasta::default();
    let mut stream = OcastaStream::new(&engine);

    // 3. Ingest on a background thread; serve clusterings *while it runs*
    //    by draining the lanes into the incremental correlation state.
    let report = std::thread::scope(|scope| {
        let handle = scope.spawn(|| {
            let options = IngestOptions {
                tap: Some(&lanes),
                ..IngestOptions::default()
            };
            fleet_ingest_live(&machines, &config.engine, &sharded, options)
                .expect("no WAL lane, no fault plan")
        });
        loop {
            let finished = handle.is_finished();
            if stream.drain_lanes(&lanes) > 0 {
                let live = stream.clustering();
                let stats = live.clustering.stats();
                println!(
                    "live: epoch {:>2}  {:>6} events  {:>4} clusters ({} multi)",
                    live.horizon.epoch, live.horizon.events, stats.clusters, stats.multi_clusters,
                );
            }
            if finished {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        handle.join().expect("ingest thread panicked")
    });
    println!("ingested: {report}");

    // 4. Seal the stream (nothing older can arrive) and serve the final
    //    clustering, stamped with the horizon it reflects.
    stream.seal();
    let live = stream.clustering();
    let stats = live.clustering.stats();
    println!(
        "final:    epoch {}, {} events @ watermark {}ms",
        live.horizon.epoch, live.horizon.events, live.horizon.watermark_ms,
    );
    println!(
        "clusters: {} total, {} multi-setting, mean multi size {:.2}",
        stats.clusters,
        stats.multi_clusters,
        stats.mean_multi_cluster_size(),
    );
    for cluster in live.clustering.multi_clusters().take(5) {
        let names: Vec<&str> = cluster.iter().map(|k| k.as_str()).collect();
        println!("  e.g. {}", names.join(" + "));
    }

    // 5. The invariant that makes this safe to ship: the streamed answer
    //    *is* the batch answer over the recorded store. Exactly.
    let store = sharded.into_ttkv();
    let batch = engine.cluster_store(&store);
    assert_eq!(live.clustering, batch, "streaming == batch");
    println!("verified: streaming == batch over {} keys", store.len());
}
