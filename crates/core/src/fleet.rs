//! Fleet-scale ingestion, wired to the evaluated application catalog.
//!
//! `ocasta-fleet` itself is application-agnostic: it ingests whatever
//! [`MachineSpec`]s it is given. This module builds those specs from the
//! paper's application models (`ocasta-apps`), runs a concurrent ingestion,
//! and optionally hands the merged store straight to clustering — the full
//! paper pipeline at deployment scale, in one call.

use ocasta_fleet::{
    ingest_live, FleetConfig, FleetMetrics, FleetReport, IngestOptions, KeyPlacement, MachineSpec,
    ShardedTtkv, Wal,
};
use ocasta_ttkv::Ttkv;

use crate::pipeline::{Clustering, Ocasta};

/// Configuration of one fleet run over the application catalog.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetRunConfig {
    /// Number of simulated machines (the paper deployed 29).
    pub machines: usize,
    /// Deployment length in days per machine.
    pub days: u64,
    /// Base RNG seed; machine `i` uses `seed + i`, wrapping past
    /// `u64::MAX`.
    pub seed: u64,
    /// Applications installed on every machine (names resolved through
    /// [`crate::model_by_name`]); empty means the full catalog.
    pub apps: Vec<String>,
    /// Engine knobs (shards, threads, batching, placement, precision).
    pub engine: FleetConfig,
    /// Directory for a write-ahead log, if durability is wanted.
    pub wal_dir: Option<std::path::PathBuf>,
}

impl Default for FleetRunConfig {
    fn default() -> Self {
        FleetRunConfig {
            machines: 29,
            days: 30,
            seed: 0,
            apps: Vec::new(),
            engine: FleetConfig::default(),
            wal_dir: None,
        }
    }
}

/// The outcome of a fleet run.
#[derive(Debug)]
pub struct FleetRun {
    /// The merged, consistent store.
    pub store: Ttkv,
    /// Ingestion throughput report.
    pub report: FleetReport,
}

impl FleetRun {
    /// Clusters the merged store with the default engine parameters.
    pub fn cluster(&self) -> Clustering {
        Ocasta::default().cluster_store(&self.store)
    }
}

/// Builds the fleet's machine specs from the application catalog.
///
/// # Errors
///
/// Returns an error naming the first unknown application.
pub fn fleet_machines(config: &FleetRunConfig) -> Result<Vec<MachineSpec>, String> {
    let specs: Vec<_> = if config.apps.is_empty() {
        crate::all_models().into_iter().map(|m| m.spec).collect()
    } else {
        let mut specs = Vec::with_capacity(config.apps.len());
        for name in &config.apps {
            let model = crate::model_by_name(name)
                .ok_or_else(|| format!("unknown application `{name}`"))?;
            specs.push(model.spec);
        }
        specs
    };
    Ok((0..config.machines)
        .map(|i| {
            MachineSpec::new(
                format!("m{i:03}"),
                config.days,
                config.seed.wrapping_add(i as u64),
                specs.clone(),
            )
        })
        .collect())
}

/// Runs a concurrent fleet ingestion per `config` into a store sized from
/// `config.engine` (shards, seal threshold), then merges the shards.
///
/// `metrics`, when set, records throughput, stripe-lock waits, WAL timings
/// and sweep stalls into lock-free [`ocasta_obs`](ocasta_fleet::FleetMetrics)
/// primitives; it is purely observational — the run's output is
/// byte-identical with and without it.
///
/// # Errors
///
/// Unknown application names, or WAL failures when `wal_dir` is set.
pub fn run_fleet(
    config: &FleetRunConfig,
    metrics: Option<&FleetMetrics>,
) -> Result<FleetRun, String> {
    let machines = fleet_machines(config)?;
    let mut wal = match &config.wal_dir {
        Some(dir) => Some(Wal::open(dir).map_err(|e| e.to_string())?),
        None => None,
    };
    let options = IngestOptions {
        wal: wal.as_mut(),
        metrics,
        ..IngestOptions::default()
    };
    let sharded =
        ShardedTtkv::with_seal_threshold(config.engine.shards, config.engine.seal_threshold);
    let report =
        ingest_live(&machines, &config.engine, &sharded, options).map_err(|e| e.to_string())?;
    Ok(FleetRun {
        store: sharded.into_ttkv(),
        report,
    })
}

/// `KeyPlacement` parsed from a CLI word.
pub fn parse_placement(text: &str) -> Result<KeyPlacement, String> {
    match text {
        "merged" => Ok(KeyPlacement::Merged),
        "per-machine" => Ok(KeyPlacement::PerMachine),
        other => Err(format!(
            "placement must be `merged` or `per-machine`, got `{other}`"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocasta_ttkv::TimePrecision;

    fn small_config() -> FleetRunConfig {
        FleetRunConfig {
            machines: 4,
            days: 6,
            seed: 3,
            apps: vec!["gedit".into(), "evolution".into()],
            engine: FleetConfig {
                shards: 4,
                ingest_threads: 2,
                batch_size: 64,
                ..FleetConfig::default()
            },
            wal_dir: None,
        }
    }

    #[test]
    fn run_fleet_ingests_and_clusters() {
        let run = run_fleet(&small_config(), None).unwrap();
        assert_eq!(run.report.machines, 4);
        assert!(run.report.mutations > 0);
        assert_eq!(
            run.store.stats().writes + run.store.stats().deletes,
            run.report.mutations
        );
        let clustering = run.cluster();
        assert!(!clustering.is_empty());
    }

    #[test]
    fn unknown_apps_are_rejected() {
        let mut config = small_config();
        config.apps = vec!["clippy2000".into()];
        assert!(run_fleet(&config, None).unwrap_err().contains("clippy2000"));
    }

    #[test]
    fn empty_app_list_means_whole_catalog() {
        let config = FleetRunConfig {
            machines: 1,
            days: 2,
            apps: Vec::new(),
            ..small_config()
        };
        let machines = fleet_machines(&config).unwrap();
        assert_eq!(machines[0].specs.len(), crate::all_models().len());
    }

    /// One fixed fleet (29 machines x 40 days of gedit, evolution and
    /// chrome, seed 77) ingested at every (threads, shards) pair of a
    /// small configuration sweep lands the same number of mutations.
    #[test]
    fn sweep_is_consistent_across_configurations() {
        let machines = fleet_machines(&FleetRunConfig {
            machines: 29,
            days: 40,
            seed: 77,
            apps: vec!["gedit".into(), "evolution".into(), "chrome".into()],
            ..FleetRunConfig::default()
        })
        .unwrap();
        let mut mutations = Vec::new();
        for shards in [1, 8] {
            for ingest_threads in [1, 2] {
                let config = FleetConfig {
                    shards,
                    ingest_threads,
                    batch_size: 512,
                    precision: TimePrecision::Seconds,
                    placement: KeyPlacement::Merged,
                    retention: None,
                    ..FleetConfig::default()
                };
                let sharded = ShardedTtkv::new(shards);
                let report =
                    ingest_live(&machines, &config, &sharded, IngestOptions::default()).unwrap();
                mutations.push(report.mutations);
            }
        }
        assert!(mutations[0] > 0);
        assert!(
            mutations.iter().all(|&m| m == mutations[0]),
            "same fleet => same mutation count: {mutations:?}"
        );
    }

    /// Machine `i`'s seed wraps past `u64::MAX` instead of overflowing.
    #[test]
    fn machine_seeds_wrap_past_the_largest_seed() {
        let machines = fleet_machines(&FleetRunConfig {
            machines: 2,
            days: 1,
            seed: u64::MAX,
            apps: vec!["gedit".into()],
            ..FleetRunConfig::default()
        })
        .unwrap();
        let seeds: Vec<u64> = machines.iter().map(|machine| machine.seed).collect();
        assert_eq!(seeds, [u64::MAX, 0]);
    }

    #[test]
    fn placement_parsing() {
        assert_eq!(parse_placement("merged").unwrap(), KeyPlacement::Merged);
        assert_eq!(
            parse_placement("per-machine").unwrap(),
            KeyPlacement::PerMachine
        );
        assert!(parse_placement("sideways").is_err());
    }
}
