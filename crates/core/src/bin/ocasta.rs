//! `ocasta` — command-line front end for the Ocasta reproduction.
//!
//! ```text
//! ocasta generate --app <name>... --days <n> [--seed <n>] -o trace.txt
//! ocasta stats    <trace.txt>
//! ocasta replay   <trace.txt> -o store.ttkv
//! ocasta clusters <store.ttkv> [--window <secs>] [--threshold <corr>] [--app <prefix>] [--multi-only]
//! ocasta history  <store.ttkv> <key>
//! ocasta fleet    --machines <n> --days <n> [--threads <n>] [--shards <n>]
//!                 [--batch <n>] [--app <name>...]
//!                 [--placement merged|per-machine] [--retain-days <n>]
//!                 [--wal <dir>] [--cluster] [--metrics-json <path>]
//!                 [-o store.ttkv]
//! ocasta stream   --machines <n> --days <n> [--seed <n>] [--threads <n>]
//!                 [--shards <n>] [--batch <n>] [--app <name>...]
//!                 [--window <secs>] [--threshold <corr>] [--poll-ms <n>]
//!                 [--retain-days <n>] [--metrics-json <path>] [--verify]
//! ocasta repair   --machines <n> --days <n> [--seed <n>] [--threads <n>]
//!                 [--shards <n>] [--batch <n>] [--app <name>...]
//!                 [--users <n>] [--search-threads <n>] [--scenario <id>...]
//!                 [--window <secs>] [--threshold <corr>] [--min-events <n>]
//!                 [--start-bound-days <n>] [--strategy dfs|bfs]
//!                 [--retain-days <n>] [--metrics-json <path>]
//! ocasta doctor   <wal-dir>
//! ocasta vopr     --scenario <name> [--seed <n>] | --list
//! ocasta lint     [--root <dir>] [--json]
//! ```
//!
//! Argument parsing is hand-rolled (the workspace deliberately keeps its
//! dependency set minimal); see [`Command::parse`].

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::process::ExitCode;
use std::sync::Arc;

use ocasta::fleet::{fleet_machines, parse_placement, run_fleet_observed, FleetRunConfig};
use ocasta::{
    diagnose, fleet_ingest_observed, generate, model_by_name, run_repair_service_observed,
    run_vopr, vopr_scenario_names, ClusterParams, FleetMetrics, GeneratorConfig, IngestOptions,
    Key, Ocasta, OcastaStream, Registry, RepairServiceConfig, RetentionPolicy, SearchStrategy,
    ServiceMetrics, ServiceObservers, StreamMetrics, TimePrecision, Trace, Ttkv, TtkvStats,
    WriteLanes,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match Command::parse(&args) {
        Ok(command) => command,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match command.run() {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
usage:
  ocasta generate --app <name>... --days <n> [--seed <n>] -o <trace.txt>
  ocasta stats    <trace.txt>
  ocasta replay   <trace.txt> -o <store.ttkv>
  ocasta export   <store.ttkv> -o <store.txt>
  ocasta clusters <store.ttkv> [--window <secs>] [--threshold <corr>]
                  [--app <prefix>] [--multi-only]
  ocasta history  <store.ttkv> <key>
  ocasta fleet    --machines <n> --days <n> [--seed <n>] [--threads <n>]
                  [--shards <n>] [--batch <n>] [--app <name>...]
                  [--placement merged|per-machine] [--retain-days <n>]
                  [--wal <dir>] [--cluster] [--metrics-json <path>]
                  [-o <store.ttkv>]
  ocasta stream   --machines <n> --days <n> [--seed <n>] [--threads <n>]
                  [--shards <n>] [--batch <n>] [--app <name>...]
                  [--window <secs>] [--threshold <corr>] [--poll-ms <n>]
                  [--retain-days <n>] [--metrics-json <path>] [--verify]
  ocasta repair   --machines <n> --days <n> [--seed <n>] [--threads <n>]
                  [--shards <n>] [--batch <n>] [--app <name>...]
                  [--users <n>] [--search-threads <n>] [--scenario <id>...]
                  [--window <secs>] [--threshold <corr>] [--min-events <n>]
                  [--start-bound-days <n>] [--strategy dfs|bfs]
                  [--retain-days <n>] [--metrics-json <path>]
  ocasta doctor   <wal-dir>
  ocasta vopr     --scenario <name> [--seed <n>] | --list
  ocasta lint     [--root <dir>] [--json]

applications for `generate`, `fleet`, `stream` and `repair`: outlook
evolution ie chrome word gedit eog paint acrobat explorer wmp";

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
enum Command {
    Generate {
        apps: Vec<String>,
        days: u64,
        seed: u64,
        output: String,
    },
    Stats {
        trace: String,
    },
    Replay {
        trace: String,
        output: String,
    },
    Export {
        store: String,
        output: String,
    },
    Clusters {
        store: String,
        window_secs: u64,
        threshold: f64,
        app: Option<String>,
        multi_only: bool,
    },
    History {
        store: String,
        key: String,
    },
    Fleet {
        config: FleetRunConfig,
        cluster: bool,
        output: Option<String>,
        metrics_json: Option<String>,
    },
    Stream {
        config: FleetRunConfig,
        window_secs: u64,
        threshold: f64,
        poll_ms: u64,
        verify: bool,
        metrics_json: Option<String>,
    },
    Repair {
        config: RepairServiceConfig,
        metrics_json: Option<String>,
    },
    Doctor {
        dir: String,
    },
    Vopr {
        scenario: Option<String>,
        seed: u64,
        list: bool,
    },
    Lint {
        root: Option<String>,
        json: bool,
    },
}

impl Command {
    /// Parses the argument vector (without the program name).
    fn parse(args: &[String]) -> Result<Command, String> {
        let mut it = args.iter().map(String::as_str);
        let verb = it.next().ok_or("missing subcommand")?;
        let rest: Vec<&str> = it.collect();
        match verb {
            "generate" => {
                let mut apps = Vec::new();
                let mut days = None;
                let mut seed = 0u64;
                let mut output = None;
                let mut i = 0;
                while i < rest.len() {
                    match rest[i] {
                        "--app" => {
                            apps.push(value_of(&rest, &mut i)?.to_owned());
                        }
                        "--days" => days = Some(parse_days("--days", value_of(&rest, &mut i)?)?),
                        "--seed" => seed = parse_num(value_of(&rest, &mut i)?)?,
                        "-o" | "--output" => output = Some(value_of(&rest, &mut i)?.to_owned()),
                        other => return Err(format!("unknown argument `{other}`")),
                    }
                    i += 1;
                }
                if apps.is_empty() {
                    return Err("generate needs at least one --app".into());
                }
                Ok(Command::Generate {
                    apps,
                    days: days.ok_or("generate needs --days")?,
                    seed,
                    output: output.ok_or("generate needs -o <trace.txt>")?,
                })
            }
            "stats" => match rest.as_slice() {
                [trace] => Ok(Command::Stats {
                    trace: (*trace).to_owned(),
                }),
                _ => Err("stats takes exactly one trace file".into()),
            },
            "replay" => {
                let mut trace = None;
                let mut output = None;
                let mut i = 0;
                while i < rest.len() {
                    match rest[i] {
                        "-o" | "--output" => output = Some(value_of(&rest, &mut i)?.to_owned()),
                        other if trace.is_none() => trace = Some(other.to_owned()),
                        other => return Err(format!("unexpected argument `{other}`")),
                    }
                    i += 1;
                }
                Ok(Command::Replay {
                    trace: trace.ok_or("replay needs a trace file")?,
                    output: output.ok_or("replay needs -o <store.ttkv>")?,
                })
            }
            "export" => {
                let mut store = None;
                let mut output = None;
                let mut i = 0;
                while i < rest.len() {
                    match rest[i] {
                        "-o" | "--output" => output = Some(value_of(&rest, &mut i)?.to_owned()),
                        other if store.is_none() => store = Some(other.to_owned()),
                        other => return Err(format!("unexpected argument `{other}`")),
                    }
                    i += 1;
                }
                Ok(Command::Export {
                    store: store.ok_or("export needs a store file")?,
                    output: output.ok_or("export needs -o <store.txt>")?,
                })
            }
            "clusters" => {
                let mut store = None;
                let mut window_secs = 1u64;
                let mut threshold = 2.0f64;
                let mut app = None;
                let mut multi_only = false;
                let mut i = 0;
                while i < rest.len() {
                    match rest[i] {
                        "--window" => window_secs = parse_num(value_of(&rest, &mut i)?)?,
                        "--threshold" => {
                            threshold = value_of(&rest, &mut i)?
                                .parse()
                                .map_err(|e| format!("bad threshold: {e}"))?
                        }
                        "--app" => app = Some(value_of(&rest, &mut i)?.to_owned()),
                        "--multi-only" => multi_only = true,
                        other if store.is_none() => store = Some(other.to_owned()),
                        other => return Err(format!("unexpected argument `{other}`")),
                    }
                    i += 1;
                }
                if !(threshold > 0.0 && threshold <= 2.0) {
                    return Err(format!("threshold must be in (0, 2], got {threshold}"));
                }
                Ok(Command::Clusters {
                    store: store.ok_or("clusters needs a store file")?,
                    window_secs,
                    threshold,
                    app,
                    multi_only,
                })
            }
            "fleet" => {
                let mut config = FleetRunConfig::default();
                let mut cluster = false;
                let mut output = None;
                let mut metrics_json = None;
                let mut i = 0;
                while i < rest.len() {
                    match rest[i] {
                        "--machines" => {
                            config.machines = parse_num(value_of(&rest, &mut i)?)? as usize
                        }
                        "--days" => config.days = parse_days("--days", value_of(&rest, &mut i)?)?,
                        "--retain-days" => {
                            config.engine.retention = Some(RetentionPolicy::keep_days(parse_days(
                                "--retain-days",
                                value_of(&rest, &mut i)?,
                            )?))
                        }
                        "--seed" => config.seed = parse_num(value_of(&rest, &mut i)?)?,
                        "--threads" => {
                            config.engine.ingest_threads =
                                parse_num(value_of(&rest, &mut i)?)? as usize
                        }
                        "--shards" => {
                            config.engine.shards = parse_num(value_of(&rest, &mut i)?)? as usize
                        }
                        "--batch" => {
                            config.engine.batch_size = parse_num(value_of(&rest, &mut i)?)? as usize
                        }
                        "--app" => config.apps.push(value_of(&rest, &mut i)?.to_owned()),
                        "--placement" => {
                            config.engine.placement = parse_placement(value_of(&rest, &mut i)?)?
                        }
                        "--wal" => config.wal_dir = Some(value_of(&rest, &mut i)?.into()),
                        "--cluster" => cluster = true,
                        "--metrics-json" => {
                            metrics_json = Some(value_of(&rest, &mut i)?.to_owned())
                        }
                        "-o" | "--output" => output = Some(value_of(&rest, &mut i)?.to_owned()),
                        other => return Err(format!("unknown argument `{other}`")),
                    }
                    i += 1;
                }
                if config.machines == 0 {
                    return Err("fleet needs --machines >= 1".into());
                }
                if config.days == 0 {
                    return Err("fleet needs --days >= 1".into());
                }
                Ok(Command::Fleet {
                    config,
                    cluster,
                    output,
                    metrics_json,
                })
            }
            "stream" => {
                let mut config = FleetRunConfig::default();
                let mut window_secs = 1u64;
                let mut threshold = 2.0f64;
                let mut poll_ms = 20u64;
                let mut verify = false;
                let mut metrics_json = None;
                let mut i = 0;
                while i < rest.len() {
                    match rest[i] {
                        "--machines" => {
                            config.machines = parse_num(value_of(&rest, &mut i)?)? as usize
                        }
                        "--days" => config.days = parse_days("--days", value_of(&rest, &mut i)?)?,
                        "--retain-days" => {
                            config.engine.retention = Some(RetentionPolicy::keep_days(parse_days(
                                "--retain-days",
                                value_of(&rest, &mut i)?,
                            )?))
                        }
                        "--seed" => config.seed = parse_num(value_of(&rest, &mut i)?)?,
                        "--threads" => {
                            config.engine.ingest_threads =
                                parse_num(value_of(&rest, &mut i)?)? as usize
                        }
                        "--shards" => {
                            config.engine.shards = parse_num(value_of(&rest, &mut i)?)? as usize
                        }
                        "--batch" => {
                            config.engine.batch_size = parse_num(value_of(&rest, &mut i)?)? as usize
                        }
                        "--app" => config.apps.push(value_of(&rest, &mut i)?.to_owned()),
                        "--window" => window_secs = parse_num(value_of(&rest, &mut i)?)?,
                        "--threshold" => {
                            threshold = value_of(&rest, &mut i)?
                                .parse()
                                .map_err(|e| format!("bad threshold: {e}"))?
                        }
                        "--poll-ms" => poll_ms = parse_num(value_of(&rest, &mut i)?)?,
                        "--verify" => verify = true,
                        "--metrics-json" => {
                            metrics_json = Some(value_of(&rest, &mut i)?.to_owned())
                        }
                        other => return Err(format!("unknown argument `{other}`")),
                    }
                    i += 1;
                }
                if config.machines == 0 {
                    return Err("stream needs --machines >= 1".into());
                }
                if config.days == 0 {
                    return Err("stream needs --days >= 1".into());
                }
                if !(threshold > 0.0 && threshold <= 2.0) {
                    return Err(format!("threshold must be in (0, 2], got {threshold}"));
                }
                if verify && config.engine.retention.is_some() {
                    // --verify compares the streamed clustering against a
                    // batch clustering of the recorded store; a pruned
                    // store has deliberately forgotten pre-horizon
                    // mutations, so the comparison is not meaningful.
                    return Err(
                        "--verify needs the full recorded history; drop --retain-days".into(),
                    );
                }
                Ok(Command::Stream {
                    config,
                    window_secs,
                    threshold,
                    poll_ms: poll_ms.max(1),
                    verify,
                    metrics_json,
                })
            }
            "repair" => {
                let mut config = RepairServiceConfig::default();
                config.fleet.machines = 0;
                config.fleet.days = 0;
                config.scenario_ids = Vec::new();
                let mut window_secs = 1u64;
                let mut threshold = 2.0f64;
                let mut metrics_json = None;
                let mut i = 0;
                while i < rest.len() {
                    match rest[i] {
                        "--machines" => {
                            config.fleet.machines = parse_num(value_of(&rest, &mut i)?)? as usize
                        }
                        "--days" => {
                            config.fleet.days = parse_days("--days", value_of(&rest, &mut i)?)?
                        }
                        "--retain-days" => {
                            config.fleet.engine.retention = Some(RetentionPolicy::keep_days(
                                parse_days("--retain-days", value_of(&rest, &mut i)?)?,
                            ))
                        }
                        "--seed" => config.fleet.seed = parse_num(value_of(&rest, &mut i)?)?,
                        "--threads" => {
                            config.fleet.engine.ingest_threads =
                                parse_num(value_of(&rest, &mut i)?)? as usize
                        }
                        "--shards" => {
                            config.fleet.engine.shards =
                                parse_num(value_of(&rest, &mut i)?)? as usize
                        }
                        "--batch" => {
                            config.fleet.engine.batch_size =
                                parse_num(value_of(&rest, &mut i)?)? as usize
                        }
                        "--app" => config.fleet.apps.push(value_of(&rest, &mut i)?.to_owned()),
                        "--users" => config.users = parse_num(value_of(&rest, &mut i)?)? as usize,
                        "--search-threads" => {
                            config.search_threads = parse_num(value_of(&rest, &mut i)?)? as usize
                        }
                        "--scenario" => config
                            .scenario_ids
                            .push(parse_num(value_of(&rest, &mut i)?)? as usize),
                        "--window" => window_secs = parse_num(value_of(&rest, &mut i)?)?,
                        "--threshold" => {
                            threshold = value_of(&rest, &mut i)?
                                .parse()
                                .map_err(|e| format!("bad threshold: {e}"))?
                        }
                        "--min-events" => {
                            config.min_catalog_events = parse_num(value_of(&rest, &mut i)?)?
                        }
                        "--start-bound-days" => {
                            config.start_bound_days =
                                Some(parse_days("--start-bound-days", value_of(&rest, &mut i)?)?)
                        }
                        "--strategy" => {
                            config.strategy = match value_of(&rest, &mut i)? {
                                "dfs" => SearchStrategy::Dfs,
                                "bfs" => SearchStrategy::Bfs,
                                other => {
                                    return Err(format!(
                                        "strategy must be `dfs` or `bfs`, got `{other}`"
                                    ))
                                }
                            }
                        }
                        "--metrics-json" => {
                            metrics_json = Some(value_of(&rest, &mut i)?.to_owned())
                        }
                        other => return Err(format!("unknown argument `{other}`")),
                    }
                    i += 1;
                }
                if config.fleet.machines == 0 {
                    return Err("repair needs --machines >= 1".into());
                }
                if config.fleet.days == 0 {
                    return Err("repair needs --days >= 1".into());
                }
                if config.users == 0 {
                    return Err("repair needs --users >= 1".into());
                }
                if !(threshold > 0.0 && threshold <= 2.0) {
                    return Err(format!("threshold must be in (0, 2], got {threshold}"));
                }
                if config.scenario_ids.is_empty() {
                    config.scenario_ids = RepairServiceConfig::default().scenario_ids;
                }
                config.params = ClusterParams {
                    window_ms: window_secs * 1000,
                    correlation_threshold: threshold,
                    ..ClusterParams::default()
                };
                Ok(Command::Repair {
                    config,
                    metrics_json,
                })
            }
            "doctor" => match rest.as_slice() {
                [dir] => Ok(Command::Doctor {
                    dir: (*dir).to_owned(),
                }),
                _ => Err("doctor takes exactly one WAL directory".into()),
            },
            "vopr" => {
                let mut scenario = None;
                let mut seed = 0u64;
                let mut list = false;
                let mut i = 0;
                while i < rest.len() {
                    match rest[i] {
                        "--scenario" => scenario = Some(value_of(&rest, &mut i)?.to_owned()),
                        "--seed" => seed = parse_num(value_of(&rest, &mut i)?)?,
                        "--list" => list = true,
                        other => return Err(format!("unknown argument `{other}`")),
                    }
                    i += 1;
                }
                if !list && scenario.is_none() {
                    return Err("vopr needs --scenario <name> (or --list)".into());
                }
                Ok(Command::Vopr {
                    scenario,
                    seed,
                    list,
                })
            }
            "lint" => {
                let mut root = None;
                let mut json = false;
                let mut i = 0;
                while i < rest.len() {
                    match rest[i] {
                        "--root" => root = Some(value_of(&rest, &mut i)?.to_owned()),
                        "--json" => json = true,
                        other => return Err(format!("unknown argument `{other}`")),
                    }
                    i += 1;
                }
                Ok(Command::Lint { root, json })
            }
            "history" => match rest.as_slice() {
                [store, key] => Ok(Command::History {
                    store: (*store).to_owned(),
                    key: (*key).to_owned(),
                }),
                _ => Err("history takes a store file and a key".into()),
            },
            other => Err(format!("unknown subcommand `{other}`")),
        }
    }

    /// Executes the command, returning its stdout text.
    fn run(&self) -> Result<String, String> {
        match self {
            Command::Generate {
                apps,
                days,
                seed,
                output,
            } => {
                let mut specs = Vec::new();
                for name in apps {
                    let model = model_by_name(name)
                        .ok_or_else(|| format!("unknown application `{name}`"))?;
                    specs.push(model.spec);
                }
                let trace = generate(&GeneratorConfig::new("cli", *days, *seed), &specs);
                let file = File::create(output).map_err(|e| format!("create {output}: {e}"))?;
                trace
                    .save(BufWriter::new(file))
                    .map_err(|e| e.to_string())?;
                let stats = trace.stats();
                Ok(format!(
                    "wrote {output}: {} days, {} writes, {} keys\n",
                    stats.days,
                    TtkvStats::humanize(stats.writes + stats.deletes),
                    stats.keys,
                ))
            }
            Command::Stats { trace } => {
                let trace = load_trace(trace)?;
                let stats = trace.stats();
                Ok(format!(
                    "{}: {} days, {} reads, {} writes, {} deletes, {} keys\n",
                    trace.name(),
                    stats.days,
                    TtkvStats::humanize(stats.reads),
                    TtkvStats::humanize(stats.writes),
                    stats.deletes,
                    stats.keys,
                ))
            }
            Command::Replay { trace, output } => {
                let trace = load_trace(trace)?;
                let store = trace.replay(TimePrecision::Seconds);
                let file = File::create(output).map_err(|e| format!("create {output}: {e}"))?;
                store
                    .save(BufWriter::new(file))
                    .map_err(|e| e.to_string())?;
                Ok(format!("wrote {output}: {}\n", store.stats()))
            }
            Command::Export { store, output } => {
                // Loads a binary v2 store and writes the human-readable
                // text v1 dump, which nothing reads back.
                let store = load_store(store)?;
                let file = File::create(output).map_err(|e| format!("create {output}: {e}"))?;
                store
                    .save_text(BufWriter::new(file))
                    .map_err(|e| e.to_string())?;
                Ok(format!("exported {output} (text v1): {}\n", store.stats()))
            }
            Command::Clusters {
                store,
                window_secs,
                threshold,
                app,
                multi_only,
            } => {
                let store = load_store(store)?;
                let params = ClusterParams {
                    window_ms: window_secs * 1000,
                    correlation_threshold: *threshold,
                    ..ClusterParams::default()
                };
                let engine = Ocasta::new(params);
                let clustering = match app {
                    Some(prefix) => engine.cluster_app(&store, &Key::new(prefix)),
                    None => engine.cluster_store(&store),
                };
                let mut out = String::new();
                for cluster in clustering.clusters() {
                    if *multi_only && cluster.len() < 2 {
                        continue;
                    }
                    let names: Vec<&str> = cluster.iter().map(Key::as_str).collect();
                    out.push_str(&format!("{}\t{}\n", cluster.len(), names.join(" ")));
                }
                let stats = clustering.stats();
                out.push_str(&format!(
                    "# {} clusters ({} multi-setting), mean multi size {:.2}\n",
                    stats.clusters,
                    stats.multi_clusters,
                    stats.mean_multi_cluster_size(),
                ));
                Ok(out)
            }
            Command::Fleet {
                config,
                cluster,
                output,
                metrics_json,
            } => {
                let registry = Registry::new();
                let metrics = metrics_json
                    .as_ref()
                    .map(|_| FleetMetrics::register(&registry));
                let run = run_fleet_observed(config, metrics.as_ref())?;
                // The report line already carries the retention tally
                // (sweeps, clamps, horizon, reclaimed) when a policy ran.
                let mut out = format!("{}\n", run.report);
                out.push_str(&format!("store: {}\n", run.store.stats()));
                if *cluster {
                    let clustering = run.cluster();
                    let stats = clustering.stats();
                    out.push_str(&format!(
                        "clusters: {} total, {} multi-setting, mean multi size {:.2}\n",
                        stats.clusters,
                        stats.multi_clusters,
                        stats.mean_multi_cluster_size(),
                    ));
                }
                if let Some(path) = output {
                    let file = File::create(path).map_err(|e| format!("create {path}: {e}"))?;
                    run.store
                        .save(BufWriter::new(file))
                        .map_err(|e| e.to_string())?;
                    out.push_str(&format!("wrote {path}\n"));
                }
                if let Some(path) = metrics_json {
                    write_metrics(path, &registry)?;
                    out.push_str(&format!("wrote metrics {path}\n"));
                }
                Ok(out)
            }
            Command::Stream {
                config,
                window_secs,
                threshold,
                poll_ms,
                verify,
                metrics_json,
            } => {
                let machines = fleet_machines(config)?;
                let params = ClusterParams {
                    window_ms: window_secs * 1000,
                    correlation_threshold: *threshold,
                    ..ClusterParams::default()
                };
                let engine = Ocasta::new(params);
                let registry = Registry::new();
                let fleet_metrics = metrics_json
                    .as_ref()
                    .map(|_| FleetMetrics::register(&registry));
                let mut stream = OcastaStream::new(&engine);
                if metrics_json.is_some() {
                    stream.set_metrics(Arc::new(StreamMetrics::register(&registry)));
                }
                let lanes = WriteLanes::new(config.engine.shards);
                let mut out = String::new();

                // Ingest on a background thread; serve live clusterings
                // from this one by draining the analytics lanes.
                let (store, report) = std::thread::scope(|scope| {
                    let handle = scope.spawn(|| {
                        let options = IngestOptions {
                            tap: Some(&lanes),
                            metrics: fleet_metrics.as_ref(),
                            ..IngestOptions::default()
                        };
                        fleet_ingest_observed(&machines, &config.engine, options)
                            .expect("no wal lane, no wal errors")
                    });
                    loop {
                        let finished = handle.is_finished();
                        if stream.drain_lanes(&lanes) > 0 {
                            let live = stream.clustering();
                            let stats = live.clustering.stats();
                            out.push_str(&format!(
                                "epoch {:>3}: {:>8} events  {:>5} clusters ({} multi)  \
                                 horizon max {}ms\n",
                                live.horizon.epoch,
                                live.horizon.events,
                                stats.clusters,
                                stats.multi_clusters,
                                live.horizon.max_time_ms.unwrap_or(0),
                            ));
                        }
                        if finished {
                            break;
                        }
                        std::thread::sleep(std::time::Duration::from_millis(*poll_ms));
                    }
                    handle.join().expect("ingest thread panicked")
                });

                stream.seal();
                let live = stream.clustering();
                let stats = live.clustering.stats();
                out.push_str(&format!("{report}\n"));
                out.push_str(&format!(
                    "final: epoch {}, {} events sealed @ watermark {}ms\n\
                     clusters: {} total, {} multi-setting, mean multi size {:.2}\n",
                    live.horizon.epoch,
                    live.horizon.events,
                    live.horizon.watermark_ms,
                    stats.clusters,
                    stats.multi_clusters,
                    stats.mean_multi_cluster_size(),
                ));
                if *verify {
                    let batch = engine.cluster_store(&store);
                    if live.clustering == batch {
                        out.push_str("streaming == batch: ok\n");
                    } else {
                        return Err(format!(
                            "streaming/batch mismatch: {} streamed vs {} batch clusters",
                            live.clustering.len(),
                            batch.len(),
                        ));
                    }
                }
                if let Some(path) = metrics_json {
                    write_metrics(path, &registry)?;
                    out.push_str(&format!("wrote metrics {path}\n"));
                }
                Ok(out)
            }
            Command::Repair {
                config,
                metrics_json,
            } => {
                let registry = Registry::new();
                let observers = match metrics_json {
                    Some(_) => ServiceObservers {
                        fleet: Some(Arc::new(FleetMetrics::register(&registry))),
                        service: Some(Arc::new(ServiceMetrics::register(&registry))),
                        stream: Some(Arc::new(StreamMetrics::register(&registry))),
                    },
                    None => ServiceObservers::default(),
                };
                let run = run_repair_service_observed(config, &observers)?;
                let mut out = format!(
                    "catalog: pinned at epoch {} ({} events, watermark {}ms) — \
                     {} clusters ({} multi), mid-ingest: {}\n\
                     snapshot: {}\n",
                    run.horizon.epoch,
                    run.horizon.events,
                    run.horizon.watermark_ms,
                    run.catalog_clusters,
                    run.catalog_multi,
                    if run.pinned_mid_ingest { "yes" } else { "no" },
                    run.snapshot_stats,
                );
                for session in &run.sessions {
                    let outcome = &session.report.outcome;
                    out.push_str(&format!(
                        "{}  error #{:<2} fixed: {}  trials {}/{}  screens {}  \
                         cluster {}  search {:.1?} ({} threads)  \"{}\"\n",
                        session.report.user,
                        session.scenario_id,
                        if session.report.is_fixed() {
                            "yes"
                        } else {
                            "NO "
                        },
                        outcome
                            .trials_to_fix
                            .map_or_else(|| "-".into(), |n| n.to_string()),
                        outcome.total_trials,
                        outcome.screenshots_to_fix,
                        session
                            .fixed_cluster_size
                            .map_or_else(|| "-".into(), |n| n.to_string()),
                        session.report.wall,
                        session.report.threads,
                        session.description,
                    ));
                }
                // The ingest line already carries the retention tally
                // (sweeps, clamps, horizon, reclaimed) when a policy ran.
                out.push_str(&format!("ingest: {}\n", run.ingest));
                out.push_str(&format!(
                    "session pin: {} (oldest history any session could touch)\n",
                    run.session_pin,
                ));
                out.push_str(&format!(
                    "fixed {}/{} sessions\n",
                    run.fixed_sessions(),
                    run.sessions.len(),
                ));
                if let Some(path) = metrics_json {
                    write_metrics(path, &registry)?;
                    out.push_str(&format!("wrote metrics {path}\n"));
                }
                Ok(out)
            }
            Command::Vopr {
                scenario,
                seed,
                list,
            } => {
                if *list {
                    let mut out = String::new();
                    for name in vopr_scenario_names() {
                        out.push_str(name);
                        out.push('\n');
                    }
                    return Ok(out);
                }
                let name = scenario.as_deref().expect("parse enforced --scenario");
                let outcome = run_vopr(name, *seed)?;
                let report = outcome.report();
                if outcome.passed() {
                    Ok(report)
                } else {
                    // A failed invariant is the error: main's error path
                    // prints the verdict and exits non-zero, so CI and
                    // `failing_seeds/` replays can gate on exit status.
                    Err(report)
                }
            }
            Command::Doctor { dir } => {
                let report = diagnose(dir);
                if report.has_errors() {
                    // Corruption: the report *is* the error, and main's
                    // error path turns it into a non-zero exit.
                    return Err(format!("{report}"));
                }
                Ok(format!("{report}\n"))
            }
            Command::Lint { root, json } => {
                let root = match root {
                    Some(dir) => std::path::PathBuf::from(dir),
                    None => find_lint_root()?,
                };
                let report = ocasta_lint::lint_workspace(&root)?;
                let rendered = if *json {
                    report.render_json()
                } else {
                    report.render_table()
                };
                if report.has_errors() {
                    // Findings are the error: main's error path prints
                    // the report and exits non-zero, like `doctor`.
                    return Err(rendered);
                }
                Ok(rendered)
            }
            Command::History { store, key } => {
                let store = load_store(store)?;
                let record = store
                    .record(key)
                    .ok_or_else(|| format!("key `{key}` not in store"))?;
                let mut out = format!(
                    "{key}: {} reads, {} writes, {} deletes\n",
                    record.reads, record.writes, record.deletes
                );
                for version in record.history() {
                    match &version.value {
                        Some(value) => {
                            out.push_str(&format!("  {}  = {}\n", version.timestamp, value))
                        }
                        None => out.push_str(&format!("  {}  (deleted)\n", version.timestamp)),
                    }
                }
                Ok(out)
            }
        }
    }
}

fn value_of<'a>(rest: &[&'a str], i: &mut usize) -> Result<&'a str, String> {
    let flag = rest[*i];
    *i += 1;
    rest.get(*i)
        .copied()
        .ok_or_else(|| format!("{flag} needs a value"))
}

fn parse_num(text: &str) -> Result<u64, String> {
    text.parse()
        .map_err(|e| format!("bad number `{text}`: {e}"))
}

/// The widest day span any subcommand accepts (100 simulated years). Far
/// below the `Timestamp` saturation point, so every accepted value
/// converts exactly; anything larger is a typo, not a deployment.
const MAX_DAYS: u64 = 36_500;

/// Parses a day-count argument, rejecting 0 and absurd values (which
/// would otherwise saturate timestamp arithmetic).
fn parse_days(flag: &str, text: &str) -> Result<u64, String> {
    let days = parse_num(text)?;
    if days == 0 || days > MAX_DAYS {
        return Err(format!(
            "{flag} must be between 1 and {MAX_DAYS} days, got {days}"
        ));
    }
    Ok(days)
}

/// Finds the workspace root for `ocasta lint`: the nearest ancestor of
/// the current directory holding a `lint.toml`.
fn find_lint_root() -> Result<std::path::PathBuf, String> {
    let start = std::env::current_dir().map_err(|e| format!("cannot read current dir: {e}"))?;
    let mut dir = start.as_path();
    loop {
        if dir.join("lint.toml").is_file() {
            return Ok(dir.to_path_buf());
        }
        match dir.parent() {
            Some(parent) => dir = parent,
            None => {
                return Err(format!(
                    "no lint.toml found in {} or any parent — run from the \
                     workspace or pass --root <dir>",
                    start.display()
                ));
            }
        }
    }
}

fn load_trace(path: &str) -> Result<Trace, String> {
    let file = File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    Trace::load(BufReader::new(file)).map_err(|e| e.to_string())
}

fn load_store(path: &str) -> Result<Ttkv, String> {
    let file = File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    Ttkv::load(BufReader::new(file)).map_err(|e| e.to_string())
}

/// Writes the registry snapshot to `path` as JSON.
fn write_metrics(path: &str, registry: &Registry) -> Result<(), String> {
    std::fs::write(path, registry.snapshot_json()).map_err(|e| format!("write {path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Command, String> {
        Command::parse(&args.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>())
    }

    #[test]
    fn parse_generate() {
        let cmd = parse(&[
            "generate", "--app", "chrome", "--app", "gedit", "--days", "30", "--seed", "7", "-o",
            "t.txt",
        ])
        .unwrap();
        assert_eq!(
            cmd,
            Command::Generate {
                apps: vec!["chrome".into(), "gedit".into()],
                days: 30,
                seed: 7,
                output: "t.txt".into(),
            }
        );
        assert!(
            parse(&["generate", "--days", "3", "-o", "x"]).is_err(),
            "needs --app"
        );
        assert!(
            parse(&["generate", "--app", "chrome", "-o", "x"]).is_err(),
            "needs --days"
        );
    }

    #[test]
    fn parse_clusters_with_defaults_and_flags() {
        let cmd = parse(&["clusters", "s.ttkv"]).unwrap();
        assert_eq!(
            cmd,
            Command::Clusters {
                store: "s.ttkv".into(),
                window_secs: 1,
                threshold: 2.0,
                app: None,
                multi_only: false,
            }
        );
        let cmd = parse(&[
            "clusters",
            "s.ttkv",
            "--window",
            "30",
            "--threshold",
            "1.0",
            "--app",
            "word",
            "--multi-only",
        ])
        .unwrap();
        match cmd {
            Command::Clusters {
                window_secs,
                threshold,
                app,
                multi_only,
                ..
            } => {
                assert_eq!(window_secs, 30);
                assert_eq!(threshold, 1.0);
                assert_eq!(app.as_deref(), Some("word"));
                assert!(multi_only);
            }
            other => panic!("{other:?}"),
        }
        assert!(
            parse(&["clusters", "s", "--threshold", "3.0"]).is_err(),
            "threshold range"
        );
    }

    #[test]
    fn parse_fleet() {
        let cmd = parse(&[
            "fleet",
            "--machines",
            "8",
            "--days",
            "14",
            "--seed",
            "5",
            "--threads",
            "4",
            "--shards",
            "32",
            "--app",
            "word",
            "--placement",
            "per-machine",
            "--cluster",
        ])
        .unwrap();
        match cmd {
            Command::Fleet {
                config,
                cluster,
                output,
                metrics_json,
            } => {
                assert!(metrics_json.is_none());
                assert_eq!(config.machines, 8);
                assert_eq!(config.days, 14);
                assert_eq!(config.seed, 5);
                assert_eq!(config.engine.ingest_threads, 4);
                assert_eq!(config.engine.shards, 32);
                assert_eq!(config.apps, vec!["word".to_owned()]);
                assert!(cluster);
                assert!(output.is_none());
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&["fleet", "--machines", "0", "--days", "3"]).is_err());
        assert!(parse(&[
            "fleet",
            "--machines",
            "2",
            "--days",
            "3",
            "--placement",
            "x"
        ])
        .is_err());
    }

    #[test]
    fn parse_stream() {
        let cmd = parse(&[
            "stream",
            "--machines",
            "3",
            "--days",
            "5",
            "--window",
            "30",
            "--threshold",
            "1.5",
            "--poll-ms",
            "5",
            "--verify",
        ])
        .unwrap();
        match cmd {
            Command::Stream {
                config,
                window_secs,
                threshold,
                poll_ms,
                verify,
                ..
            } => {
                assert_eq!(config.machines, 3);
                assert_eq!(config.days, 5);
                assert_eq!(window_secs, 30);
                assert_eq!(threshold, 1.5);
                assert_eq!(poll_ms, 5);
                assert!(verify);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&["stream", "--machines", "0", "--days", "3"]).is_err());
        assert!(parse(&[
            "stream",
            "--machines",
            "2",
            "--days",
            "3",
            "--threshold",
            "9"
        ])
        .is_err());
    }

    #[test]
    fn parse_repair() {
        let cmd = parse(&[
            "repair",
            "--machines",
            "4",
            "--days",
            "8",
            "--users",
            "3",
            "--search-threads",
            "2",
            "--scenario",
            "13",
            "--scenario",
            "15",
            "--min-events",
            "500",
            "--start-bound-days",
            "5",
            "--strategy",
            "bfs",
        ])
        .unwrap();
        match cmd {
            Command::Repair { config, .. } => {
                assert_eq!(config.fleet.machines, 4);
                assert_eq!(config.fleet.days, 8);
                assert_eq!(config.users, 3);
                assert_eq!(config.search_threads, 2);
                assert_eq!(config.scenario_ids, vec![13, 15]);
                assert_eq!(config.min_catalog_events, 500);
                assert_eq!(config.start_bound_days, Some(5));
                assert_eq!(config.strategy, SearchStrategy::Bfs);
            }
            other => panic!("{other:?}"),
        }
        // Defaults: scenario set falls back to the service default.
        match parse(&["repair", "--machines", "2", "--days", "3"]).unwrap() {
            Command::Repair { config, .. } => {
                assert!(!config.scenario_ids.is_empty());
                assert_eq!(config.strategy, SearchStrategy::Dfs);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&["repair", "--machines", "0", "--days", "3"]).is_err());
        assert!(parse(&["repair", "--machines", "2"]).is_err(), "needs days");
        assert!(parse(&["repair", "--machines", "2", "--days", "3", "--users", "0"]).is_err());
        assert!(parse(&[
            "repair",
            "--machines",
            "2",
            "--days",
            "3",
            "--strategy",
            "zigzag"
        ])
        .is_err());
    }

    #[test]
    fn repair_end_to_end_fixes_against_a_live_fleet() {
        let out = parse(&[
            "repair",
            "--machines",
            "3",
            "--days",
            "6",
            "--users",
            "2",
            "--search-threads",
            "2",
            "--scenario",
            "13",
            "--scenario",
            "15",
            "--min-events",
            "300",
            "--threads",
            "2",
            "--shards",
            "4",
        ])
        .unwrap()
        .run()
        .unwrap();
        assert!(out.contains("catalog: pinned at epoch"), "{out}");
        assert!(out.contains("fixed 2/2 sessions"), "{out}");
        assert!(out.contains("error #13"), "{out}");
        assert!(out.contains("error #15"), "{out}");
    }

    #[test]
    fn stream_end_to_end_serves_live_and_verified_clusters() {
        let out = parse(&[
            "stream",
            "--machines",
            "3",
            "--days",
            "4",
            "--app",
            "gedit",
            "--threads",
            "2",
            "--shards",
            "4",
            "--poll-ms",
            "2",
            "--verify",
        ])
        .unwrap()
        .run()
        .unwrap();
        assert!(out.contains("final: epoch"), "{out}");
        assert!(out.contains("clusters:"), "{out}");
        assert!(out.contains("streaming == batch: ok"), "{out}");
    }

    #[test]
    fn fleet_end_to_end_through_temp_files() {
        let dir = std::env::temp_dir().join(format!("ocasta-cli-fleet-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let store_path = dir.join("fleet.ttkv").to_string_lossy().into_owned();
        let out = parse(&[
            "fleet",
            "--machines",
            "3",
            "--days",
            "4",
            "--app",
            "gedit",
            "--threads",
            "2",
            "--shards",
            "4",
            "--cluster",
            "-o",
            &store_path,
        ])
        .unwrap()
        .run()
        .unwrap();
        assert!(out.contains("3 machines"), "{out}");
        assert!(out.contains("clusters:"), "{out}");
        let reloaded = load_store(&store_path).unwrap();
        assert!(reloaded.stats().writes > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parse_retain_days() {
        match parse(&[
            "fleet",
            "--machines",
            "2",
            "--days",
            "10",
            "--retain-days",
            "3",
        ])
        .unwrap()
        {
            Command::Fleet { config, .. } => {
                let policy = config.engine.retention.expect("retention set");
                assert_eq!(policy, RetentionPolicy::keep_days(3));
            }
            other => panic!("{other:?}"),
        }
        match parse(&[
            "stream",
            "--machines",
            "2",
            "--days",
            "10",
            "--retain-days",
            "4",
        ])
        .unwrap()
        {
            Command::Stream { config, .. } => {
                assert_eq!(config.engine.retention, Some(RetentionPolicy::keep_days(4)));
            }
            other => panic!("{other:?}"),
        }
        match parse(&[
            "repair",
            "--machines",
            "2",
            "--days",
            "10",
            "--retain-days",
            "5",
        ])
        .unwrap()
        {
            Command::Repair { config, .. } => {
                assert_eq!(
                    config.fleet.engine.retention,
                    Some(RetentionPolicy::keep_days(5)),
                );
            }
            other => panic!("{other:?}"),
        }
        // No flag: retention stays off.
        match parse(&["fleet", "--machines", "2", "--days", "10"]).unwrap() {
            Command::Fleet { config, .. } => assert!(config.engine.retention.is_none()),
            other => panic!("{other:?}"),
        }
        // --verify compares against the full history; retention forgets it.
        let err = parse(&[
            "stream",
            "--machines",
            "2",
            "--days",
            "10",
            "--retain-days",
            "3",
            "--verify",
        ])
        .unwrap_err();
        assert!(err.contains("full recorded history"), "{err}");
    }

    #[test]
    fn absurd_day_counts_are_rejected_with_a_proper_error() {
        // Regression: huge --days used to flow into unchecked timestamp
        // multiplication (debug panic / release wrap) instead of erroring.
        for args in [
            vec![
                "generate",
                "--app",
                "gedit",
                "--days",
                "99999999999",
                "-o",
                "x",
            ],
            vec!["fleet", "--machines", "2", "--days", "99999999999"],
            vec![
                "fleet",
                "--machines",
                "2",
                "--days",
                "5",
                "--retain-days",
                "0",
            ],
            vec!["stream", "--machines", "2", "--days", "0"],
            vec![
                "repair",
                "--machines",
                "2",
                "--days",
                "5",
                "--start-bound-days",
                "99999999999",
            ],
        ] {
            let err = parse(&args).unwrap_err();
            assert!(err.contains("must be between 1 and"), "{args:?} -> {err}");
        }
    }

    #[test]
    fn parse_rejects_unknown_verbs_and_args() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["frobnicate"]).is_err());
        assert!(parse(&["stats"]).is_err());
        assert!(parse(&["stats", "a", "b"]).is_err());
        assert!(parse(&["history", "s"]).is_err());
        assert!(parse(&["export"]).is_err(), "export needs a store");
        assert!(parse(&["export", "s"]).is_err(), "export needs -o");
        assert!(parse(&["export", "s", "t", "-o", "u"]).is_err());
        assert_eq!(
            parse(&["export", "s.ttkv", "-o", "s.txt"]).unwrap(),
            Command::Export {
                store: "s.ttkv".into(),
                output: "s.txt".into(),
            }
        );
        assert!(parse(&["generate", "--app"]).is_err(), "flag without value");
        assert!(parse(&["doctor"]).is_err(), "doctor needs a directory");
        assert!(parse(&["doctor", "a", "b"]).is_err());
        assert!(
            parse(&["fleet", "--machines", "2", "--days", "3", "--metrics-json"]).is_err(),
            "flag without value"
        );
    }

    #[test]
    fn parse_metrics_json_and_doctor() {
        for verb in ["fleet", "stream", "repair"] {
            let cmd = parse(&[
                verb,
                "--machines",
                "2",
                "--days",
                "3",
                "--metrics-json",
                "m.json",
            ])
            .unwrap();
            let path = match cmd {
                Command::Fleet { metrics_json, .. }
                | Command::Stream { metrics_json, .. }
                | Command::Repair { metrics_json, .. } => metrics_json,
                other => panic!("{other:?}"),
            };
            assert_eq!(path.as_deref(), Some("m.json"), "{verb}");
        }
        assert_eq!(
            parse(&["doctor", "waldir"]).unwrap(),
            Command::Doctor {
                dir: "waldir".into()
            }
        );
    }

    #[test]
    fn parse_vopr() {
        assert_eq!(
            parse(&["vopr", "--scenario", "baseline", "--seed", "42"]).unwrap(),
            Command::Vopr {
                scenario: Some("baseline".into()),
                seed: 42,
                list: false,
            }
        );
        assert_eq!(
            parse(&["vopr", "--scenario", "clock-skew"]).unwrap(),
            Command::Vopr {
                scenario: Some("clock-skew".into()),
                seed: 0,
                list: false,
            },
            "seed defaults to 0"
        );
        assert_eq!(
            parse(&["vopr", "--list"]).unwrap(),
            Command::Vopr {
                scenario: None,
                seed: 0,
                list: true,
            }
        );
        assert!(parse(&["vopr"]).is_err(), "needs --scenario or --list");
        assert!(parse(&["vopr", "--seed", "7"]).is_err());
        assert!(parse(&["vopr", "--scenario"]).is_err(), "flag needs value");
        assert!(parse(&["vopr", "--scenario", "baseline", "bogus"]).is_err());
    }

    #[test]
    fn parse_lint() {
        assert_eq!(
            parse(&["lint", "--root", "somewhere", "--json"]).unwrap(),
            Command::Lint {
                root: Some("somewhere".into()),
                json: true,
            }
        );
        assert_eq!(
            parse(&["lint"]).unwrap(),
            Command::Lint {
                root: None,
                json: false,
            }
        );
        assert!(parse(&["lint", "--root"]).is_err(), "flag needs value");
        assert!(parse(&["lint", "bogus"]).is_err());
    }

    /// The CLI self-run: `ocasta lint` over this very workspace must be
    /// clean — the same gate CI applies via `ocasta-lint --workspace`.
    #[test]
    fn lint_subcommand_is_clean_on_this_workspace() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let root = root.to_string_lossy().into_owned();
        let out = parse(&["lint", "--root", &root]).unwrap().run().unwrap();
        assert!(out.contains("0 error(s)"), "{out}");
    }

    #[test]
    fn vopr_list_names_every_scenario() {
        let out = parse(&["vopr", "--list"]).unwrap().run().unwrap();
        let names: Vec<&str> = out.lines().collect();
        assert_eq!(names, ocasta::vopr_scenario_names().to_vec());
    }

    #[test]
    fn vopr_rejects_unknown_scenarios_via_run() {
        let err = parse(&["vopr", "--scenario", "nope"]).unwrap().run();
        assert!(err.unwrap_err().contains("unknown scenario"));
    }

    /// Seed-determinism with observation attached: the same fleet run,
    /// once with metrics collection and once without, must write a
    /// byte-identical `-o` store. Metrics are pure observers — if this
    /// test fails, something read a metric back into a decision.
    #[test]
    fn metrics_collection_never_perturbs_the_output_bytes() {
        let dir = std::env::temp_dir().join(format!("ocasta-cli-metrics-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let plain = dir.join("plain.ttkv").to_string_lossy().into_owned();
        let observed = dir.join("observed.ttkv").to_string_lossy().into_owned();
        let metrics = dir.join("metrics.json").to_string_lossy().into_owned();
        let base = [
            "fleet",
            "--machines",
            "3",
            "--days",
            "5",
            "--seed",
            "42",
            "--app",
            "gedit",
            "--threads",
            "2",
            "--shards",
            "4",
            "--retain-days",
            "2",
        ];

        let mut args: Vec<&str> = base.to_vec();
        args.extend(["-o", &plain]);
        parse(&args).unwrap().run().unwrap();

        let mut args: Vec<&str> = base.to_vec();
        args.extend(["-o", &observed, "--metrics-json", &metrics]);
        let out = parse(&args).unwrap().run().unwrap();
        assert!(out.contains("wrote metrics"), "{out}");

        let plain_bytes = std::fs::read(&plain).unwrap();
        let observed_bytes = std::fs::read(&observed).unwrap();
        assert!(!plain_bytes.is_empty());
        assert_eq!(
            plain_bytes, observed_bytes,
            "metrics must not perturb the run"
        );

        // And the snapshot actually observed the run.
        let json = std::fs::read_to_string(&metrics).unwrap();
        assert!(json.contains("\"fleet.ingest.batches\""), "{json}");
        assert!(json.contains("\"fleet.sweep.count\""), "{json}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn doctor_end_to_end_healthy_and_corrupt() {
        let dir = std::env::temp_dir().join(format!("ocasta-cli-doctor-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let wal = dir.join("wal");
        std::fs::create_dir_all(&wal).unwrap();
        let wal_str = wal.to_string_lossy().into_owned();

        // A real fleet run populates the WAL directory.
        parse(&[
            "fleet",
            "--machines",
            "2",
            "--days",
            "3",
            "--app",
            "gedit",
            "--wal",
            &wal_str,
        ])
        .unwrap()
        .run()
        .unwrap();

        // Never compacted: the epoch-0 log alone, and not one finding.
        let out = parse(&["doctor", &wal_str]).unwrap().run().unwrap();
        assert!(out.contains("healthy"), "{out}");
        assert!(diagnose(&wal).findings.is_empty(), "{out}");

        // Flip a byte inside the log's first frame: corruption, non-Ok.
        let log = wal.join("wal-0.log");
        let mut bytes = std::fs::read(&log).unwrap();
        let offset = ocasta::WAL_MAGIC.len() + 8 + 2;
        bytes[offset] ^= 0xFF;
        std::fs::write(&log, &bytes).unwrap();
        let err = parse(&["doctor", &wal_str]).unwrap().run().unwrap_err();
        assert!(err.contains("log-corrupt"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn end_to_end_through_temp_files() {
        let dir = std::env::temp_dir().join(format!("ocasta-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("t.txt").to_string_lossy().into_owned();
        let store_path = dir.join("s.ttkv").to_string_lossy().into_owned();

        let out = parse(&[
            "generate",
            "--app",
            "gedit",
            "--days",
            "20",
            "--seed",
            "3",
            "-o",
            &trace_path,
        ])
        .unwrap()
        .run()
        .unwrap();
        assert!(out.contains("20 days"));

        let out = parse(&["stats", &trace_path]).unwrap().run().unwrap();
        assert!(out.contains("keys"));

        let out = parse(&["replay", &trace_path, "-o", &store_path])
            .unwrap()
            .run()
            .unwrap();
        assert!(out.contains("wrote"));

        // `replay -o` writes binary v2; `export` dumps that same store as
        // text v1.
        let store_bytes = std::fs::read(&store_path).unwrap();
        assert!(store_bytes.starts_with(ocasta_ttkv::BINARY_MAGIC));
        let text_path = dir.join("store.txt").to_string_lossy().into_owned();
        let out = parse(&["export", &store_path, "-o", &text_path])
            .unwrap()
            .run()
            .unwrap();
        assert!(out.contains("exported"), "{out}");
        let text = std::fs::read_to_string(&text_path).unwrap();
        assert!(text.starts_with("ocasta-ttkv v1"), "text v1 export");
        assert_eq!(
            text,
            Ttkv::load(store_bytes.as_slice()).unwrap().save_to_string()
        );

        let out = parse(&["clusters", &store_path, "--multi-only"])
            .unwrap()
            .run()
            .unwrap();
        assert!(out.contains("# "), "summary line present: {out}");

        let out = parse(&["history", &store_path, "gedit/view/wrap_mode"])
            .unwrap()
            .run()
            .unwrap();
        assert!(out.contains("writes"));

        let err = parse(&["history", &store_path, "no/such/key"])
            .unwrap()
            .run()
            .unwrap_err();
        assert!(err.contains("not in store"));

        std::fs::remove_dir_all(&dir).ok();
    }
}
