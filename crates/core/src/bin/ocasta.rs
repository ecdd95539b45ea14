//! `ocasta` — command-line front end for the Ocasta reproduction.
//!
//! Run it without arguments for the usage text. `SUBCOMMANDS` holds one
//! row per subcommand: its name, its usage lines, and the function that
//! reads its flags and returns the run. The usage text is generated from
//! those rows, and the one flag parser, `Args::parse`, reads each row's
//! grammar off the same usage lines, so the text and the flags a
//! subcommand accepts cannot drift apart. Parsing is hand-rolled: the
//! workspace deliberately keeps its dependency set minimal.
//!
//! Exit codes: 2 for a usage error (the message, then the usage text),
//! 1 for a runtime error, 0 otherwise.

use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::process::ExitCode;
use std::sync::Arc;

use ocasta::fleet::{fleet_machines, parse_placement, run_fleet, FleetRunConfig};
use ocasta::{
    diagnose, fleet_ingest_live, model_by_name, run_repair_service, run_vopr, vopr_scenario_names,
    ClusterParams, FleetMetrics, GeneratorConfig, IngestOptions, Key, Ocasta, OcastaStream,
    Registry, RepairServiceConfig, RetentionPolicy, SearchStrategy, ServiceMetrics,
    ServiceObservers, ShardedTtkv, StreamMetrics, TimePrecision, Trace, Ttkv, TtkvError, TtkvStats,
    WriteLanes,
};

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let argv: Vec<&str> = argv.iter().map(String::as_str).collect();
    let run = match Args::parse(&argv).and_then(|args| (args.row.read)(&args)) {
        Ok(run) => run,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!("{}", usage());
            return ExitCode::from(2);
        }
    };
    match run() {
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

/// One subcommand. `usage` holds its usage lines: the first follows
/// `ocasta <name>`, the others continue it. `read` checks the parsed
/// flags, where every usage error past the parser arises, and returns
/// the run.
#[derive(Debug)]
struct Subcommand {
    name: &'static str,
    usage: &'static [&'static str],
    read: for<'a> fn(&Args<'a>) -> Result<Run<'a>, String>,
}

/// A subcommand whose flags are read: calling it runs the command and
/// returns its stdout text, or the runtime error.
type Run<'a> = Box<dyn FnOnce() -> Result<String, String> + 'a>;

const SUBCOMMANDS: &[Subcommand] = &[
    Subcommand {
        name: "generate",
        usage: &["--app <name>... --days <n> [--seed <n>] -o <trace.txt>"],
        read: generate,
    },
    Subcommand {
        name: "stats",
        usage: &["<trace.txt>"],
        read: stats,
    },
    Subcommand {
        name: "replay",
        usage: &["<trace.txt> -o <store.ttkv>"],
        read: replay,
    },
    Subcommand {
        name: "export",
        usage: &["<store.ttkv> -o <store.txt>"],
        read: export,
    },
    Subcommand {
        name: "clusters",
        usage: &[
            "<store.ttkv> [--window <secs>] [--threshold <corr>]",
            "[--app <prefix>] [--multi-only]",
        ],
        read: clusters,
    },
    Subcommand {
        name: "history",
        usage: &["<store.ttkv> <key>"],
        read: history,
    },
    Subcommand {
        name: "fleet",
        usage: &[
            "--machines <n> --days <n> [--seed <n>] [--threads <n>]",
            "[--shards <n>] [--batch <n>] [--app <name>...]",
            "[--placement merged|per-machine] [--retain-days <n>]",
            "[--wal <dir>] [--cluster] [--metrics-json <path>]",
            "[-o <store.ttkv>]",
        ],
        read: fleet,
    },
    Subcommand {
        name: "stream",
        usage: &[
            "--machines <n> --days <n> [--seed <n>] [--threads <n>]",
            "[--shards <n>] [--batch <n>] [--app <name>...]",
            "[--window <secs>] [--threshold <corr>] [--poll-ms <n>]",
            "[--retain-days <n>] [--metrics-json <path>] [--verify]",
        ],
        read: stream,
    },
    Subcommand {
        name: "repair",
        usage: &[
            "--machines <n> --days <n> [--seed <n>] [--threads <n>]",
            "[--shards <n>] [--batch <n>] [--app <name>...]",
            "[--users <n>] [--search-threads <n>] [--scenario <id>...]",
            "[--window <secs>] [--threshold <corr>] [--min-events <n>]",
            "[--start-bound-days <n>] [--strategy dfs|bfs]",
            "[--retain-days <n>] [--metrics-json <path>]",
        ],
        read: repair,
    },
    Subcommand {
        name: "doctor",
        usage: &["<wal-dir>"],
        read: doctor,
    },
    Subcommand {
        name: "vopr",
        usage: &["--scenario <name> [--seed <n>] | --list"],
        read: vopr,
    },
];

/// The usage text: each row's lines, then the application names.
fn usage() -> String {
    let mut text = String::from("usage:\n");
    for row in SUBCOMMANDS {
        let mut lead = format!("ocasta {}", row.name);
        for line in row.usage {
            text.push_str(&format!("  {lead:<15} {line}\n"));
            lead.clear();
        }
    }
    text.push_str(
        "\napplications for `generate`, `fleet`, `stream` and `repair`: outlook\n\
         evolution ie chrome word gedit eog paint acrobat explorer wmp",
    );
    text
}

/// One invocation's arguments, parsed against its row's grammar. The
/// grammar is read off the row's usage lines: a `-` word followed by a
/// placeholder takes a value, any other `-` word is a switch, and a
/// `<placeholder>` that follows no flag is a positional slot. `--output`
/// is an alias of `-o`. A flag may be given more than once: `values`
/// reads every occurrence (`--app`, `--scenario`), the others the last.
#[derive(Debug)]
struct Args<'a> {
    row: &'static Subcommand,
    /// Each flag given, spelled as in the usage, with its value if it
    /// takes one.
    flags: Vec<(&'static str, Option<&'a str>)>,
    positionals: Vec<&'a str>,
    /// The placeholder of each positional slot.
    slots: Vec<&'static str>,
}

impl<'a> Args<'a> {
    /// Finds the row `argv` names and parses the rest of `argv` against
    /// its grammar.
    fn parse(argv: &[&'a str]) -> Result<Args<'a>, String> {
        let (verb, rest) = argv.split_first().ok_or("missing subcommand")?;
        let row = SUBCOMMANDS
            .iter()
            .find(|row| row.name == *verb)
            .ok_or_else(|| format!("unknown subcommand `{verb}`"))?;
        let words: Vec<&'static str> = row
            .usage
            .iter()
            .flat_map(|line| line.split_whitespace())
            .map(|word| word.trim_matches(['[', ']']))
            .collect();
        // The row's grammar: each flag with whether it takes a value,
        // and the positional slots.
        let mut grammar = Vec::new();
        let mut slots = Vec::new();
        for (i, &word) in words.iter().enumerate() {
            if word.starts_with('-') {
                let next = words.get(i + 1).copied().unwrap_or("-");
                grammar.push((word, !next.starts_with('-') && next != "|"));
            } else if word.starts_with('<') && !(i > 0 && words[i - 1].starts_with('-')) {
                slots.push(word);
            }
        }

        let mut args = Args {
            row,
            flags: Vec::new(),
            positionals: Vec::new(),
            slots,
        };
        let mut tokens = rest.iter().copied();
        while let Some(token) = tokens.next() {
            let spelled = if token == "--output" { "-o" } else { token };
            match grammar.iter().find(|(flag, _)| *flag == spelled) {
                Some(&(flag, true)) => {
                    let value = tokens
                        .next()
                        .ok_or_else(|| format!("{token} needs a value"))?;
                    args.flags.push((flag, Some(value)));
                }
                Some(&(flag, false)) => args.flags.push((flag, None)),
                None if token.starts_with('-') => {
                    return Err(format!("unknown argument `{token}`"))
                }
                None if args.positionals.len() < args.slots.len() => args.positionals.push(token),
                None => return Err(format!("unexpected argument `{token}`")),
            }
        }
        Ok(args)
    }

    /// The usage error for a missing `what`.
    fn needs(&self, what: &str) -> String {
        format!("{} needs {what}", self.row.name)
    }

    /// The positional in `slot`.
    fn positional(&self, slot: usize) -> Result<&'a str, String> {
        self.positionals
            .get(slot)
            .copied()
            .ok_or_else(|| self.needs(self.slots[slot]))
    }

    /// Whether the switch `flag` was given.
    fn switch(&self, flag: &str) -> bool {
        self.flags.iter().any(|(given, _)| *given == flag)
    }

    /// Every value given for `flag`, in order.
    fn values<'s>(&'s self, flag: &'s str) -> impl Iterator<Item = &'a str> + 's {
        self.flags
            .iter()
            .filter(move |(given, _)| *given == flag)
            .filter_map(|&(_, value)| value)
    }

    /// The last value given for `flag`.
    fn value(&self, flag: &str) -> Option<&'a str> {
        self.values(flag).last()
    }

    /// `flag`'s value through `parse`, or `None` if the flag is absent.
    /// Every value given is read, so a bad one fails even when a later
    /// one overrides it.
    fn parsed<T>(
        &self,
        flag: &str,
        parse: impl Fn(&str) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        self.values(flag)
            .try_fold(None, |_, text| parse(text).map(Some))
    }

    fn num(&self, flag: &str) -> Result<Option<u64>, String> {
        self.parsed(flag, parse_num)
    }

    /// A day count: 1 to `MAX_DAYS`. A larger one would saturate
    /// timestamp arithmetic.
    fn days(&self, flag: &str) -> Result<Option<u64>, String> {
        self.parsed(flag, |text| match parse_num(text)? {
            days @ 1..=MAX_DAYS => Ok(days),
            days => Err(format!(
                "{flag} must be between 1 and {MAX_DAYS} days, got {days}"
            )),
        })
    }

    /// A number no larger than `max`.
    fn at_most(&self, flag: &str, max: u64) -> Result<Option<u64>, String> {
        self.parsed(flag, |text| match parse_num(text)? {
            n if n > max => Err(format!("{flag} must be at most {max}, got {n}")),
            n => Ok(n),
        })
    }
}

/// The widest day span any subcommand accepts (100 simulated years). Far
/// below the `Timestamp` saturation point, so every accepted value
/// converts exactly; anything larger is a typo, not a deployment. It
/// also bounds `--window`, whose seconds become milliseconds.
const MAX_DAYS: u64 = 36_500;

/// The most OS threads a count flag may ask for. `--threads` starts that
/// many ingest workers, `--shards` one fold thread per shard whenever a
/// store is merged or an epoch materialized, `--users` one session
/// thread each and `--search-threads` that many trial executors per
/// session.
const MAX_THREADS: u64 = 64;

/// The most ops `--batch` may buffer per shard: every ingest worker
/// allocates one such buffer per shard for each machine it ingests.
const MAX_BATCH: u64 = 65_536;

/// The most machines `--machines` may simulate (the paper deployed 29);
/// each gets its own spec and event stream.
const MAX_MACHINES: u64 = 10_000;

fn generate<'a>(args: &Args<'a>) -> Result<Run<'a>, String> {
    let apps: Vec<&str> = args.values("--app").collect();
    if apps.is_empty() {
        return Err(args.needs("at least one --app"));
    }
    let days = args.days("--days")?.ok_or_else(|| args.needs("--days"))?;
    let seed = args.num("--seed")?.unwrap_or(0);
    let output = args
        .value("-o")
        .ok_or_else(|| args.needs("-o <trace.txt>"))?;
    Ok(Box::new(move || {
        let mut specs = Vec::new();
        for name in apps {
            let model =
                model_by_name(name).ok_or_else(|| format!("unknown application `{name}`"))?;
            specs.push(model.spec);
        }
        let trace = ocasta::generate(&GeneratorConfig::new("cli", days, seed), &specs);
        save_file(output, |writer| trace.save(writer))?;
        let stats = trace.stats();
        Ok(format!(
            "wrote {output}: {} days, {} writes, {} keys\n",
            stats.days,
            TtkvStats::humanize(stats.writes + stats.deletes),
            stats.keys,
        ))
    }))
}

fn stats<'a>(args: &Args<'a>) -> Result<Run<'a>, String> {
    let path = args.positional(0)?;
    Ok(Box::new(move || {
        let trace = load_trace(path)?;
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
    }))
}

fn replay<'a>(args: &Args<'a>) -> Result<Run<'a>, String> {
    let path = args.positional(0)?;
    let output = args
        .value("-o")
        .ok_or_else(|| args.needs("-o <store.ttkv>"))?;
    Ok(Box::new(move || {
        let store = load_trace(path)?.replay(TimePrecision::Seconds);
        save_file(output, |writer| store.save(writer))?;
        Ok(format!("wrote {output}: {}\n", store.stats()))
    }))
}

fn export<'a>(args: &Args<'a>) -> Result<Run<'a>, String> {
    let path = args.positional(0)?;
    let output = args
        .value("-o")
        .ok_or_else(|| args.needs("-o <store.txt>"))?;
    Ok(Box::new(move || {
        // Loads a binary v2 store and writes the human-readable text v1
        // dump, which nothing reads back.
        let store = load_store(path)?;
        save_file(output, |writer| store.save_text(writer))?;
        Ok(format!("exported {output} (text v1): {}\n", store.stats()))
    }))
}

fn clusters<'a>(args: &Args<'a>) -> Result<Run<'a>, String> {
    let path = args.positional(0)?;
    let params = cluster_params(args)?;
    let app = args.value("--app");
    let multi_only = args.switch("--multi-only");
    Ok(Box::new(move || {
        let store = load_store(path)?;
        let engine = Ocasta::new(params);
        let clustering = match app {
            Some(prefix) => engine.cluster_app(&store, &Key::new(prefix)),
            None => engine.cluster_store(&store),
        };
        let mut out = String::new();
        for cluster in clustering.clusters() {
            if multi_only && cluster.len() < 2 {
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
    }))
}

fn history<'a>(args: &Args<'a>) -> Result<Run<'a>, String> {
    let path = args.positional(0)?;
    let key = args.positional(1)?;
    Ok(Box::new(move || {
        let store = load_store(path)?;
        let record = store
            .record(key)
            .ok_or_else(|| format!("key `{key}` not in store"))?;
        let mut out = format!(
            "{key}: {} reads, {} writes, {} deletes\n",
            record.reads, record.writes, record.deletes
        );
        for version in record.history() {
            match &version.value {
                Some(value) => out.push_str(&format!("  {}  = {}\n", version.timestamp, value)),
                None => out.push_str(&format!("  {}  (deleted)\n", version.timestamp)),
            }
        }
        Ok(out)
    }))
}

fn fleet<'a>(args: &Args<'a>) -> Result<Run<'a>, String> {
    let config = fleet_config(args, FleetRunConfig::default())?;
    let cluster = args.switch("--cluster");
    let output = args.value("-o");
    let metrics_json = args.value("--metrics-json");
    Ok(Box::new(move || {
        with_metrics(metrics_json, |registry| {
            let metrics = registry.map(FleetMetrics::register);
            let run = run_fleet(&config, metrics.as_ref())?;
            // The report line already carries the retention tally
            // (sweeps, clamps, horizon, reclaimed) when a policy ran.
            let mut out = format!("{}\n", run.report);
            out.push_str(&format!("store: {}\n", run.store.stats()));
            if cluster {
                let stats = run.cluster().stats();
                out.push_str(&format!(
                    "clusters: {} total, {} multi-setting, mean multi size {:.2}\n",
                    stats.clusters,
                    stats.multi_clusters,
                    stats.mean_multi_cluster_size(),
                ));
            }
            if let Some(path) = output {
                save_file(path, |writer| run.store.save(writer))?;
                out.push_str(&format!("wrote {path}\n"));
            }
            Ok(out)
        })
    }))
}

fn stream<'a>(args: &Args<'a>) -> Result<Run<'a>, String> {
    let config = fleet_config(args, FleetRunConfig::default())?;
    let params = cluster_params(args)?;
    let poll_ms = args.num("--poll-ms")?.unwrap_or(20).max(1);
    let verify = args.switch("--verify");
    if verify && config.engine.retention.is_some() {
        // --verify compares the streamed clustering against a batch
        // clustering of the recorded store; a pruned store has
        // deliberately forgotten pre-horizon mutations, so the
        // comparison is not meaningful.
        return Err("--verify needs the full recorded history; drop --retain-days".into());
    }
    let metrics_json = args.value("--metrics-json");
    Ok(Box::new(move || {
        with_metrics(metrics_json, |registry| {
            let machines = fleet_machines(&config)?;
            let engine = Ocasta::new(params);
            let fleet_metrics = registry.map(FleetMetrics::register);
            let mut stream = OcastaStream::new(&engine);
            if let Some(registry) = registry {
                stream.set_metrics(Arc::new(StreamMetrics::register(registry)));
            }
            let sharded = ShardedTtkv::with_seal_threshold(
                config.engine.shards,
                config.engine.seal_threshold,
            );
            let lanes = WriteLanes::new(config.engine.shards);
            let mut out = String::new();

            // Ingest on a background thread; serve live clusterings from
            // this one by draining the analytics lanes.
            let report = std::thread::scope(|scope| {
                let handle = scope.spawn(|| {
                    let options = IngestOptions {
                        tap: Some(&lanes),
                        metrics: fleet_metrics.as_ref(),
                        ..IngestOptions::default()
                    };
                    fleet_ingest_live(&machines, &config.engine, &sharded, options)
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
                    std::thread::sleep(std::time::Duration::from_millis(poll_ms));
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
            if verify {
                let batch = engine.cluster_store(&sharded.into_ttkv());
                if live.clustering != batch {
                    return Err(format!(
                        "streaming/batch mismatch: {} streamed vs {} batch clusters",
                        live.clustering.len(),
                        batch.len(),
                    ));
                }
                out.push_str("streaming == batch: ok\n");
            }
            Ok(out)
        })
    }))
}

fn repair<'a>(args: &Args<'a>) -> Result<Run<'a>, String> {
    let config = repair_config(args)?;
    let metrics_json = args.value("--metrics-json");
    Ok(Box::new(move || {
        with_metrics(metrics_json, |registry| {
            let observers = match registry {
                Some(registry) => ServiceObservers {
                    fleet: Some(Arc::new(FleetMetrics::register(registry))),
                    service: Some(Arc::new(ServiceMetrics::register(registry))),
                    stream: Some(Arc::new(StreamMetrics::register(registry))),
                },
                None => ServiceObservers::default(),
            };
            let run = run_repair_service(&config, &observers)?;
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
            // The ingest line already carries the retention tally (sweeps,
            // clamps, horizon, reclaimed) when a policy ran.
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
            Ok(out)
        })
    }))
}

fn doctor<'a>(args: &Args<'a>) -> Result<Run<'a>, String> {
    let dir = args.positional(0)?;
    Ok(Box::new(move || {
        let report = diagnose(dir);
        if report.has_errors() {
            // Corruption: the report *is* the error, and main's error
            // path turns it into a non-zero exit.
            return Err(format!("{report}"));
        }
        Ok(format!("{report}\n"))
    }))
}

fn vopr<'a>(args: &Args<'a>) -> Result<Run<'a>, String> {
    let seed = args.num("--seed")?.unwrap_or(0);
    if args.switch("--list") {
        return Ok(Box::new(|| {
            Ok(vopr_scenario_names()
                .iter()
                .map(|name| format!("{name}\n"))
                .collect())
        }));
    }
    let scenario = args
        .value("--scenario")
        .ok_or_else(|| args.needs("--scenario <name> (or --list)"))?;
    Ok(Box::new(move || {
        let outcome = run_vopr(scenario, seed)?;
        let report = outcome.report();
        if outcome.passed() {
            Ok(report)
        } else {
            // A failed invariant is the error: main's error path prints
            // the verdict and exits non-zero, so CI and `failing_seeds/`
            // replays can gate on exit status.
            Err(report)
        }
    }))
}

/// The fleet `fleet`, `stream` and `repair` describe: the eight fleet
/// flags the three rows share, and `fleet`'s own `--placement` and
/// `--wal`, over `config`'s defaults.
fn fleet_config(args: &Args, mut config: FleetRunConfig) -> Result<FleetRunConfig, String> {
    if let Some(machines) = args.at_most("--machines", MAX_MACHINES)? {
        config.machines = machines as usize;
    }
    if let Some(days) = args.days("--days")? {
        config.days = days;
    }
    if let Some(days) = args.days("--retain-days")? {
        config.engine.retention = Some(RetentionPolicy::keep_days(days));
    }
    if let Some(seed) = args.num("--seed")? {
        config.seed = seed;
    }
    if let Some(threads) = args.at_most("--threads", MAX_THREADS)? {
        config.engine.ingest_threads = threads as usize;
    }
    if let Some(shards) = args.at_most("--shards", MAX_THREADS)? {
        config.engine.shards = shards as usize;
    }
    if let Some(batch) = args.at_most("--batch", MAX_BATCH)? {
        config.engine.batch_size = batch as usize;
    }
    config.apps.extend(args.values("--app").map(str::to_owned));
    if let Some(placement) = args.parsed("--placement", parse_placement)? {
        config.engine.placement = placement;
    }
    if let Some(dir) = args.value("--wal") {
        config.wal_dir = Some(dir.into());
    }
    if config.machines == 0 {
        return Err(args.needs("--machines >= 1"));
    }
    if config.days == 0 {
        return Err(args.needs("--days >= 1"));
    }
    Ok(config)
}

/// The repair service `repair` describes, over the service's defaults
/// except that `--machines` and `--days` must be given.
fn repair_config(args: &Args) -> Result<RepairServiceConfig, String> {
    let defaults = RepairServiceConfig::default();
    let fleet = FleetRunConfig {
        machines: 0,
        days: 0,
        ..defaults.fleet
    };
    let mut config = RepairServiceConfig {
        fleet: fleet_config(args, fleet)?,
        users: args
            .at_most("--users", MAX_THREADS)?
            .map_or(defaults.users, |users| users as usize),
        search_threads: args
            .at_most("--search-threads", MAX_THREADS)?
            .map_or(defaults.search_threads, |threads| threads as usize),
        strategy: args
            .parsed("--strategy", |text| match text {
                "dfs" => Ok(SearchStrategy::Dfs),
                "bfs" => Ok(SearchStrategy::Bfs),
                other => Err(format!("strategy must be `dfs` or `bfs`, got `{other}`")),
            })?
            .unwrap_or(defaults.strategy),
        params: cluster_params(args)?,
        scenario_ids: args
            .values("--scenario")
            .map(|text| parse_num(text).map(|id| id as usize))
            .collect::<Result<_, _>>()?,
        min_catalog_events: args
            .num("--min-events")?
            .unwrap_or(defaults.min_catalog_events),
        start_bound_days: args
            .days("--start-bound-days")?
            .or(defaults.start_bound_days),
    };
    if config.users == 0 {
        return Err(args.needs("--users >= 1"));
    }
    if config.scenario_ids.is_empty() {
        config.scenario_ids = defaults.scenario_ids;
    }
    Ok(config)
}

/// The clustering parameters `--window` (seconds, default 1) and
/// `--threshold` (default 2) select.
fn cluster_params(args: &Args) -> Result<ClusterParams, String> {
    let window_secs = args.at_most("--window", MAX_DAYS * 86_400)?.unwrap_or(1);
    let threshold = args
        .parsed("--threshold", |text| {
            text.parse::<f64>()
                .map_err(|e| format!("bad threshold: {e}"))
        })?
        .unwrap_or(2.0);
    if !(threshold > 0.0 && threshold <= 2.0) {
        return Err(format!("threshold must be in (0, 2], got {threshold}"));
    }
    Ok(ClusterParams {
        window_ms: window_secs * 1000,
        correlation_threshold: threshold,
        ..ClusterParams::default()
    })
}

/// Runs `body` with the registry `--metrics-json <path>` asks for
/// (`None` without the flag), then writes the registry's snapshot to
/// `path` and says so in the output.
fn with_metrics(
    path: Option<&str>,
    body: impl FnOnce(Option<&Registry>) -> Result<String, String>,
) -> Result<String, String> {
    let registry = Registry::new();
    let mut out = body(path.map(|_| &registry))?;
    if let Some(path) = path {
        std::fs::write(path, registry.snapshot_json()).map_err(|e| format!("write {path}: {e}"))?;
        out.push_str(&format!("wrote metrics {path}\n"));
    }
    Ok(out)
}

fn parse_num(text: &str) -> Result<u64, String> {
    text.parse()
        .map_err(|e| format!("bad number `{text}`: {e}"))
}

fn load_trace(path: &str) -> Result<Trace, String> {
    let file = File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    Trace::load(BufReader::new(file)).map_err(|e| e.to_string())
}

fn load_store(path: &str) -> Result<Ttkv, String> {
    let file = File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    Ttkv::load(BufReader::new(file)).map_err(|e| e.to_string())
}

/// Creates `path` and writes it through `save`, flushing before it
/// reports success: a dropped `BufWriter` discards a failed flush.
fn save_file(
    path: &str,
    save: impl FnOnce(&mut BufWriter<File>) -> Result<(), TtkvError>,
) -> Result<(), String> {
    let file = File::create(path).map_err(|e| format!("create {path}: {e}"))?;
    let mut writer = BufWriter::new(file);
    save(&mut writer).map_err(|e| e.to_string())?;
    writer.flush().map_err(|e| format!("write {path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses `argv` and reads it through its row, as `main` does, but
    /// runs nothing; returns the parsed arguments.
    fn parse<'a>(argv: &[&'a str]) -> Result<Args<'a>, String> {
        let args = Args::parse(argv)?;
        let _unrun = (args.row.read)(&args)?;
        Ok(args)
    }

    /// Parses and runs `argv`, which must read without a usage error.
    fn run(argv: &[&str]) -> Result<String, String> {
        let args = Args::parse(argv).unwrap();
        (args.row.read)(&args).unwrap()()
    }

    #[test]
    fn parse_generate() {
        let args = parse(&[
            "generate", "--app", "chrome", "--app", "gedit", "--days", "30", "--seed", "7", "-o",
            "t.txt",
        ])
        .unwrap();
        assert_eq!(
            args.values("--app").collect::<Vec<_>>(),
            ["chrome", "gedit"]
        );
        assert_eq!(args.days("--days").unwrap(), Some(30));
        assert_eq!(args.num("--seed").unwrap(), Some(7));
        assert_eq!(args.value("-o"), Some("t.txt"));
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
        let args = parse(&["clusters", "s.ttkv"]).unwrap();
        assert_eq!(args.positional(0).unwrap(), "s.ttkv");
        let params = cluster_params(&args).unwrap();
        assert_eq!(params.window_ms, 1_000);
        assert_eq!(params.correlation_threshold, 2.0);
        assert_eq!(args.value("--app"), None);
        assert!(!args.switch("--multi-only"));
        let args = parse(&[
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
        let params = cluster_params(&args).unwrap();
        assert_eq!(params.window_ms, 30_000);
        assert_eq!(params.correlation_threshold, 1.0);
        assert_eq!(args.value("--app"), Some("word"));
        assert!(args.switch("--multi-only"));
        assert!(
            parse(&["clusters", "s", "--threshold", "3.0"]).is_err(),
            "threshold range"
        );
    }

    #[test]
    fn parse_fleet() {
        let args = parse(&[
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
        let config = fleet_config(&args, FleetRunConfig::default()).unwrap();
        assert!(args.value("--metrics-json").is_none());
        assert_eq!(config.machines, 8);
        assert_eq!(config.days, 14);
        assert_eq!(config.seed, 5);
        assert_eq!(config.engine.ingest_threads, 4);
        assert_eq!(config.engine.shards, 32);
        assert_eq!(config.apps, vec!["word".to_owned()]);
        assert_eq!(config.engine.placement, ocasta::KeyPlacement::PerMachine);
        assert!(args.switch("--cluster"));
        assert!(args.value("-o").is_none());
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
        let args = parse(&[
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
        let config = fleet_config(&args, FleetRunConfig::default()).unwrap();
        assert_eq!(config.machines, 3);
        assert_eq!(config.days, 5);
        let params = cluster_params(&args).unwrap();
        assert_eq!(params.window_ms, 30_000);
        assert_eq!(params.correlation_threshold, 1.5);
        assert_eq!(args.num("--poll-ms").unwrap(), Some(5));
        assert!(args.switch("--verify"));
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
        let args = parse(&[
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
        let config = repair_config(&args).unwrap();
        assert_eq!(config.fleet.machines, 4);
        assert_eq!(config.fleet.days, 8);
        assert_eq!(config.users, 3);
        assert_eq!(config.search_threads, 2);
        assert_eq!(config.scenario_ids, vec![13, 15]);
        assert_eq!(config.min_catalog_events, 500);
        assert_eq!(config.start_bound_days, Some(5));
        assert_eq!(config.strategy, SearchStrategy::Bfs);
        // Defaults: scenario set falls back to the service default.
        let config =
            repair_config(&parse(&["repair", "--machines", "2", "--days", "3"]).unwrap()).unwrap();
        assert!(!config.scenario_ids.is_empty());
        assert_eq!(config.strategy, SearchStrategy::Dfs);
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
        let out = run(&[
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
        .unwrap();
        assert!(out.contains("catalog: pinned at epoch"), "{out}");
        assert!(out.contains("fixed 2/2 sessions"), "{out}");
        assert!(out.contains("error #13"), "{out}");
        assert!(out.contains("error #15"), "{out}");
    }

    #[test]
    fn stream_end_to_end_serves_live_and_verified_clusters() {
        let out = run(&[
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
        let out = run(&[
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
        .unwrap();
        assert!(out.contains("3 machines"), "{out}");
        assert!(out.contains("clusters:"), "{out}");
        let reloaded = load_store(&store_path).unwrap();
        assert!(reloaded.stats().writes > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parse_retain_days() {
        let args = parse(&[
            "fleet",
            "--machines",
            "2",
            "--days",
            "10",
            "--retain-days",
            "3",
        ])
        .unwrap();
        let config = fleet_config(&args, FleetRunConfig::default()).unwrap();
        let policy = config.engine.retention.expect("retention set");
        assert_eq!(policy, RetentionPolicy::keep_days(3));
        let args = parse(&[
            "stream",
            "--machines",
            "2",
            "--days",
            "10",
            "--retain-days",
            "4",
        ])
        .unwrap();
        let config = fleet_config(&args, FleetRunConfig::default()).unwrap();
        assert_eq!(config.engine.retention, Some(RetentionPolicy::keep_days(4)));
        let args = parse(&[
            "repair",
            "--machines",
            "2",
            "--days",
            "10",
            "--retain-days",
            "5",
        ])
        .unwrap();
        assert_eq!(
            repair_config(&args).unwrap().fleet.engine.retention,
            Some(RetentionPolicy::keep_days(5)),
        );
        // No flag: retention stays off.
        let args = parse(&["fleet", "--machines", "2", "--days", "10"]).unwrap();
        let config = fleet_config(&args, FleetRunConfig::default()).unwrap();
        assert!(config.engine.retention.is_none());
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
        // multiplication (debug panic / release wrap) instead of erroring,
        // and a huge --window into an unchecked seconds-to-milliseconds
        // multiplication.
        let days = "must be between 1 and";
        let window = "--window must be at most 3153600000";
        for (args, expected) in [
            (
                vec![
                    "generate",
                    "--app",
                    "gedit",
                    "--days",
                    "99999999999",
                    "-o",
                    "x",
                ],
                days,
            ),
            (
                vec!["fleet", "--machines", "2", "--days", "99999999999"],
                days,
            ),
            (
                vec![
                    "fleet",
                    "--machines",
                    "2",
                    "--days",
                    "5",
                    "--retain-days",
                    "0",
                ],
                days,
            ),
            (vec!["stream", "--machines", "2", "--days", "0"], days),
            (
                vec![
                    "repair",
                    "--machines",
                    "2",
                    "--days",
                    "5",
                    "--start-bound-days",
                    "99999999999",
                ],
                days,
            ),
            (
                vec!["clusters", "s.ttkv", "--window", "18446744073709552"],
                window,
            ),
            (
                vec![
                    "stream",
                    "--machines",
                    "2",
                    "--days",
                    "5",
                    "--window",
                    "18446744073709552",
                ],
                window,
            ),
            (
                vec![
                    "repair",
                    "--machines",
                    "2",
                    "--days",
                    "5",
                    "--window",
                    "18446744073709552",
                ],
                window,
            ),
        ] {
            let err = parse(&args).unwrap_err();
            assert!(err.contains(expected), "{args:?} -> {err}");
        }
        // The widest window, MAX_DAYS days, still reads.
        let widest = (MAX_DAYS * 86_400).to_string();
        let args = parse(&["clusters", "s.ttkv", "--window", &widest]).unwrap();
        assert_eq!(
            cluster_params(&args).unwrap().window_ms,
            MAX_DAYS * 86_400_000
        );
    }

    /// Every flag that becomes one OS thread, buffer slot or machine per
    /// unit is bounded at parse time: its constant reads, one more is a
    /// usage error. Nothing runs.
    #[test]
    fn count_flags_are_bounded() {
        for (verb, flag, max) in [
            ("fleet", "--machines", MAX_MACHINES),
            ("fleet", "--threads", MAX_THREADS),
            ("stream", "--shards", MAX_THREADS),
            ("repair", "--batch", MAX_BATCH),
            ("repair", "--users", MAX_THREADS),
            ("repair", "--search-threads", MAX_THREADS),
        ] {
            let at = |n: u64| {
                let n = n.to_string();
                parse(&[verb, "--machines", "2", "--days", "3", flag, &n]).map(|_| ())
            };
            assert_eq!(at(max), Ok(()), "{verb} {flag} {max}");
            let err = at(max + 1).unwrap_err();
            assert!(
                err.contains(&format!("{flag} must be at most {max}")),
                "{verb} {flag}: {err}"
            );
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
        let args = parse(&["export", "s.ttkv", "-o", "s.txt"]).unwrap();
        assert_eq!(args.positional(0).unwrap(), "s.ttkv");
        assert_eq!(args.value("-o"), Some("s.txt"));
        assert!(parse(&["generate", "--app"]).is_err(), "flag without value");
        assert!(parse(&["doctor"]).is_err(), "doctor needs a directory");
        assert!(parse(&["doctor", "a", "b"]).is_err());
        assert!(
            parse(&["fleet", "--machines", "2", "--days", "3", "--metrics-json"]).is_err(),
            "flag without value"
        );
        // An unknown flag is a usage error for every row, even where a
        // positional slot is still empty.
        for row in SUBCOMMANDS {
            let err = parse(&[row.name, "--bogus"]).unwrap_err();
            assert!(
                err.contains("unknown argument `--bogus`"),
                "{}: {err}",
                row.name
            );
        }
    }

    #[test]
    fn parse_metrics_json_and_doctor() {
        for verb in ["fleet", "stream", "repair"] {
            let args = parse(&[
                verb,
                "--machines",
                "2",
                "--days",
                "3",
                "--metrics-json",
                "m.json",
            ])
            .unwrap();
            assert_eq!(args.value("--metrics-json"), Some("m.json"), "{verb}");
        }
        let args = parse(&["doctor", "waldir"]).unwrap();
        assert_eq!(args.positional(0).unwrap(), "waldir");
    }

    #[test]
    fn parse_vopr() {
        let args = parse(&["vopr", "--scenario", "baseline", "--seed", "42"]).unwrap();
        assert_eq!(args.value("--scenario"), Some("baseline"));
        assert_eq!(args.num("--seed").unwrap(), Some(42));
        assert!(!args.switch("--list"));
        let verdict = run(&["vopr", "--scenario", "clock-skew"]).unwrap_or_else(|report| report);
        assert!(
            verdict.starts_with("vopr scenario=clock-skew seed=0\n"),
            "seed defaults to 0: {verdict}"
        );
        let args = parse(&["vopr", "--list"]).unwrap();
        assert_eq!(args.value("--scenario"), None);
        assert_eq!(args.num("--seed").unwrap(), None);
        assert!(args.switch("--list"));
        assert!(parse(&["vopr"]).is_err(), "needs --scenario or --list");
        assert!(parse(&["vopr", "--seed", "7"]).is_err());
        assert!(parse(&["vopr", "--scenario"]).is_err(), "flag needs value");
        assert!(parse(&["vopr", "--scenario", "baseline", "bogus"]).is_err());
    }

    /// Every `$ ocasta …` line in README.md names a row and reads
    /// through it, so a renamed or removed flag breaks this test instead
    /// of the docs. Nothing runs.
    #[test]
    fn readme_invocations_read_through_their_rows() {
        let readme =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md"))
                .unwrap();
        let mut lines = readme.lines();
        let mut checked = 0;
        while let Some(line) = lines.next() {
            let Some(first) = line.strip_prefix("$ ocasta ") else {
                continue;
            };
            let mut command = first.to_owned();
            while let Some(head) = command.trim_end().strip_suffix('\\') {
                command = format!("{head} {}", lines.next().unwrap());
            }
            let command = command.split(['#', ';']).next().unwrap();
            let argv: Vec<&str> = command.split_whitespace().collect();
            if let Err(err) = parse(&argv) {
                panic!("README.md: `ocasta {command}`: {err}");
            }
            checked += 1;
        }
        assert!(checked >= 20, "only {checked} invocations found");
    }

    #[test]
    fn vopr_list_names_every_scenario() {
        let out = run(&["vopr", "--list"]).unwrap();
        let names: Vec<&str> = out.lines().collect();
        assert_eq!(names, ocasta::vopr_scenario_names().to_vec());
    }

    #[test]
    fn vopr_rejects_unknown_scenarios_via_run() {
        let err = run(&["vopr", "--scenario", "nope"]);
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
        run(&args).unwrap();

        let mut args: Vec<&str> = base.to_vec();
        args.extend(["-o", &observed, "--metrics-json", &metrics]);
        let out = run(&args).unwrap();
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
        run(&[
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
        .unwrap();

        // Never compacted: the epoch-0 log alone, and not one finding.
        let out = run(&["doctor", &wal_str]).unwrap();
        assert!(out.contains("healthy"), "{out}");
        assert!(diagnose(&wal).findings.is_empty(), "{out}");

        // Flip a byte inside the log's first frame: corruption, non-Ok.
        let log = wal.join("wal-0.log");
        let mut bytes = std::fs::read(&log).unwrap();
        let offset = ocasta::WAL_MAGIC.len() + 8 + 2;
        bytes[offset] ^= 0xFF;
        std::fs::write(&log, &bytes).unwrap();
        let err = run(&["doctor", &wal_str]).unwrap_err();
        assert!(err.contains("log-corrupt"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn end_to_end_through_temp_files() {
        let dir = std::env::temp_dir().join(format!("ocasta-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("t.txt").to_string_lossy().into_owned();
        let store_path = dir.join("s.ttkv").to_string_lossy().into_owned();

        let out = run(&[
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
        .unwrap();
        assert!(out.contains("20 days"));

        let out = run(&["stats", &trace_path]).unwrap();
        assert!(out.contains("keys"));

        let out = run(&["replay", &trace_path, "-o", &store_path]).unwrap();
        assert!(out.contains("wrote"));

        // `replay -o` writes binary v2; `export` dumps that same store as
        // text v1.
        let store_bytes = std::fs::read(&store_path).unwrap();
        assert!(store_bytes.starts_with(ocasta_ttkv::BINARY_MAGIC));
        let text_path = dir.join("store.txt").to_string_lossy().into_owned();
        let out = run(&["export", &store_path, "-o", &text_path]).unwrap();
        assert!(out.contains("exported"), "{out}");
        let text = std::fs::read_to_string(&text_path).unwrap();
        assert!(text.starts_with("ocasta-ttkv v1"), "text v1 export");
        assert_eq!(
            text,
            Ttkv::load(store_bytes.as_slice()).unwrap().save_to_string()
        );

        let out = run(&["clusters", &store_path, "--multi-only"]).unwrap();
        assert!(out.contains("# "), "summary line present: {out}");

        let out = run(&["history", &store_path, "gedit/view/wrap_mode"]).unwrap();
        assert!(out.contains("writes"));

        let err = run(&["history", &store_path, "no/such/key"]).unwrap_err();
        assert!(err.contains("not in store"));

        std::fs::remove_dir_all(&dir).ok();
    }
}
