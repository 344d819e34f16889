//! The `ompfuzz` command-line interface.
//!
//! Every command declares its flags and its description once, in
//! [`COMMANDS`]: the table parses the command line and renders the usage
//! (`ompfuzz help`), whose checked-in copy is `schemas/cli-usage.txt`.

use ompfuzz_backends::{standard_backends, OmpBackend};
use ompfuzz_corpus::{
    fold_into_catalog, reduce_all, run_sharded_evolution, run_standalone_shard, BatchConfig,
    Checkpoint, EvolveConfig, ShardedEvolveConfig, TriggerCatalog,
};
use ompfuzz_exec::ProfileCollector;
use ompfuzz_harness::{
    generate_case, generate_corpus, run_campaign, run_campaign_generated_with, save_corpus,
    CampaignConfig,
};
use ompfuzz_obs::{stderr_jsonl, Event, HumanSink, JsonlSink, MultiSink, Obs, TraceBuffer};
use ompfuzz_outlier::OutlierKind;
use ompfuzz_reduce::{ReduceConfig, Reducer, ReductionTarget};
use ompfuzz_report::{
    campaign_to_csv, check_schema, experiments, profile_to_json, render_catalog, render_evolution,
    render_metrics_report, render_profile_report, render_reduction_summary, render_serve_status,
    render_shard_progress, render_shard_summary, render_table1, run_experiment, Scale,
};
use ompfuzz_serve::{client as serve_client, run_daemon, JobSpec, ServeConfig};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        print!("{}", usage());
        return ExitCode::from(2);
    };
    // Asking for help anywhere prints the usage and runs nothing.
    if ["help", "--help", "-h"].contains(&cmd.as_str())
        || rest.iter().any(|a| a == "--help" || a == "-h")
    {
        print!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let result = match COMMANDS.iter().find(|(name, ..)| name == cmd) {
        Some(&(name, _, flags, run)) => Opts::parse(name, flags, rest).and_then(|opts| run(&opts)),
        None => Err(format!("unknown command `{cmd}` (try `ompfuzz help`)")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("ompfuzz: {msg}");
            ExitCode::from(2)
        }
    }
}

/// A command's body, run on its parsed command line.
type Command = fn(&Opts) -> Result<(), String>;

/// A command's flags, declared once: the tables it shares with other
/// commands plus its own.
type Flags = &'static [&'static [Flag]];

/// Every command: its name, what it does (the usage's description), its
/// flags and its body.
const COMMANDS: &[(&str, &str, Flags, Command)] = &[
    (
        "list-experiments",
        "list every reproducible table/figure",
        &[],
        cmd_list,
    ),
    (
        "reproduce",
        "regenerate one experiment (e.g. table1, fig9); requires --experiment",
        &[&[opt("--experiment", Some("-e"), "ID"), switch("--quick")]],
        cmd_reproduce,
    ),
    (
        "campaign",
        "run a differential campaign and print Table I; --csv writes every \
         run record, --metrics-out writes its counters, phase times and \
         latency histograms as a JSONL stream for `report --metrics` \
         (--engine picks the interpreter; results are bit-identical, the \
         bytecode VM is the fast default, the tree walk the reference)",
        &[
            CONFIG_FLAGS,
            ENGINE_FLAGS,
            &[
                opt("--csv", None, "FILE"),
                opt("--metrics-out", None, "FILE"),
            ],
        ],
        cmd_campaign,
    ),
    (
        "reduce",
        "run a campaign, then delta-debug its worst outlier (or program \
         IDX's) to a minimal kernel; --all batch-reduces every outlier into \
         a skeleton-deduplicated trigger catalog",
        &[
            CONFIG_FLAGS,
            ENGINE_FLAGS,
            &[
                switch("--all"),
                opt("--kind", Some("-k"), "slow|fast|crash|hang"),
                opt("--target", Some("-t"), "IDX"),
                opt("--workers", Some("-w"), "W"),
                opt("--catalog", None, "FILE"),
                switch("--emit"),
            ],
        ],
        cmd_reduce,
    ),
    (
        "evolve",
        "corpus-guided evolutionary loop: campaign -> batch-reduce -> \
         catalog -> bias + mutate -> repeat; --shards splits each round \
         into N slices merged in order, --checkpoint-dir makes the campaign \
         crash-resumable (completed shards are skipped); --progress picks \
         the stderr renderer over the telemetry stream, --metrics-out saves \
         it as JSONL, --trace-out writes a Chrome trace-event file of \
         per-phase spans (load in Perfetto), --profile-out writes the \
         campaign-wide VM hot-path profile",
        &[
            CONFIG_FLAGS,
            ENGINE_FLAGS,
            EVOLVE_FLAGS,
            &[opt("--catalog", None, "FILE")],
        ],
        cmd_evolve,
    ),
    (
        "shard",
        "run ONE shard of one evolution round and checkpoint it (the \
         out-of-process worker behind a sharded evolve); requires --round, \
         --shard and --checkpoint-dir",
        &[
            CONFIG_FLAGS,
            ENGINE_FLAGS,
            EVOLVE_FLAGS,
            &[opt("--round", None, "R"), opt("--shard", None, "I/N")],
        ],
        cmd_shard,
    ),
    (
        "serve",
        "run the campaign daemon: a job queue multiplexed over N `ompfuzz \
         shard` subprocess slots with round-robin scheduling, per-shard \
         timeouts, and crash requeue with capped exponential backoff \
         (--fault-kill SIGKILLs one designated shard's first attempt, a \
         requeue drill); requires --socket and --state-dir",
        &[&[
            opt("--socket", None, "PATH"),
            opt("--state-dir", None, "DIR"),
            opt("--slots", None, "N"),
            opt("--max-retries", None, "N"),
            opt("--backoff-ms", None, "MS"),
            opt("--backoff-cap-ms", None, "MS"),
            opt("--timeout-ms", None, "MS"),
            opt("--jitter-seed", None, "S"),
            opt("--fault-kill", None, "R/I"),
        ]],
        cmd_serve,
    ),
    (
        "submit",
        "enqueue a campaign on a running daemon; prints the job name \
         (job-1, ...); requires --socket",
        &[&[
            opt("--socket", None, "PATH"),
            switch("--quick"),
            opt("--seed", Some("-s"), "S"),
            opt("--programs", Some("-n"), "N"),
            opt("--inputs", Some("-i"), "K"),
            opt("--rounds", Some("-r"), "N"),
            opt("--shards", None, "N"),
            opt("--priority", None, "P"),
        ]],
        cmd_submit,
    ),
    (
        "watch",
        "stream a job's events (scheduler + telemetry) to stdout until it \
         ends; exits nonzero unless the job finished `done`; --retry rides \
         out daemon restarts, resuming the stream without gaps or \
         duplicates; requires --socket and --job",
        &[JOB_FLAGS, &[opt("--retry", None, "N")]],
        cmd_watch,
    ),
    (
        "status",
        "render the daemon's job table (--retry reconnects across a daemon \
         restart); requires --socket",
        &[JOB_FLAGS, &[opt("--retry", None, "N")]],
        cmd_status,
    ),
    (
        "cancel",
        "cancel a queued or running job; requires --socket and --job",
        &[JOB_FLAGS],
        cmd_cancel,
    ),
    (
        "shutdown",
        "stop the daemon; --drain finishes in-flight shards and journals \
         final state first, plain shutdown kills workers immediately (both \
         leave restart-recoverable state); requires --socket",
        &[&[opt("--socket", None, "PATH"), switch("--drain")]],
        cmd_shutdown,
    ),
    (
        "report",
        "validate a --metrics-out JSONL stream and render \
         counter/phase/round/latency tables (--schema also checks a schema \
         file against the built-in taxonomy; --profile renders a \
         --profile-out file's hot-opcode and hot-block tables; \
         --render-schema and --render-serve-schema print the built-in \
         schemas for checking in)",
        &[&[
            opt("--metrics", Some("-m"), "FILE"),
            opt("--schema", None, "FILE"),
            opt("--profile", Some("-p"), "FILE"),
            switch("--render-schema"),
            switch("--render-serve-schema"),
        ]],
        cmd_report,
    ),
    (
        "generate",
        "write generated .cpp tests + inputs to DIR (20 programs unless \
         --programs); requires --out",
        &[CONFIG_FLAGS, &[opt("--out", Some("-o"), "DIR")]],
        cmd_generate,
    ),
    (
        "emit",
        "print one generated test program",
        &[&[opt("--seed", Some("-s"), "S")]],
        cmd_emit,
    ),
    (
        "config-template",
        "print the default campaign config file",
        &[],
        cmd_config_template,
    ),
];

/// The campaign-config flags ([`build_config`]).
const CONFIG_FLAGS: &[Flag] = &[
    opt("--config", Some("-c"), "FILE"),
    opt("--programs", Some("-n"), "N"),
    opt("--inputs", Some("-i"), "K"),
    opt("--seed", Some("-s"), "S"),
];

/// The interpreter choice of the commands that run kernels
/// ([`apply_engine`]).
const ENGINE_FLAGS: &[Flag] = &[opt("--engine", None, "tree|bytecode")];

/// The flags `evolve` and `shard` share: the evolution knobs
/// ([`build_evolve_config`]), the shard plan and checkpoint directory, and
/// telemetry ([`build_obs`], [`build_profile`]).
const EVOLVE_FLAGS: &[Flag] = &[
    switch("--quick"),
    opt("--rounds", Some("-r"), "N"),
    opt("--mutation-fraction", None, "F"),
    opt("--bias", None, "S"),
    opt("--resume", None, "FILE"),
    opt("--shards", None, "N"),
    opt("--checkpoint-dir", None, "DIR"),
    opt("--progress", None, "human|jsonl|none"),
    opt("--metrics-out", None, "FILE"),
    opt("--trace-out", None, "FILE"),
    opt("--profile-out", None, "FILE"),
];

/// The daemon socket and job of the serve clients.
const JOB_FLAGS: &[Flag] = &[
    opt("--socket", None, "PATH"),
    opt("--job", Some("-j"), "JOB"),
];

/// The column the usage text wraps at.
const USAGE_WIDTH: usize = 78;

/// The usage text, rendered from [`COMMANDS`]: each command with every
/// flag it accepts, then what it does.
fn usage() -> String {
    let mut out = String::from(
        "ompfuzz — randomized differential testing for OpenMP implementations\n\n\
         USAGE:\n  ompfuzz <command> [options]\n  ompfuzz help\n\n\
         COMMANDS:\n",
    );
    for &(name, about, flags, _) in COMMANDS {
        let synopsis: Vec<String> = flags
            .iter()
            .flat_map(|t| t.iter())
            .map(Flag::synopsis)
            .collect();
        push_wrapped(
            &mut out,
            &format!("  {name}"),
            synopsis.iter().map(String::as_str),
        );
        push_wrapped(&mut out, "     ", about.split_whitespace());
    }
    out
}

/// Append `lead` and then `words`, one space apart, to `out` as lines no
/// wider than [`USAGE_WIDTH`]; continuation lines align with the first
/// word. A word is never split.
fn push_wrapped<'w>(out: &mut String, lead: &str, words: impl Iterator<Item = &'w str>) {
    let mut line = lead.to_string();
    for word in words {
        if line.len() > lead.len() && line.len() + 1 + word.len() > USAGE_WIDTH {
            out.push_str(&line);
            out.push('\n');
            line = " ".repeat(lead.len());
        }
        line.push(' ');
        line.push_str(word);
    }
    out.push_str(&line);
    out.push('\n');
}

/// One command-line flag: its long name, an optional short alias, and
/// the placeholder the usage shows for its value (`None`: no value).
struct Flag {
    long: &'static str,
    short: Option<&'static str>,
    value: Option<&'static str>,
}

impl Flag {
    /// The flag as the usage shows it, e.g. `[-s|--seed S]`.
    fn synopsis(&self) -> String {
        let short = self.short.map(|s| format!("{s}|")).unwrap_or_default();
        let value = self.value.map(|v| format!(" {v}")).unwrap_or_default();
        format!("[{short}{}{value}]", self.long)
    }
}

/// A flag that takes a value, shown as `value` in the usage.
const fn opt(long: &'static str, short: Option<&'static str>, value: &'static str) -> Flag {
    Flag {
        long,
        short,
        value: Some(value),
    }
}

/// A flag that takes no value.
const fn switch(long: &'static str) -> Flag {
    Flag {
        long,
        short: None,
        value: None,
    }
}

/// A command line parsed against its command's flags: every argument is a
/// declared flag (long or short), each flag that takes a value has one,
/// and nothing else is left over.
struct Opts<'a> {
    flags: Flags,
    /// The flags given, by long name, with their values, in order.
    given: Vec<(&'static str, Option<&'a str>)>,
}

impl<'a> Opts<'a> {
    fn parse(command: &str, flags: Flags, args: &'a [String]) -> Result<Opts<'a>, String> {
        let find = |arg: &str| {
            flags
                .iter()
                .flat_map(|table| table.iter())
                .find(|f| f.long == arg || f.short == Some(arg))
        };
        let mut given = Vec::new();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let Some(flag) = find(arg) else {
                return Err(if arg.starts_with('-') {
                    format!("unknown flag `{arg}` for `{command}` (try `ompfuzz help`)")
                } else {
                    format!("unexpected argument `{arg}` for `{command}`")
                });
            };
            let value = if flag.value.is_some() {
                match args.next() {
                    Some(value) if find(value).is_none() => Some(value.as_str()),
                    _ => return Err(format!("flag `{}` needs a value", flag.long)),
                }
            } else {
                None
            };
            given.push((flag.long, value));
        }
        Ok(Opts { flags, given })
    }

    /// The flag's entry, if given. Debug builds check that the command
    /// declared the flag, so a lookup cannot silently miss a typo.
    fn given(&self, long: &str) -> Option<&(&'static str, Option<&'a str>)> {
        debug_assert!(
            self.flags
                .iter()
                .flat_map(|t| t.iter())
                .any(|f| f.long == long),
            "`{long}` is not in this command's flag table"
        );
        self.given.iter().find(|(l, _)| *l == long)
    }

    fn value_of(&self, long: &str) -> Option<&'a str> {
        self.given(long).and_then(|(_, value)| *value)
    }

    fn has_flag(&self, long: &str) -> bool {
        self.given(long).is_some()
    }

    fn parsed<T: std::str::FromStr>(&self, long: &str) -> Result<Option<T>, String> {
        match self.value_of(long) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("invalid value for {long}: {v}")),
        }
    }
}

fn cmd_list(_opts: &Opts) -> Result<(), String> {
    println!("{:<10} {:<22} title", "id", "paper reference");
    println!("{}", "-".repeat(72));
    for e in experiments() {
        println!("{:<10} {:<22} {}", e.id, e.paper_ref, e.title);
    }
    Ok(())
}

fn cmd_reproduce(opts: &Opts) -> Result<(), String> {
    let id = opts
        .value_of("--experiment")
        .ok_or("reproduce requires --experiment <id>")?;
    let scale = if opts.has_flag("--quick") {
        Scale::Quick
    } else {
        Scale::Paper
    };
    let output = run_experiment(id, scale)
        .ok_or_else(|| format!("unknown experiment `{id}` (see list-experiments)"))?;
    println!("{output}");
    Ok(())
}

fn build_config(opts: &Opts) -> Result<CampaignConfig, String> {
    let mut cfg = match opts.value_of("--config") {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read config {path}: {e}"))?;
            CampaignConfig::from_config_file(&text).map_err(|e| e.to_string())?
        }
        None => CampaignConfig::paper(),
    };
    if let Some(n) = opts.parsed::<usize>("--programs")? {
        cfg.programs = n;
    }
    if let Some(k) = opts.parsed::<usize>("--inputs")? {
        cfg.inputs_per_program = k;
    }
    if let Some(s) = opts.parsed::<u64>("--seed")? {
        cfg.seed = s;
    }
    Ok(cfg)
}

/// Apply `--engine tree|bytecode` (results are bit-identical on either
/// engine; the tree interpreter is the reference for differential
/// self-testing). Only the commands that run kernels declare the flag.
fn apply_engine(opts: &Opts, cfg: &mut CampaignConfig) -> Result<(), String> {
    if let Some(e) = opts.value_of("--engine") {
        cfg.run.engine = e.parse()?;
    }
    Ok(())
}

fn cmd_campaign(opts: &Opts) -> Result<(), String> {
    let mut cfg = build_config(opts)?;
    apply_engine(opts, &mut cfg)?;
    eprintln!(
        "running campaign: {} programs × {} inputs × 3 implementations ...",
        cfg.programs, cfg.inputs_per_program
    );
    let backends = standard_backends();
    let dyns: Vec<&dyn OmpBackend> = backends.iter().map(|b| b as &dyn OmpBackend).collect();
    // Without --metrics-out the campaign runs on the off handle.
    let obs = match opts.value_of("--metrics-out") {
        Some(path) => {
            let sink = JsonlSink::create(Path::new(path))
                .map_err(|e| format!("cannot create {path}: {e}"))?;
            Obs::with_sink(Arc::new(sink))
        }
        None => Obs::off(),
    };
    obs.emit(Event::CampaignStart {
        rounds: 1,
        shards: 1,
        programs: cfg.programs as u64,
        seed: cfg.seed,
    });
    let result = run_campaign(&cfg, &dyns, &obs);
    obs.emit(Event::CampaignEnd {
        rounds: 1,
        catalog: 0,
        wall_us: result.wall_time.as_micros() as u64,
        counters: obs.counters(),
        phases: obs.phases(),
        hists: obs.hists(),
    });
    obs.flush();
    println!("{}", render_table1(&result));
    eprintln!("campaign wall time: {:.2?}", result.wall_time);
    if let Some(csv_path) = opts.value_of("--csv") {
        std::fs::write(csv_path, campaign_to_csv(&result))
            .map_err(|e| format!("cannot write {csv_path}: {e}"))?;
        eprintln!("records written to {csv_path}");
    }
    Ok(())
}

fn cmd_reduce(opts: &Opts) -> Result<(), String> {
    let mut cfg = build_config(opts)?;
    apply_engine(opts, &mut cfg)?;
    let kind = match opts.value_of("--kind") {
        None => None,
        Some("slow") => Some(OutlierKind::Slow),
        Some("fast") => Some(OutlierKind::Fast),
        Some("crash") => Some(OutlierKind::Crash),
        Some("hang") => Some(OutlierKind::Hang),
        Some(other) => return Err(format!("invalid --kind {other} (slow|fast|crash|hang)")),
    };
    let program_index = opts.parsed::<usize>("--target")?;

    eprintln!(
        "running campaign: {} programs × {} inputs × 3 implementations ...",
        cfg.programs, cfg.inputs_per_program
    );
    let backends = standard_backends();
    let dyns: Vec<&dyn OmpBackend> = backends.iter().map(|b| b as &dyn OmpBackend).collect();
    let (result, corpus) = run_campaign_generated_with(
        &cfg,
        &dyns,
        0..cfg.programs,
        &|i| generate_case(&cfg, i),
        Instant::now(),
        &Obs::off(),
        &ProfileCollector::off(),
    );
    eprintln!(
        "campaign done: {} outliers in {} records",
        result.tally.total_outliers(),
        result.records.len()
    );

    if opts.has_flag("--all") {
        // Batch mode reduces whole classes of records; the single-target
        // selectors and the single-kernel emitter don't compose with it.
        if program_index.is_some() {
            return Err("--all and --target are mutually exclusive".into());
        }
        if opts.has_flag("--emit") {
            return Err("--emit applies to a single reduction, not --all \
                        (the saved --catalog file carries every kernel)"
                .into());
        }
        // `--kind` narrows the batch to one outlier class.
        let mut result = result;
        if let Some(k) = kind {
            result
                .records
                .retain(|r| r.outlier().is_some_and(|(rk, _)| rk == k));
        }
        let mut batch_cfg = BatchConfig::for_campaign(&cfg);
        if let Some(w) = opts.parsed::<usize>("--workers")? {
            batch_cfg.workers = w;
        }
        let batch = reduce_all(&corpus, &result, &dyns, &batch_cfg);
        eprintln!(
            "batch reduction: {} outliers reduced, {} oracle checks",
            batch.reduced.len(),
            batch.oracle_checks
        );
        let mut catalog = TriggerCatalog::new();
        fold_into_catalog(&mut catalog, &batch, cfg.seed, 0);
        println!("{}", render_catalog(&catalog, &result.labels));
        save_catalog_if_requested(opts, &catalog)?;
        return Ok(());
    }

    // Pick the target record: a specific program's worst outlier, the worst
    // of one kind, or the campaign-wide worst.
    let target = match (program_index, kind) {
        (Some(idx), _) => {
            let record = result
                .records
                .iter()
                .filter(|r| {
                    r.program_index == idx
                        && r.outlier()
                            .is_some_and(|(k, _)| kind.is_none() || kind == Some(k))
                })
                .min_by_key(|r| r.input_index) // prefer the first input's record
                .ok_or_else(|| format!("program {idx} has no matching outlier record"))?;
            ReductionTarget::from_record(&corpus, record)
        }
        (None, Some(k)) => ReductionTarget::worst_of_kind(&corpus, &result, k),
        (None, None) => ReductionTarget::worst_of_campaign(&corpus, &result),
    }
    .ok_or("campaign produced no matching outlier to reduce")?;

    eprintln!(
        "reducing {} ({} statements, verdict: {} on {}) ...",
        target.program.name,
        target.program.body.stmt_count(),
        target.verdict.kind.label(),
        result.labels[target.verdict.backend],
    );
    let mut reduce_cfg = ReduceConfig::for_campaign(&cfg);
    if let Some(w) = opts.parsed::<usize>("--workers")? {
        reduce_cfg.workers = w;
    }
    let outcome = Reducer::new(&dyns, reduce_cfg).reduce(&target);

    println!("{}", render_reduction_summary(&outcome, &result.labels));
    println!(
        "// reduced kernel ({} -> {} statements):",
        outcome.original_stmts, outcome.reduced_stmts
    );
    if opts.has_flag("--emit") {
        println!(
            "{}",
            ompfuzz_ast::printer::emit_translation_unit(&outcome.reduced, &Default::default())
        );
    } else {
        println!(
            "{}",
            ompfuzz_ast::printer::emit_kernel_source(&outcome.reduced, &Default::default())
        );
    }
    Ok(())
}

fn save_catalog_if_requested(opts: &Opts, catalog: &TriggerCatalog) -> Result<(), String> {
    if let Some(path) = opts.value_of("--catalog") {
        std::fs::write(path, catalog.save_to_string())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("catalog ({} kernels) written to {path}", catalog.len());
    }
    Ok(())
}

/// Build the evolution configuration and starting catalog shared by
/// `evolve` and `shard` (which must agree exactly for the shard's
/// checkpoint fingerprint to match the coordinator's).
fn build_evolve_config(opts: &Opts) -> Result<(EvolveConfig, TriggerCatalog), String> {
    let mut base = if opts.has_flag("--quick") {
        // CI-scale smoke: the small campaign config with the time-filter
        // floor dropped (small programs finish in microseconds), 2 rounds.
        // It replaces the whole campaign config, so a config file cannot
        // also apply — reject the combination instead of ignoring it.
        if opts.value_of("--config").is_some() {
            return Err("--quick and --config are mutually exclusive".into());
        }
        let mut quick = EvolveConfig::quick().base;
        if let Some(s) = opts.parsed::<u64>("--seed")? {
            quick.seed = s;
        }
        if let Some(n) = opts.parsed::<usize>("--programs")? {
            quick.programs = n;
        }
        if let Some(k) = opts.parsed::<usize>("--inputs")? {
            quick.inputs_per_program = k;
        }
        quick
    } else {
        build_config(opts)?
    };
    apply_engine(opts, &mut base)?;
    let mut config = EvolveConfig::new(base);
    if let Some(r) = opts.parsed::<usize>("--rounds")? {
        config.rounds = r;
    } else if opts.has_flag("--quick") {
        config.rounds = EvolveConfig::quick().rounds;
    }
    if let Some(f) = opts.parsed::<f64>("--mutation-fraction")? {
        if !(0.0..=1.0).contains(&f) {
            return Err(format!("--mutation-fraction must be in [0, 1], got {f}"));
        }
        config.mutation_fraction = f;
    }
    if let Some(b) = opts.parsed::<f64>("--bias")? {
        if !(0.0..=1.0).contains(&b) {
            return Err(format!("--bias must be in [0, 1], got {b}"));
        }
        config.bias_strength = b;
    }
    let initial = match opts.value_of("--resume") {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read catalog {path}: {e}"))?;
            let catalog = TriggerCatalog::load_from_string(&text).map_err(|e| e.to_string())?;
            eprintln!("resuming from {path}: {} kernels", catalog.len());
            catalog
        }
        None => TriggerCatalog::new(),
    };
    Ok((config, initial))
}

/// Compose the telemetry sinks selected on the command line: a stderr
/// progress renderer (`--progress human|jsonl|none`, human by default), a
/// `--metrics-out FILE` JSONL stream, and — whenever a checkpoint
/// directory is in play — an append-mode `events.jsonl` next to the
/// checkpoint files, so a resumed campaign extends the recorded history.
/// `--trace-out FILE` additionally collects Chrome trace-event spans;
/// the returned buffer is written by [`write_introspection_outputs`]
/// once the run finishes.
fn build_obs(
    opts: &Opts,
    checkpoint: Option<&Path>,
) -> Result<(Obs, Option<Arc<TraceBuffer>>), String> {
    let mut sinks = MultiSink::new();
    match opts.value_of("--progress").unwrap_or("human") {
        "human" => sinks.push(Arc::new(HumanSink)),
        "jsonl" => sinks.push(Arc::new(stderr_jsonl())),
        "none" => {}
        other => return Err(format!("invalid --progress `{other}` (human|jsonl|none)")),
    }
    if let Some(path) = opts.value_of("--metrics-out") {
        let sink =
            JsonlSink::create(Path::new(path)).map_err(|e| format!("cannot create {path}: {e}"))?;
        sinks.push(Arc::new(sink));
    }
    if let Some(dir) = checkpoint {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let path = dir.join("events.jsonl");
        let sink =
            JsonlSink::append(&path).map_err(|e| format!("cannot open {}: {e}", path.display()))?;
        sinks.push(Arc::new(sink));
    }
    let trace = opts
        .value_of("--trace-out")
        .map(|_| Arc::new(TraceBuffer::new()));
    let sink: Option<Arc<dyn ompfuzz_obs::EventSink>> = if sinks.is_empty() {
        None
    } else {
        Some(Arc::new(sinks))
    };
    Ok((Obs::with_sink_and_trace(sink, trace.clone()), trace))
}

/// The campaign-wide profile collector selected by `--profile-out`.
fn build_profile(opts: &Opts) -> ProfileCollector {
    if opts.value_of("--profile-out").is_some() {
        ProfileCollector::enabled()
    } else {
        ProfileCollector::off()
    }
}

/// Write the `--trace-out` and `--profile-out` files after a campaign.
/// Strictly out of band: these render the introspection buffers; catalog
/// bytes were already fixed by the run.
fn write_introspection_outputs(
    opts: &Opts,
    trace: Option<&Arc<TraceBuffer>>,
    profile: &ProfileCollector,
) -> Result<(), String> {
    if let (Some(path), Some(buf)) = (opts.value_of("--trace-out"), trace) {
        std::fs::write(path, buf.to_json()).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("trace ({} spans) written to {path}", buf.len());
    }
    if let Some(path) = opts.value_of("--profile-out") {
        let snapshot = profile.snapshot();
        std::fs::write(path, profile_to_json(&snapshot))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!(
            "VM profile ({} runs, {} dispatches) written to {path}",
            snapshot.runs(),
            snapshot.total_dispatches()
        );
    }
    Ok(())
}

fn cmd_evolve(opts: &Opts) -> Result<(), String> {
    let (config, initial) = build_evolve_config(opts)?;
    let shards = opts.parsed::<usize>("--shards")?.unwrap_or(1);
    if shards == 0 {
        return Err("--shards must be at least 1".into());
    }
    let checkpoint = opts.value_of("--checkpoint-dir").map(PathBuf::from);
    let (obs, trace) = build_obs(opts, checkpoint.as_deref())?;
    let profile = build_profile(opts);

    let backends = standard_backends();
    let dyns: Vec<&dyn OmpBackend> = backends.iter().map(|b| b as &dyn OmpBackend).collect();
    let sharded = ShardedEvolveConfig {
        evolve: config,
        shards,
    };
    let ckpt = checkpoint
        .as_deref()
        .map(Checkpoint::open)
        .transpose()
        .map_err(|e| e.to_string())?;
    let result = run_sharded_evolution(&sharded, &dyns, initial, ckpt.as_ref(), &obs, &profile)
        .map_err(|e| e.to_string())?;
    write_introspection_outputs(opts, trace.as_ref(), &profile)?;

    if shards > 1 || checkpoint.is_some() {
        println!("{}", render_shard_progress(&result.progress));
    }
    println!("{}", render_evolution(&result.evolution.rounds));
    let labels: Vec<String> = dyns
        .iter()
        .map(|b| b.info().vendor.label().to_string())
        .collect();
    println!("{}", render_catalog(&result.evolution.catalog, &labels));
    save_catalog_if_requested(opts, &result.evolution.catalog)?;
    Ok(())
}

fn cmd_report(opts: &Opts) -> Result<(), String> {
    let mut did_something = false;
    if opts.has_flag("--render-schema") {
        // Print the built-in taxonomy verbatim — how the checked-in
        // schemas/telemetry-vN.schema file is (re)generated.
        print!("{}", ompfuzz_obs::render_schema());
        did_something = true;
    }
    if opts.has_flag("--render-serve-schema") {
        // Same pattern for the serve protocol: print the built-in tables
        // verbatim; CI cmp's the output against schemas/serve-v1.schema.
        print!("{}", ompfuzz_serve::render_serve_schema());
        did_something = true;
    }
    if let Some(schema_path) = opts.value_of("--schema") {
        let schema = std::fs::read_to_string(schema_path)
            .map_err(|e| format!("cannot read {schema_path}: {e}"))?;
        check_schema(&schema).map_err(|e| format!("{schema_path}: {e}"))?;
        eprintln!(
            "schema {schema_path} matches telemetry v{}",
            ompfuzz_obs::SCHEMA_VERSION
        );
        did_something = true;
    }
    if let Some(path) = opts.value_of("--metrics") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let report = render_metrics_report(&text).map_err(|e| format!("{path}: {e}"))?;
        println!("{report}");
        did_something = true;
    }
    if let Some(path) = opts.value_of("--profile") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let report = render_profile_report(&text).map_err(|e| format!("{path}: {e}"))?;
        println!("{report}");
        did_something = true;
    }
    if !did_something {
        return Err("report requires at least one of --metrics, --profile, \
                    --schema, --render-schema, --render-serve-schema"
            .into());
    }
    Ok(())
}

/// Parse the `I/N` shard coordinate of `ompfuzz shard --shard I/N`.
fn parse_shard_spec(spec: &str) -> Result<(usize, usize), String> {
    let parsed = spec.split_once('/').and_then(|(i, n)| {
        Some((
            i.trim().parse::<usize>().ok()?,
            n.trim().parse::<usize>().ok()?,
        ))
    });
    match parsed {
        Some((shard, shards)) if shards > 0 && shard < shards => Ok((shard, shards)),
        Some((shard, shards)) => Err(format!(
            "shard index {shard} out of range for {shards} shards (expected I in 0..N)"
        )),
        None => Err(format!("--shard expects I/N (e.g. 1/3), got `{spec}`")),
    }
}

fn cmd_shard(opts: &Opts) -> Result<(), String> {
    let round = opts
        .parsed::<usize>("--round")?
        .ok_or("shard requires --round <R>")?;
    let (shard, shards) = parse_shard_spec(
        opts.value_of("--shard")
            .ok_or("shard requires --shard <I/N>")?,
    )?;
    let dir: PathBuf = opts
        .value_of("--checkpoint-dir")
        .ok_or("shard requires --checkpoint-dir <dir>")?
        .into();
    if let Some(n) = opts.parsed::<usize>("--shards")? {
        if n != shards {
            return Err(format!("--shards {n} contradicts --shard {shard}/{shards}"));
        }
    }
    let (config, initial) = build_evolve_config(opts)?;
    let (obs, trace) = build_obs(opts, Some(dir.as_path()))?;
    let profile = build_profile(opts);

    let backends = standard_backends();
    let dyns: Vec<&dyn OmpBackend> = backends.iter().map(|b| b as &dyn OmpBackend).collect();
    let ckpt = Checkpoint::open(&dir).map_err(|e| e.to_string())?;
    let progress = run_standalone_shard(
        &ShardedEvolveConfig {
            evolve: config,
            shards,
        },
        &dyns,
        initial,
        &ckpt,
        round,
        shard,
        &obs,
        &profile,
    )
    .map_err(|e| e.to_string())?;
    write_introspection_outputs(opts, trace.as_ref(), &profile)?;
    println!("{}", render_shard_summary(&progress));
    Ok(())
}

/// The `--socket` every serve-client command requires.
fn socket_opt(opts: &Opts) -> Result<PathBuf, String> {
    opts.value_of("--socket")
        .map(PathBuf::from)
        .ok_or_else(|| "this command requires --socket <path>".into())
}

/// The `--job` of `watch`/`cancel` (and optionally `status`).
fn job_opt(opts: &Opts) -> Result<String, String> {
    opts.value_of("--job")
        .map(str::to_string)
        .ok_or_else(|| "this command requires --job <job-N>".into())
}

fn cmd_serve(opts: &Opts) -> Result<(), String> {
    let state_dir: PathBuf = opts
        .value_of("--state-dir")
        .ok_or("serve requires --state-dir <dir>")?
        .into();
    let mut config = ServeConfig::new(socket_opt(opts)?, state_dir);
    if let Some(n) = opts.parsed::<usize>("--slots")? {
        if n == 0 {
            return Err("--slots must be at least 1".into());
        }
        config.scheduler.slots = n;
    }
    if let Some(n) = opts.parsed::<u32>("--max-retries")? {
        config.scheduler.max_retries = n;
    }
    if let Some(ms) = opts.parsed::<u64>("--backoff-ms")? {
        config.scheduler.backoff_base_ms = ms.max(1);
    }
    if let Some(ms) = opts.parsed::<u64>("--backoff-cap-ms")? {
        config.scheduler.backoff_cap_ms = ms.max(1);
    }
    if let Some(ms) = opts.parsed::<u64>("--timeout-ms")? {
        config.scheduler.shard_timeout_ms = ms.max(1);
    }
    if let Some(s) = opts.parsed::<u64>("--jitter-seed")? {
        config.scheduler.jitter_seed = s;
    }
    if let Some(spec) = opts.value_of("--fault-kill") {
        let parsed = spec
            .split_once('/')
            .and_then(|(r, i)| Some((r.trim().parse().ok()?, i.trim().parse().ok()?)));
        config.fault_kill =
            Some(parsed.ok_or_else(|| format!("--fault-kill expects R/I, got `{spec}`"))?);
    }
    eprintln!(
        "ompfuzz serve: listening on {} ({} slot(s), state in {})",
        config.socket.display(),
        config.scheduler.slots,
        config.state_dir.display()
    );
    run_daemon(config)
}

/// Build a [`JobSpec`] from `submit`'s command line (same vocabulary as
/// `evolve`, so a spec is a campaign you could also have run by hand).
fn build_job_spec(opts: &Opts) -> Result<JobSpec, String> {
    let spec = JobSpec {
        quick: opts.has_flag("--quick"),
        seed: opts.parsed::<u64>("--seed")?,
        programs: opts.parsed::<u64>("--programs")?,
        inputs: opts.parsed::<u64>("--inputs")?,
        rounds: opts.parsed::<u64>("--rounds")?,
        shards: opts.parsed::<u64>("--shards")?.unwrap_or(1),
        priority: opts.parsed::<u64>("--priority")?.unwrap_or(0),
    };
    if spec.rounds == Some(0) {
        return Err("--rounds must be at least 1".into());
    }
    if spec.shards == 0 {
        return Err("--shards must be at least 1".into());
    }
    Ok(spec)
}

fn cmd_submit(opts: &Opts) -> Result<(), String> {
    let socket = socket_opt(opts)?;
    let spec = build_job_spec(opts)?;
    let job = serve_client::submit(&socket, &spec)?;
    eprintln!(
        "submitted {job}: {} round(s) x {} shard(s), priority {}",
        spec.planned_rounds(),
        spec.planned_shards(),
        spec.priority
    );
    println!("{job}");
    Ok(())
}

fn cmd_watch(opts: &Opts) -> Result<(), String> {
    let socket = socket_opt(opts)?;
    let job = job_opt(opts)?;
    let retries = opts.parsed::<u32>("--retry")?.unwrap_or(0);
    let state =
        serve_client::watch_with_retry(&socket, &job, &mut std::io::stdout().lock(), retries)?;
    if state == "done" {
        Ok(())
    } else {
        Err(format!("{job} ended {state}"))
    }
}

fn cmd_status(opts: &Opts) -> Result<(), String> {
    let socket = socket_opt(opts)?;
    let job = opts.value_of("--job");
    let retries = opts.parsed::<u32>("--retry")?.unwrap_or(0);
    let reply = serve_client::status_with_retry(&socket, job, retries)?;
    println!("{}", render_serve_status(&reply)?);
    Ok(())
}

fn cmd_cancel(opts: &Opts) -> Result<(), String> {
    let socket = socket_opt(opts)?;
    let job = job_opt(opts)?;
    serve_client::cancel(&socket, &job)?;
    eprintln!("cancelled {job}");
    Ok(())
}

fn cmd_shutdown(opts: &Opts) -> Result<(), String> {
    let drain = opts.has_flag("--drain");
    serve_client::shutdown(&socket_opt(opts)?, drain)?;
    eprintln!(
        "daemon {}",
        if drain {
            "drained and stopped"
        } else {
            "stopped"
        }
    );
    Ok(())
}

fn cmd_generate(opts: &Opts) -> Result<(), String> {
    let out: PathBuf = opts
        .value_of("--out")
        .ok_or("generate requires --out <dir>")?
        .into();
    let mut cfg = build_config(opts)?;
    if opts.value_of("--programs").is_none() {
        cfg.programs = 20; // sensible default for on-disk inspection
    }
    let corpus = generate_corpus(&cfg);
    let files = save_corpus(&corpus, &out).map_err(|e| format!("saving corpus: {e}"))?;
    println!(
        "wrote {files} files ({} tests × (source + inputs)) under {}",
        corpus.len(),
        out.display()
    );
    Ok(())
}

fn cmd_config_template(_opts: &Opts) -> Result<(), String> {
    println!("{}", CampaignConfig::paper().to_config_file());
    Ok(())
}

fn cmd_emit(opts: &Opts) -> Result<(), String> {
    let seed = opts.parsed::<u64>("--seed")?.unwrap_or(42);
    let mut generator =
        ompfuzz_gen::ProgramGenerator::new(ompfuzz_gen::GeneratorConfig::paper(), seed);
    let program = generator.generate("emitted");
    println!(
        "{}",
        ompfuzz_ast::printer::emit_translation_unit(&program, &Default::default())
    );
    Ok(())
}
