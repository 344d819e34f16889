//! Strict command-line parsing, run against the real binary: each command
//! accepts exactly the flags its table declares, and `ompfuzz help` lists
//! exactly those. An unknown flag, a flag without its value and a stray
//! positional argument exit 2 before any work runs; `--help`/`-h` after
//! any command prints the usage, exits 0 and runs nothing.

use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::atomic::{AtomicUsize, Ordering};

const BIN: &str = env!("CARGO_BIN_EXE_ompfuzz");

/// A scratch working directory per test, removed on drop, so a file a
/// command must not write can be looked for by its relative name.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        static ID: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "ompfuzz-cli-{tag}-{}-{}",
            std::process::id(),
            ID.fetch_add(1, Ordering::SeqCst)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn run(&self, args: &[&str]) -> Output {
        Command::new(BIN)
            .args(args)
            .current_dir(&self.0)
            .output()
            .expect("cannot run ompfuzz")
    }

    fn has(&self, name: &str) -> bool {
        self.0.join(name).exists()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Assert the command exited 2 and its error names `culprit`.
fn refused(out: &Output, culprit: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains(culprit),
        "error does not name {culprit}: {stderr}"
    );
}

#[test]
fn help_after_any_command_prints_usage_and_runs_nothing() {
    let dir = Scratch::new("help");
    for args in [
        &[
            "evolve",
            "--quick",
            "--rounds",
            "1",
            "--help",
            "--catalog",
            "help.txt",
        ][..],
        &["evolve", "--help", "--catalog", "help.txt"],
        &["campaign", "--programs", "1", "--csv", "help.txt", "-h"],
        &[
            "serve",
            "--socket",
            "help.sock",
            "--state-dir",
            "state",
            "--help",
        ],
    ] {
        let out = dir.run(args);
        assert!(out.status.success(), "{args:?} exited {:?}", out.status);
        assert!(
            String::from_utf8_lossy(&out.stdout).contains("USAGE"),
            "{args:?} printed no usage"
        );
        for leftover in ["help.txt", "help.sock", "state"] {
            assert!(!dir.has(leftover), "{args:?} ran and left {leftover}");
        }
    }
}

#[test]
fn unknown_flags_are_refused_before_any_work() {
    let dir = Scratch::new("unknown");
    // `--shard` is a `shard` flag, not an `evolve` one (`--shards` is).
    let out = dir.run(&["evolve", "--quick", "--shard", "4", "--catalog", "typo.txt"]);
    refused(&out, "--shard");
    assert!(!dir.has("typo.txt"), "the typo ran an unsharded evolve");
    // A flag of another command's table is unknown here too.
    refused(
        &dir.run(&["shard", "--quick", "--catalog", "x.txt"]),
        "--catalog",
    );
    refused(
        &dir.run(&["status", "--socket", "s.sock", "--drain"]),
        "--drain",
    );
    refused(&dir.run(&["list-experiments", "--all"]), "--all");
}

#[test]
fn missing_values_and_stray_arguments_are_refused() {
    let dir = Scratch::new("values");
    refused(&dir.run(&["evolve", "--quick", "--seed"]), "--seed");
    refused(
        &dir.run(&["evolve", "--catalog", "--quick", "--rounds", "1"]),
        "--catalog",
    );
    refused(&dir.run(&["evolve", "--quick", "extra"]), "extra");
    refused(&dir.run(&["emit", "7"]), "7");
    assert!(!dir.has("--quick"));
}

#[test]
fn declared_short_aliases_still_parse() {
    let dir = Scratch::new("short");
    let out = dir.run(&["emit", "-s", "7"]);
    assert!(out.status.success(), "{:?}", out.status);
    let long = dir.run(&["emit", "--seed", "7"]);
    assert_eq!(out.stdout, long.stdout);
}

/// `ompfuzz help`'s entries by command: each entry runs from its command's
/// line (indented two spaces) to the next command's.
fn usage_entries(usage: &str) -> Vec<(String, String)> {
    let mut entries: Vec<(String, String)> = Vec::new();
    for line in usage.lines().skip_while(|l| *l != "COMMANDS:").skip(1) {
        match line.strip_prefix("  ") {
            Some(rest) if !rest.starts_with(' ') => {
                let name = rest.split(' ').next().unwrap_or(rest);
                entries.push((name.to_string(), line.to_string()));
            }
            _ => {
                let (_, text) = entries.last_mut().expect("a command line comes first");
                text.push('\n');
                text.push_str(line);
            }
        }
    }
    entries
}

/// The usage is rendered from the flag tables, so it lists the flags each
/// command accepts and no others, and a flag that would do nothing is not
/// accepted: `generate` runs no kernel, so `--engine` is refused there.
#[test]
fn usage_lists_exactly_the_flags_each_command_accepts() {
    let dir = Scratch::new("usage");
    let out = dir.run(&["help"]);
    assert!(out.status.success(), "{:?}", out.status);
    let usage = String::from_utf8_lossy(&out.stdout);
    let entries = usage_entries(&usage);
    let entry = |command: &str| {
        entries
            .iter()
            .find(|(name, _)| name == command)
            .map(|(_, text)| text.as_str())
            .unwrap_or_else(|| panic!("no usage entry for `{command}`:\n{usage}"))
    };
    for (command, flag) in [
        ("reduce", "--inputs"),
        ("evolve", "--inputs"),
        ("generate", "--inputs"),
        ("reduce", "--config"),
        ("generate", "--config"),
        ("campaign", "--engine"),
        ("campaign", "--metrics-out"),
        ("shard", "--engine"),
    ] {
        assert!(
            entry(command).contains(flag),
            "`{command}` accepts {flag} but its usage does not list it:\n{}",
            entry(command)
        );
    }
    for (command, flag) in [("generate", "--engine"), ("shard", "--catalog")] {
        assert!(
            !entry(command).contains(flag),
            "`{command}` refuses {flag} but its usage lists it:\n{}",
            entry(command)
        );
    }
    refused(
        &dir.run(&["generate", "--engine", "tree", "--out", "gen"]),
        "--engine",
    );
    assert!(!dir.has("gen"), "the refused generate wrote its corpus");
}

/// `campaign --metrics-out` only observes: Table I and the CSV are the
/// bytes of the run without it, `report --metrics` accepts the stream,
/// and its final counters count one differential run per program, input
/// and implementation.
#[test]
fn campaign_metrics_out_changes_no_output() {
    let dir = Scratch::new("campaign-metrics");
    let (programs, inputs) = (4, 2);
    let base = [
        "campaign",
        "--programs",
        "4",
        "--inputs",
        "2",
        "--seed",
        "3",
    ];
    let plain = dir.run(&[&base[..], &["--csv", "plain.csv"]].concat());
    assert!(plain.status.success(), "{:?}", plain.status);
    let metered = dir.run(
        &[
            &base[..],
            &["--csv", "metered.csv", "--metrics-out", "m.jsonl"],
        ]
        .concat(),
    );
    assert!(metered.status.success(), "{:?}", metered.status);
    assert_eq!(plain.stdout, metered.stdout, "Table I changed");
    let read = |name: &str| std::fs::read(dir.0.join(name)).unwrap();
    assert_eq!(read("plain.csv"), read("metered.csv"), "the CSV changed");

    let report = dir.run(&["report", "--metrics", "m.jsonl"]);
    assert!(
        report.status.success(),
        "report refused the stream: {}",
        String::from_utf8_lossy(&report.stderr)
    );
    let stream = String::from_utf8(read("m.jsonl")).unwrap();
    let events: Vec<ompfuzz_obs::Value> = stream
        .lines()
        .map(|line| ompfuzz_obs::Value::parse(line).unwrap())
        .collect();
    let kind = |e: &ompfuzz_obs::Value| e.get("event").and_then(|k| k.as_str()).map(String::from);
    assert_eq!(kind(&events[0]).as_deref(), Some("campaign_start"));
    let end = events.last().unwrap();
    assert_eq!(kind(end).as_deref(), Some("campaign_end"));
    let runs = end
        .get("counters")
        .and_then(|c| c.get("differential_runs"))
        .and_then(|v| v.as_u64());
    assert_eq!(runs, Some(programs * inputs * 3));
}
