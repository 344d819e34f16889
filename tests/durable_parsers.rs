//! Property suite for the parsers of durable and client-supplied bytes:
//! round manifests, shard checkpoint files, the trigger catalog, serve-v1
//! request lines and the daemon's `state.json` journal.
//!
//! - arbitrary text, and valid documents with random edits, parse to `Ok`
//!   or `Err` and never panic, and any text a parser accepts
//!   re-serializes to a fixed point;
//! - every valid document round-trips byte for byte;
//! - nesting far past the parsers' depth limits is an error.

use ompfuzz::corpus::{
    read_shard_file, write_shard_file, Provenance, RoundManifest, ShardOutcome, ShardSummary,
    TriggerCatalog, TriggerKernel,
};
use ompfuzz::gen::{GeneratorConfig, ProgramGenerator};
use ompfuzz::inputs::InputGenerator;
use ompfuzz::outlier::OutlierKind;
use ompfuzz::serve::protocol::{job_label, parse_request, Request};
use ompfuzz::serve::recovery::{parse_state, render_state};
use ompfuzz::serve::scheduler::{JobSnapshot, JobState};
use ompfuzz::serve::JobSpec;
use ompfuzz_obs::{Counter, CounterSnapshot};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// SplitMix64: a self-contained stream of test data from one sampled seed.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn coin(&mut self) -> bool {
        self.next() & 1 == 1
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len() as u64) as usize]
    }

    fn index_list(&mut self, below: u64) -> Vec<usize> {
        (0..self.below(6))
            .map(|_| self.below(below) as usize)
            .collect()
    }
}

// ---------------------------------------------------------------------------
// The formats under test: parse, and re-serialize what parsed
// ---------------------------------------------------------------------------

/// One parser under test. `reserialize` parses `text` and, when it is
/// accepted, renders the parsed value back in canonical form.
struct Format {
    name: &'static str,
    reserialize: fn(&str) -> Option<String>,
    valid: fn(&mut Mix) -> String,
    /// Tokens that noise and edits splice in.
    vocabulary: &'static [&'static str],
}

const SEXPR_TOKENS: &[&str] = &[
    "(",
    ")",
    "((",
    "))",
    " ",
    "\n",
    ";",
    "\"",
    "\\",
    "v1",
    "v2",
    "manifest",
    "done",
    "shard",
    "metrics",
    "catalog",
    "entry",
    "program",
    "block",
    "input",
    "params",
    "hang",
    "crash",
    "slow",
    "fast",
    "f64",
    "f32",
    "0",
    "1",
    "-1",
    "7",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
    "1e400",
    "NaN",
    "é",
    "\u{feff}",
];

const JSON_TOKENS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ":",
    ",",
    "\"",
    "\\",
    "\\u00e9",
    "\\ud800",
    "\\x",
    " ",
    "\"cmd\"",
    "\"status\"",
    "\"submit\"",
    "\"watch\"",
    "\"cancel\"",
    "\"shutdown\"",
    "\"job\"",
    "\"job-1\"",
    "\"job-0\"",
    "\"drain\"",
    "\"state\"",
    "\"done\"",
    "\"running\"",
    "true",
    "false",
    "null",
    "0",
    "-1",
    "1.5",
    "1e400",
    "18446744073709551615",
    "18446744073709551616",
    "é",
];

fn manifest_format() -> Format {
    Format {
        name: "round manifest",
        reserialize: |text| RoundManifest::from_text(text).ok().map(|m| m.to_text()),
        valid: |m| valid_manifest(m).to_text(),
        vocabulary: SEXPR_TOKENS,
    }
}

fn shard_format() -> Format {
    Format {
        name: "shard checkpoint",
        reserialize: |text| {
            read_shard_file(text)
                .ok()
                .map(|(fingerprint, outcome)| write_shard_file(&outcome, fingerprint))
        },
        valid: |m| {
            let fingerprint = m.next();
            write_shard_file(&valid_shard_outcome(m), fingerprint)
        },
        vocabulary: SEXPR_TOKENS,
    }
}

fn catalog_format() -> Format {
    Format {
        name: "catalog",
        reserialize: |text| {
            TriggerCatalog::load_from_string(text)
                .ok()
                .map(|c| c.save_to_string())
        },
        valid: |m| valid_catalog(m).save_to_string(),
        vocabulary: SEXPR_TOKENS,
    }
}

fn request_format() -> Format {
    Format {
        name: "serve-v1 request",
        reserialize: |text| parse_request(text).ok().map(|r| render_request(&r)),
        valid: |m| render_request(&valid_request(m)),
        vocabulary: JSON_TOKENS,
    }
}

fn state_format() -> Format {
    Format {
        name: "state.json",
        reserialize: |text| {
            parse_state(text)
                .ok()
                .map(|(snap, offset)| render_state(&snap, offset))
        },
        valid: |m| {
            let offset = m.next();
            render_state(&valid_snapshot(m), offset)
        },
        vocabulary: JSON_TOKENS,
    }
}

fn formats() -> [Format; 5] {
    [
        manifest_format(),
        shard_format(),
        catalog_format(),
        request_format(),
        state_format(),
    ]
}

// ---------------------------------------------------------------------------
// Valid documents
// ---------------------------------------------------------------------------

fn valid_manifest(m: &mut Mix) -> RoundManifest {
    RoundManifest {
        round: m.next() as usize,
        seed: m.next(),
        fingerprint: m.next(),
        shards: m.next() as usize,
        completed: m.index_list(64).into_iter().collect(),
    }
}

/// A deduplicated catalog of paper-config programs (the nesting the
/// program actually writes) under random provenance.
fn valid_catalog(m: &mut Mix) -> TriggerCatalog {
    let mut programs = ProgramGenerator::new(GeneratorConfig::paper(), m.next());
    let mut inputs = InputGenerator::new(m.next());
    let mut catalog = TriggerCatalog::new();
    for _ in 0..m.below(4) {
        let program = programs.generate("kernel");
        let input = inputs.generate_for(&program);
        catalog.insert(TriggerKernel {
            program,
            input,
            kind: OutlierKind::all()[m.below(4) as usize],
            backend: m.below(3) as usize,
            provenance: Provenance {
                seed: m.next(),
                round: m.below(1 << 20) as usize,
                source_program: format!("test_{}", m.below(1 << 20)),
                program_index: m.next() as usize,
                input_index: m.below(64) as usize,
            },
        });
    }
    catalog
}

fn valid_shard_outcome(m: &mut Mix) -> ShardOutcome {
    let mut field = || m.next() as usize;
    let summary = ShardSummary {
        round: field(),
        shard: field(),
        shards: field(),
        start: field(),
        end: field(),
        mutants: field(),
        racy: field(),
        outlier_records: field(),
        reduced: field(),
    };
    let mut metrics = CounterSnapshot::default();
    for counter in Counter::ALL {
        if m.coin() {
            metrics.set(counter, m.next());
        }
    }
    ShardOutcome {
        summary,
        catalog: valid_catalog(m),
        metrics,
    }
}

fn valid_request(m: &mut Mix) -> Request {
    let job = m.below(1 << 48) as usize;
    match m.below(5) {
        0 => Request::Submit(JobSpec {
            quick: m.coin(),
            seed: m.coin().then(|| m.next()),
            programs: m.coin().then(|| m.next().max(1)),
            inputs: m.coin().then(|| m.next()),
            rounds: m.coin().then(|| m.next().max(1)),
            shards: m.next(),
            priority: m.next(),
        }),
        1 => Request::Status {
            job: m.coin().then_some(job),
        },
        2 => Request::Watch { job },
        3 => Request::Cancel { job },
        _ => Request::Shutdown { drain: m.coin() },
    }
}

/// The request line the client sends for `request`.
fn render_request(request: &Request) -> String {
    let with_job =
        |cmd: &str, job: usize| format!("{{\"cmd\":\"{cmd}\",\"job\":\"{}\"}}", job_label(job));
    match request {
        Request::Submit(spec) => spec.to_submit_request(),
        Request::Status { job: None } => "{\"cmd\":\"status\"}".to_string(),
        Request::Status { job: Some(job) } => with_job("status", *job),
        Request::Watch { job } => with_job("watch", *job),
        Request::Cancel { job } => with_job("cancel", *job),
        Request::Shutdown { drain: true } => "{\"cmd\":\"shutdown\",\"drain\":true}".to_string(),
        Request::Shutdown { drain: false } => "{\"cmd\":\"shutdown\"}".to_string(),
    }
}

fn valid_snapshot(m: &mut Mix) -> JobSnapshot {
    let states = [
        JobState::Active,
        JobState::Merging,
        JobState::Done,
        JobState::Degraded,
        JobState::Cancelled,
    ];
    JobSnapshot {
        priority: m.next(),
        rounds: m.next() as usize,
        shards: m.next() as usize,
        state: states[m.below(states.len() as u64) as usize],
        round: m.next() as usize,
        done: m.index_list(64),
        attempts: (0..m.below(6)).map(|_| m.next() as u32).collect(),
        retries: m.next(),
        running: m.index_list(64),
    }
}

// ---------------------------------------------------------------------------
// Noise and edits
// ---------------------------------------------------------------------------

/// Text shaped like `format` often enough to get past its first checks,
/// and like noise often enough to probe the rest.
fn noise(m: &mut Mix, format: &Format) -> String {
    (0..m.below(40))
        .map(|_| match m.below(4) {
            0 => char::from_u32(m.below(0x3000) as u32)
                .unwrap_or('?')
                .to_string(),
            1 => m.next().to_string(),
            _ => m.pick(format.vocabulary).to_string(),
        })
        .collect()
}

/// A valid document of `format` with one to four random edits: deleted,
/// duplicated or replaced spans, spliced-in tokens, truncation.
fn mutated(m: &mut Mix, format: &Format) -> String {
    let mut chars: Vec<char> = (format.valid)(m).chars().collect();
    for _ in 0..1 + m.below(4) {
        let at = m.below(chars.len() as u64 + 1) as usize;
        let span = (m.below(12) as usize).min(chars.len() - at);
        match m.below(5) {
            0 => {
                chars.drain(at..at + span);
            }
            1 => {
                let copy: Vec<char> = chars[at..at + span].to_vec();
                chars.splice(at..at, copy);
            }
            2 => {
                let token: Vec<char> = m.pick(format.vocabulary).chars().collect();
                chars.splice(at..at + span.min(1), token);
            }
            3 => {
                let token: Vec<char> = m.pick(format.vocabulary).chars().collect();
                chars.splice(at..at, token);
            }
            _ => chars.truncate(at),
        }
    }
    chars.into_iter().collect()
}

/// `text` parses to `Ok` or `Err` without panicking, and whatever it
/// accepts re-serializes to a fixed point.
fn check_total(format: &Format, text: &str) -> Result<(), String> {
    let once = catch_unwind(AssertUnwindSafe(|| (format.reserialize)(text)))
        .map_err(|_| format!("{} parser panicked on {text:?}", format.name))?;
    if let Some(once) = once {
        let twice = (format.reserialize)(&once);
        prop_assert!(
            twice.as_deref() == Some(once.as_str()),
            "{}: accepted {text:?}, but its re-serialization {once:?} did not \
             re-serialize to itself: {twice:?}",
            format.name
        );
    }
    Ok(())
}

proptest! {
    /// Arbitrary text is an `Ok` or an `Err` for every parser, never a
    /// panic; accepted text re-serializes to a fixed point.
    #[test]
    fn arbitrary_text_never_panics(seed in 0u64..u64::MAX) {
        let mut m = Mix(seed);
        for format in formats() {
            let text = noise(&mut m, &format);
            check_total(&format, &text)?;
        }
    }

    /// Valid documents with random edits are an `Ok` or an `Err`, never a
    /// panic; accepted edits re-serialize to a fixed point.
    #[test]
    fn mutated_documents_never_panic(seed in 0u64..u64::MAX) {
        let mut m = Mix(seed);
        for format in formats() {
            let text = mutated(&mut m, &format);
            check_total(&format, &text)?;
        }
    }

    /// Every valid document parses and re-serializes byte for byte.
    #[test]
    fn valid_documents_round_trip_byte_identically(seed in 0u64..u64::MAX) {
        let mut m = Mix(seed);
        for format in formats() {
            let text = (format.valid)(&mut m);
            prop_assert_eq!((format.reserialize)(&text), Some(text));
        }
    }
}

/// Nesting far past each parser's depth limit is an error, not a stack
/// overflow that aborts the process (`evolve --resume` on a hostile
/// catalog, the daemon on a hostile request line).
#[test]
fn nesting_far_past_the_limits_is_an_error() {
    assert!(TriggerCatalog::load_from_string(&"(".repeat(100_000)).is_err());
    assert!(RoundManifest::from_text(&"(".repeat(100_000)).is_err());
    assert!(read_shard_file(&"(".repeat(100_000)).is_err());
    let deep = format!("{{\"cmd\":\"status\",\"x\":{}", "[".repeat(50_000));
    assert!(parse_request(&deep).is_err());
    assert!(parse_state(&"[".repeat(100_000)).is_err());
}

/// Pinned: the format has no escapes, so a backslash inside a quoted name
/// loads — and saving it again used to trip the writer's identifier check.
#[test]
fn backslashes_in_quoted_names_round_trip() {
    let mut m = Mix(3);
    let catalog = loop {
        let catalog = valid_catalog(&mut m);
        if !catalog.is_empty() {
            break catalog;
        }
    };
    let text = catalog
        .save_to_string()
        .replacen("(program \"kernel", "(program \"ker\\nel", 1);
    let loaded = TriggerCatalog::load_from_string(&text).expect("loads");
    assert_eq!(loaded.save_to_string(), text);
}
