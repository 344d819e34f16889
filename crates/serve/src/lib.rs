//! `ompfuzz-serve` — the campaign daemon: fuzzing as a service.
//!
//! The paper's framework is a campaign you run by hand; this crate is the
//! control plane that turns it into a long-lived service. A daemon
//! ([`run_daemon`], surfaced as `ompfuzz serve`) owns a FIFO-with-
//! priorities queue of campaign jobs, spawns `ompfuzz shard` subprocesses
//! against per-job checkpoint directories, and multiplexes many
//! concurrent campaigns over a configurable worker budget. Clients speak
//! a line-delimited JSON protocol over a Unix socket
//! ([`protocol`], checked in as `schemas/serve-v1.schema`).
//!
//! The architecture is three layers, separated so the interesting one is
//! deterministic:
//!
//! * [`scheduler`] — a pure state machine over `(time_ms, exits)`:
//!   priorities, round-robin fairness, per-shard timeouts, capped
//!   exponential backoff with seeded jitter, retry exhaustion →
//!   `degraded`. Unit-tested with a fake clock and hand-fed exits.
//! * [`daemon`] — the impure driver: real clocks, real subprocesses,
//!   the socket, per-job stream fan-out.
//! * [`client`] — the other end of the socket (`ompfuzz submit/watch/
//!   status/cancel/shutdown`).
//!
//! The headline invariant carries over from the coordinator, because the
//! daemon reads and merges rounds with the coordinator's own round code
//! ([`ompfuzz_corpus::read_round_shards`], [`ompfuzz_corpus::merge_round`])
//! and keeps no merge state: a served campaign's catalog is byte-identical
//! to a plain `ompfuzz evolve` — CI `cmp`s the two, with a `kill -9` thrown
//! at one shard mid-round — and a shard checkpoint the coordinator would
//! refuse degrades the served job.

pub mod client;
pub mod daemon;
pub mod protocol;
pub mod recovery;
pub mod scheduler;
pub mod spec;

pub use daemon::{run_daemon, ServeConfig};
pub use protocol::{
    job_label, parse_job_label, parse_request, render_serve_schema, validate_stream_line, Request,
    PROTOCOL_VERSION,
};
pub use recovery::{scan_state_dir, RecoveredJob};
pub use scheduler::{
    Action, JobId, JobSnapshot, JobState, JobStatus, Scheduler, SchedulerConfig, ServeEvent, TaskId,
};
pub use spec::JobSpec;
