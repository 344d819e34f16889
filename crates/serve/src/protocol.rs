//! The serve wire protocol: line-delimited JSON over a Unix socket,
//! version 1.
//!
//! One connection carries one request line and its reply. `submit`,
//! `status` and `cancel` get a single reply line; `watch` gets a reply
//! line followed by the job's event stream — the scheduler's own serve
//! events interleaved with the telemetry lines the shard workers append
//! to the job's `events.jsonl` — terminated by a `watch_end`
//! frame once the job reaches a terminal state.
//!
//! Like the telemetry taxonomy, the protocol is described by data tables
//! below, rendered to the checked-in `schemas/serve-v1.schema` by
//! `ompfuzz report --render-serve-schema` and `cmp`'d in CI so the code
//! and the file cannot drift apart.

use crate::scheduler::{JobId, JobStatus, ServeEvent};
use crate::spec::JobSpec;
use ompfuzz_obs::{
    validate_line as validate_telemetry_line, FieldTy, JsonObject, Value,
    SCHEMA_VERSION as TELEMETRY_VERSION,
};

/// Protocol version (the `v1` in the schema header and file name).
pub const PROTOCOL_VERSION: u32 = 1;

/// One request/record field: name, type, and whether it may be omitted.
#[derive(Debug, Clone, Copy)]
pub struct FieldSpec {
    pub name: &'static str,
    pub ty: FieldTy,
    pub optional: bool,
}

const fn req(name: &'static str, ty: FieldTy) -> FieldSpec {
    FieldSpec {
        name,
        ty,
        optional: false,
    }
}

const fn opt(name: &'static str, ty: FieldTy) -> FieldSpec {
    FieldSpec {
        name,
        ty,
        optional: true,
    }
}

/// `(cmd, fields)` per request, excluding the `cmd` discriminator itself.
pub const REQUEST_SCHEMAS: &[(&str, &[FieldSpec])] = &[
    (
        "submit",
        &[
            opt("quick", FieldTy::Bool),
            opt("seed", FieldTy::U64),
            opt("programs", FieldTy::U64),
            opt("inputs", FieldTy::U64),
            opt("rounds", FieldTy::U64),
            opt("shards", FieldTy::U64),
            opt("priority", FieldTy::U64),
        ],
    ),
    ("status", &[opt("job", FieldTy::Str)]),
    ("watch", &[req("job", FieldTy::Str)]),
    ("cancel", &[req("job", FieldTy::Str)]),
    ("shutdown", &[opt("drain", FieldTy::Bool)]),
];

/// The per-job record inside a `status` reply's `jobs` array.
pub const STATUS_JOB_FIELDS: &[FieldSpec] = &[
    req("job", FieldTy::Str),
    req("state", FieldTy::Str),
    req("priority", FieldTy::U64),
    req("round", FieldTy::U64),
    req("rounds", FieldTy::U64),
    req("shards", FieldTy::U64),
    req("done", FieldTy::U64),
    req("running", FieldTy::U64),
    req("retries", FieldTy::U64),
];

/// `(kind, fields)` per scheduler event on the watch stream, excluding
/// the `event` discriminator. Must stay in lockstep with
/// [`render_event`] (pinned by a test below).
pub const SERVE_EVENT_SCHEMAS: &[(&str, &[(&str, FieldTy)])] = &[
    (
        "job_queued",
        &[
            ("job", FieldTy::Str),
            ("priority", FieldTy::U64),
            ("rounds", FieldTy::U64),
            ("shards", FieldTy::U64),
        ],
    ),
    (
        "shard_spawned",
        &[
            ("job", FieldTy::Str),
            ("round", FieldTy::U64),
            ("shard", FieldTy::U64),
            ("attempt", FieldTy::U64),
        ],
    ),
    (
        "shard_done",
        &[
            ("job", FieldTy::Str),
            ("round", FieldTy::U64),
            ("shard", FieldTy::U64),
            ("attempt", FieldTy::U64),
        ],
    ),
    (
        "shard_failed",
        &[
            ("job", FieldTy::Str),
            ("round", FieldTy::U64),
            ("shard", FieldTy::U64),
            ("attempt", FieldTy::U64),
            ("timeout", FieldTy::Bool),
        ],
    ),
    (
        "shard_retry",
        &[
            ("job", FieldTy::Str),
            ("round", FieldTy::U64),
            ("shard", FieldTy::U64),
            ("attempt", FieldTy::U64),
            ("backoff_ms", FieldTy::U64),
        ],
    ),
    (
        "shard_timeout",
        &[
            ("job", FieldTy::Str),
            ("round", FieldTy::U64),
            ("shard", FieldTy::U64),
            ("attempt", FieldTy::U64),
        ],
    ),
    (
        "job_degraded",
        &[
            ("job", FieldTy::Str),
            ("round", FieldTy::U64),
            ("shard", FieldTy::U64),
        ],
    ),
    (
        "round_merged",
        &[
            ("job", FieldTy::Str),
            ("round", FieldTy::U64),
            ("catalog", FieldTy::U64),
        ],
    ),
    ("job_done", &[("job", FieldTy::Str)]),
    ("job_cancelled", &[("job", FieldTy::Str)]),
    (
        "job_recovered",
        &[
            ("job", FieldTy::Str),
            ("state", FieldTy::Str),
            ("round", FieldTy::U64),
            ("retries", FieldTy::U64),
        ],
    ),
    (
        "watch_end",
        &[("job", FieldTy::Str), ("state", FieldTy::Str)],
    ),
];

fn ty_label(ty: FieldTy) -> &'static str {
    match ty {
        FieldTy::U64 => "u",
        FieldTy::Bool => "b",
        FieldTy::Str => "s",
        // The serve protocol only carries scalars; the nested telemetry
        // shapes live in the telemetry schema.
        _ => unreachable!("serve protocol fields are scalar"),
    }
}

/// Render the protocol document — byte-for-byte what
/// `schemas/serve-v1.schema` must contain.
pub fn render_serve_schema() -> String {
    let mut out = String::new();
    out.push_str(&format!("; ompfuzz serve protocol v{PROTOCOL_VERSION}\n"));
    out.push_str("; line-delimited JSON over a unix socket, one request per connection\n");
    out.push_str("; request lines carry cmd:s plus the fields below; ? marks optional\n");
    out.push_str("; types: u = unsigned integer, b = boolean, s = string\n");
    for (cmd, fields) in REQUEST_SCHEMAS {
        out.push_str(&format!("request {cmd}"));
        for f in *fields {
            out.push_str(&format!(
                " {}:{}{}",
                f.name,
                ty_label(f.ty),
                if f.optional { "?" } else { "" }
            ));
        }
        out.push('\n');
    }
    out.push_str("reply ok:b job:s? jobs:[status_job]? error:s?\n");
    out.push_str("status_job");
    for f in STATUS_JOB_FIELDS {
        out.push_str(&format!(" {}:{}", f.name, ty_label(f.ty)));
    }
    out.push('\n');
    out.push_str(&format!(
        "; watch replies are followed by the job's stream: the serve events\n\
         ; below interleaved with telemetry-v{TELEMETRY_VERSION} lines from the job's shards,\n\
         ; terminated by watch_end\n",
    ));
    for (kind, fields) in SERVE_EVENT_SCHEMAS {
        out.push_str(&format!("event {kind}"));
        for (name, ty) in *fields {
            out.push_str(&format!(" {name}:{}", ty_label(*ty)));
        }
        out.push('\n');
    }
    out.push_str("states active merging done degraded cancelled\n");
    out
}

/// The protocol-visible job name (ids are 1-based on the wire).
pub fn job_label(job: JobId) -> String {
    format!("job-{}", job + 1)
}

/// Parse a protocol job name back to the daemon-internal id.
pub fn parse_job_label(label: &str) -> Option<JobId> {
    let n: u64 = label.strip_prefix("job-")?.parse().ok()?;
    if n == 0 {
        return None;
    }
    Some((n - 1) as usize)
}

/// A parsed client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    Submit(JobSpec),
    Status { job: Option<JobId> },
    Watch { job: JobId },
    Cancel { job: JobId },
    Shutdown { drain: bool },
}

/// Parse one request line: a JSON object with a `cmd` discriminator,
/// checked against [`REQUEST_SCHEMAS`] (unknown commands and unknown or
/// mistyped fields are errors — the protocol is strict in both
/// directions, like the telemetry validator).
pub fn parse_request(line: &str) -> Result<Request, String> {
    let value = Value::parse(line).map_err(|e| format!("bad request JSON: {e}"))?;
    let entries = value.entries().ok_or("request is not a JSON object")?;
    let cmd = value
        .get("cmd")
        .and_then(Value::as_str)
        .ok_or("missing string field \"cmd\"")?;
    let (cmd, fields) = REQUEST_SCHEMAS
        .iter()
        .find(|(c, _)| *c == cmd)
        .ok_or_else(|| format!("unknown command {cmd:?}"))?;
    for f in *fields {
        match value.get(f.name) {
            None if f.optional => {}
            None => return Err(format!("{cmd}: missing field {:?}", f.name)),
            Some(v) => {
                let ok = match f.ty {
                    FieldTy::U64 => v.as_u64().is_some(),
                    FieldTy::Bool => v.as_bool().is_some(),
                    FieldTy::Str => v.as_str().is_some(),
                    _ => false,
                };
                if !ok {
                    return Err(format!("{cmd}: bad value for field {:?}", f.name));
                }
            }
        }
    }
    for (name, _) in entries {
        if name != "cmd" && !fields.iter().any(|f| f.name == name) {
            return Err(format!("{cmd}: unexpected field {name:?}"));
        }
    }
    let job_field = |required: bool| -> Result<Option<JobId>, String> {
        match value.get("job").and_then(Value::as_str) {
            Some(label) => parse_job_label(label)
                .map(Some)
                .ok_or_else(|| format!("bad job name {label:?}")),
            None if required => Err(format!("{cmd}: missing field \"job\"")),
            None => Ok(None),
        }
    };
    match *cmd {
        "submit" => Ok(Request::Submit(JobSpec::from_value(&value)?)),
        "status" => Ok(Request::Status {
            job: job_field(false)?,
        }),
        "watch" => Ok(Request::Watch {
            job: job_field(true)?.expect("required"),
        }),
        "cancel" => Ok(Request::Cancel {
            job: job_field(true)?.expect("required"),
        }),
        "shutdown" => Ok(Request::Shutdown {
            drain: value.get("drain").and_then(Value::as_bool).unwrap_or(false),
        }),
        _ => unreachable!("schema table covers every command"),
    }
}

/// Render a scheduler event as its watch-stream JSON line.
pub fn render_event(event: &ServeEvent) -> String {
    let base = |kind: &str, job: JobId| {
        JsonObject::new()
            .str("event", kind)
            .str("job", &job_label(job))
    };
    match *event {
        ServeEvent::JobQueued {
            job,
            priority,
            rounds,
            shards,
        } => base("job_queued", job)
            .u64("priority", priority)
            .u64("rounds", rounds as u64)
            .u64("shards", shards as u64)
            .finish(),
        ServeEvent::ShardSpawned { task, attempt } => base("shard_spawned", task.job)
            .u64("round", task.round as u64)
            .u64("shard", task.shard as u64)
            .u64("attempt", attempt as u64)
            .finish(),
        ServeEvent::ShardDone { task, attempt } => base("shard_done", task.job)
            .u64("round", task.round as u64)
            .u64("shard", task.shard as u64)
            .u64("attempt", attempt as u64)
            .finish(),
        ServeEvent::ShardFailed {
            task,
            attempt,
            timeout,
        } => base("shard_failed", task.job)
            .u64("round", task.round as u64)
            .u64("shard", task.shard as u64)
            .u64("attempt", attempt as u64)
            .bool("timeout", timeout)
            .finish(),
        ServeEvent::ShardRetry {
            task,
            attempt,
            backoff_ms,
        } => base("shard_retry", task.job)
            .u64("round", task.round as u64)
            .u64("shard", task.shard as u64)
            .u64("attempt", attempt as u64)
            .u64("backoff_ms", backoff_ms)
            .finish(),
        ServeEvent::ShardTimeout { task, attempt } => base("shard_timeout", task.job)
            .u64("round", task.round as u64)
            .u64("shard", task.shard as u64)
            .u64("attempt", attempt as u64)
            .finish(),
        ServeEvent::JobDegraded { job, round, shard } => base("job_degraded", job)
            .u64("round", round as u64)
            .u64("shard", shard as u64)
            .finish(),
        ServeEvent::RoundMerged {
            job,
            round,
            catalog,
        } => base("round_merged", job)
            .u64("round", round as u64)
            .u64("catalog", catalog)
            .finish(),
        ServeEvent::JobDone { job } => base("job_done", job).finish(),
        ServeEvent::JobCancelled { job } => base("job_cancelled", job).finish(),
        ServeEvent::JobRecovered {
            job,
            state,
            round,
            retries,
        } => base("job_recovered", job)
            .str("state", state.label())
            .u64("round", round as u64)
            .u64("retries", retries)
            .finish(),
    }
}

/// Render the stream-terminating frame for a job that reached `state`.
pub fn render_watch_end(job: JobId, state: &str) -> String {
    JsonObject::new()
        .str("event", "watch_end")
        .str("job", &job_label(job))
        .str("state", state)
        .finish()
}

/// Render a `status` reply from scheduler snapshots.
pub fn render_status_reply(jobs: &[JobStatus]) -> String {
    let rows: Vec<String> = jobs
        .iter()
        .map(|s| {
            JsonObject::new()
                .str("job", &job_label(s.job))
                .str("state", s.state.label())
                .u64("priority", s.priority)
                .u64("round", s.round as u64)
                .u64("rounds", s.rounds as u64)
                .u64("shards", s.shards as u64)
                .u64("done", s.done_shards as u64)
                .u64("running", s.running as u64)
                .u64("retries", s.retries)
                .finish()
        })
        .collect();
    JsonObject::new()
        .bool("ok", true)
        .raw("jobs", &format!("[{}]", rows.join(",")))
        .finish()
}

/// Render an `{"ok":true,"job":...}` reply.
pub fn render_ok_job(job: JobId) -> String {
    JsonObject::new()
        .bool("ok", true)
        .str("job", &job_label(job))
        .finish()
}

/// Render a bare `{"ok":true}` reply.
pub fn render_ok() -> String {
    JsonObject::new().bool("ok", true).finish()
}

/// Render an error reply.
pub fn render_error(message: &str) -> String {
    JsonObject::new()
        .bool("ok", false)
        .str("error", message)
        .finish()
}

/// Validate one watch-stream line: either a serve event from the tables
/// above or a forwarded telemetry line. Returns the event kind.
pub fn validate_stream_line(line: &str) -> Result<String, String> {
    let value = Value::parse(line)?;
    let kind = value
        .get("event")
        .and_then(Value::as_str)
        .ok_or("missing string field \"event\"")?;
    let Some((kind, fields)) = SERVE_EVENT_SCHEMAS.iter().find(|(k, _)| *k == kind) else {
        // Not a serve event: must be a forwarded telemetry line.
        return validate_telemetry_line(line).map(str::to_string);
    };
    for (name, ty) in *fields {
        let field = value
            .get(name)
            .ok_or_else(|| format!("{kind}: missing field {name:?}"))?;
        let ok = match ty {
            FieldTy::U64 => field.as_u64().is_some(),
            FieldTy::Bool => field.as_bool().is_some(),
            FieldTy::Str => field.as_str().is_some(),
            _ => false,
        };
        if !ok {
            return Err(format!("{kind}: bad value for field {name:?}"));
        }
    }
    for (name, _) in value.entries().unwrap_or(&[]) {
        if name != "event" && !fields.iter().any(|(f, _)| f == name) {
            return Err(format!("{kind}: unexpected field {name:?}"));
        }
    }
    Ok((*kind).to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::TaskId;

    #[test]
    fn job_labels_round_trip() {
        assert_eq!(job_label(0), "job-1");
        assert_eq!(parse_job_label("job-1"), Some(0));
        assert_eq!(parse_job_label("job-12"), Some(11));
        assert_eq!(parse_job_label("job-0"), None);
        assert_eq!(parse_job_label("job-x"), None);
        assert_eq!(parse_job_label("1"), None);
    }

    #[test]
    fn requests_parse_and_reject_drift() {
        let submit = parse_request("{\"cmd\":\"submit\",\"quick\":true,\"shards\":3}").unwrap();
        match submit {
            Request::Submit(spec) => {
                assert!(spec.quick);
                assert_eq!(spec.shards, 3);
            }
            other => panic!("expected submit, got {other:?}"),
        }
        assert_eq!(
            parse_request("{\"cmd\":\"status\"}").unwrap(),
            Request::Status { job: None }
        );
        assert_eq!(
            parse_request("{\"cmd\":\"watch\",\"job\":\"job-2\"}").unwrap(),
            Request::Watch { job: 1 }
        );
        assert_eq!(
            parse_request("{\"cmd\":\"cancel\",\"job\":\"job-1\"}").unwrap(),
            Request::Cancel { job: 0 }
        );
        assert_eq!(
            parse_request("{\"cmd\":\"shutdown\"}").unwrap(),
            Request::Shutdown { drain: false }
        );
        assert_eq!(
            parse_request("{\"cmd\":\"shutdown\",\"drain\":true}").unwrap(),
            Request::Shutdown { drain: true }
        );

        assert!(parse_request("not json").is_err());
        assert!(parse_request("{\"cmd\":\"brunch\"}").is_err());
        assert!(parse_request("{\"cmd\":\"watch\"}").is_err()); // missing job
        assert!(parse_request("{\"cmd\":\"watch\",\"job\":7}").is_err()); // wrong type
        assert!(parse_request("{\"cmd\":\"submit\",\"bogus\":1}").is_err()); // unknown field
        assert!(parse_request("{\"cmd\":\"submit\",\"rounds\":0}").is_err()); // bad range
    }

    /// Every event the scheduler can emit renders to a line the stream
    /// validator accepts — the rendering and the schema tables cannot
    /// drift apart.
    #[test]
    fn every_rendered_event_validates() {
        let task = TaskId {
            job: 0,
            round: 1,
            shard: 2,
        };
        let events = [
            ServeEvent::JobQueued {
                job: 0,
                priority: 5,
                rounds: 2,
                shards: 3,
            },
            ServeEvent::ShardSpawned { task, attempt: 1 },
            ServeEvent::ShardDone { task, attempt: 1 },
            ServeEvent::ShardFailed {
                task,
                attempt: 1,
                timeout: false,
            },
            ServeEvent::ShardRetry {
                task,
                attempt: 2,
                backoff_ms: 125,
            },
            ServeEvent::ShardTimeout { task, attempt: 2 },
            ServeEvent::JobDegraded {
                job: 0,
                round: 1,
                shard: 2,
            },
            ServeEvent::RoundMerged {
                job: 0,
                round: 1,
                catalog: 9,
            },
            ServeEvent::JobDone { job: 0 },
            ServeEvent::JobCancelled { job: 0 },
            ServeEvent::JobRecovered {
                job: 0,
                state: crate::scheduler::JobState::Active,
                round: 1,
                retries: 3,
            },
        ];
        let mut kinds: Vec<String> = Vec::new();
        for event in &events {
            let line = render_event(event);
            kinds.push(validate_stream_line(&line).unwrap_or_else(|e| panic!("{line}: {e}")));
        }
        kinds.push(validate_stream_line(&render_watch_end(0, "done")).unwrap());
        // One schema entry per event kind, same order as the table.
        let schema_kinds: Vec<&str> = SERVE_EVENT_SCHEMAS.iter().map(|(k, _)| *k).collect();
        assert_eq!(kinds, schema_kinds);
    }

    /// Forwarded telemetry lines pass the stream validator; junk does not.
    #[test]
    fn stream_validator_accepts_telemetry_lines() {
        let telemetry = "{\"event\":\"progress\",\"completed\":3,\"total\":9}";
        assert_eq!(validate_stream_line(telemetry).unwrap(), "progress");
        assert!(validate_stream_line("{\"event\":\"brunch\"}").is_err());
        assert!(validate_stream_line("{\"event\":\"job_done\"}").is_err()); // missing job
    }

    #[test]
    fn replies_render_as_single_lines() {
        assert_eq!(render_ok(), "{\"ok\":true}");
        assert_eq!(render_ok_job(0), "{\"ok\":true,\"job\":\"job-1\"}");
        assert_eq!(
            render_error("no such job"),
            "{\"ok\":false,\"error\":\"no such job\"}"
        );
        let status = render_status_reply(&[]);
        assert_eq!(status, "{\"ok\":true,\"jobs\":[]}");
    }

    #[test]
    fn schema_lists_every_request_and_event() {
        let schema = render_serve_schema();
        assert!(schema.starts_with("; ompfuzz serve protocol v1\n"));
        for (cmd, _) in REQUEST_SCHEMAS {
            assert!(
                schema
                    .lines()
                    .any(|l| l.starts_with(&format!("request {cmd}"))),
                "missing request {cmd}"
            );
        }
        for (kind, _) in SERVE_EVENT_SCHEMAS {
            assert!(
                schema
                    .lines()
                    .any(|l| l.starts_with(&format!("event {kind}"))),
                "missing event {kind}"
            );
        }
        assert!(schema.contains("status_job job:s state:s"));
        assert!(schema.contains("states active merging done degraded cancelled"));
        assert!(schema.ends_with('\n'));
    }

    /// The checked-in schema file matches the code (the same drift gate CI
    /// runs via `report --render-serve-schema` + `cmp`).
    #[test]
    fn checked_in_schema_file_matches() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../schemas/serve-v1.schema");
        let file = std::fs::read_to_string(path).expect(
            "schemas/serve-v1.schema is checked in (regenerate with \
                     `ompfuzz report --render-serve-schema`)",
        );
        assert_eq!(
            file,
            render_serve_schema(),
            "schemas/serve-v1.schema has drifted from the code"
        );
    }
}
