//! The telemetry schema: the event taxonomy as data, a renderer that
//! produces the checked-in `schemas/telemetry-v4.schema` text, and a
//! validator for emitted JSONL.
//!
//! The schema table below is the single source of truth. CI regenerates
//! the schema text and compares it to the checked-in file (drift in either
//! direction fails), then validates a real `--metrics-out` stream line by
//! line: every line must be a JSON object whose `event` kind is known and
//! whose fields exactly match the declared names and types — no missing
//! fields, no extras.

use crate::json::Value;
use crate::metrics::Counter;
use crate::phase::Phase;

/// Schema format version (the `v4` in the schema header and file name).
/// v2 was a strict superset of v1: `round_end` gained `yield_per_1k` and a
/// latency rollup, `campaign_end` gained the latency rollup. v3 is a
/// strict superset of v2: it adds the `checkpoint_corrupt` event (an
/// integrity-checked checkpoint artifact failed verification and its
/// shard re-runs). v4 is a strict superset of v3: the counter object
/// gains `interpretations` (the engine runs the differential oracle's
/// steps made, beside `differential_runs`).
pub const SCHEMA_VERSION: u32 = 4;

/// The type of one event field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldTy {
    /// Non-negative integer.
    U64,
    /// Boolean.
    Bool,
    /// String.
    Str,
    /// Flat object with one u64 per [`Counter::key`].
    Counters,
    /// Object with one `{ "us": u, "calls": u }` per [`Phase::key`].
    Phases,
    /// Object with one latency rollup (`count`/`p50_us`/`p90_us`/
    /// `p99_us`/`max_us`, all u64) per [`Phase::key`].
    Hists,
}

/// The field names of one per-phase latency rollup, in emission order.
pub const HIST_ROLLUP_FIELDS: [&str; 5] = ["count", "p50_us", "p90_us", "p99_us", "max_us"];

impl FieldTy {
    fn label(self) -> &'static str {
        match self {
            FieldTy::U64 => "u",
            FieldTy::Bool => "b",
            FieldTy::Str => "s",
            FieldTy::Counters => "counters",
            FieldTy::Phases => "phases",
            FieldTy::Hists => "hists",
        }
    }
}

/// `(kind, fields)` per event, in lifecycle order — the source of truth
/// for both the schema file and the validator. Must stay in lockstep with
/// [`crate::event::Event::to_json`] (pinned by a test below).
pub const EVENT_SCHEMAS: &[(&str, &[(&str, FieldTy)])] = &[
    (
        "campaign_start",
        &[
            ("rounds", FieldTy::U64),
            ("shards", FieldTy::U64),
            ("programs", FieldTy::U64),
            ("seed", FieldTy::U64),
        ],
    ),
    (
        "round_start",
        &[
            ("round", FieldTy::U64),
            ("seed", FieldTy::U64),
            ("programs", FieldTy::U64),
            ("mutants", FieldTy::U64),
        ],
    ),
    (
        "shard_start",
        &[
            ("round", FieldTy::U64),
            ("shard", FieldTy::U64),
            ("shards", FieldTy::U64),
            ("start", FieldTy::U64),
            ("end", FieldTy::U64),
        ],
    ),
    (
        "shard_end",
        &[
            ("round", FieldTy::U64),
            ("shard", FieldTy::U64),
            ("shards", FieldTy::U64),
            ("programs", FieldTy::U64),
            ("mutants", FieldTy::U64),
            ("racy", FieldTy::U64),
            ("outliers", FieldTy::U64),
            ("reduced", FieldTy::U64),
            ("cached", FieldTy::Bool),
            ("wall_us", FieldTy::U64),
        ],
    ),
    (
        "progress",
        &[("completed", FieldTy::U64), ("total", FieldTy::U64)],
    ),
    (
        "round_end",
        &[
            ("round", FieldTy::U64),
            ("racy", FieldTy::U64),
            ("outliers", FieldTy::U64),
            ("reduced", FieldTy::U64),
            ("new_skeletons", FieldTy::U64),
            ("yield_per_1k", FieldTy::U64),
            ("catalog", FieldTy::U64),
            ("wall_us", FieldTy::U64),
            ("hists", FieldTy::Hists),
        ],
    ),
    (
        "campaign_end",
        &[
            ("rounds", FieldTy::U64),
            ("catalog", FieldTy::U64),
            ("wall_us", FieldTy::U64),
            ("counters", FieldTy::Counters),
            ("phases", FieldTy::Phases),
            ("hists", FieldTy::Hists),
        ],
    ),
    (
        "checkpoint_corrupt",
        &[
            ("round", FieldTy::U64),
            ("shard", FieldTy::U64),
            ("file", FieldTy::Str),
            ("reason", FieldTy::Str),
        ],
    ),
];

/// Look up one event kind's field list.
pub fn event_fields(kind: &str) -> Option<&'static [(&'static str, FieldTy)]> {
    EVENT_SCHEMAS
        .iter()
        .find(|(k, _)| *k == kind)
        .map(|(_, fields)| *fields)
}

/// Render the schema document — byte-for-byte what
/// `schemas/telemetry-v4.schema` must contain.
pub fn render_schema() -> String {
    let mut out = String::new();
    out.push_str(&format!("; ompfuzz telemetry schema v{SCHEMA_VERSION}\n"));
    out.push_str("; one line per event kind: <kind> <field>:<type>...\n");
    out.push_str("; types: u = unsigned integer, b = boolean, s = string,\n");
    out.push_str(";        counters = counter object, phases = phase object,\n");
    out.push_str(";        hists = per-phase latency rollup object\n");
    for (kind, fields) in EVENT_SCHEMAS {
        out.push_str(kind);
        for (name, ty) in *fields {
            out.push_str(&format!(" {name}:{}", ty.label()));
        }
        out.push('\n');
    }
    out.push_str("counters");
    for counter in Counter::ALL {
        out.push_str(&format!(" {}", counter.key()));
    }
    out.push('\n');
    out.push_str("phases");
    for phase in Phase::ALL {
        out.push_str(&format!(" {}", phase.key()));
    }
    out.push('\n');
    out.push_str("hists");
    for field in HIST_ROLLUP_FIELDS {
        out.push_str(&format!(" {field}"));
    }
    out.push('\n');
    out
}

fn check_field(kind: &str, name: &str, ty: FieldTy, value: &Value) -> Result<(), String> {
    let fail = |want: &str| Err(format!("{kind}.{name}: expected {want}, got {value:?}"));
    match ty {
        FieldTy::U64 => {
            if value.as_u64().is_none() {
                return fail("unsigned integer");
            }
        }
        FieldTy::Bool => {
            if value.as_bool().is_none() {
                return fail("boolean");
            }
        }
        FieldTy::Str => {
            if value.as_str().is_none() {
                return fail("string");
            }
        }
        FieldTy::Counters => {
            let Some(entries) = value.entries() else {
                return fail("counter object");
            };
            for (key, v) in entries {
                if Counter::from_key(key).is_none() {
                    return Err(format!("{kind}.{name}: unknown counter {key:?}"));
                }
                if v.as_u64().is_none() {
                    return Err(format!("{kind}.{name}.{key}: expected unsigned integer"));
                }
            }
        }
        FieldTy::Phases => {
            let Some(entries) = value.entries() else {
                return fail("phase object");
            };
            for (key, v) in entries {
                if Phase::from_key(key).is_none() {
                    return Err(format!("{kind}.{name}: unknown phase {key:?}"));
                }
                for part in ["us", "calls"] {
                    if v.get(part).and_then(Value::as_u64).is_none() {
                        return Err(format!(
                            "{kind}.{name}.{key}: expected {{\"us\":u,\"calls\":u}}"
                        ));
                    }
                }
                if v.entries().map(<[_]>::len) != Some(2) {
                    return Err(format!("{kind}.{name}.{key}: extra fields"));
                }
            }
        }
        FieldTy::Hists => {
            let Some(entries) = value.entries() else {
                return fail("latency rollup object");
            };
            for (key, v) in entries {
                if Phase::from_key(key).is_none() {
                    return Err(format!("{kind}.{name}: unknown phase {key:?}"));
                }
                for part in HIST_ROLLUP_FIELDS {
                    if v.get(part).and_then(Value::as_u64).is_none() {
                        return Err(format!("{kind}.{name}.{key}: expected u64 field {part:?}"));
                    }
                }
                if v.entries().map(<[_]>::len) != Some(HIST_ROLLUP_FIELDS.len()) {
                    return Err(format!("{kind}.{name}.{key}: extra fields"));
                }
            }
        }
    }
    Ok(())
}

/// Validate one JSONL line; returns the event kind on success.
pub fn validate_line(line: &str) -> Result<&'static str, String> {
    let value = Value::parse(line)?;
    let entries = value.entries().ok_or("line is not a JSON object")?;
    let kind = value
        .get("event")
        .and_then(Value::as_str)
        .ok_or("missing string field \"event\"")?;
    let (kind, fields) = EVENT_SCHEMAS
        .iter()
        .find(|(k, _)| *k == kind)
        .ok_or_else(|| format!("unknown event kind {kind:?}"))?;
    for (name, ty) in *fields {
        let field = value
            .get(name)
            .ok_or_else(|| format!("{kind}: missing field {name:?}"))?;
        check_field(kind, name, *ty, field)?;
    }
    for (name, _) in entries {
        if name != "event" && !fields.iter().any(|(f, _)| f == name) {
            return Err(format!("{kind}: unexpected field {name:?}"));
        }
    }
    Ok(kind)
}

/// Per-kind event counts of a validated stream, in taxonomy order (kinds
/// never seen are omitted).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct JsonlSummary {
    pub counts: Vec<(&'static str, usize)>,
}

impl JsonlSummary {
    /// Number of events of `kind`.
    pub fn count(&self, kind: &str) -> usize {
        self.counts
            .iter()
            .find(|(k, _)| *k == kind)
            .map_or(0, |(_, n)| *n)
    }

    /// Total events across kinds.
    pub fn total(&self) -> usize {
        self.counts.iter().map(|(_, n)| n).sum()
    }
}

/// Validate a whole JSONL document (empty lines allowed). The error names
/// the first offending line.
pub fn validate_jsonl(text: &str) -> Result<JsonlSummary, String> {
    let mut counts: Vec<(&'static str, usize)> = Vec::new();
    for (number, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let kind = validate_line(line).map_err(|e| format!("line {}: {e}", number + 1))?;
        match counts.iter_mut().find(|(k, _)| *k == kind) {
            Some((_, n)) => *n += 1,
            None => counts.push((kind, 1)),
        }
    }
    counts.sort_by_key(|(kind, _)| {
        EVENT_SCHEMAS
            .iter()
            .position(|(k, _)| k == kind)
            .unwrap_or(usize::MAX)
    });
    Ok(JsonlSummary { counts })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::hist::PhaseHists;
    use crate::metrics::MetricsRegistry;
    use crate::phase::PhaseTimers;

    /// Every event the pipeline can emit, with representative values.
    fn all_events() -> Vec<Event> {
        vec![
            Event::CampaignStart {
                rounds: 2,
                shards: 4,
                programs: 40,
                seed: 20,
            },
            Event::RoundStart {
                round: 0,
                seed: 99,
                programs: 40,
                mutants: 8,
            },
            Event::ShardStart {
                round: 0,
                shard: 1,
                shards: 4,
                start: 10,
                end: 20,
            },
            Event::ShardEnd {
                round: 0,
                shard: 1,
                shards: 4,
                programs: 10,
                mutants: 2,
                racy: 3,
                outliers: 1,
                reduced: 1,
                cached: false,
                wall_us: 1500,
            },
            Event::Progress {
                completed: 32,
                total: 40,
            },
            Event::RoundEnd {
                round: 0,
                racy: 3,
                outliers: 1,
                reduced: 1,
                new_skeletons: 1,
                yield_per_1k: 25,
                catalog: 1,
                wall_us: 9000,
                hists: {
                    let hists = PhaseHists::new();
                    hists.record(
                        crate::phase::Phase::Generate,
                        std::time::Duration::from_micros(12),
                    );
                    hists.snapshot()
                },
            },
            Event::CampaignEnd {
                rounds: 2,
                catalog: 1,
                wall_us: 20000,
                counters: MetricsRegistry::new().snapshot(),
                phases: PhaseTimers::new().snapshot(),
                hists: PhaseHists::new().snapshot(),
            },
            Event::CheckpointCorrupt {
                round: 0,
                shard: 1,
                file: "round-0/shard-1.txt".to_string(),
                reason: "checksum mismatch".to_string(),
            },
        ]
    }

    #[test]
    fn every_emitted_event_validates() {
        for event in all_events() {
            let line = event.to_json();
            assert_eq!(validate_line(&line), Ok(event.kind()), "{line}");
        }
    }

    #[test]
    fn schema_covers_exactly_the_taxonomy() {
        // One schema entry per Event variant, same order as emission.
        let kinds: Vec<&str> = all_events().iter().map(|e| e.kind()).collect();
        let schema_kinds: Vec<&str> = EVENT_SCHEMAS.iter().map(|(k, _)| *k).collect();
        assert_eq!(kinds, schema_kinds);
    }

    #[test]
    fn validator_rejects_drift() {
        assert!(validate_line("not json").is_err());
        assert!(validate_line("[1,2]").is_err());
        assert!(validate_line("{\"round\":1}").is_err());
        assert!(validate_line("{\"event\":\"brunch\"}").is_err());
        // Missing field.
        assert!(validate_line("{\"event\":\"progress\",\"completed\":1}").is_err());
        // Wrong type.
        assert!(validate_line("{\"event\":\"progress\",\"completed\":\"x\",\"total\":2}").is_err());
        // Extra field.
        assert!(
            validate_line("{\"event\":\"progress\",\"completed\":1,\"total\":2,\"extra\":3}")
                .is_err()
        );
        // Unknown counter key inside the rollup.
        assert!(validate_line(
            "{\"event\":\"campaign_end\",\"rounds\":1,\"catalog\":0,\"wall_us\":0,\
             \"counters\":{\"bogus\":1},\"phases\":{},\"hists\":{}}"
        )
        .is_err());
        // Latency rollup with a short phase entry.
        assert!(validate_line(
            "{\"event\":\"campaign_end\",\"rounds\":1,\"catalog\":0,\"wall_us\":0,\
             \"counters\":{},\"phases\":{},\"hists\":{\"generate\":{\"count\":1}}}"
        )
        .is_err());
    }

    #[test]
    fn jsonl_summary_counts_kinds() {
        let text = all_events()
            .iter()
            .map(|e| e.to_json())
            .collect::<Vec<_>>()
            .join("\n")
            + "\n\n";
        let summary = validate_jsonl(&text).unwrap();
        assert_eq!(summary.total(), all_events().len());
        assert_eq!(summary.count("progress"), 1);
        assert_eq!(summary.count("campaign_end"), 1);
        assert_eq!(summary.count("brunch"), 0);
        let bad = format!("{text}garbage\n");
        let err = validate_jsonl(&bad).unwrap_err();
        assert!(err.starts_with("line 10:"), "{err}");
    }

    #[test]
    fn rendered_schema_lists_every_kind_and_key() {
        let schema = render_schema();
        for (kind, _) in EVENT_SCHEMAS {
            assert!(
                schema.lines().any(|l| l.starts_with(kind)),
                "missing {kind}"
            );
        }
        assert!(schema.contains("counters programs_generated"));
        assert!(schema.contains(" differential_runs interpretations vm_ops "));
        assert!(schema.contains("phases generate compile"));
        assert!(schema.contains("hists count p50_us p90_us p99_us max_us"));
        assert!(schema.starts_with("; ompfuzz telemetry schema v4\n"));
        assert!(schema.ends_with('\n'));
    }
}
