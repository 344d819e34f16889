//! Event sinks: renderers over the one structured event stream.
//!
//! The pipeline emits [`Event`]s; what happens to them is the caller's
//! composition of sinks — human-readable progress on stderr
//! ([`HumanSink`]), line-delimited JSON to any writer ([`JsonlSink`]),
//! both at once ([`MultiSink`]), or an in-memory capture for tests
//! ([`CaptureSink`]). Sinks are strictly out-of-band: they see events
//! after the fact and can never influence campaign results.

use crate::event::Event;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// A consumer of the structured event stream. Implementations must
/// tolerate concurrent `emit` calls (workers report from pool threads).
pub trait EventSink: Send + Sync {
    /// Consume one event.
    fn emit(&self, event: &Event);
    /// Flush any buffered output (end of campaign).
    fn flush(&self) {}
}

/// Line-delimited JSON over any writer: one [`Event::to_json`] line per
/// event, serialized through a mutex so concurrent emitters never
/// interleave bytes. Each line goes out in one `write` together with its
/// newline, so appenders in other processes (the shard workers of one
/// served job share its `events.jsonl`) cannot splice between them.
pub struct JsonlSink<W: Write + Send> {
    out: Mutex<W>,
}

impl<W: Write + Send> JsonlSink<W> {
    /// Wrap a writer.
    pub fn new(out: W) -> JsonlSink<W> {
        JsonlSink {
            out: Mutex::new(out),
        }
    }
}

impl JsonlSink<File> {
    /// Create/truncate `path` (the `--metrics-out FILE` sink).
    pub fn create(path: &Path) -> io::Result<JsonlSink<File>> {
        Ok(JsonlSink::new(File::create(path)?))
    }

    /// Open `path` for append (the checkpoint-dir event log: resumed
    /// campaigns extend the history instead of erasing it).
    pub fn append(path: &Path) -> io::Result<JsonlSink<File>> {
        Ok(JsonlSink::new(
            OpenOptions::new().create(true).append(true).open(path)?,
        ))
    }
}

/// JSONL to stderr (the `--progress jsonl` stream; stdout stays reserved
/// for the rendered tables).
pub fn stderr_jsonl() -> JsonlSink<io::Stderr> {
    JsonlSink::new(io::stderr())
}

impl<W: Write + Send> EventSink for JsonlSink<W> {
    fn emit(&self, event: &Event) {
        let mut line = event.to_json();
        line.push('\n');
        let mut out = self.out.lock().expect("jsonl sink poisoned");
        // Telemetry must never abort a campaign; drop the line on I/O
        // error (e.g. a closed pipe) and keep fuzzing.
        let _ = out.write_all(line.as_bytes());
    }

    fn flush(&self) {
        let _ = self.out.lock().expect("jsonl sink poisoned").flush();
    }
}

/// Human-readable progress lines on stderr — the renderer that replaced
/// the coordinator's ad-hoc `eprintln!` calls (`--progress human`, the
/// default).
#[derive(Debug, Default)]
pub struct HumanSink;

impl EventSink for HumanSink {
    fn emit(&self, event: &Event) {
        match event {
            Event::CampaignStart {
                rounds,
                shards,
                programs,
                seed,
            } => eprintln!(
                "evolving: {rounds} round(s) x {shards} shard(s), \
                 {programs} programs/round (seed {seed})"
            ),
            Event::RoundStart {
                round,
                seed,
                programs,
                mutants,
            } => eprintln!(
                "round {round}: seed {seed}, {programs} programs \
                 ({mutants} catalog mutants)"
            ),
            // Shard starts are noise at human speed; the end line carries
            // everything.
            Event::ShardStart { .. } => {}
            Event::ShardEnd {
                round,
                shard,
                shards,
                programs,
                racy,
                outliers,
                reduced,
                cached,
                wall_us,
                ..
            } => eprintln!(
                "round {round} shard {shard}/{shards}: {programs} programs, \
                 {racy} racy, {outliers} outliers, {reduced} reduced \
                 ({}, {:.1} ms)",
                if *cached { "cached" } else { "ran" },
                *wall_us as f64 / 1_000.0
            ),
            Event::Progress { completed, total } => {
                eprintln!("  progress: {completed}/{total} programs")
            }
            Event::RoundEnd {
                round,
                catalog,
                new_skeletons,
                wall_us,
                ..
            } => eprintln!(
                "round {round} done: catalog {catalog} (+{new_skeletons} new) \
                 in {:.1} ms",
                *wall_us as f64 / 1_000.0
            ),
            Event::CampaignEnd {
                rounds,
                catalog,
                wall_us,
                ..
            } => eprintln!(
                "campaign done: {rounds} round(s), catalog {catalog}, \
                 {:.1} ms",
                *wall_us as f64 / 1_000.0
            ),
            Event::CheckpointCorrupt {
                round,
                file,
                reason,
                ..
            } => eprintln!("round {round}: checkpoint {file} corrupt ({reason}), re-running"),
        }
    }
}

/// Fan one stream out to several sinks in order.
#[derive(Default)]
pub struct MultiSink {
    sinks: Vec<Arc<dyn EventSink>>,
}

impl MultiSink {
    /// An empty fan-out.
    pub fn new() -> MultiSink {
        MultiSink::default()
    }

    /// Append a sink.
    pub fn push(&mut self, sink: Arc<dyn EventSink>) {
        self.sinks.push(sink);
    }

    /// Number of attached sinks.
    pub fn len(&self) -> usize {
        self.sinks.len()
    }

    /// True when no sinks are attached.
    pub fn is_empty(&self) -> bool {
        self.sinks.is_empty()
    }
}

impl EventSink for MultiSink {
    fn emit(&self, event: &Event) {
        for sink in &self.sinks {
            sink.emit(event);
        }
    }

    fn flush(&self) {
        for sink in &self.sinks {
            sink.flush();
        }
    }
}

/// In-memory capture, for tests asserting on the stream.
#[derive(Default)]
pub struct CaptureSink {
    events: Mutex<Vec<Event>>,
}

impl CaptureSink {
    /// An empty capture.
    pub fn new() -> CaptureSink {
        CaptureSink::default()
    }

    /// Everything emitted so far, in emit order.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().expect("capture sink poisoned").clone()
    }
}

impl EventSink for CaptureSink {
    fn emit(&self, event: &Event) {
        self.events
            .lock()
            .expect("capture sink poisoned")
            .push(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Event {
        Event::Progress {
            completed: 8,
            total: 40,
        }
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        let sink = JsonlSink::new(Vec::new());
        sink.emit(&sample());
        sink.emit(&sample());
        let bytes = sink.out.into_inner().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text
            .lines()
            .all(|l| l.starts_with("{\"event\":\"progress\"")));
    }

    /// Two append handles on one file, as two shard processes of a served
    /// job hold them: every line must arrive whole. Writing the JSON and
    /// its newline separately spliced 22–33% of these lines together.
    #[test]
    fn concurrent_appenders_never_splice_lines() {
        const PER_SINK: usize = 20_000;
        let dir = std::env::temp_dir().join(format!("ompfuzz-sink-append-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        let _ = std::fs::remove_file(&path);
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let sink = JsonlSink::append(&path).unwrap();
                let start = &start;
                scope.spawn(move || {
                    start.wait();
                    for _ in 0..PER_SINK {
                        sink.emit(&sample());
                    }
                });
            }
        });
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        let bad = text
            .lines()
            .filter(|l| crate::json::Value::parse(l).is_err())
            .count();
        assert_eq!(bad, 0, "spliced lines");
        assert_eq!(text.lines().count(), 2 * PER_SINK);
    }

    #[test]
    fn multi_sink_fans_out_and_capture_records() {
        let a = Arc::new(CaptureSink::new());
        let b = Arc::new(CaptureSink::new());
        let mut multi = MultiSink::new();
        assert!(multi.is_empty());
        multi.push(a.clone());
        multi.push(b.clone());
        assert_eq!(multi.len(), 2);
        multi.emit(&sample());
        multi.flush();
        assert_eq!(a.events(), vec![sample()]);
        assert_eq!(b.events(), vec![sample()]);
    }
}
