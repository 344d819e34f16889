//! Restart recovery: the per-job `state.json` journal and the startup
//! scan that rebuilds the scheduler from an existing state directory.
//!
//! The journal is a convenience, not the ground truth. What a job has
//! *actually* computed lives in its checkpoint directory (sealed shard
//! checkpoints and round catalogs); `state.json` adds only what the
//! checkpoints cannot know — retry accounting, terminal verdicts
//! (`cancelled`/`degraded`), the orphaned-running set, and how much of
//! `events.jsonl` was already forwarded. Recovery therefore reconciles:
//!
//! * **Merged rounds** come from the longest run of consecutive, valid
//!   round catalogs starting at round 0. The daemon keeps no merge state
//!   in memory — each merge loads the previous round's sealed catalog —
//!   so there is nothing else to rebuild.
//! * **Done shards** of the current round are exactly the shard
//!   checkpoints that the coordinator's checked round reader
//!   ([`read_round_shards`]) accepts. A corrupt or torn checkpoint, or
//!   one under a missing or corrupt manifest, is simply not done — its
//!   shard re-runs. A valid checkpoint of another shard or of another
//!   campaign is never done: the job cannot resume from that directory
//!   and is restored `degraded`.
//! * **Everything else** (priority, retries, terminal states, running
//!   shards, the telemetry offset) comes from `state.json` when it is
//!   present and passes its own checksum; a missing or corrupt journal
//!   falls back to checkpoint-derived state with retry counters reset.
//!
//! A job whose `spec.json` is unreadable cannot be re-run either (the
//! daemon would not know what to spawn) and is restored as `degraded`.

use crate::protocol::{job_label, parse_job_label};
use crate::scheduler::{JobSnapshot, JobState};
use crate::spec::JobSpec;
use ompfuzz_corpus::{read_round_shards, seal, unseal, Checkpoint, CheckpointFs, Loaded, RealFs};
use ompfuzz_obs::{JsonObject, Value};
use std::path::{Path, PathBuf};

/// Render the unsealed `state.json` payload: one JSON line mirroring
/// [`JobSnapshot`] plus the job's forwarded-telemetry offset.
pub fn render_state(snap: &JobSnapshot, events_offset: u64) -> String {
    let list = |xs: &[usize]| {
        format!(
            "[{}]",
            xs.iter()
                .map(|x| x.to_string())
                .collect::<Vec<_>>()
                .join(",")
        )
    };
    JsonObject::new()
        .str("state", snap.state.label())
        .u64("priority", snap.priority)
        .u64("round", snap.round as u64)
        .u64("rounds", snap.rounds as u64)
        .u64("shards", snap.shards as u64)
        .raw("done", &list(&snap.done))
        .raw(
            "attempts",
            &format!(
                "[{}]",
                snap.attempts
                    .iter()
                    .map(|a| a.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        )
        .u64("retries", snap.retries)
        .raw("running", &list(&snap.running))
        .u64("events_offset", events_offset)
        .finish()
}

/// Parse a `state.json` payload (already [`unseal`]ed) back.
pub fn parse_state(text: &str) -> Result<(JobSnapshot, u64), String> {
    let value = Value::parse(text.trim_end()).map_err(|e| format!("bad state JSON: {e}"))?;
    let u64_field = |name: &str| -> Result<u64, String> {
        value
            .get(name)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("missing numeric field {name:?}"))
    };
    let usize_list = |name: &str| -> Result<Vec<usize>, String> {
        match value.get(name) {
            Some(Value::Arr(items)) => items
                .iter()
                .map(|v| {
                    v.as_u64()
                        .map(|n| n as usize)
                        .ok_or_else(|| format!("bad entry in {name:?}"))
                })
                .collect(),
            _ => Err(format!("missing array field {name:?}")),
        }
    };
    let label = value
        .get("state")
        .and_then(Value::as_str)
        .ok_or("missing string field \"state\"")?;
    let state = JobState::from_label(label).ok_or_else(|| format!("unknown state {label:?}"))?;
    let snap = JobSnapshot {
        priority: u64_field("priority")?,
        rounds: u64_field("rounds")? as usize,
        shards: u64_field("shards")? as usize,
        state,
        round: u64_field("round")? as usize,
        done: usize_list("done")?,
        attempts: usize_list("attempts")?
            .into_iter()
            .map(|a| a as u32)
            .collect(),
        retries: u64_field("retries")?,
        running: usize_list("running")?,
    };
    Ok((snap, u64_field("events_offset")?))
}

/// Atomically journal a job's state (sealed with the same checksum
/// trailer as every other durable artifact).
pub fn write_state(
    fs: &dyn CheckpointFs,
    job_dir: &Path,
    snap: &JobSnapshot,
    events_offset: u64,
) -> std::io::Result<()> {
    fs.write_atomic(
        &job_dir.join("state.json"),
        &seal(&render_state(snap, events_offset)),
    )
}

/// Read and verify a job's journal. `Ok(None)` means absent; a checksum
/// or parse failure is reported as `Err` (the caller falls back to
/// checkpoint-derived recovery).
pub fn read_state(
    fs: &dyn CheckpointFs,
    job_dir: &Path,
) -> Result<Option<(JobSnapshot, u64)>, String> {
    let path = job_dir.join("state.json");
    match fs.read(&path).map_err(|e| e.to_string())? {
        None => Ok(None),
        Some(sealed) => {
            let payload = unseal(&sealed)?;
            parse_state(payload).map(Some)
        }
    }
}

/// One job rebuilt from disk, ready to feed [`crate::scheduler::Scheduler::restore`].
#[derive(Debug)]
pub struct RecoveredJob {
    pub dir: PathBuf,
    pub spec: JobSpec,
    pub snapshot: JobSnapshot,
    pub events_offset: u64,
    /// Artifacts found corrupt during the scan (`"<file>: <reason>"`),
    /// for out-of-band reporting.
    pub corrupt: Vec<String>,
}

/// Scan `state_dir` for `job-<n>/` subtrees and rebuild each job's
/// durable state. Job directories must be dense from `job-1` (scheduler
/// ids are dense); a gap means the directory was hand-mangled and is an
/// error rather than a silent renumbering.
pub fn scan_state_dir(state_dir: &Path) -> Result<Vec<RecoveredJob>, String> {
    let mut ids = Vec::new();
    let entries = match std::fs::read_dir(state_dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("cannot scan {}: {e}", state_dir.display())),
    };
    for entry in entries.flatten() {
        if let Some(id) = entry.file_name().to_str().and_then(parse_job_label) {
            if entry.path().is_dir() {
                ids.push(id);
            }
        }
    }
    ids.sort_unstable();
    for (expect, &id) in ids.iter().enumerate() {
        if id != expect {
            return Err(format!(
                "state dir {} is missing {} (job directories must be dense)",
                state_dir.display(),
                job_label(expect)
            ));
        }
    }
    ids.iter()
        .map(|&id| recover_job(&state_dir.join(job_label(id))))
        .collect()
}

/// Rebuild one job from its directory. Never fails on corrupt artifacts
/// — corruption shrinks what is considered done, and what cannot be
/// resumed at all (an unreadable spec, a refused shard checkpoint)
/// degrades the job; only I/O errors propagate.
fn recover_job(dir: &Path) -> Result<RecoveredJob, String> {
    let mut corrupt = Vec::new();

    let spec = std::fs::read_to_string(dir.join("spec.json"))
        .map_err(|e| e.to_string())
        .and_then(|text| {
            let value = Value::parse(text.trim_end())?;
            JobSpec::from_value(&value)
        });
    let journal = match read_state(&RealFs, dir) {
        Ok(found) => found,
        Err(reason) => {
            corrupt.push(format!("state.json: {reason}"));
            None
        }
    };
    let events_offset = journal.as_ref().map_or(0, |(_, off)| *off);
    let recovered = |spec: JobSpec, snapshot: JobSnapshot, corrupt: Vec<String>| RecoveredJob {
        dir: dir.to_path_buf(),
        spec,
        snapshot,
        events_offset,
        corrupt,
    };

    let spec = match spec {
        Ok(spec) => spec,
        Err(reason) => {
            // Without the spec the job cannot spawn workers; restore it
            // terminal so the rest of the queue keeps running.
            corrupt.push(format!("spec.json: {reason}"));
            let priority = journal.as_ref().map_or(0, |(s, _)| s.priority);
            let snapshot = degraded(priority, 1, 1, 0);
            return Ok(recovered(JobSpec::default(), snapshot, corrupt));
        }
    };
    let priority = journal.as_ref().map_or(spec.priority, |(s, _)| s.priority);
    let retries = journal.as_ref().map_or(0, |(s, _)| s.retries);

    let rounds = spec.planned_rounds();
    let shards = spec.planned_shards();
    let ckpt = Checkpoint::open(&dir.join("ckpt")).map_err(|e| e.to_string())?;

    // Ground truth 1: merged rounds = the longest run of valid round
    // catalogs from round 0.
    let mut merged_rounds = 0;
    while merged_rounds < rounds {
        let reason = match ckpt.load_round_catalog(merged_rounds) {
            Ok(Loaded::Present(_)) => {
                merged_rounds += 1;
                continue;
            }
            Ok(Loaded::Absent) => break,
            Ok(Loaded::Corrupt(reason)) => reason,
            Err(e) => e.to_string(),
        };
        corrupt.push(format!("ckpt/round-{merged_rounds}/catalog.txt: {reason}"));
        break;
    }

    // A terminal journal verdict is kept verbatim: cancelled stays
    // cancelled, degraded stays degraded, done stays done.
    if let Some((snap, _)) = journal.as_ref().filter(|(s, _)| s.state.is_terminal()) {
        return Ok(recovered(spec, snap.clone(), corrupt));
    }

    if merged_rounds >= rounds {
        // Every round is merged but the journal never saw the job finish
        // (the daemon died between the final merge and its journal
        // write). Resume at the final merge, which is idempotent: it
        // re-reads the last round's shards onto the round before it.
        let snapshot = JobSnapshot {
            priority,
            rounds,
            shards,
            state: JobState::Merging,
            round: rounds - 1,
            done: (0..shards).collect(),
            attempts: vec![1; shards],
            retries,
            running: Vec::new(),
        };
        return Ok(recovered(spec, snapshot, corrupt));
    }

    // Ground truth 2: done shards of the current round are exactly the
    // checkpoints the checked round reader accepts. Corruption un-does a
    // shard; a checkpoint the journal never saw completes one; a
    // checkpoint of another shard or campaign degrades the job.
    let round = merged_rounds;
    let mut done = Vec::new();
    let refused = match read_round_shards(&ckpt, round) {
        Ok(Loaded::Present(files)) if files.len() == shards => {
            for (shard, file) in files.into_iter().enumerate() {
                match file {
                    Loaded::Present(_) => done.push(shard),
                    Loaded::Corrupt(reason) => {
                        corrupt.push(format!("ckpt/round-{round}/shard-{shard}.txt: {reason}"));
                    }
                    Loaded::Absent => {}
                }
            }
            None
        }
        Ok(Loaded::Corrupt(reason)) => {
            corrupt.push(format!("ckpt/round-{round}/manifest.txt: {reason}"));
            None
        }
        Ok(Loaded::Absent) => None,
        Ok(Loaded::Present(_)) => Some(format!("manifest is not planned for {shards} shards")),
        Err(e) => Some(e.0),
    };
    if let Some(reason) = refused {
        corrupt.push(format!("ckpt/round-{round}: {reason}"));
        let snapshot = degraded(priority, rounds, shards, round);
        return Ok(recovered(spec, snapshot, corrupt));
    }

    // The journal fills in what checkpoints cannot: retries, attempt
    // counters, and which shards were in flight — but only if it talks
    // about the same round we derived from disk.
    let journal_round = journal.as_ref().filter(|(s, _)| s.round == round);
    let mut attempts: Vec<u32> = journal_round
        .map(|(s, _)| s.attempts.clone())
        .unwrap_or_default();
    attempts.resize(shards, 0);
    for &shard in &done {
        attempts[shard] = attempts[shard].max(1);
    }
    let running: Vec<usize> = journal_round
        .map(|(s, _)| {
            s.running
                .iter()
                .copied()
                .filter(|s| !done.contains(s))
                .collect()
        })
        .unwrap_or_default();
    let snapshot = JobSnapshot {
        priority,
        rounds,
        shards,
        state: JobState::Active,
        round,
        done,
        attempts,
        retries,
        running,
    };
    Ok(recovered(spec, snapshot, corrupt))
}

/// The snapshot of a job restored terminal `degraded`: its artifacts on
/// disk cannot be resumed, so nothing is done and nothing runs.
fn degraded(priority: u64, rounds: usize, shards: usize, round: usize) -> JobSnapshot {
    JobSnapshot {
        priority,
        rounds,
        shards,
        state: JobState::Degraded,
        round,
        done: Vec::new(),
        attempts: vec![0; shards],
        retries: 0,
        running: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    static DIR_ID: AtomicUsize = AtomicUsize::new(0);

    fn scratch(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "ompfuzz-recovery-{tag}-{}-{}",
            std::process::id(),
            DIR_ID.fetch_add(1, Ordering::SeqCst)
        ))
    }

    fn snap() -> JobSnapshot {
        JobSnapshot {
            priority: 3,
            rounds: 2,
            shards: 4,
            state: JobState::Active,
            round: 1,
            done: vec![0, 2],
            attempts: vec![1, 2, 1, 1],
            retries: 1,
            running: vec![1],
        }
    }

    #[test]
    fn state_json_round_trips() {
        let line = render_state(&snap(), 1234);
        let (back, off) = parse_state(&line).unwrap();
        assert_eq!(back, snap());
        assert_eq!(off, 1234);
    }

    #[test]
    fn state_json_survives_the_disk_and_rejects_damage() {
        let dir = scratch("state");
        std::fs::create_dir_all(&dir).unwrap();
        let fs = RealFs;
        write_state(&fs, &dir, &snap(), 77).unwrap();
        let (back, off) = read_state(&fs, &dir).unwrap().unwrap();
        assert_eq!(back, snap());
        assert_eq!(off, 77);

        // Bit flip: checksum catches it.
        let path = dir.join("state.json");
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[1] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(read_state(&fs, &dir).is_err());

        // Truncation (torn write): also caught.
        write_state(&fs, &dir, &snap(), 77).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(read_state(&fs, &dir).is_err());

        // Valid checksum over a non-snapshot payload: rejected too.
        std::fs::write(&path, seal("{\"state\":\"brunch\"}")).unwrap();
        assert!(read_state(&fs, &dir).is_err());

        // Absent is not an error.
        std::fs::remove_file(&path).unwrap();
        assert_eq!(read_state(&fs, &dir).unwrap(), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_or_missing_state_dir_recovers_nothing() {
        let dir = scratch("empty");
        assert!(scan_state_dir(&dir).unwrap().is_empty());
        std::fs::create_dir_all(&dir).unwrap();
        assert!(scan_state_dir(&dir).unwrap().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gaps_in_job_numbering_are_an_error() {
        let dir = scratch("gaps");
        std::fs::create_dir_all(dir.join("job-1")).unwrap();
        std::fs::create_dir_all(dir.join("job-3")).unwrap();
        let err = scan_state_dir(&dir).unwrap_err();
        assert!(err.contains("job-2"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn write_spec(dir: &Path, spec: &JobSpec) {
        std::fs::create_dir_all(dir).unwrap();
        std::fs::write(dir.join("spec.json"), spec.to_json() + "\n").unwrap();
    }

    #[test]
    fn journal_free_jobs_recover_from_checkpoints_alone() {
        let dir = scratch("nojournal");
        let spec = JobSpec {
            quick: true,
            shards: 2,
            ..JobSpec::default()
        };
        let job_dir = dir.join("job-1");
        write_spec(&job_dir, &spec);
        std::fs::create_dir_all(job_dir.join("ckpt")).unwrap();
        let jobs = scan_state_dir(&dir).unwrap();
        assert_eq!(jobs.len(), 1);
        let job = &jobs[0];
        assert_eq!(job.snapshot.state, JobState::Active);
        assert_eq!(job.snapshot.round, 0);
        assert_eq!(job.snapshot.rounds, spec.planned_rounds());
        assert_eq!(job.snapshot.shards, 2);
        assert!(job.snapshot.done.is_empty());
        assert_eq!(job.snapshot.retries, 0);
        assert_eq!(job.events_offset, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Round 0 of a 2-shard job as two `ompfuzz shard` workers leave it:
    /// a manifest marking both shards complete and their sealed
    /// checkpoints (with empty catalogs, to keep the test small).
    fn two_finished_shards(job_dir: &Path) {
        use ompfuzz_corpus::{plan_shards, RoundManifest, ShardOutcome, ShardSummary};
        let ckpt = Checkpoint::open(&job_dir.join("ckpt")).unwrap();
        let fingerprint = 0xF00D;
        ckpt.store_manifest(&RoundManifest {
            round: 0,
            seed: 20,
            fingerprint,
            shards: 2,
            completed: [0, 1].into(),
        })
        .unwrap();
        for (shard, range) in plan_shards(40, 2).into_iter().enumerate() {
            let summary = ShardSummary {
                round: 0,
                shard,
                shards: 2,
                start: range.start,
                end: range.end,
                mutants: 0,
                racy: 0,
                outlier_records: 0,
                reduced: 0,
            };
            let outcome = ShardOutcome {
                summary,
                catalog: ompfuzz_corpus::TriggerCatalog::new(),
                metrics: ompfuzz_obs::CounterSnapshot::default(),
            };
            ckpt.store_shard(&outcome, fingerprint).unwrap();
        }
    }

    /// Shard 0's sealed checkpoint copied over shard 1's passes its
    /// checksum, but it is another shard's: the scan must not count it
    /// done, and the job cannot resume from that directory.
    #[test]
    fn the_scan_does_not_count_a_copied_shard_file_as_done() {
        let dir = scratch("copied");
        let spec = JobSpec {
            quick: true,
            rounds: Some(2),
            shards: 2,
            ..JobSpec::default()
        };
        let job_dir = dir.join("job-1");
        write_spec(&job_dir, &spec);
        two_finished_shards(&job_dir);
        let jobs = scan_state_dir(&dir).unwrap();
        assert_eq!(jobs[0].snapshot.state, JobState::Active);
        assert_eq!(jobs[0].snapshot.done, vec![0, 1]);

        let round0 = job_dir.join("ckpt").join("round-0");
        std::fs::copy(round0.join("shard-0.txt"), round0.join("shard-1.txt")).unwrap();
        let jobs = scan_state_dir(&dir).unwrap();
        let job = &jobs[0];
        assert!(
            !job.snapshot.done.contains(&1),
            "the copied file counted as shard 1: {:?}",
            job.snapshot
        );
        assert_eq!(job.snapshot.state, JobState::Degraded);
        assert!(
            job.corrupt
                .iter()
                .any(|c| c.contains("round-0/shard-1 does not match")),
            "{:?}",
            job.corrupt
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_spec_restores_the_job_degraded() {
        let dir = scratch("badspec");
        let job_dir = dir.join("job-1");
        std::fs::create_dir_all(&job_dir).unwrap();
        std::fs::write(job_dir.join("spec.json"), "not json at all\n").unwrap();
        let jobs = scan_state_dir(&dir).unwrap();
        assert_eq!(jobs[0].snapshot.state, JobState::Degraded);
        assert!(jobs[0].corrupt.iter().any(|c| c.starts_with("spec.json")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_journal_falls_back_to_checkpoint_recovery() {
        let dir = scratch("badjournal");
        let spec = JobSpec {
            quick: true,
            ..JobSpec::default()
        };
        let job_dir = dir.join("job-1");
        write_spec(&job_dir, &spec);
        std::fs::create_dir_all(job_dir.join("ckpt")).unwrap();
        write_state(&RealFs, &job_dir, &snap(), 9).unwrap();
        let path = job_dir.join("state.json");
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 10]).unwrap();
        let jobs = scan_state_dir(&dir).unwrap();
        let job = &jobs[0];
        assert_eq!(job.snapshot.state, JobState::Active);
        assert_eq!(job.snapshot.retries, 0, "retry accounting reset");
        assert!(job.corrupt.iter().any(|c| c.starts_with("state.json")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn terminal_journal_verdicts_stick() {
        let dir = scratch("terminal");
        let spec = JobSpec {
            quick: true,
            ..JobSpec::default()
        };
        let job_dir = dir.join("job-1");
        write_spec(&job_dir, &spec);
        let terminal = JobSnapshot {
            state: JobState::Cancelled,
            ..snap()
        };
        write_state(&RealFs, &job_dir, &terminal, 42).unwrap();
        let jobs = scan_state_dir(&dir).unwrap();
        assert_eq!(jobs[0].snapshot.state, JobState::Cancelled);
        assert_eq!(jobs[0].events_offset, 42);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
