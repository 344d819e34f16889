//! Deterministic fault injection for the checkpoint write path.
//!
//! Every durable read and write the coordinator (and the serve daemon)
//! performs goes through the [`CheckpointFs`] trait. Production code uses
//! [`RealFs`] — plain atomic temp-file-plus-rename writes. Recovery tests
//! swap in [`FaultyFs`], which consults a seeded [`FaultPlan`] at each
//! *operation site* (operation kind + path + attempt number) and may
//! inject:
//!
//! - **torn writes** — the file is truncated at byte `k` but the write
//!   reports success, modeling a crash between `write` and `rename` or a
//!   non-atomic filesystem (caught later by the checksum trailer);
//! - **failed renames** — the atomic publish step errors out;
//! - **transient read errors** — a read fails once, succeeds on retry;
//! - **aborts** — the process "dies" at a checkpoint boundary (surfaced
//!   as [`FaultAbort`] so a harness can treat it as a kill/restart point).
//!
//! The plan is a pure function of `(seed, site)` via SplitMix64 over an
//! FNV-1a site key — the same generator family the scheduler's backoff
//! jitter and the daemon's `--fault-kill` hook use — so a failing fault
//! schedule replays exactly from its seed. Faults are *transient*: each
//! site keeps an attempt counter, so a retried operation sees a fresh
//! decision and forward progress is always possible.

use ompfuzz_backends::sched::{fnv1a, splitmix64};
use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// The durable-artifact filesystem the checkpoint layer writes through.
pub trait CheckpointFs: Send + Sync + std::fmt::Debug {
    /// Atomically publish `text` at `path` (write a temp file in the same
    /// directory, then rename over the target). Parent directories are
    /// created as needed.
    fn write_atomic(&self, path: &Path, text: &str) -> io::Result<()>;

    /// Read the full contents of `path`; `Ok(None)` if it does not exist.
    fn read(&self, path: &Path) -> io::Result<Option<String>>;
}

/// The production filesystem: real atomic writes, no faults.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealFs;

impl CheckpointFs for RealFs {
    fn write_atomic(&self, path: &Path, text: &str) -> io::Result<()> {
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(format!(".{}.tmp", std::process::id()));
        let tmp = PathBuf::from(tmp);
        fs::write(&tmp, text)?;
        fs::rename(&tmp, path)
    }

    fn read(&self, path: &Path) -> io::Result<Option<String>> {
        match fs::read_to_string(path) {
            Ok(text) => Ok(Some(text)),
            Err(err) if err.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(err) => Err(err),
        }
    }
}

/// Marker payload carried by injected-abort errors: the simulated process
/// death at a checkpoint boundary. Harnesses downcast the error's inner
/// payload to distinguish "restart here" from a genuine I/O failure.
#[derive(Debug)]
pub struct FaultAbort;

impl std::fmt::Display for FaultAbort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "injected abort at checkpoint boundary")
    }
}

impl std::error::Error for FaultAbort {}

/// True if an I/O error (or its source chain root) is an injected abort.
pub fn is_fault_abort(err: &io::Error) -> bool {
    err.get_ref().is_some_and(|inner| inner.is::<FaultAbort>())
}

/// One fault decision at an operation site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Truncate the written bytes at the given offset, report success.
    TornWrite(usize),
    /// Fail the atomic rename (the temp file is written, the target is not).
    FailRename,
    /// Fail the read with a transient error.
    ReadError,
    /// Die at this checkpoint boundary ([`FaultAbort`]).
    Abort,
}

/// Per-mille rates for each fault kind, decided independently per site.
/// All zeros means the plan never fires (equivalent to [`RealFs`]).
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    /// Seed for the site-keyed SplitMix64 stream.
    pub seed: u64,
    /// Torn-write probability, in units of 1/1000 per write site.
    pub torn_write_permille: u64,
    /// Failed-rename probability per write site.
    pub fail_rename_permille: u64,
    /// Transient read-error probability per read site.
    pub read_error_permille: u64,
    /// Abort probability per write site.
    pub abort_permille: u64,
}

impl FaultPlan {
    /// A plan that never injects anything.
    pub fn none(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            torn_write_permille: 0,
            fail_rename_permille: 0,
            read_error_permille: 0,
            abort_permille: 0,
        }
    }

    /// The deterministic per-site random stream: SplitMix64 seeded by the
    /// plan seed XOR the FNV-1a hash of the site key. The key names the
    /// file by its last two path components (`round-0/shard-1.txt`), not
    /// by where the checkpoint directory lives, so a plan makes the same
    /// decisions in every directory.
    fn stream(&self, op: &str, path: &Path, attempt: u64) -> u64 {
        let name = |p: Option<&Path>| {
            p.and_then(Path::file_name)
                .map_or_else(String::new, |n| n.to_string_lossy().into_owned())
        };
        let key = format!(
            "{op}:{}/{}:{attempt}",
            name(path.parent()),
            name(Some(path))
        );
        splitmix64(self.seed ^ fnv1a(key.as_bytes()))
    }

    /// Decide the fault (if any) for a write of `len` bytes at this site.
    /// At most one fault fires per site; the kinds are checked in a fixed
    /// order over disjoint slices of the same draw.
    pub fn write_fault(&self, path: &Path, attempt: u64, len: usize) -> Option<Fault> {
        let draw = self.stream("write", path, attempt);
        let roll = draw % 1000;
        let mut floor = 0;
        if roll < floor + self.abort_permille {
            return Some(Fault::Abort);
        }
        floor += self.abort_permille;
        if roll < floor + self.fail_rename_permille {
            return Some(Fault::FailRename);
        }
        floor += self.fail_rename_permille;
        if roll < floor + self.torn_write_permille {
            // A second SplitMix64 step picks the tear offset, strictly
            // inside the payload so the torn file is a real prefix.
            let k = if len == 0 {
                0
            } else {
                (splitmix64(draw) as usize) % len
            };
            return Some(Fault::TornWrite(k));
        }
        None
    }

    /// Decide the fault (if any) for a read at this site.
    pub fn read_fault(&self, path: &Path, attempt: u64) -> Option<Fault> {
        let draw = self.stream("read", path, attempt);
        if draw % 1000 < self.read_error_permille {
            return Some(Fault::ReadError);
        }
        None
    }
}

/// A [`CheckpointFs`] that injects the plan's faults over [`RealFs`].
///
/// Site attempt counters live in the handle, so the same logical
/// operation retried after a failure sees attempt 1, 2, … and the plan's
/// per-site decisions stay transient.
#[derive(Debug)]
pub struct FaultyFs {
    plan: FaultPlan,
    attempts: Mutex<HashMap<(String, PathBuf), u64>>,
}

impl FaultyFs {
    pub fn new(plan: FaultPlan) -> FaultyFs {
        FaultyFs {
            plan,
            attempts: Mutex::new(HashMap::new()),
        }
    }

    fn next_attempt(&self, op: &str, path: &Path) -> u64 {
        let mut attempts = self.attempts.lock().unwrap();
        let counter = attempts
            .entry((op.to_string(), path.to_path_buf()))
            .or_insert(0);
        *counter += 1;
        *counter
    }

    fn abort_error() -> io::Error {
        io::Error::other(FaultAbort)
    }
}

impl CheckpointFs for FaultyFs {
    fn write_atomic(&self, path: &Path, text: &str) -> io::Result<()> {
        let attempt = self.next_attempt("write", path);
        match self.plan.write_fault(path, attempt, text.len()) {
            Some(Fault::Abort) => Err(FaultyFs::abort_error()),
            Some(Fault::FailRename) => Err(io::Error::other(format!(
                "injected rename failure for {} (attempt {attempt})",
                path.display()
            ))),
            Some(Fault::TornWrite(k)) => {
                // Tear on a char boundary at or below k, then publish the
                // prefix as if the write had succeeded.
                let mut k = k.min(text.len());
                while !text.is_char_boundary(k) {
                    k -= 1;
                }
                RealFs.write_atomic(path, &text[..k])
            }
            Some(Fault::ReadError) | None => RealFs.write_atomic(path, text),
        }
    }

    fn read(&self, path: &Path) -> io::Result<Option<String>> {
        let attempt = self.next_attempt("read", path);
        match self.plan.read_fault(path, attempt) {
            Some(_) => Err(io::Error::other(format!(
                "injected read error for {} (attempt {attempt})",
                path.display()
            ))),
            None => RealFs.read(path),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A test's temp directory, removed when the test ends — on unwind
    /// too, so a failing test leaves nothing behind either.
    struct Scratch(PathBuf);

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn scratch(tag: &str) -> Scratch {
        static DIR_ID: AtomicUsize = AtomicUsize::new(0);
        let id = DIR_ID.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("ompfuzz-fault-{}-{tag}-{id}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    #[test]
    fn real_fs_round_trips_and_reports_absence() {
        let dir = scratch("realfs");
        let path = dir.0.join("nested/artifact.txt");
        assert_eq!(RealFs.read(&path).unwrap(), None);
        RealFs.write_atomic(&path, "payload\n").unwrap();
        assert_eq!(RealFs.read(&path).unwrap().as_deref(), Some("payload\n"));
        // Overwrite is atomic-by-rename: the target always holds one
        // complete version.
        RealFs.write_atomic(&path, "v2\n").unwrap();
        assert_eq!(RealFs.read(&path).unwrap().as_deref(), Some("v2\n"));
    }

    #[test]
    fn fault_decisions_are_deterministic_in_the_seed() {
        let plan = FaultPlan {
            seed: 7,
            torn_write_permille: 300,
            fail_rename_permille: 200,
            read_error_permille: 250,
            abort_permille: 100,
        };
        let path = PathBuf::from("ckpt/round-0/shard-1.txt");
        for attempt in 1..50 {
            assert_eq!(
                plan.write_fault(&path, attempt, 1000),
                plan.write_fault(&path, attempt, 1000)
            );
            assert_eq!(
                plan.read_fault(&path, attempt),
                plan.read_fault(&path, attempt)
            );
        }
        // A different seed produces a different schedule somewhere.
        let other = FaultPlan { seed: 8, ..plan };
        assert!(
            (1..200).any(|a| plan.write_fault(&path, a, 1000) != other.write_fault(&path, a, 1000)),
            "seeds 7 and 8 produced identical write-fault schedules"
        );
    }

    #[test]
    fn faults_are_transient_per_site() {
        // With every rate at 500 permille the plan fires often, but each
        // retry is a fresh site draw — some attempt must eventually pass.
        let plan = FaultPlan {
            seed: 3,
            torn_write_permille: 0,
            fail_rename_permille: 500,
            read_error_permille: 500,
            abort_permille: 0,
        };
        let dir = scratch("transient");
        let path = dir.0.join("artifact.txt");
        let fs_handle = FaultyFs::new(plan);
        let mut wrote = false;
        for _ in 0..64 {
            if fs_handle.write_atomic(&path, "payload\n").is_ok() {
                wrote = true;
                break;
            }
        }
        assert!(wrote, "rename fault at 50% never let a write through");
        let mut read = None;
        for _ in 0..64 {
            if let Ok(text) = fs_handle.read(&path) {
                read = text;
                break;
            }
        }
        assert_eq!(read.as_deref(), Some("payload\n"));
    }

    #[test]
    fn torn_writes_report_success_but_truncate() {
        let plan = FaultPlan {
            seed: 11,
            torn_write_permille: 1000,
            fail_rename_permille: 0,
            read_error_permille: 0,
            abort_permille: 0,
        };
        let dir = scratch("torn");
        let path = dir.0.join("artifact.txt");
        let fs_handle = FaultyFs::new(plan);
        let full = "0123456789abcdef\n";
        fs_handle.write_atomic(&path, full).unwrap();
        let on_disk = RealFs.read(&path).unwrap().unwrap();
        assert!(full.starts_with(&on_disk), "torn file is not a prefix");
        assert!(on_disk.len() < full.len(), "write was not torn");
    }

    #[test]
    fn aborts_are_distinguishable_from_io_errors() {
        let plan = FaultPlan {
            seed: 5,
            torn_write_permille: 0,
            fail_rename_permille: 0,
            read_error_permille: 0,
            abort_permille: 1000,
        };
        let dir = scratch("abort");
        let fs_handle = FaultyFs::new(plan);
        let err = fs_handle
            .write_atomic(&dir.0.join("artifact.txt"), "payload\n")
            .unwrap_err();
        assert!(is_fault_abort(&err), "{err}");
        assert!(!is_fault_abort(&io::Error::other("plain failure")));
    }
}
