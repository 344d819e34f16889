//! The daemon runs its rounds through the coordinator's checked round
//! code, so a served job refuses what `ompfuzz evolve` refuses, and a job
//! ends `done` only with its `catalog.txt` written. Each test builds a
//! state directory by hand — a job's `spec.json` plus shard checkpoints
//! written by the same `ompfuzz shard` command lines the daemon spawns —
//! then starts `ompfuzz serve` on it and watches the recovered job.

use ompfuzz_serve::JobSpec;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_ompfuzz");

/// A scratch directory per test, removed on drop. Unix sockets cap path
/// length around 100 bytes, so it stays shallow.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        static ID: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "ompfuzz-rc-{tag}-{}-{}",
            std::process::id(),
            ID.fetch_add(1, Ordering::SeqCst)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A running daemon, killed on drop so a failed assertion leaves no
/// process behind.
struct Daemon(Child);

impl Daemon {
    fn start(socket: &Path, state: &Path) -> Daemon {
        let child = Command::new(BIN)
            .args([
                "serve",
                "--socket",
                path(socket),
                "--state-dir",
                path(state),
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("cannot spawn daemon");
        let deadline = Instant::now() + Duration::from_secs(30);
        while !socket.exists() {
            assert!(Instant::now() < deadline, "daemon never bound its socket");
            std::thread::sleep(Duration::from_millis(20));
        }
        Daemon(child)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn path(p: &Path) -> &str {
    p.to_str().expect("scratch paths are UTF-8")
}

fn ompfuzz(args: &[&str]) -> Output {
    Command::new(BIN)
        .args(args)
        .output()
        .expect("cannot run ompfuzz")
}

/// Lay out `job-1` under `state` the way `submit` does (`spec.json` and
/// the `logs/` the workers write to) and run its round-0 shards with the
/// daemon's own worker command lines. Returns the job dir.
fn job_with_round_zero(state: &Path, spec: &JobSpec) -> PathBuf {
    let job = state.join("job-1");
    std::fs::create_dir_all(job.join("logs")).unwrap();
    std::fs::write(job.join("spec.json"), spec.to_json() + "\n").unwrap();
    for shard in 0..spec.planned_shards() {
        let out = Command::new(BIN)
            .args(spec.shard_args(0, shard, &job.join("ckpt")))
            .output()
            .expect("cannot run shard worker");
        assert!(
            out.status.success(),
            "shard {shard} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    job
}

/// Start the daemon on `state`, watch the recovered `job-1` to its end,
/// and return the terminal state `watch` reported (`done` on success).
fn served_state(dir: &Scratch, state: &Path) -> String {
    let socket = dir.0.join("s.sock");
    let _daemon = Daemon::start(&socket, state);
    let socket = path(&socket);
    let watch = ompfuzz(&[
        "watch", "--socket", socket, "--job", "job-1", "--retry", "10",
    ]);
    let stderr = String::from_utf8_lossy(&watch.stderr).to_string();
    let state = if watch.status.success() {
        "done".to_string()
    } else {
        let (_, state) = stderr
            .trim_end()
            .rsplit_once(" ended ")
            .unwrap_or_else(|| panic!("watch failed without ending the job: {stderr}"));
        state.to_string()
    };
    assert!(ompfuzz(&["shutdown", "--socket", socket]).status.success());
    state
}

/// Shard 0's checkpoint copied over shard 1's: both files are sealed and
/// valid, but shard 1's is another shard's. The coordinator refuses the
/// directory, and the daemon must too, instead of counting both shards
/// done, merging shard 0 twice and ending the job `done` with a wrong
/// catalog.
#[test]
fn a_copied_shard_checkpoint_degrades_the_served_job() {
    let dir = Scratch::new("copied");
    let state = dir.0.join("state");
    let spec = JobSpec {
        quick: true,
        rounds: Some(2),
        shards: 2,
        ..JobSpec::default()
    };
    let job = job_with_round_zero(&state, &spec);
    let round0 = job.join("ckpt").join("round-0");
    std::fs::copy(round0.join("shard-0.txt"), round0.join("shard-1.txt")).unwrap();

    let ckpt = job.join("ckpt");
    let evolve = ompfuzz(&[
        "evolve",
        "--quick",
        "--shards",
        "2",
        "--checkpoint-dir",
        path(&ckpt),
        "--progress",
        "none",
    ]);
    let stderr = String::from_utf8_lossy(&evolve.stderr);
    assert_eq!(evolve.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("does not match"), "{stderr}");

    assert_eq!(served_state(&dir, &state), "degraded");
    assert!(
        !job.join("catalog.txt").exists(),
        "a degraded job wrote a catalog"
    );
}

/// The final catalog cannot be written (`catalog.txt` is a directory): the
/// job must end `degraded`, not `done` without its deliverable.
#[test]
fn a_failed_catalog_write_degrades_the_job() {
    let dir = Scratch::new("nocat");
    let state = dir.0.join("state");
    let spec = JobSpec {
        quick: true,
        rounds: Some(1),
        ..JobSpec::default()
    };
    let job = job_with_round_zero(&state, &spec);
    std::fs::create_dir_all(job.join("catalog.txt")).unwrap();

    assert_eq!(served_state(&dir, &state), "degraded");
    assert!(job.join("catalog.txt").is_dir());
    // The round itself merged: the failure is the deliverable's alone.
    assert!(job
        .join("ckpt")
        .join("round-0")
        .join("catalog.txt")
        .is_file());
}
