//! `ompfuzz shutdown` always gets its reply: the daemon writes the reply
//! to a plain or a draining shutdown before it exits, so a client never
//! reads an empty line from a daemon that stopped first.

use std::path::PathBuf;
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_ompfuzz");

/// Daemon start/shutdown cycles per shutdown mode.
const CYCLES: usize = 5;

/// The test's own working directory, removed on drop. Unix socket paths
/// are short, so the daemon's files are named relative to it.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Scratch {
        let dir = std::env::temp_dir().join(format!("ompfuzz-shutdown-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn command(&self, args: &[&str]) -> Command {
        let mut command = Command::new(BIN);
        command.args(args).current_dir(&self.0);
        command
    }

    fn client(&self, args: &[&str]) -> Output {
        self.command(args).output().expect("cannot run client")
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A daemon that a failed assertion leaves running is killed on unwind.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn shutdown_is_answered_before_the_daemon_exits() {
    let dir = Scratch::new();
    for cycle in 0..CYCLES {
        for shutdown in [&["shutdown"][..], &["shutdown", "--drain"]] {
            let mut daemon = Daemon(
                dir.command(&["serve", "--socket", "serve.sock", "--state-dir", "state"])
                    .stdin(Stdio::null())
                    .stdout(Stdio::null())
                    .stderr(Stdio::null())
                    .spawn()
                    .expect("cannot spawn daemon"),
            );
            let deadline = Instant::now() + Duration::from_secs(30);
            while !dir.0.join("serve.sock").exists() {
                assert!(
                    Instant::now() < deadline,
                    "the daemon never bound its socket"
                );
                std::thread::sleep(Duration::from_millis(10));
            }
            let out = dir.client(&[shutdown, &["--socket", "serve.sock"]].concat());
            assert!(
                out.status.success(),
                "cycle {cycle}, `{}`: {}",
                shutdown.join(" "),
                String::from_utf8_lossy(&out.stderr)
            );
            assert!(daemon.0.wait().expect("cannot reap daemon").success());
        }
    }
}
