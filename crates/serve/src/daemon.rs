//! The `ompfuzz serve` daemon: the [`Scheduler`] state machine driven by
//! real clocks, real `ompfuzz shard` subprocesses, and a Unix socket.
//!
//! One thread owns everything stateful (the scheduler, the children, the
//! per-job streams); connection threads parse one request each and talk
//! to it over a channel. The daemon's job directory layout under the
//! state dir:
//!
//! ```text
//! job-<n>/spec.json      the submitted spec, verbatim
//! job-<n>/state.json     the job's sealed scheduling journal (see
//!                        [`crate::recovery`]); rewritten atomically
//!                        whenever the state changes
//! job-<n>/ckpt/          the campaign checkpoint directory the shard
//!                        workers write (PR-3 format + events.jsonl)
//! job-<n>/stream.jsonl   the job's watch stream: serve events
//!                        interleaved with forwarded telemetry lines
//! job-<n>/logs/          captured worker stdout/stderr per attempt
//! job-<n>/catalog.txt    the final merged catalog (written on `done`)
//! ```
//!
//! Starting the daemon on a state dir that already has jobs *recovers*
//! them: queued work re-enters the queue in its original priority and
//! submission order, shards orphaned by the previous daemon's death are
//! requeued as crashed attempts, and terminal jobs stay terminal —
//! SIGKILL the daemon mid-campaign, restart it, and the final catalog is
//! byte-identical to an uninterrupted run.
//!
//! The daemon performs the between-round merges through the coordinator's
//! own round code: the checked round reader
//! ([`read_round_shards`](ompfuzz_corpus::read_round_shards)) and the
//! ordered merge ([`merge_round`](ompfuzz_corpus::merge_round)) onto the
//! previous round's sealed catalog. It keeps no merge state of its own,
//! so a campaign run through the service produces catalog bytes identical
//! to `ompfuzz evolve` — the headline invariant, `cmp`-checked in CI — and
//! a shard file the coordinator would refuse degrades the served job.

use crate::protocol::{
    job_label, parse_request, render_error, render_event, render_ok, render_ok_job,
    render_status_reply, render_watch_end, Request,
};
use crate::recovery;
use crate::scheduler::{Action, JobId, Scheduler, SchedulerConfig, TaskId};
use crate::spec::JobSpec;
use ompfuzz_corpus::{merge_round, read_round_shards, Checkpoint, Loaded, RealFs, TriggerCatalog};
use ompfuzz_obs::{Event, Obs};
use std::io::{BufRead, BufReader, Read, Seek, SeekFrom, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How the daemon is wired to the world.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Unix socket path to listen on (an existing file is replaced).
    pub socket: PathBuf,
    /// State directory holding one `job-<n>/` subtree per job.
    pub state_dir: PathBuf,
    /// Scheduler policy (slots, retries, backoff, timeout).
    pub scheduler: SchedulerConfig,
    /// Worker binary to spawn; defaults to the daemon's own executable
    /// (the `ompfuzz` multicall binary).
    pub worker: Option<PathBuf>,
    /// Fault injection for the CI kill gate: SIGKILL the *first* attempt
    /// of shard `(round, index)` of the first job right after spawning
    /// it, deterministically exercising the requeue path.
    pub fault_kill: Option<(usize, usize)>,
}

impl ServeConfig {
    pub fn new(socket: PathBuf, state_dir: PathBuf) -> ServeConfig {
        ServeConfig {
            socket,
            state_dir,
            scheduler: SchedulerConfig::default(),
            worker: None,
            fault_kill: None,
        }
    }
}

/// A control message from a connection thread to the daemon loop.
enum Control {
    Submit {
        spec: JobSpec,
        reply: Sender<String>,
    },
    Status {
        job: Option<JobId>,
        reply: Sender<String>,
    },
    Cancel {
        job: JobId,
        reply: Sender<String>,
    },
    /// The reply line AND the stream both travel over `stream`; the
    /// daemon drops the sender when the stream ends.
    Watch {
        job: JobId,
        stream: Sender<String>,
    },
    /// The daemon writes the reply to `conn` on its own thread before it
    /// stops, so the process cannot exit with the reply unwritten.
    Shutdown {
        drain: bool,
        conn: UnixStream,
    },
}

/// Daemon-side bookkeeping for one job.
struct JobRt {
    spec: JobSpec,
    dir: PathBuf,
    ckpt_dir: PathBuf,
    /// Bytes of the job's `events.jsonl` already forwarded.
    events_offset: u64,
    watchers: Vec<Sender<String>>,
    /// Terminal state fully processed: stream closed, `watch_end` sent.
    ended: bool,
    /// The last `state.json` payload journaled, so unchanged state is
    /// not rewritten every loop tick.
    journaled: Option<String>,
}

impl JobRt {
    fn new(spec: JobSpec, dir: PathBuf, events_offset: u64) -> JobRt {
        JobRt {
            spec,
            ckpt_dir: dir.join("ckpt"),
            dir,
            events_offset,
            watchers: Vec::new(),
            ended: false,
            journaled: None,
        }
    }
}

/// One live shard subprocess.
struct ChildRt {
    task: TaskId,
    child: Child,
}

/// The state the daemon loop owns: the scheduler, the jobs' bookkeeping
/// and the live workers.
struct Daemon {
    sched: Scheduler,
    jobs: Vec<JobRt>,
    children: Vec<ChildRt>,
    /// The worker binary every shard subprocess runs.
    worker: PathBuf,
    /// The pending `--fault-kill` drill, cleared once it fires.
    fault_kill: Option<(usize, usize)>,
}

impl Daemon {
    /// Execute the scheduler's verdicts: spawn workers, kill workers,
    /// merge finished rounds. Merging can itself produce follow-up actions
    /// (a failed merge degrades the job, killing its siblings), which are
    /// executed in turn.
    fn apply(&mut self, actions: Vec<Action>, now: u64) {
        let mut queue = actions;
        while !queue.is_empty() {
            let mut follow_ups = Vec::new();
            for action in queue {
                match action {
                    Action::Spawn { task, attempt } => {
                        let job = &self.jobs[task.job];
                        match spawn_worker(job, task, attempt, &self.worker) {
                            Ok(mut child) => {
                                // CI fault injection: SIGKILL the designated
                                // shard's first attempt as soon as it exists
                                // — a deterministic kill -9 mid-round.
                                if task.job == 0
                                    && attempt == 1
                                    && self.fault_kill == Some((task.round, task.shard))
                                {
                                    let _ = child.kill();
                                    self.fault_kill = None;
                                }
                                self.children.push(ChildRt { task, child });
                            }
                            Err(_) => {
                                follow_ups.extend(self.sched.task_exited(task, false, now));
                            }
                        }
                    }
                    Action::Kill { task } => {
                        for c in self.children.iter_mut() {
                            if c.task == task {
                                let _ = c.child.kill();
                            }
                        }
                    }
                    Action::Merge { job, round } => {
                        let rt = &mut self.jobs[job];
                        follow_ups.extend(merge_job_round(&mut self.sched, rt, job, round, now));
                    }
                }
            }
            queue = follow_ups;
        }
    }
}

/// Run the daemon until a client sends `shutdown` (or the listener dies).
/// Blocks the calling thread; this is the body of `ompfuzz serve`.
pub fn run_daemon(config: ServeConfig) -> Result<(), String> {
    std::fs::create_dir_all(&config.state_dir)
        .map_err(|e| format!("cannot create {}: {e}", config.state_dir.display()))?;
    // A socket file may be a live daemon or a stale leftover from a
    // crash. Probe before removing: if anything answers the connect,
    // refuse to start rather than yank the socket out from under it.
    if config.socket.exists() {
        if UnixStream::connect(&config.socket).is_ok() {
            return Err(format!(
                "another daemon is already listening on {}",
                config.socket.display()
            ));
        }
        let _ = std::fs::remove_file(&config.socket);
    }
    let listener = UnixListener::bind(&config.socket)
        .map_err(|e| format!("cannot bind {}: {e}", config.socket.display()))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("cannot configure listener: {e}"))?;

    let (tx, rx) = mpsc::channel::<Control>();
    let stop = Arc::new(AtomicBool::new(false));
    let accept_stop = Arc::clone(&stop);
    let accept = std::thread::spawn(move || {
        while !accept_stop.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((stream, _)) => {
                    let tx = tx.clone();
                    std::thread::spawn(move || handle_connection(stream, tx));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(25));
                }
                Err(_) => break,
            }
        }
    });

    let worker = match &config.worker {
        Some(path) => path.clone(),
        None => std::env::current_exe().map_err(|e| format!("cannot locate worker binary: {e}"))?,
    };
    let result = daemon_loop(&config, worker, rx, &stop);
    stop.store(true, Ordering::SeqCst);
    let _ = accept.join();
    let _ = std::fs::remove_file(&config.socket);
    result
}

fn daemon_loop(
    config: &ServeConfig,
    worker: PathBuf,
    rx: Receiver<Control>,
    stop: &Arc<AtomicBool>,
) -> Result<(), String> {
    let start = Instant::now();
    let mut d = Daemon {
        sched: Scheduler::new(config.scheduler.clone()),
        jobs: Vec::new(),
        children: Vec::new(),
        worker,
        fault_kill: config.fault_kill,
    };
    let mut draining = false;

    // Restart recovery: rebuild every job the state dir already holds.
    // Orphaned running shards requeue as crashed attempts inside
    // `Scheduler::restore`.
    for rec in recovery::scan_state_dir(&config.state_dir)? {
        let (id, actions) = d.sched.restore(&rec.snapshot, 0);
        let mut job = JobRt::new(rec.spec, rec.dir, rec.events_offset);
        for report in &rec.corrupt {
            push_corrupt_line(&mut job, rec.snapshot.round, rec.snapshot.shards, report);
        }
        d.jobs.push(job);
        d.apply(actions, 0);
        debug_assert_eq!(id + 1, d.jobs.len());
    }

    loop {
        // 1. Control messages (block briefly — this is the loop cadence).
        let mut controls = Vec::new();
        match rx.recv_timeout(Duration::from_millis(20)) {
            Ok(c) => {
                controls.push(c);
                while let Ok(c) = rx.try_recv() {
                    controls.push(c);
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
        let now = start.elapsed().as_millis() as u64;
        for control in controls {
            match control {
                Control::Submit { spec, reply } => {
                    let id = submit_job(&config.state_dir, &mut d.sched, &mut d.jobs, spec);
                    let line = match id {
                        Ok(id) => render_ok_job(id),
                        Err(e) => render_error(&e),
                    };
                    let _ = reply.send(line);
                }
                Control::Status { job, reply } => {
                    let all = d.sched.status();
                    let line = match job {
                        None => render_status_reply(&all),
                        Some(id) if id < all.len() => render_status_reply(&all[id..=id]),
                        Some(id) => render_error(&format!("no such job {:?}", job_label(id))),
                    };
                    let _ = reply.send(line);
                }
                Control::Cancel { job, reply } => {
                    if job < d.jobs.len() {
                        let actions = d.sched.cancel(job);
                        d.apply(actions, now);
                        let _ = reply.send(render_ok_job(job));
                    } else {
                        let _ =
                            reply.send(render_error(&format!("no such job {:?}", job_label(job))));
                    }
                }
                Control::Watch { job, stream } => {
                    if job < d.jobs.len() {
                        let _ = stream.send(render_ok_job(job));
                        attach_watcher(&mut d.jobs[job], job, &d.sched, stream);
                    } else {
                        let _ =
                            stream.send(render_error(&format!("no such job {:?}", job_label(job))));
                    }
                }
                Control::Shutdown { drain, mut conn } => {
                    let _ = writeln!(conn, "{}", render_ok());
                    if drain {
                        // Graceful: no new shards spawn, in-flight ones
                        // finish (bounded by the per-shard timeout), the
                        // loop exits once the last child is reaped.
                        draining = true;
                        d.sched.set_draining(true);
                    } else {
                        stop.store(true, Ordering::SeqCst);
                    }
                }
            }
        }

        // 2. Reap exited workers and feed the scheduler.
        let mut exited = Vec::new();
        d.children.retain_mut(|c| match c.child.try_wait() {
            Ok(Some(status)) => {
                exited.push((c.task, status.success()));
                false
            }
            Ok(None) => true,
            Err(_) => {
                exited.push((c.task, false));
                false
            }
        });
        for (task, success) in exited {
            let actions = d.sched.task_exited(task, success, now);
            d.apply(actions, now);
        }

        // 3. Advance the clock: timeouts, backoff promotions, free slots.
        let actions = d.sched.poll(now);
        d.apply(actions, now);

        // 4. Route scheduler events and freshly appended telemetry lines
        //    onto the per-job streams.
        for event in d.sched.drain_events() {
            let id = event.job();
            push_stream_line(&mut d.jobs[id], &render_event(&event));
        }
        for job in d.jobs.iter_mut().filter(|job| !job.ended) {
            forward_telemetry(job);
        }

        // 5. Close the streams of jobs that reached a terminal state and
        //    have no straggler subprocesses left.
        for (id, job) in d.jobs.iter_mut().enumerate() {
            if job.ended {
                continue;
            }
            let Some(state) = d.sched.job_state(id) else {
                continue;
            };
            if state.is_terminal() && !d.sched.has_running(id) {
                forward_telemetry(job);
                let end = render_watch_end(id, state.label());
                for watcher in job.watchers.drain(..) {
                    let _ = watcher.send(end.clone());
                }
                job.ended = true;
            }
        }

        // 6. Journal: rewrite each job's `state.json` atomically whenever
        //    its durable state changed this tick. Failures are tolerated —
        //    recovery falls back to the checkpoints.
        for (id, job) in d.jobs.iter_mut().enumerate() {
            if let Some(snap) = d.sched.snapshot(id) {
                let payload = recovery::render_state(&snap, job.events_offset);
                if job.journaled.as_deref() != Some(&payload)
                    && recovery::write_state(&RealFs, &job.dir, &snap, job.events_offset).is_ok()
                {
                    job.journaled = Some(payload);
                }
            }
        }

        if stop.load(Ordering::SeqCst) {
            break;
        }
        if draining && d.children.is_empty() {
            // Drained: every in-flight shard finished (or timed out and
            // was reaped) and its state is journaled.
            break;
        }
    }

    // Fast shutdown: kill the workers and leave the checkpoints; every
    // in-flight shard is resume-correct by design (it either left no
    // checkpoint or a complete, sealed one). A drain reaches here with no
    // children left.
    for c in &mut d.children {
        let _ = c.child.kill();
    }
    for c in &mut d.children {
        let _ = c.child.wait();
    }
    Ok(())
}

/// Create the job's directory tree and enqueue it.
fn submit_job(
    state_dir: &Path,
    sched: &mut Scheduler,
    jobs: &mut Vec<JobRt>,
    spec: JobSpec,
) -> Result<JobId, String> {
    let id = jobs.len();
    let dir = state_dir.join(job_label(id));
    for d in [&dir, &dir.join("ckpt"), &dir.join("logs")] {
        std::fs::create_dir_all(d).map_err(|e| format!("cannot create {}: {e}", d.display()))?;
    }
    std::fs::write(dir.join("spec.json"), spec.to_json() + "\n")
        .map_err(|e| format!("cannot write spec.json: {e}"))?;
    let scheduled = sched.submit(spec.priority, spec.planned_rounds(), spec.planned_shards());
    debug_assert_eq!(scheduled, id);
    jobs.push(JobRt::new(spec, dir, 0));
    Ok(id)
}

/// Replay the job's recorded stream to a new watcher, then either keep it
/// subscribed (live job) or terminate it (job already ended).
fn attach_watcher(job: &mut JobRt, id: JobId, sched: &Scheduler, stream: Sender<String>) {
    let recorded = std::fs::read_to_string(job.dir.join("stream.jsonl")).unwrap_or_default();
    for line in recorded.lines() {
        if stream.send(line.to_string()).is_err() {
            return;
        }
    }
    if job.ended {
        let state = sched.job_state(id).expect("job exists");
        let _ = stream.send(render_watch_end(id, state.label()));
    } else {
        job.watchers.push(stream);
    }
}

/// Spawn one `ompfuzz shard` subprocess for `task`, capturing its output
/// under the job's `logs/` directory.
fn spawn_worker(job: &JobRt, task: TaskId, attempt: u32, worker: &Path) -> Result<Child, String> {
    let logs = job.dir.join("logs");
    let open = |suffix: &str| {
        std::fs::File::create(logs.join(format!(
            "round-{}-shard-{}-attempt-{attempt}.{suffix}",
            task.round, task.shard
        )))
        .map(Stdio::from)
        .map_err(|e| e.to_string())
    };
    Command::new(worker)
        .args(job.spec.shard_args(task.round, task.shard, &job.ckpt_dir))
        .stdin(Stdio::null())
        .stdout(open("out")?)
        .stderr(open("err")?)
        .spawn()
        .map_err(|e| format!("cannot spawn worker: {e}"))
}

/// Merge a finished round through the coordinator's round code — the
/// checked round reader, then the ordered merge onto the previous round's
/// sealed catalog — and tell the scheduler. A missing or corrupt shard
/// checkpoint or round manifest is not fatal: the shards it covers are
/// reported lost ([`Scheduler::shard_lost`]) and re-run, with a
/// `checkpoint_corrupt` line on the job's stream. Anything else that stops
/// the merge degrades the job: a sealed checkpoint that does not parse or
/// belongs to another shard or campaign, an unreadable previous-round
/// catalog, or a failed write of the round catalog or of `catalog.txt`.
fn merge_job_round(
    sched: &mut Scheduler,
    job: &mut JobRt,
    id: JobId,
    round: usize,
    now: u64,
) -> Vec<Action> {
    let shards = job.spec.planned_shards();
    let Ok(ckpt) = Checkpoint::open(&job.ckpt_dir) else {
        return sched.merge_failed(id, round);
    };
    let mut lost = Vec::new();
    let mut shard_catalogs = Vec::with_capacity(shards);
    let manifest_problem = match read_round_shards(&ckpt, round) {
        Ok(Loaded::Present(files)) if files.len() == shards => {
            for (shard, file) in files.into_iter().enumerate() {
                let name = format!("round-{round}/shard-{shard}.txt");
                match file {
                    Loaded::Present(outcome) => shard_catalogs.push(outcome.catalog),
                    Loaded::Corrupt(reason) => lost.push((shard, format!("{name}: {reason}"))),
                    Loaded::Absent => lost.push((shard, format!("{name}: checkpoint missing"))),
                }
            }
            None
        }
        Ok(Loaded::Corrupt(reason)) => Some(reason),
        Ok(Loaded::Absent) => Some("manifest missing".to_string()),
        Ok(Loaded::Present(_)) | Err(_) => return sched.merge_failed(id, round),
    };
    if let Some(reason) = manifest_problem {
        // Without a readable manifest no shard can be checked: every shard
        // re-runs, and the re-runs write a fresh manifest.
        let report = format!("round-{round}/manifest.txt: {reason}");
        lost = (0..shards).map(|shard| (shard, report.clone())).collect();
    }
    if !lost.is_empty() {
        let mut follow_ups = Vec::new();
        for (shard, report) in lost {
            push_corrupt_line(job, round, shard, &report);
            follow_ups.extend(sched.shard_lost(id, round, shard, now));
        }
        return follow_ups;
    }
    let merged = ckpt
        .round_start_catalog(round, TriggerCatalog::new())
        .and_then(|start| merge_round(Some(&ckpt), round, start, shard_catalogs, &Obs::off()));
    let Ok((catalog, _)) = merged else {
        return sched.merge_failed(id, round);
    };
    // The deliverable: byte-identical to `ompfuzz evolve`'s `--catalog`
    // output for the same configuration (and, unlike the checkpoints,
    // deliberately unsealed). The job is done only once it is written.
    if round + 1 == job.spec.planned_rounds()
        && std::fs::write(job.dir.join("catalog.txt"), catalog.save_to_string()).is_err()
    {
        return sched.merge_failed(id, round);
    }
    sched.round_merged(id, round, catalog.len() as u64);
    Vec::new()
}

/// Put a `checkpoint_corrupt` telemetry line on the job's stream. The
/// line is rendered through the shared taxonomy ([`Event`]), so watchers
/// validate it like any other forwarded telemetry. `report` is
/// `"<file>: <reason>"` relative to the checkpoint dir.
fn push_corrupt_line(job: &mut JobRt, round: usize, shard: usize, report: &str) {
    let (file, reason) = report
        .split_once(": ")
        .unwrap_or((report, "integrity failure"));
    let line = Event::CheckpointCorrupt {
        round: round as u64,
        shard: shard as u64,
        file: file.to_string(),
        reason: reason.to_string(),
    }
    .to_json();
    push_stream_line(job, &line);
}

/// Append a line to the job's durable stream and fan it out to watchers
/// (dead watchers are dropped).
fn push_stream_line(job: &mut JobRt, line: &str) {
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(job.dir.join("stream.jsonl"))
    {
        let _ = writeln!(f, "{line}");
    }
    job.watchers.retain(|w| w.send(line.to_string()).is_ok());
}

/// Forward newly appended complete lines of the job's `events.jsonl`
/// (written by the shard workers) onto the stream. Only complete lines
/// are consumed — a line mid-write stays buffered in the file until its
/// newline lands, so watchers never see torn JSON.
fn forward_telemetry(job: &mut JobRt) {
    let path = job.ckpt_dir.join("events.jsonl");
    for line in tail_complete_lines(&path, &mut job.events_offset) {
        push_stream_line(job, &line);
    }
}

/// Read complete (newline-terminated) lines appended to `path` past
/// `offset`, advancing `offset` over what was consumed.
fn tail_complete_lines(path: &Path, offset: &mut u64) -> Vec<String> {
    let Ok(mut file) = std::fs::File::open(path) else {
        return Vec::new();
    };
    if file.seek(SeekFrom::Start(*offset)).is_err() {
        return Vec::new();
    }
    let mut buf = String::new();
    if file.read_to_string(&mut buf).is_err() {
        return Vec::new();
    }
    let Some(last_newline) = buf.rfind('\n') else {
        return Vec::new();
    };
    let complete = &buf[..last_newline + 1];
    *offset += complete.len() as u64;
    complete.lines().map(str::to_string).collect()
}

/// One connection = one request line. `watch` replies stream until the
/// job ends or the client goes away; everything else is a single reply
/// line.
fn handle_connection(stream: UnixStream, tx: Sender<Control>) {
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut writer = stream;
    let mut line = String::new();
    if reader.read_line(&mut line).is_err() {
        return;
    }
    let request = match parse_request(line.trim_end()) {
        Ok(r) => r,
        Err(e) => {
            let _ = writeln!(writer, "{}", render_error(&e));
            return;
        }
    };
    match request {
        Request::Shutdown { drain } => {
            let control = Control::Shutdown {
                drain,
                conn: writer,
            };
            if let Err(mpsc::SendError(Control::Shutdown { mut conn, .. })) = tx.send(control) {
                let _ = writeln!(conn, "{}", render_error("daemon is shutting down"));
            }
        }
        Request::Watch { job } => {
            let (stx, srx) = mpsc::channel::<String>();
            if tx.send(Control::Watch { job, stream: stx }).is_err() {
                let _ = writeln!(writer, "{}", render_error("daemon is shutting down"));
                return;
            }
            // First message is the reply; the rest is the stream, closed
            // by the daemon dropping the sender.
            while let Ok(l) = srx.recv() {
                if writeln!(writer, "{l}").is_err() || writer.flush().is_err() {
                    return; // client went away; daemon prunes the sender
                }
            }
        }
        other => {
            let (rtx, rrx) = mpsc::channel::<String>();
            let control = match other {
                Request::Submit(spec) => Control::Submit { spec, reply: rtx },
                Request::Status { job } => Control::Status { job, reply: rtx },
                Request::Cancel { job } => Control::Cancel { job, reply: rtx },
                Request::Shutdown { .. } | Request::Watch { .. } => unreachable!("handled above"),
            };
            let reply = if tx.send(control).is_ok() {
                rrx.recv()
                    .unwrap_or_else(|_| render_error("daemon is shutting down"))
            } else {
                render_error("daemon is shutting down")
            };
            let _ = writeln!(writer, "{reply}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    static DIR_ID: AtomicUsize = AtomicUsize::new(0);

    fn scratch(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "ompfuzz-serve-{tag}-{}-{}",
            std::process::id(),
            DIR_ID.fetch_add(1, Ordering::SeqCst)
        ))
    }

    #[test]
    fn tailing_consumes_only_complete_lines() {
        let dir = scratch("tail");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        let mut offset = 0;
        // Missing file: nothing.
        assert!(tail_complete_lines(&path, &mut offset).is_empty());
        // A complete line plus a torn one: only the complete line moves.
        std::fs::write(&path, "{\"a\":1}\n{\"b\":").unwrap();
        assert_eq!(tail_complete_lines(&path, &mut offset), vec!["{\"a\":1}"]);
        assert_eq!(offset, 8);
        assert!(tail_complete_lines(&path, &mut offset).is_empty());
        // The torn line finishes and a new one lands: both are consumed.
        std::fs::write(&path, "{\"a\":1}\n{\"b\":2}\n{\"c\":3}\n").unwrap();
        assert_eq!(
            tail_complete_lines(&path, &mut offset),
            vec!["{\"b\":2}", "{\"c\":3}"]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Protocol smoke over a real socket: bad requests get error replies,
    /// `status` answers, `watch` of a missing job errors, and `shutdown`
    /// stops the daemon. No jobs are submitted, so no subprocesses spawn.
    #[test]
    fn daemon_answers_the_socket_protocol() {
        let dir = scratch("proto");
        let config = ServeConfig::new(dir.join("serve.sock"), dir.join("state"));
        let socket = config.socket.clone();
        let daemon = std::thread::spawn(move || run_daemon(config));
        // The daemon binds before accepting; wait for the socket file.
        let mut tries = 0;
        while !socket.exists() && tries < 200 {
            std::thread::sleep(Duration::from_millis(10));
            tries += 1;
        }
        let ask = |line: &str| -> String {
            let mut conn = UnixStream::connect(&socket).expect("connect");
            writeln!(conn, "{line}").unwrap();
            let mut reader = BufReader::new(conn);
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            reply.trim_end().to_string()
        };
        assert!(ask("not json").starts_with("{\"ok\":false"));
        assert!(ask("{\"cmd\":\"brunch\"}").contains("unknown command"));
        assert_eq!(ask("{\"cmd\":\"status\"}"), "{\"ok\":true,\"jobs\":[]}");
        // A request nested far past the parser's depth limit gets an error
        // reply instead of overflowing the connection thread's stack, and
        // the daemon keeps answering.
        let deep = format!("{{\"cmd\":\"status\",\"x\":{}", "[".repeat(50_000));
        assert!(ask(&deep).starts_with("{\"ok\":false"));
        assert_eq!(ask("{\"cmd\":\"status\"}"), "{\"ok\":true,\"jobs\":[]}");
        assert!(ask("{\"cmd\":\"watch\",\"job\":\"job-9\"}").contains("no such job"));
        assert!(ask("{\"cmd\":\"cancel\",\"job\":\"job-9\"}").contains("no such job"));
        assert_eq!(ask("{\"cmd\":\"shutdown\"}"), "{\"ok\":true}");
        daemon.join().unwrap().unwrap();
        assert!(!socket.exists(), "socket file removed on shutdown");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
