//! The campaign scheduler: a deterministic state machine over a worker
//! budget.
//!
//! The daemon owns N subprocess slots and many concurrent jobs; this
//! module decides — given only the current time in milliseconds and the
//! exits the driver reports — which shard task to spawn, kill or requeue
//! next. It holds no clocks, no processes and no I/O, which is what makes
//! every scheduling policy below unit-testable with a fake clock and a
//! hand-fed exit stream:
//!
//! * **FIFO with priorities, round-robin across jobs.** A freed slot goes
//!   to the highest-priority job that has a ready task; among equal
//!   priorities the least-recently-scheduled job wins (submission order
//!   seeds the rotation), so one huge campaign cannot starve the rest.
//! * **Crash requeue with capped exponential backoff.** A nonzero exit or
//!   kill requeues the shard after `min(base·2^(attempt-1), cap)` plus a
//!   deterministic seeded jitter of at most a quarter of the delay —
//!   reproducible schedules, no thundering herd.
//! * **Per-shard timeout.** A task running past the budget gets a kill
//!   action; its exit is then handled like any other crash.
//! * **Graceful degradation.** A shard that exhausts its retries marks the
//!   whole job [`JobState::Degraded`] (its remaining work is cancelled)
//!   instead of wedging the queue; every other job keeps running.
//!
//! Rounds are barriers: round `r+1` tasks become ready only after the
//! driver merges round `r`'s shard checkpoints ([`Scheduler::round_merged`]),
//! because `ompfuzz shard --round r+1` reads the previous round's merged
//! catalog from the checkpoint directory. The existing checkpoint files
//! are also what makes every requeue resume-correct: a shard killed
//! mid-run left either no checkpoint (it re-runs from scratch) or a
//! complete one (the re-run loads it and is a no-op).

use ompfuzz_corpus::{fnv1a, splitmix64};
use std::collections::BTreeSet;

/// Daemon-internal job identifier (dense, starts at 0; the protocol shows
/// it as `job-<id+1>`).
pub type JobId = usize;

/// One schedulable unit of work: shard `shard` of round `round` of `job`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TaskId {
    pub job: JobId,
    pub round: usize,
    pub shard: usize,
}

/// The scheduler's policy knobs.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Concurrent subprocess slots shared by every job.
    pub slots: usize,
    /// Retries per shard after its first attempt before the job degrades.
    pub max_retries: u32,
    /// First-retry backoff; doubles per subsequent retry.
    pub backoff_base_ms: u64,
    /// Exponential backoff ceiling (jitter may add up to a quarter more).
    pub backoff_cap_ms: u64,
    /// Wall-clock budget per shard attempt; past it the task is killed.
    pub shard_timeout_ms: u64,
    /// Seed for the deterministic backoff jitter.
    pub jitter_seed: u64,
}

impl Default for SchedulerConfig {
    fn default() -> SchedulerConfig {
        SchedulerConfig {
            slots: 2,
            max_retries: 3,
            backoff_base_ms: 500,
            backoff_cap_ms: 30_000,
            shard_timeout_ms: 600_000,
            jitter_seed: 0x0ff5_eed0,
        }
    }
}

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Has runnable (or backing-off) tasks in the current round.
    Active,
    /// All shards of the current round finished; waiting for the driver's
    /// catalog merge.
    Merging,
    /// Every round merged.
    Done,
    /// A shard exhausted its retries (or a merge failed); remaining work
    /// was cancelled.
    Degraded,
    /// Cancelled by a client.
    Cancelled,
}

impl JobState {
    /// Protocol label (`status` responses and `watch_end` frames).
    pub fn label(&self) -> &'static str {
        match self {
            JobState::Active => "active",
            JobState::Merging => "merging",
            JobState::Done => "done",
            JobState::Degraded => "degraded",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Whether the job can make no further progress.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Degraded | JobState::Cancelled
        )
    }

    /// Parse a [`Self::label`] back (the `state.json` journal round-trip).
    pub fn from_label(label: &str) -> Option<JobState> {
        match label {
            "active" => Some(JobState::Active),
            "merging" => Some(JobState::Merging),
            "done" => Some(JobState::Done),
            "degraded" => Some(JobState::Degraded),
            "cancelled" => Some(JobState::Cancelled),
            _ => None,
        }
    }
}

/// What the driver must do next. Spawns and kills map to subprocess
/// management; a merge asks the driver to fold the round's shard
/// checkpoints into the job catalog and report back via
/// [`Scheduler::round_merged`] / [`Scheduler::merge_failed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    Spawn { task: TaskId, attempt: u32 },
    Kill { task: TaskId },
    Merge { job: JobId, round: usize },
}

/// Scheduling events for the job's watch stream (the daemon renders these
/// as JSON lines; see [`crate::protocol`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeEvent {
    JobQueued {
        job: JobId,
        priority: u64,
        rounds: usize,
        shards: usize,
    },
    ShardSpawned {
        task: TaskId,
        attempt: u32,
    },
    ShardDone {
        task: TaskId,
        attempt: u32,
    },
    ShardFailed {
        task: TaskId,
        attempt: u32,
        timeout: bool,
    },
    ShardRetry {
        task: TaskId,
        attempt: u32,
        backoff_ms: u64,
    },
    ShardTimeout {
        task: TaskId,
        attempt: u32,
    },
    JobDegraded {
        job: JobId,
        round: usize,
        shard: usize,
    },
    RoundMerged {
        job: JobId,
        round: usize,
        catalog: u64,
    },
    JobDone {
        job: JobId,
    },
    JobCancelled {
        job: JobId,
    },
    /// The job was rebuilt from its journal after a daemon restart.
    JobRecovered {
        job: JobId,
        state: JobState,
        round: usize,
        retries: u64,
    },
}

impl ServeEvent {
    /// The job the event belongs to (stream routing).
    pub fn job(&self) -> JobId {
        match *self {
            ServeEvent::JobQueued { job, .. }
            | ServeEvent::JobDegraded { job, .. }
            | ServeEvent::RoundMerged { job, .. }
            | ServeEvent::JobDone { job }
            | ServeEvent::JobCancelled { job }
            | ServeEvent::JobRecovered { job, .. } => job,
            ServeEvent::ShardSpawned { task, .. }
            | ServeEvent::ShardDone { task, .. }
            | ServeEvent::ShardFailed { task, .. }
            | ServeEvent::ShardRetry { task, .. }
            | ServeEvent::ShardTimeout { task, .. } => task.job,
        }
    }
}

/// One job's scheduling snapshot (the `status` response).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobStatus {
    pub job: JobId,
    pub state: JobState,
    pub priority: u64,
    /// Current round (the last round when terminal).
    pub round: usize,
    pub rounds: usize,
    pub shards: usize,
    /// Shards of the current round completed.
    pub done_shards: usize,
    /// Tasks of this job currently in a slot.
    pub running: usize,
    /// Total requeues across the job's lifetime.
    pub retries: u64,
}

/// A job's durable scheduling state — everything the daemon journals to
/// `job-N/state.json` and feeds back through [`Scheduler::restore`] after
/// a restart. Backoff deadlines are deliberately absent: a restart resets
/// pending backoffs (the shards become ready immediately), which only
/// ever makes recovery faster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSnapshot {
    pub priority: u64,
    pub rounds: usize,
    pub shards: usize,
    pub state: JobState,
    /// Current round (last round when terminal).
    pub round: usize,
    /// Shards of the current round whose checkpoints are complete.
    pub done: Vec<usize>,
    /// Spawn count per shard in the current round.
    pub attempts: Vec<u32>,
    /// Total requeues across the job's lifetime.
    pub retries: u64,
    /// Shards that occupied a slot at snapshot time. On restore these are
    /// orphans — their worker died with the daemon — and are requeued as
    /// crashed attempts.
    pub running: Vec<usize>,
}

#[derive(Debug)]
struct Job {
    priority: u64,
    rounds: usize,
    shards: usize,
    state: JobState,
    round: usize,
    /// Shard indices ready to spawn (ordered, so within a job the lowest
    /// pending shard always goes first).
    ready: BTreeSet<usize>,
    /// Requeued shards waiting out their backoff: `(ready_at_ms, shard)`.
    backoff: Vec<(u64, usize)>,
    /// Spawn count per shard in the current round.
    attempts: Vec<u32>,
    done_shards: BTreeSet<usize>,
    /// Rotation key: sequence number of the job's last spawn (submission
    /// order seeds it, so FIFO within a priority class).
    last_scheduled: u64,
    retries_total: u64,
}

#[derive(Debug)]
struct Running {
    task: TaskId,
    attempt: u32,
    started_ms: u64,
    /// A kill was issued (timeout/cancel/degrade); the eventual exit is a
    /// failure regardless of status.
    kill_requested: bool,
    /// The kill was specifically a timeout (event labelling).
    timed_out: bool,
}

/// The deterministic scheduler state machine. Drive it with
/// [`Scheduler::poll`] (time advances), [`Scheduler::task_exited`]
/// (process exits) and [`Scheduler::round_merged`] (driver merges);
/// collect user-visible history with [`Scheduler::drain_events`].
#[derive(Debug)]
pub struct Scheduler {
    cfg: SchedulerConfig,
    jobs: Vec<Job>,
    running: Vec<Running>,
    seq: u64,
    events: Vec<ServeEvent>,
    /// Draining: timeouts and backoff promotion still run, but no new
    /// shard spawns (graceful `shutdown --drain`).
    draining: bool,
}

impl Scheduler {
    pub fn new(cfg: SchedulerConfig) -> Scheduler {
        Scheduler {
            cfg: SchedulerConfig {
                slots: cfg.slots.max(1),
                ..cfg
            },
            jobs: Vec::new(),
            running: Vec::new(),
            seq: 0,
            events: Vec::new(),
            draining: false,
        }
    }

    /// Stop (or resume) admitting new shard spawns. In-flight tasks keep
    /// running (bounded by the per-shard timeout); merges of completed
    /// rounds still happen, but the unlocked round never spawns.
    pub fn set_draining(&mut self, draining: bool) {
        self.draining = draining;
    }

    /// Whether the scheduler is refusing new spawns.
    pub fn draining(&self) -> bool {
        self.draining
    }

    /// Enqueue a job of `rounds × shards` tasks. Round 0 is immediately
    /// ready; later rounds unlock as merges complete.
    pub fn submit(&mut self, priority: u64, rounds: usize, shards: usize) -> JobId {
        let rounds = rounds.max(1);
        let shards = shards.max(1);
        let id = self.jobs.len();
        self.jobs.push(Job {
            priority,
            rounds,
            shards,
            state: JobState::Active,
            round: 0,
            ready: (0..shards).collect(),
            backoff: Vec::new(),
            attempts: vec![0; shards],
            done_shards: BTreeSet::new(),
            last_scheduled: self.seq,
            retries_total: 0,
        });
        self.seq += 1;
        self.events.push(ServeEvent::JobQueued {
            job: id,
            priority,
            rounds,
            shards,
        });
        id
    }

    /// Advance time to `now_ms`: expire per-shard timeouts (kill actions),
    /// promote requeued shards whose backoff elapsed, then fill free slots
    /// fairly. Actions are returned in the order the driver should apply
    /// them.
    pub fn poll(&mut self, now_ms: u64) -> Vec<Action> {
        let mut actions = Vec::new();
        // Timeouts first: a slot freed by a kill cannot be refilled until
        // the driver reports the exit, but the kill must not wait.
        for r in &mut self.running {
            if !r.kill_requested && now_ms.saturating_sub(r.started_ms) >= self.cfg.shard_timeout_ms
            {
                r.kill_requested = true;
                r.timed_out = true;
                self.events.push(ServeEvent::ShardTimeout {
                    task: r.task,
                    attempt: r.attempt,
                });
                actions.push(Action::Kill { task: r.task });
            }
        }
        for job in &mut self.jobs {
            if job.state != JobState::Active {
                continue;
            }
            job.backoff.retain(|&(ready_at, shard)| {
                if ready_at <= now_ms {
                    job.ready.insert(shard);
                    false
                } else {
                    true
                }
            });
        }
        while !self.draining && self.running.len() < self.cfg.slots {
            // Highest priority wins; ties go to the job that was scheduled
            // longest ago (round-robin), then to the lower id (stable).
            let Some(id) = self
                .jobs
                .iter()
                .enumerate()
                .filter(|(_, j)| j.state == JobState::Active && !j.ready.is_empty())
                .min_by_key(|(id, j)| (std::cmp::Reverse(j.priority), j.last_scheduled, *id))
                .map(|(id, _)| id)
            else {
                break;
            };
            let job = &mut self.jobs[id];
            let shard = *job.ready.iter().next().expect("ready is non-empty");
            job.ready.remove(&shard);
            job.attempts[shard] += 1;
            job.last_scheduled = self.seq;
            self.seq += 1;
            let task = TaskId {
                job: id,
                round: job.round,
                shard,
            };
            let attempt = job.attempts[shard];
            self.running.push(Running {
                task,
                attempt,
                started_ms: now_ms,
                kill_requested: false,
                timed_out: false,
            });
            self.events.push(ServeEvent::ShardSpawned { task, attempt });
            actions.push(Action::Spawn { task, attempt });
        }
        actions
    }

    /// Report a subprocess exit. A success completes the shard (and, when
    /// it was the round's last, asks the driver to merge); a failure —
    /// crash, nonzero exit, or a kill we requested — requeues with backoff
    /// or degrades the job once retries are exhausted.
    pub fn task_exited(&mut self, task: TaskId, success: bool, now_ms: u64) -> Vec<Action> {
        let Some(pos) = self.running.iter().position(|r| r.task == task) else {
            return Vec::new(); // unknown/stale exit: ignore
        };
        let running = self.running.remove(pos);
        let job = &mut self.jobs[task.job];
        if job.state.is_terminal() || task.round != job.round {
            // A straggler of a cancelled/degraded job or a previous round;
            // its slot is all we wanted back.
            return Vec::new();
        }
        if success {
            self.events.push(ServeEvent::ShardDone {
                task,
                attempt: running.attempt,
            });
            job.done_shards.insert(task.shard);
            if job.done_shards.len() == job.shards {
                job.state = JobState::Merging;
                return vec![Action::Merge {
                    job: task.job,
                    round: job.round,
                }];
            }
            return Vec::new();
        }
        self.events.push(ServeEvent::ShardFailed {
            task,
            attempt: running.attempt,
            timeout: running.timed_out,
        });
        if running.attempt > self.cfg.max_retries {
            return self.degrade(task.job, task.round, task.shard);
        }
        job.retries_total += 1;
        let backoff_ms = self.backoff_ms(task, running.attempt);
        let job = &mut self.jobs[task.job];
        job.backoff.push((now_ms + backoff_ms, task.shard));
        self.events.push(ServeEvent::ShardRetry {
            task,
            attempt: running.attempt + 1,
            backoff_ms,
        });
        Vec::new()
    }

    /// The driver merged `round`'s shard checkpoints (`catalog` = merged
    /// catalog size). Unlocks the next round, or finishes the job.
    pub fn round_merged(&mut self, job_id: JobId, round: usize, catalog: u64) {
        let job = &mut self.jobs[job_id];
        if job.state != JobState::Merging || job.round != round {
            return;
        }
        self.events.push(ServeEvent::RoundMerged {
            job: job_id,
            round,
            catalog,
        });
        if round + 1 == job.rounds {
            job.state = JobState::Done;
            self.events.push(ServeEvent::JobDone { job: job_id });
        } else {
            job.state = JobState::Active;
            job.round = round + 1;
            job.ready = (0..job.shards).collect();
            job.backoff.clear();
            job.attempts = vec![0; job.shards];
            job.done_shards.clear();
        }
    }

    /// The driver could not merge `round` (missing or corrupt shard
    /// checkpoint): degrade the job.
    pub fn merge_failed(&mut self, job_id: JobId, round: usize) -> Vec<Action> {
        self.degrade(job_id, round, 0)
    }

    /// The durable state of one job, for the daemon's `state.json`
    /// journal. `None` for unknown ids.
    pub fn snapshot(&self, job_id: JobId) -> Option<JobSnapshot> {
        let job = self.jobs.get(job_id)?;
        Some(JobSnapshot {
            priority: job.priority,
            rounds: job.rounds,
            shards: job.shards,
            state: job.state,
            round: job.round,
            done: job.done_shards.iter().copied().collect(),
            attempts: job.attempts.clone(),
            retries: job.retries_total,
            running: self
                .running
                .iter()
                .filter(|r| r.task.job == job_id && r.task.round == job.round)
                .map(|r| r.task.shard)
                .collect(),
        })
    }

    /// Rebuild a job from its journal after a daemon restart. Jobs must be
    /// restored in their original submission order (ids are dense); the
    /// restored job re-enters the rotation as if freshly submitted, so
    /// priority and FIFO order survive the restart.
    ///
    /// Shards the snapshot says were running are orphans — their worker
    /// died with the daemon — and are treated as crashed attempts: they
    /// requeue under the normal backoff machinery, or degrade the job if
    /// that attempt had already exhausted its retries. Terminal jobs stay
    /// terminal. A non-terminal job whose shards are all done resumes at
    /// the merge (the returned [`Action::Merge`] re-runs it; merges are
    /// idempotent over checkpoints).
    pub fn restore(&mut self, snap: &JobSnapshot, now_ms: u64) -> (JobId, Vec<Action>) {
        let id = self.jobs.len();
        let rounds = snap.rounds.max(1);
        let shards = snap.shards.max(1);
        let round = snap.round.min(rounds - 1);
        let mut attempts = snap.attempts.clone();
        attempts.resize(shards, 0);
        let done: BTreeSet<usize> = snap.done.iter().copied().filter(|s| *s < shards).collect();
        let orphans: BTreeSet<usize> = snap
            .running
            .iter()
            .copied()
            .filter(|s| *s < shards && !done.contains(s))
            .collect();
        let mut ready = BTreeSet::new();
        if !snap.state.is_terminal() {
            for shard in 0..shards {
                if !done.contains(&shard) && !orphans.contains(&shard) {
                    ready.insert(shard);
                }
            }
        }
        self.jobs.push(Job {
            priority: snap.priority,
            rounds,
            shards,
            state: snap.state,
            round,
            ready,
            backoff: Vec::new(),
            attempts,
            done_shards: done,
            last_scheduled: self.seq,
            retries_total: snap.retries,
        });
        self.seq += 1;
        let mut actions = Vec::new();
        if !snap.state.is_terminal() {
            for shard in orphans {
                let attempt = self.jobs[id].attempts[shard].max(1);
                let task = TaskId {
                    job: id,
                    round,
                    shard,
                };
                self.events.push(ServeEvent::ShardFailed {
                    task,
                    attempt,
                    timeout: false,
                });
                if attempt > self.cfg.max_retries {
                    actions.extend(self.degrade(id, round, shard));
                    break;
                }
                let backoff_ms = self.backoff_ms(task, attempt);
                let job = &mut self.jobs[id];
                job.retries_total += 1;
                job.backoff.push((now_ms + backoff_ms, shard));
                self.events.push(ServeEvent::ShardRetry {
                    task,
                    attempt: attempt + 1,
                    backoff_ms,
                });
            }
            let job = &mut self.jobs[id];
            if !job.state.is_terminal() {
                if job.done_shards.len() == job.shards {
                    job.state = JobState::Merging;
                    actions.push(Action::Merge { job: id, round });
                } else {
                    job.state = JobState::Active;
                }
            }
        }
        let job = &self.jobs[id];
        self.events.push(ServeEvent::JobRecovered {
            job: id,
            state: job.state,
            round: job.round,
            retries: job.retries_total,
        });
        (id, actions)
    }

    /// The driver found `shard`'s checkpoint of `round` corrupt or missing
    /// at merge time: un-complete the shard and requeue it as a failed
    /// attempt (backoff, or degradation once retries are exhausted)
    /// instead of degrading the job outright. A no-op unless the job is on
    /// that round and not terminal.
    pub fn shard_lost(
        &mut self,
        job_id: JobId,
        round: usize,
        shard: usize,
        now_ms: u64,
    ) -> Vec<Action> {
        let Some(job) = self.jobs.get_mut(job_id) else {
            return Vec::new();
        };
        if job.state.is_terminal() || job.round != round || shard >= job.shards {
            return Vec::new();
        }
        job.done_shards.remove(&shard);
        if job.state == JobState::Merging {
            job.state = JobState::Active;
        }
        let attempt = job.attempts[shard].max(1);
        let task = TaskId {
            job: job_id,
            round,
            shard,
        };
        if attempt > self.cfg.max_retries {
            return self.degrade(job_id, round, shard);
        }
        let backoff_ms = self.backoff_ms(task, attempt);
        let job = &mut self.jobs[job_id];
        job.retries_total += 1;
        job.backoff.push((now_ms + backoff_ms, shard));
        self.events.push(ServeEvent::ShardRetry {
            task,
            attempt: attempt + 1,
            backoff_ms,
        });
        Vec::new()
    }

    fn degrade(&mut self, job_id: JobId, round: usize, shard: usize) -> Vec<Action> {
        let job = &mut self.jobs[job_id];
        if job.state.is_terminal() {
            return Vec::new();
        }
        job.state = JobState::Degraded;
        job.ready.clear();
        job.backoff.clear();
        self.events.push(ServeEvent::JobDegraded {
            job: job_id,
            round,
            shard,
        });
        self.kill_running(job_id)
    }

    /// Client cancellation: kill the job's running tasks and drop its
    /// queue. A no-op on terminal jobs.
    pub fn cancel(&mut self, job_id: JobId) -> Vec<Action> {
        let job = &mut self.jobs[job_id];
        if job.state.is_terminal() {
            return Vec::new();
        }
        job.state = JobState::Cancelled;
        job.ready.clear();
        job.backoff.clear();
        self.events.push(ServeEvent::JobCancelled { job: job_id });
        self.kill_running(job_id)
    }

    fn kill_running(&mut self, job_id: JobId) -> Vec<Action> {
        let mut actions = Vec::new();
        for r in &mut self.running {
            if r.task.job == job_id && !r.kill_requested {
                r.kill_requested = true;
                actions.push(Action::Kill { task: r.task });
            }
        }
        actions
    }

    /// Capped exponential backoff plus a deterministic, seeded jitter of
    /// at most a quarter of the (capped) delay. `attempt` is the attempt
    /// that just failed (1-based), so the first retry waits ~base.
    fn backoff_ms(&self, task: TaskId, attempt: u32) -> u64 {
        let exp = attempt.saturating_sub(1).min(32);
        let delay = self
            .cfg
            .backoff_base_ms
            .saturating_mul(1u64 << exp)
            .min(self.cfg.backoff_cap_ms);
        let jitter_space = delay / 4 + 1;
        let key = self
            .cfg
            .jitter_seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(fnv1a(
                &[
                    task.job as u64,
                    task.round as u64,
                    task.shard as u64,
                    attempt as u64,
                ]
                .map(u64::to_le_bytes)
                .concat(),
            ));
        delay + splitmix64(key) % jitter_space
    }

    /// Scheduling snapshots of every job, in submission order.
    pub fn status(&self) -> Vec<JobStatus> {
        self.jobs
            .iter()
            .enumerate()
            .map(|(id, job)| JobStatus {
                job: id,
                state: job.state,
                priority: job.priority,
                round: job.round,
                rounds: job.rounds,
                shards: job.shards,
                done_shards: job.done_shards.len(),
                running: self.running.iter().filter(|r| r.task.job == id).count(),
                retries: job.retries_total,
            })
            .collect()
    }

    /// One job's state, if it exists.
    pub fn job_state(&self, job: JobId) -> Option<JobState> {
        self.jobs.get(job).map(|j| j.state)
    }

    /// Whether any of the job's tasks still occupy a slot (terminal jobs
    /// drain their kills before the daemon closes their stream).
    pub fn has_running(&self, job: JobId) -> bool {
        self.running.iter().any(|r| r.task.job == job)
    }

    /// Take the events accumulated since the last drain, in order.
    pub fn drain_events(&mut self) -> Vec<ServeEvent> {
        std::mem::take(&mut self.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SchedulerConfig {
        SchedulerConfig {
            slots: 1,
            max_retries: 3,
            backoff_base_ms: 100,
            backoff_cap_ms: 800,
            shard_timeout_ms: 10_000,
            jitter_seed: 42,
        }
    }

    fn spawns(actions: &[Action]) -> Vec<TaskId> {
        actions
            .iter()
            .filter_map(|a| match a {
                Action::Spawn { task, .. } => Some(*task),
                _ => None,
            })
            .collect()
    }

    /// Fail one single-shard job over and over: delays follow
    /// min(base·2^k, cap) plus bounded jitter, and the whole schedule is a
    /// pure function of the jitter seed (fake clock, fake exits — no real
    /// time anywhere).
    #[test]
    fn backoff_doubles_caps_and_is_deterministic() {
        let run = |seed: u64| -> Vec<u64> {
            let mut sched = Scheduler::new(SchedulerConfig {
                max_retries: 6,
                jitter_seed: seed,
                ..cfg()
            });
            sched.submit(0, 1, 1);
            let mut now = 0;
            let mut delays = Vec::new();
            for _ in 0..6 {
                let actions = sched.poll(now);
                assert_eq!(spawns(&actions).len(), 1, "shard respawns at {now}ms");
                assert!(sched
                    .task_exited(spawns(&actions)[0], false, now)
                    .is_empty());
                let retry = sched
                    .drain_events()
                    .into_iter()
                    .find_map(|e| match e {
                        ServeEvent::ShardRetry { backoff_ms, .. } => Some(backoff_ms),
                        _ => None,
                    })
                    .expect("a retry was scheduled");
                delays.push(retry);
                now += retry; // jump the fake clock exactly to readiness
            }
            delays
        };
        let delays = run(42);
        for (k, &delay) in delays.iter().enumerate() {
            let ideal = (100u64 << k).min(800);
            assert!(delay >= ideal, "retry {k}: {delay} < {ideal}");
            assert!(
                delay <= ideal + ideal / 4,
                "retry {k}: {delay} jitter over a quarter"
            );
        }
        // Capped: the tail retries never exceed cap + cap/4.
        assert!(delays[4] <= 1000 && delays[5] <= 1000, "{delays:?}");
        // Deterministic: same seed, same schedule.
        assert_eq!(delays, run(42));
    }

    /// Before the backoff deadline the shard must not respawn; at the
    /// deadline it must.
    #[test]
    fn requeue_waits_out_the_backoff() {
        let mut sched = Scheduler::new(cfg());
        sched.submit(0, 1, 1);
        let task = spawns(&sched.poll(0))[0];
        sched.task_exited(task, false, 1000);
        let backoff = sched
            .drain_events()
            .iter()
            .find_map(|e| match e {
                ServeEvent::ShardRetry { backoff_ms, .. } => Some(*backoff_ms),
                _ => None,
            })
            .unwrap();
        assert!(sched.poll(1000 + backoff - 1).is_empty());
        assert_eq!(spawns(&sched.poll(1000 + backoff)).len(), 1);
    }

    /// Retry exhaustion degrades the job — and only that job; the other
    /// queued job proceeds to completion.
    #[test]
    fn retry_exhaustion_degrades_without_wedging_the_queue() {
        let mut sched = Scheduler::new(SchedulerConfig {
            max_retries: 2,
            ..cfg()
        });
        let flaky = sched.submit(0, 1, 1);
        let healthy = sched.submit(0, 1, 1);
        let mut now = 0;
        // Fail `flaky`'s shard on every attempt; complete `healthy`'s.
        for _ in 0..16 {
            now += 10_000; // larger than any backoff in cfg()
            for task in spawns(&sched.poll(now)) {
                if task.job == flaky {
                    sched.task_exited(task, false, now);
                } else {
                    for action in sched.task_exited(task, true, now) {
                        if let Action::Merge { job, round } = action {
                            sched.round_merged(job, round, 0);
                        }
                    }
                }
            }
        }
        assert_eq!(sched.job_state(flaky), Some(JobState::Degraded));
        assert_eq!(sched.job_state(healthy), Some(JobState::Done));
        let events = sched.drain_events();
        assert!(events
            .iter()
            .any(|e| matches!(e, ServeEvent::JobDegraded { job, .. } if *job == flaky)));
        assert!(events
            .iter()
            .any(|e| matches!(e, ServeEvent::JobDone { job } if *job == healthy)));
        // attempts = 1 initial + max_retries.
        let attempts = events
            .iter()
            .filter(|e| matches!(e, ServeEvent::ShardSpawned { task, .. } if task.job == flaky))
            .count();
        assert_eq!(attempts, 3);
        // Degraded jobs never respawn.
        assert!(spawns(&sched.poll(now + 100_000))
            .iter()
            .all(|t| t.job != flaky));
    }

    /// A task past the per-shard budget gets a kill action; its exit is
    /// treated as a failure and requeued with backoff.
    #[test]
    fn timeout_kills_and_requeues() {
        let mut sched = Scheduler::new(cfg());
        sched.submit(0, 1, 1);
        let task = spawns(&sched.poll(0))[0];
        assert!(sched.poll(9_999).is_empty());
        let actions = sched.poll(10_000);
        assert_eq!(actions, vec![Action::Kill { task }]);
        // Polling again does not re-kill.
        assert!(sched.poll(10_001).is_empty());
        sched.task_exited(task, false, 10_050);
        let events = sched.drain_events();
        assert!(events
            .iter()
            .any(|e| matches!(e, ServeEvent::ShardTimeout { .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e, ServeEvent::ShardFailed { timeout, .. } if *timeout)));
        assert!(events
            .iter()
            .any(|e| matches!(e, ServeEvent::ShardRetry { attempt: 2, .. })));
        // The shard respawns after its backoff.
        assert_eq!(spawns(&sched.poll(20_000)), vec![task]);
    }

    /// One slot, two equal-priority jobs: spawns must alternate between
    /// them (round-robin), never drain one job first.
    #[test]
    fn equal_priority_jobs_round_robin() {
        let mut sched = Scheduler::new(cfg());
        let a = sched.submit(0, 1, 4);
        let b = sched.submit(0, 1, 4);
        let mut order = Vec::new();
        let mut now = 0;
        while order.len() < 8 {
            now += 1;
            let tasks = spawns(&sched.poll(now));
            for task in tasks {
                order.push(task.job);
                sched.task_exited(task, true, now);
            }
        }
        assert_eq!(order, vec![a, b, a, b, a, b, a, b]);
    }

    /// Higher priority drains first even when submitted later; the lower
    /// class resumes once it is done.
    #[test]
    fn priorities_preempt_the_rotation() {
        let mut sched = Scheduler::new(cfg());
        let low = sched.submit(0, 1, 2);
        let high = sched.submit(5, 1, 2);
        let mut order = Vec::new();
        let mut now = 0;
        while order.len() < 4 {
            now += 1;
            for task in spawns(&sched.poll(now)) {
                order.push(task.job);
                sched.task_exited(task, true, now);
            }
        }
        assert_eq!(order, vec![high, high, low, low]);
    }

    /// Rounds are barriers: round 1 spawns nothing until the driver
    /// reports round 0 merged; the final merge finishes the job.
    #[test]
    fn rounds_unlock_on_merge() {
        let mut sched = Scheduler::new(SchedulerConfig { slots: 4, ..cfg() });
        let job = sched.submit(0, 2, 2);
        let round0 = spawns(&sched.poll(0));
        assert_eq!(round0.len(), 2);
        assert!(sched.task_exited(round0[0], true, 1).is_empty());
        let merge = sched.task_exited(round0[1], true, 2);
        assert_eq!(merge, vec![Action::Merge { job, round: 0 }]);
        // Merging: nothing to spawn yet.
        assert!(sched.poll(3).is_empty());
        sched.round_merged(job, 0, 7);
        let round1 = spawns(&sched.poll(4));
        assert_eq!(round1.len(), 2);
        assert!(round1.iter().all(|t| t.round == 1));
        sched.task_exited(round1[0], true, 5);
        for action in sched.task_exited(round1[1], true, 6) {
            if let Action::Merge { job, round } = action {
                sched.round_merged(job, round, 9);
            }
        }
        assert_eq!(sched.job_state(job), Some(JobState::Done));
        let status = &sched.status()[job];
        assert_eq!(status.rounds, 2);
        assert_eq!(status.done_shards, 2);
    }

    /// Cancel kills running tasks, stops future spawns, and ignores the
    /// stragglers' exits.
    #[test]
    fn cancel_kills_and_silences_stragglers() {
        let mut sched = Scheduler::new(SchedulerConfig { slots: 2, ..cfg() });
        let job = sched.submit(0, 1, 3);
        let tasks = spawns(&sched.poll(0));
        assert_eq!(tasks.len(), 2);
        let kills = sched.cancel(job);
        assert_eq!(kills.len(), 2);
        assert!(matches!(kills[0], Action::Kill { .. }));
        assert_eq!(sched.job_state(job), Some(JobState::Cancelled));
        assert!(sched.has_running(job));
        assert!(sched.task_exited(tasks[0], false, 1).is_empty());
        assert!(sched.task_exited(tasks[1], true, 1).is_empty());
        assert!(!sched.has_running(job));
        assert!(sched.poll(100).is_empty());
        // Cancelling again is a no-op.
        assert!(sched.cancel(job).is_empty());
        assert_eq!(
            sched
                .drain_events()
                .iter()
                .filter(|e| matches!(e, ServeEvent::JobCancelled { .. }))
                .count(),
            1
        );
    }

    /// A failed merge degrades the job instead of leaving it stuck in
    /// Merging.
    #[test]
    fn merge_failure_degrades() {
        let mut sched = Scheduler::new(cfg());
        let job = sched.submit(0, 2, 1);
        let task = spawns(&sched.poll(0))[0];
        let merge = sched.task_exited(task, true, 1);
        assert_eq!(merge.len(), 1);
        sched.merge_failed(job, 0);
        assert_eq!(sched.job_state(job), Some(JobState::Degraded));
        assert!(sched.poll(10).is_empty());
    }

    /// Rebuild-from-journal ordering: a queue restored snapshot-by-
    /// snapshot in submission order schedules exactly like the original —
    /// priorities preempt, equal priorities round-robin in submit order.
    #[test]
    fn restore_preserves_priority_and_submission_order() {
        let mut original = Scheduler::new(cfg());
        let low_a = original.submit(0, 1, 2);
        let high = original.submit(5, 1, 2);
        let low_b = original.submit(0, 1, 2);
        let snaps: Vec<JobSnapshot> = (0..3).map(|id| original.snapshot(id).unwrap()).collect();

        let mut restored = Scheduler::new(cfg());
        for snap in &snaps {
            let (_, actions) = restored.restore(snap, 0);
            assert!(actions.is_empty(), "nothing was running: {actions:?}");
        }
        let order = |sched: &mut Scheduler| {
            let mut order = Vec::new();
            let mut now = 0;
            while order.len() < 6 {
                now += 1;
                for task in spawns(&sched.poll(now)) {
                    order.push(task.job);
                    sched.task_exited(task, true, now);
                }
            }
            order
        };
        let expected = order(&mut original);
        assert_eq!(expected, vec![high, high, low_a, low_b, low_a, low_b]);
        assert_eq!(order(&mut restored), expected);
        // The restored queue announced every job's recovery, in order.
        let recovered: Vec<JobId> = restored
            .drain_events()
            .into_iter()
            .filter_map(|e| match e {
                ServeEvent::JobRecovered { job, .. } => Some(job),
                _ => None,
            })
            .collect();
        assert_eq!(recovered, vec![low_a, high, low_b]);
    }

    /// Shards that were in a slot when the daemon died are requeued as
    /// crashed attempts: retry accounting advances and the respawn waits
    /// out a backoff, exactly like a real crash.
    #[test]
    fn restore_requeues_orphaned_running_shards_with_backoff() {
        let mut original = Scheduler::new(SchedulerConfig { slots: 2, ..cfg() });
        let job = original.submit(0, 1, 2);
        let tasks = spawns(&original.poll(0));
        assert_eq!(tasks.len(), 2);
        original.task_exited(tasks[0], true, 1); // shard 0 done, shard 1 running
        let snap = original.snapshot(job).unwrap();
        assert_eq!(snap.done, vec![0]);
        assert_eq!(snap.running, vec![1]);

        let mut restored = Scheduler::new(SchedulerConfig { slots: 2, ..cfg() });
        let (id, actions) = restored.restore(&snap, 1000);
        assert!(actions.is_empty());
        assert_eq!(restored.job_state(id), Some(JobState::Active));
        assert_eq!(restored.status()[id].retries, 1);
        // The orphan is backing off, not instantly ready.
        assert!(spawns(&restored.poll(1000)).is_empty());
        let events = restored.drain_events();
        let backoff = events
            .iter()
            .find_map(|e| match e {
                ServeEvent::ShardRetry { backoff_ms, .. } => Some(*backoff_ms),
                _ => None,
            })
            .expect("orphan requeued with backoff");
        assert!(events
            .iter()
            .any(|e| matches!(e, ServeEvent::JobRecovered { job, retries: 1, .. } if *job == id)));
        let respawned = spawns(&restored.poll(1000 + backoff));
        assert_eq!(respawned.len(), 1);
        assert_eq!(respawned[0].shard, 1);
        // Attempt accounting continued from the snapshot: this is spawn 2.
        sched_attempt_is(&restored, id, 1, 2);
        // Completing the orphan finishes the round.
        let merge = restored.task_exited(respawned[0], true, 2000);
        assert_eq!(merge.len(), 1);
    }

    fn sched_attempt_is(sched: &Scheduler, job: JobId, shard: usize, want: u32) {
        assert_eq!(sched.jobs[job].attempts[shard], want);
    }

    /// An orphaned shard whose attempt had already exhausted its retries
    /// degrades the job on restore instead of looping forever.
    #[test]
    fn restore_degrades_exhausted_orphans() {
        let mut sched = Scheduler::new(SchedulerConfig {
            max_retries: 2,
            ..cfg()
        });
        let snap = JobSnapshot {
            priority: 0,
            rounds: 1,
            shards: 1,
            state: JobState::Active,
            round: 0,
            done: vec![],
            attempts: vec![3], // attempt 3 of max_retries 2 was in flight
            retries: 2,
            running: vec![0],
        };
        let (id, actions) = sched.restore(&snap, 0);
        assert!(actions.is_empty(), "no processes to kill: {actions:?}");
        assert_eq!(sched.job_state(id), Some(JobState::Degraded));
        assert!(sched.poll(100_000).is_empty());
    }

    /// Terminal jobs restore terminal; a non-terminal job with every
    /// shard done resumes at the (idempotent) merge.
    #[test]
    fn restore_keeps_terminal_states_and_resumes_pending_merges() {
        let mut sched = Scheduler::new(cfg());
        for state in [JobState::Done, JobState::Degraded, JobState::Cancelled] {
            let snap = JobSnapshot {
                priority: 0,
                rounds: 2,
                shards: 1,
                state,
                round: 1,
                done: vec![0],
                attempts: vec![1],
                retries: 0,
                running: vec![],
            };
            let (id, actions) = sched.restore(&snap, 0);
            assert!(actions.is_empty());
            assert_eq!(sched.job_state(id), Some(state));
        }
        assert!(sched.poll(10).is_empty(), "terminal jobs spawn nothing");
        let snap = JobSnapshot {
            priority: 0,
            rounds: 2,
            shards: 2,
            state: JobState::Merging,
            round: 0,
            done: vec![0, 1],
            attempts: vec![1, 1],
            retries: 0,
            running: vec![],
        };
        let (id, actions) = sched.restore(&snap, 0);
        assert_eq!(actions, vec![Action::Merge { job: id, round: 0 }]);
        sched.round_merged(id, 0, 3);
        assert_eq!(sched.job_state(id), Some(JobState::Active));
        assert_eq!(spawns(&sched.poll(1)).len(), 1);
    }

    /// A corrupt shard checkpoint discovered at merge time un-completes
    /// the shard: the job leaves Merging, the shard re-runs after a
    /// backoff, and the round merges once it completes again.
    #[test]
    fn shard_lost_requeues_and_remerges() {
        let mut sched = Scheduler::new(SchedulerConfig { slots: 2, ..cfg() });
        let job = sched.submit(0, 1, 2);
        let tasks = spawns(&sched.poll(0));
        sched.task_exited(tasks[0], true, 1);
        let merge = sched.task_exited(tasks[1], true, 2);
        assert_eq!(merge, vec![Action::Merge { job, round: 0 }]);
        // Driver finds shard 1's checkpoint corrupt.
        assert!(sched.shard_lost(job, 0, 1, 10).is_empty());
        assert_eq!(sched.job_state(job), Some(JobState::Active));
        assert_eq!(sched.status()[job].done_shards, 1);
        assert_eq!(sched.status()[job].retries, 1);
        // Requeued with backoff, then respawns and re-merges.
        assert!(spawns(&sched.poll(10)).is_empty());
        let respawn = spawns(&sched.poll(10_000));
        assert_eq!(respawn.len(), 1);
        assert_eq!(respawn[0].shard, 1);
        let merge = sched.task_exited(respawn[0], true, 10_001);
        assert_eq!(merge, vec![Action::Merge { job, round: 0 }]);
        // Stale coordinates are ignored.
        assert!(sched.shard_lost(job, 5, 1, 0).is_empty());
        assert!(sched.shard_lost(job, 0, 99, 0).is_empty());
        assert!(sched.shard_lost(99, 0, 0, 0).is_empty());
    }

    /// Draining stops new spawns but keeps timeouts and exits flowing, so
    /// in-flight work finishes (or is killed at its budget) and nothing
    /// new starts.
    #[test]
    fn draining_blocks_spawns_but_not_timeouts() {
        let mut sched = Scheduler::new(SchedulerConfig { slots: 2, ..cfg() });
        let job = sched.submit(0, 1, 3);
        let tasks = spawns(&sched.poll(0));
        assert_eq!(tasks.len(), 2);
        sched.set_draining(true);
        assert!(sched.draining());
        // A finished shard frees a slot, but no new spawn fills it.
        assert!(sched.task_exited(tasks[0], true, 1).is_empty());
        assert!(sched.poll(2).is_empty());
        // The straggler still times out at its budget.
        let kills = sched.poll(10_000);
        assert_eq!(kills, vec![Action::Kill { task: tasks[1] }]);
        sched.task_exited(tasks[1], false, 10_001);
        // Its retry requeues but never respawns while draining...
        assert!(sched.poll(100_000).is_empty());
        assert!(!sched.has_running(job));
        // ...and resumes when draining is lifted.
        sched.set_draining(false);
        assert_eq!(spawns(&sched.poll(100_001)).len(), 2);
    }
}
