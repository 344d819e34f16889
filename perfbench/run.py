#!/usr/bin/env python3
"""End-to-end benchmark of ompfuzz, with a traced per-layer replay.

Run from the repository root:

    python3 perfbench/run.py --workload evolve_paper --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --self-test

Workloads (perfbench/README.md gives the reasons and the measured spreads):

  evolve_paper    `ompfuzz evolve` at the paper config, 2 rounds x 6 programs,
                  at the pinned seed 5
  campaign_paper  `ompfuzz campaign` at the paper's Sec. V-A config:
                  200 programs x 3 inputs x 3 implementations, at the config's
                  own seed 20241011
  serve_quick     `ompfuzz serve` (2 slots) driven by one closed-loop client
                  keeping 2 jobs in flight: 6 jobs of `submit --quick`,
                  2000 programs x 3 rounds x 4 shards, job seeds derived
                  from the pinned seed 20241011

Each workload's programs come from its pinned seed (see the comment at
PINNED_SEED for why); --seed is recorded with the run, and --program-seed
re-runs the selected workload on other programs.

`--trace 0` runs the release binary with tracing off and prints wall_s,
cpu_s, peak_rss_mb and setup_s (medians over the repetitions that fill
--seconds, at least three; wall_s, cpu_s and setup_s in seconds of the
reference host, scaled by the host speed measured while each repetition
ran, see "Host speed" in perfbench/README.md). `--trace 1` reruns the same work
through the program's public entry points with its telemetry on
(perfbench-replay, linked against the workspace crates) and prints the
per-layer metrics.
Every output is checked against a reference computed once per invocation,
outside the timed runs. The last stdout line is the JSON result; the line
before it holds the run's coordinates and host diagnostics.
"""

import argparse
import hashlib
import json
import os
import re
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

TARGET = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
WORK = ".bench_work"
BIN = os.path.join(TARGET, "release", "ompfuzz")
REPLAY = os.path.join(TARGET, "release", "perfbench-replay")
SPAWN = os.path.join(TARGET, "release", "perfbench-spawn")
LOG = os.path.join(WORK, "stderr.log")

# Every workload pins the seed its programs come from. Their cost depends
# on which programs a seed draws, by more than the bound a run must repeat
# within: 2-round x 6-program paper evolves took 0.14 s to over 60 s across
# 12 seeds, 200-program campaigns 12.9 s to 19.3 s across 5 seeds, and
# serve_quick passes 4.5 s to 6.3 s across 7 job-seed sets on a quiet host.
# Seed 5 keeps the paper evolve's phase mix at 6 programs (reduce 86% of
# layer busy time); 20241011 is CampaignConfig::paper()'s own seed.
# --program-seed overrides the selected workload's seed to re-check a claim
# on other programs.
PINNED_SEED = {"evolve_paper": 5, "campaign_paper": 20241011, "serve_quick": 20241011}
EVOLVE_PROGRAMS = 6
EVOLVE_ROUNDS = 2
CAMPAIGN_PROGRAMS = 200
SERVE_JOBS = 6
SERVE_PROGRAMS = 2000
SERVE_ROUNDS = 3
SERVE_SHARDS = 4
SERVE_IN_FLIGHT = 2
SERVE_SLOTS = 2  # the daemon's default slot count
# Set-up samples taken before every repetition and after the last one, so
# they span the run like the repetitions do; set-up time is their median.
SETUP_BATCH = 8
SERVE_SETUP_BATCH = 6
# A repetition, reference or replay that runs longer counts as failed; a
# failed operation ends the run's repetitions, so the run still exits
# within its time limit.
UNIT_TIMEOUT_S = 120
# At least three repetitions per run, so that a host slowdown or speed-up
# over part of a run moves its median less.
MIN_REPS = 3
# The launcher's probe (perfbench/src/spawn.rs) takes about this long per
# sample on the reference host, the one the figures in perfbench/README.md
# come from (2 vCPUs of an Intel Xeon).
PROBE_REF_S = 0.00075

E2E = [("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s")]
PASSES = ["ddmin", "loop-trips", "clauses", "exprs", "params"]
PER_LAYER = (
    [
        ("gen.calls", "count"),
        ("gen.busy_s", "s"),
        ("exec.compile_calls", "count"),
        ("exec.compile_busy_s", "s"),
        ("harness.race_calls", "count"),
        ("harness.race_busy_s", "s"),
        ("harness.racy", "count"),
        ("backends.diff_calls", "count"),
        ("backends.diff_runs", "count"),
        ("backends.diff_busy_s", "s"),
        ("backends.vm_ops", "count"),
        ("backends.vm_ops_per_s", "1/s"),
        ("backends.budget_aborts", "count"),
        ("outlier.calls", "count"),
        ("outlier.busy_s", "s"),
        ("outlier.records", "count"),
        ("reduce.calls", "count"),
        ("reduce.busy_s", "s"),
        ("reduce.p50_s", "s"),
        ("reduce.tail_s", "s"),
        ("reduce.tail_pct", "%"),
        ("reduce.max_s", "s"),
        ("reduce.checks", "count"),
        ("reduce.accept_ratio", "ratio"),
        ("reduce.vm_ops", "count"),
        ("reduce.compiles", "count"),
        ("reduce.budget_aborts", "count"),
    ]
    + [(f"reduce.{p}.{k}", "count") for p in PASSES for k in ("checks", "accepted")]
    + [
        ("corpus.busy_s", "s"),
        ("corpus.kernels", "count"),
        ("corpus.new_skeletons", "count"),
        ("corpus.ckpt_files", "count"),
        ("corpus.ckpt_bytes", "B"),
        ("serve.request_s", "s"),
        ("serve.queue_wait_s", "s"),
        ("serve.shard_s", "s"),
        ("serve.shard_tail_s", "s"),
        ("serve.shard_tail_pct", "%"),
        ("serve.round_gap_s", "s"),
        ("serve.slot_busy_frac", "ratio"),
        ("serve.shards", "count"),
        ("serve.retries", "count"),
        ("trace.overhead_s", "s"),
        ("trace.digest_match", "count"),
    ]
)
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


class BenchError(Exception):
    """The benchmark cannot run here (no sources, failed build)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def now():
    return time.perf_counter()


def cpu_ticks():
    """(busy, steal) clock ticks so far, summed over the CPUs in
    /proc/stat; (0, 0) where absent."""
    try:
        with open("/proc/stat") as f:
            v = [int(x) for x in f.readline().split()[1:9]]
        # user nice system idle iowait irq softirq steal
        return v[0] + v[1] + v[2] + v[5] + v[6], v[7]
    except (OSError, IndexError, ValueError):
        return 0, 0


def steal_s():
    """Host-wide steal time so far, in seconds."""
    return cpu_ticks()[1] / os.sysconf("SC_CLK_TCK")


def median(xs):
    return statistics.median(xs) if xs else 0.0


def tail(xs):
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile); (0, 0) when that percentile would not reach the
    median (fewer than 20 samples), where it is no tail."""
    xs = sorted(xs)
    if len(xs) < 20:
        return 0.0, 0.0
    rank = len(xs) - 10
    return xs[rank - 1], 100.0 * rank / len(xs)


def read(path):
    with open(path, "rb") as f:
        return f.read()


def digest(blobs):
    h = hashlib.sha256()
    for b in blobs:
        h.update(hashlib.sha256(b).digest())
    return h.hexdigest()[:16]


def outputs_match(outputs, reference):
    """The output check: every output byte-identical to the reference."""
    return outputs is not None and list(outputs) == list(reference)


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


# ---------------------------------------------------------------------------
# Build and run coordinates
# ---------------------------------------------------------------------------


def cargo(*args):
    env = dict(os.environ, CARGO_TARGET_DIR=TARGET)
    with open(LOG, "ab") as err:
        rc = subprocess.call(["cargo", *args], env=env, stdout=err, stderr=err)
    if rc != 0:
        raise BenchError(f"cargo {' '.join(args)} failed (see {LOG})")


def build():
    if not os.path.isfile("Cargo.toml") or not os.path.isdir("crates"):
        raise BenchError("run from the root of an ompfuzz source tree")
    cargo("build", "--release", "--offline", "-p", "ompfuzz-report", "--bin", "ompfuzz")
    cargo("build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml")


def source_id():
    """The commit, or a digest of the sources where there is no git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "src", "crates", "vendor", "perfbench"]:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs
        )
        for p in paths:
            if "/target/" not in p:
                h.update(p.encode() + b"\0" + read(p))
    return "src-" + h.hexdigest()[:16]


def next_run_order():
    path = os.path.join(WORK, "run_counter")
    try:
        n = int(read(path)) + 1
    except (OSError, ValueError):
        n = 1
    with open(path, "w") as f:
        f.write(str(n))
    return n


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------


class Proc:
    """One child process, started through perfbench-spawn, which reaps it
    with wait4 and reports its wall time, the user+sys seconds of the child
    and every descendant it reaped, and the largest resident set among
    them; with `probe`, also the host's speed while it ran (`probe_s`, see
    perfbench/src/spawn.rs). The launcher runs in its own session so a
    timeout can kill the whole tree."""

    _count = 0
    live = set()

    def __init__(self, argv, stdout=None, probe=False):
        Proc._count += 1
        self.report = os.path.join(WORK, f"spawn-{os.getpid()}-{Proc._count}.txt")
        self.out = open(stdout, "wb") if stdout else subprocess.DEVNULL
        self.err = open(LOG, "ab")
        self.t0 = now()
        self.ticks0 = cpu_ticks()
        flags = ["--probe"] if probe else []
        self.p = subprocess.Popen([SPAWN, *flags, self.report, *argv], stdout=self.out,
                                  stderr=self.err, start_new_session=True)
        Proc.live.add(self)

    def kill(self):
        try:
            os.killpg(self.p.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.p.wait()

    def wait(self, timeout=UNIT_TIMEOUT_S):
        try:
            self.p.wait(timeout)
        except subprocess.TimeoutExpired:
            self.kill()
        Proc.live.discard(self)
        for f in (self.out, self.err):
            if f is not subprocess.DEVNULL:
                f.close()
        busy0, steal0 = self.ticks0
        busy1, steal1 = cpu_ticks()
        try:
            code, wall, user, sys_s, maxrss_kb, probe_s, probe_n = read(self.report).split()
            os.remove(self.report)
        except (OSError, ValueError):
            code, wall, user, sys_s, maxrss_kb, probe_s, probe_n = (
                -1, now() - self.t0, 0, 0, 0, 0, 0)
        self.ok = self.p.returncode == 0 and int(code) == 0
        self.wall = float(wall)
        self.cpu = float(user) + float(sys_s)
        self.rss_mb = float(maxrss_kb) / 1024.0
        self.probe_s = float(probe_s)
        self.probe_n = int(probe_n)
        # The share of the CPU time asked for that the hypervisor gave.
        asked = (busy1 - busy0) + (steal1 - steal0)
        self.avail = (busy1 - busy0) / asked if asked > 0 else 1.0
        self.steal_s = (steal1 - steal0) / os.sysconf("SC_CLK_TCK")
        return self

    def host_factor(self):
        """The reference host's speed over this host's while the process
        ran (1 when the probe took no sample): times multiplied by it are
        in seconds of the reference host."""
        return PROBE_REF_S / self.probe_s if self.probe_n and self.probe_s > 0 else 1.0


def run(argv, stdout=None, timeout=UNIT_TIMEOUT_S, probe=False):
    return Proc(argv, stdout, probe).wait(timeout)


# ---------------------------------------------------------------------------
# Workloads: evolve_paper and campaign_paper
# ---------------------------------------------------------------------------


class CliWorkload:
    """A workload that is one `ompfuzz` invocation per repetition."""

    setup_batch = SETUP_BATCH

    def __init__(self, name, seed):
        self.name = name
        self.seed = seed
        self.dir = fresh_dir(os.path.join(WORK, name))
        self.units = 0

    def unit(self, engine=None):
        """Run one repetition; returns (Proc, wall, outputs or None)."""
        self.units += 1
        argv, stdout, files = self.invocation(f"{engine or 'bytecode'}-{self.units}")
        if engine:
            argv += ["--engine", engine]
        proc = run(argv, stdout=stdout, probe=True)
        outputs = [read(f) for f in files] if proc.ok else None
        for f in files:
            if os.path.exists(f):
                os.remove(f)
        return proc, proc.wall, outputs

    def score(self, outputs, reference):
        """(operations attempted, operations failed) of one repetition."""
        return 1, 0 if outputs_match(outputs, reference) else 1

    def setup_sample(self):
        return run(self.zero_invocation()).wall

    def reference(self):
        """The same invocation on the tree-walk interpreter."""
        _, _, outputs = self.unit(engine="tree")
        if outputs is None:
            raise BenchError(f"{self.name}: reference run failed")
        return outputs


class EvolvePaper(CliWorkload):
    def config(self):
        return {
            "cli": "evolve",
            "config": "CampaignConfig::paper()",
            "rounds": EVOLVE_ROUNDS,
            "programs": EVOLVE_PROGRAMS,
            "evolve_seed": self.seed,
        }

    def invocation(self, tag):
        cat = os.path.join(self.dir, f"catalog-{tag}.txt")
        argv = [BIN, "evolve", "--rounds", str(EVOLVE_ROUNDS), "--programs",
                str(EVOLVE_PROGRAMS), "--seed", str(self.seed), "--progress", "none",
                "--catalog", cat]
        return argv, None, [cat]

    def zero_invocation(self):
        return [BIN, "evolve", "--rounds", str(EVOLVE_ROUNDS), "--programs", "0",
                "--seed", str(self.seed), "--progress", "none"]

    def replay_argv(self, out):
        return [REPLAY, "evolve", "--seeds", str(self.seed), "--programs",
                str(EVOLVE_PROGRAMS), "--rounds", str(EVOLVE_ROUNDS), "--shards", "1",
                "--in-flight", "1", "--out", out]

    def replay_outputs(self, out):
        return [read(os.path.join(out, "catalog-0.txt"))]


class CampaignPaper(CliWorkload):
    def config(self):
        return {
            "cli": "campaign",
            "config": "CampaignConfig::paper()",
            "programs": CAMPAIGN_PROGRAMS,
            "inputs": 3,
            "implementations": 3,
            "campaign_seed": self.seed,
        }

    def invocation(self, tag):
        table = os.path.join(self.dir, f"table1-{tag}.txt")
        csv = os.path.join(self.dir, f"records-{tag}.csv")
        argv = [BIN, "campaign", "--programs", str(CAMPAIGN_PROGRAMS), "--seed",
                str(self.seed), "--csv", csv]
        return argv, table, [table, csv]

    def zero_invocation(self):
        return [BIN, "campaign", "--programs", "0", "--seed", str(self.seed)]

    def replay_argv(self, out):
        return [REPLAY, "campaign", "--seed", str(self.seed), "--programs",
                str(CAMPAIGN_PROGRAMS), "--out", out]

    def replay_outputs(self, out):
        return [read(os.path.join(out, "table1.txt")), read(os.path.join(out, "records.csv"))]


# ---------------------------------------------------------------------------
# Workload: serve_quick
# ---------------------------------------------------------------------------


def job_seeds(seed):
    """Each served job's own seed, derived from the workload's seed."""
    return [(seed * 1_000_003 + j + 1) % (1 << 62) for j in range(SERVE_JOBS)]


def connect(sock_path, request):
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    s.settimeout(UNIT_TIMEOUT_S)
    s.connect(sock_path)
    s.sendall((json.dumps(request, separators=(",", ":")) + "\n").encode())
    return s


def roundtrip(sock_path, request):
    with connect(sock_path, request) as s:
        line = s.makefile("rb").readline()
    reply = json.loads(line)
    if reply.get("ok") is not True:
        raise BenchError(f"daemon refused {request}: {reply}")
    return reply


class Daemon:
    def __init__(self, state, probe=False):
        self.state = fresh_dir(state)
        self.sock = os.path.join(state, "d.sock")  # relative: short path
        self.proc = Proc([BIN, "serve", "--socket", self.sock, "--state-dir", self.state],
                         probe=probe)

    def wait_ready(self, deadline_s=30):
        """Poll until the daemon's socket takes a connection, then check
        that the daemon answers `status` on it. Returns the time from spawn
        to the connection: the daemon's start-up. The wait for the reply is
        left out because the daemon's accept thread polls every 25 ms, so a
        connection made before its first poll is answered at once and a
        later one up to 25 ms later; that wait is paid per connection, not
        once at start-up, and would make the sample bimodal."""
        while now() - self.proc.t0 < deadline_s:
            try:
                s = connect(self.sock, {"cmd": "status"})
            except (FileNotFoundError, ConnectionRefusedError):
                time.sleep(0.0001)
                continue
            listening = now() - self.proc.t0
            with s:
                reply = json.loads(s.makefile("rb").readline())
            if reply.get("ok") is not True:
                raise BenchError(f"daemon refused status: {reply}")
            return listening
        raise BenchError("daemon did not answer status")

    def stop(self):
        try:
            roundtrip(self.sock, {"cmd": "shutdown"})
        finally:
            self.proc.wait(30)
        return self.proc


# The daemon events the serve metrics are computed from.
SERVE_EVENTS = {"shard_spawned", "shard_done", "shard_retry"}


class ServeQuick:
    name = "serve_quick"
    setup_batch = SERVE_SETUP_BATCH

    def __init__(self, seed):
        self.seed = seed
        self.seeds = job_seeds(seed)
        self.dir = fresh_dir(os.path.join(WORK, self.name))
        self.units = 0
        self.torn_lines = 0

    def config(self):
        return {
            "cli": "serve + submit --quick",
            "slots": SERVE_SLOTS,
            "jobs": SERVE_JOBS,
            "in_flight": SERVE_IN_FLIGHT,
            "programs": SERVE_PROGRAMS,
            "rounds": SERVE_ROUNDS,
            "shards": SERVE_SHARDS,
            "job_seeds": self.seeds,
        }

    def spec(self, seed):
        return {"cmd": "submit", "quick": True, "seed": seed, "programs": SERVE_PROGRAMS,
                "rounds": SERVE_ROUNDS, "shards": SERVE_SHARDS, "priority": 0}

    def setup_sample(self):
        d = Daemon(os.path.join(self.dir, "setup"))
        try:
            ready = d.wait_ready()
        finally:
            d.stop()
        return ready

    def reference(self):
        """A plain in-process evolve of each job's spec."""
        outs = []
        for j, seed in enumerate(self.seeds):
            cat = os.path.join(self.dir, f"ref-{j}.txt")
            p = run([BIN, "evolve", "--quick", "--seed", str(seed), "--programs",
                     str(SERVE_PROGRAMS), "--rounds", str(SERVE_ROUNDS), "--progress",
                     "none", "--catalog", cat])
            if not p.ok:
                raise BenchError(f"reference evolve for job {j} failed")
            outs.append(read(cat))
        return outs

    def score(self, outputs, reference):
        """Every served job is one operation; a job with no catalog failed."""
        return SERVE_JOBS, sum(1 for o, r in zip(outputs, reference) if o is None or o != r)

    def replay_argv(self, out):
        return [REPLAY, "evolve", "--quick", "--seeds", ",".join(map(str, self.seeds)),
                "--programs", str(SERVE_PROGRAMS), "--rounds", str(SERVE_ROUNDS),
                "--shards", str(SERVE_SHARDS), "--in-flight", str(SERVE_IN_FLIGHT),
                "--out", out]

    def replay_outputs(self, out):
        return [read(os.path.join(out, f"catalog-{j}.txt")) for j in range(SERVE_JOBS)]

    def unit(self, traced=False):
        """One closed-loop pass over every job on a fresh daemon. Returns
        (Proc of the daemon tree, wall, per-job catalogs); a job that did not
        end `done`, or a daemon that exited nonzero, leaves None. When the
        jobs stall past UNIT_TIMEOUT_S the daemon tree is killed and every
        job not yet done stays None. A traced pass keeps the receipt-stamped
        events and the state dir in `self.events` and `self.state`."""
        self.units += 1
        d = Daemon(os.path.join(self.dir, f"unit-{self.units}"), probe=True)
        self.events = events = []  # (t, kind, fields), filled only when traced
        self.state = d.state
        catalogs = [None] * SERVE_JOBS
        stalled = False
        try:
            d.wait_ready()
            sel = selectors.DefaultSelector()
            pending = list(enumerate(self.seeds))
            t_first = None
            t_last = None
            open_jobs = 0
            deadline = now() + UNIT_TIMEOUT_S

            def submit_next():
                nonlocal t_first, open_jobs
                j, seed = pending.pop(0)
                t_send = now()
                if t_first is None:
                    t_first = t_send
                reply = roundtrip(d.sock, self.spec(seed))
                job = reply["job"]
                t_watch = now()
                s = connect(d.sock, {"cmd": "watch", "job": job})
                s.setblocking(False)
                if traced:
                    events.append((t_send, "submit_sent", {"job": job}))
                    events.append((t_watch, "submit_reply", {"job": job}))
                    events.append((t_watch, "watch_sent", {"job": job}))
                sel.register(s, selectors.EVENT_READ, {"j": j, "job": job, "buf": b"",
                                                       "acked": False})
                open_jobs += 1

            while pending or open_jobs:
                while pending and open_jobs < SERVE_IN_FLIGHT:
                    submit_next()
                ready = sel.select(timeout=max(0.0, deadline - now()))
                if not ready:
                    log(f"serve_quick: jobs stalled for {UNIT_TIMEOUT_S} s; counted as failed")
                    stalled = True
                    t_last = now()
                    break
                for key, _ in ready:
                    st = key.data
                    chunk = key.fileobj.recv(65536)
                    t = now()
                    st["buf"] += chunk
                    lines = st["buf"].split(b"\n")
                    st["buf"] = lines.pop()
                    ended = not chunk
                    for raw in lines:
                        try:
                            msg = json.loads(raw)
                        except ValueError:
                            # Shard telemetry forwarded into the stream can
                            # arrive with two concurrently appended lines run
                            # together; only the daemon's own events count.
                            self.torn_lines += 1
                            continue
                        if not st["acked"]:
                            st["acked"] = True
                            if traced:
                                events.append((t, "watch_reply", {"job": st["job"]}))
                            continue
                        kind = msg.get("event")
                        if traced and kind in SERVE_EVENTS:
                            events.append((t, kind, msg))
                        if kind == "watch_end":
                            ended = True
                            if msg.get("state") == "done":
                                catalogs[st["j"]] = read(
                                    os.path.join(d.state, st["job"], "catalog.txt"))
                    if ended:
                        t_last = t
                        sel.unregister(key.fileobj)
                        key.fileobj.close()
                        open_jobs -= 1
            wall = t_last - t_first
            if traced and not stalled:
                t = now()
                roundtrip(d.sock, {"cmd": "status"})
                events.append((t, "status_sent", {}))
                events.append((now(), "status_reply", {}))
        finally:
            if stalled:
                d.proc.kill()
            proc = d.proc.wait() if stalled else d.stop()
        if stalled:
            return proc, wall, catalogs
        return proc, wall, catalogs if proc.ok else [None] * SERVE_JOBS


def serve_metrics(events, wall, state_dir):
    """serve.* from the receipt times of replies and watch events, and the
    sealed checkpoints left in the state dir."""
    sent = {}
    requests = []
    spawned = {}
    first_spawn = {}
    submitted = {}
    shard_s = []
    done_by_round = {}
    spawn_by_round = {}
    retries = 0
    for t, kind, msg in events:
        job = msg.get("job")
        if kind in ("submit_sent", "watch_sent", "status_sent"):
            sent[(kind.split("_")[0], job)] = t
            if kind == "submit_sent":
                submitted[job] = t
        elif kind in ("submit_reply", "watch_reply", "status_reply"):
            requests.append(t - sent.pop((kind.split("_")[0], job)))
        elif kind == "shard_spawned":
            key = (job, msg["round"], msg["shard"], msg["attempt"])
            spawned[key] = t
            first_spawn.setdefault(job, t)
            spawn_by_round.setdefault((job, msg["round"]), t)
        elif kind == "shard_done":
            key = (job, msg["round"], msg["shard"], msg["attempt"])
            if key in spawned:
                shard_s.append(t - spawned[key])
            done_by_round[(job, msg["round"])] = t
        elif kind == "shard_retry":
            retries += 1
    queue_wait = [first_spawn[j] - t for j, t in submitted.items() if j in first_spawn]
    gaps = [spawn_by_round[(j, r + 1)] - t for (j, r), t in done_by_round.items()
            if (j, r + 1) in spawn_by_round]
    tail_s, tail_pct = tail(shard_s)
    files = 0
    size = 0
    for d, _, fs in os.walk(state_dir):
        if os.sep + "ckpt" + os.sep + "round-" in d + os.sep:
            for f in fs:
                files += 1
                size += os.path.getsize(os.path.join(d, f))
    return {
        "serve.request_s": median(requests),
        "serve.queue_wait_s": median(queue_wait),
        "serve.shard_s": median(shard_s),
        "serve.shard_tail_s": tail_s,
        "serve.shard_tail_pct": tail_pct,
        "serve.round_gap_s": median(gaps),
        "serve.slot_busy_frac": sum(shard_s) / (SERVE_SLOTS * wall) if wall > 0 else 0.0,
        "serve.shards": float(len(shard_s)),
        "serve.retries": float(retries),
        "corpus.ckpt_files": float(files),
        "corpus.ckpt_bytes": float(size),
    }


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def result_line(correct, attempted, failed, metrics, units):
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    })


def e2e_run(w, seconds, coords):
    """Untraced repetitions until --seconds of measured work (and at least
    MIN_REPS of them); medians. wall_s, cpu_s and setup_s are in seconds of
    the reference host: each repetition's times, and the set-up samples
    taken just before it, are multiplied by its host factor (the probe
    takes no sample in a set-up of a few ms), and its wall time also by the
    share of asked-for CPU time the hypervisor gave (the rest it stole)."""
    reference = w.reference()
    setup, raw_setup, raw_walls, raw_cpus, walls, cpus, rsss = [], [], [], [], [], [], []
    factors, avails, steals = [], [], []
    attempted = failed = 0
    while sum(raw_walls) < seconds or len(raw_walls) < MIN_REPS:
        batch = [w.setup_sample() for _ in range(w.setup_batch)]
        proc, wall, outputs = w.unit()
        a, f = w.score(outputs, reference)
        attempted += a
        failed += f
        h = proc.host_factor()
        raw_setup += batch
        setup += [x * h for x in batch]
        raw_walls.append(wall)
        raw_cpus.append(proc.cpu)
        walls.append(wall * proc.avail * h)
        cpus.append(proc.cpu * h)
        rsss.append(proc.rss_mb)
        factors.append(h)
        avails.append(proc.avail)
        steals.append(proc.steal_s)
        if failed:
            break
    # The last batch, after the last repetition, takes that one's factor.
    batch = [w.setup_sample() for _ in range(w.setup_batch)]
    raw_setup += batch
    setup += [x * factors[-1] for x in batch]
    q = statistics.quantiles(setup, n=4)
    coords.update({
        "repetitions": len(walls),
        "raw_wall_s": median(raw_walls),
        "raw_cpu_s": median(raw_cpus),
        "raw_setup_s": median(raw_setup),
        "wall_s_each": [round(x, 4) for x in raw_walls],
        "host_factor_each": [round(x, 4) for x in factors],
        "cpu_given_each": [round(x, 4) for x in avails],
        "steal_s_each": [round(x, 3) for x in steals],
        "setup_samples": len(setup),
        "setup_s_quartiles": [round(x, 5) for x in q],
        "setup_s_spread": round((q[2] - q[0]) / statistics.median(setup), 4),
    })
    metrics = {
        "wall_s": median(walls),
        "cpu_s": median(cpus),
        "peak_rss_mb": median(rsss),
        "setup_s": median(setup),
    }
    return failed == 0, attempted, failed, metrics


def trace_run(w, coords):
    """One untraced repetition, then the traced replay of the same work
    (for serve_quick also a traced pass of the client)."""
    reference = w.reference()
    metrics = {name: 0.0 for name, _ in PER_LAYER}
    proc, wall_u, untraced = w.unit()
    attempted, failed = w.score(untraced, reference)
    out = fresh_dir(os.path.join(w.dir, "replay"))
    t0 = now()
    p = subprocess.run(w.replay_argv(out), capture_output=True, text=True,
                       timeout=UNIT_TIMEOUT_S)
    wall_t = now() - t0
    if p.returncode != 0:
        raise BenchError(f"replay failed: {p.stderr.strip()}")
    doc = json.loads(p.stdout.strip().splitlines()[-1])
    metrics.update({k: v["value"] for k, v in doc["metrics"].items()})
    replayed = w.replay_outputs(out)
    if w.name == "serve_quick":
        _, wall_t, served = w.unit(traced=True)
        a, f = w.score(served, reference)
        attempted += a
        failed += f
        metrics.update(serve_metrics(w.events, wall_t, w.state))
    match = outputs_match(untraced, replayed)
    if not match:
        log("trace: replay digest differs from the untraced run; per-layer numbers are void")
    metrics["trace.overhead_s"] = wall_t - wall_u
    metrics["trace.digest_match"] = 1.0 if match else 0.0
    coords.update({
        "untraced_digest": digest(untraced or []),
        "replay_digest": digest(replayed),
        "trace_file": os.path.join(out, "trace.json"),
    })
    return match and failed == 0, attempted, failed, metrics


WORKLOADS = ("evolve_paper", "campaign_paper", "serve_quick")


def make_workload(args):
    seed = PINNED_SEED[args.workload] if args.program_seed is None else args.program_seed
    if args.workload == "evolve_paper":
        return EvolvePaper(args.workload, seed)
    if args.workload == "campaign_paper":
        return CampaignPaper(args.workload, seed)
    return ServeQuick(seed)


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0,
                    help="recorded with the run; programs come from the workload's pinned seed")
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--program-seed", type=int,
                    help="override the workload's pinned seed, to re-run it on other programs")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)
    if min(args.seed, args.program_seed or 0) < 0:
        ap.error("seeds must be non-negative")
    if args.self_test:
        from selftest import self_test  # perfbench/selftest.py
        return self_test()
    if not args.workload:
        ap.error("--workload is required")
    # A terminated run still stops every process tree it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return measure(args)
    finally:
        for proc in list(Proc.live):
            proc.kill()


def measure(args):
    try:
        os.makedirs(WORK, exist_ok=True)
        build()
        w = make_workload(args)
        coords = {
            "workload": args.workload,
            "seed": args.seed,
            "config": w.config(),
            "commit": source_id(),
            "nproc": os.cpu_count(),
            "run_order": next_run_order(),
            "trace": args.trace,
            "seconds": args.seconds,
        }
        s0 = steal_s()
        if args.trace:
            correct, attempted, failed, metrics = trace_run(w, coords)
            units = PER_LAYER
        else:
            correct, attempted, failed, metrics = e2e_run(w, args.seconds, coords)
            units = E2E
        coords["steal_s"] = round(steal_s() - s0, 3)
        if args.workload == "serve_quick":
            coords["torn_stream_lines"] = w.torn_lines
    except (BenchError, OSError, subprocess.SubprocessError, ValueError, KeyError) as e:
        log(f"perfbench: {e}")
        return 2
    print("# run " + json.dumps(coords, sort_keys=True))
    print(result_line(correct, attempted, failed, metrics, units), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
