//! `perfbench-spawn [--probe] OUT PROGRAM [ARGS...]`: run PROGRAM with
//! inherited stdio, reap it with `wait4`, and write `exit_code wall_s
//! user_s sys_s maxrss_kb probe_s probe_n` to OUT.
//!
//! Linux carries a process's peak resident set across `exec`, so a child
//! spawned straight from the Python benchmark script would report at
//! least the interpreter's own size as its peak. Spawning from this small
//! process keeps the measured peak that of the program and the children it
//! reaps.
//!
//! With `--probe`, one thread per CPU the launcher may run on, pinned to
//! that CPU, times a fixed piece of work (`PROBE_STEPS` steps, under a
//! millisecond) every `PROBE_PERIOD` while the program runs, in thread CPU
//! time, which leaves out time the hypervisor stole and time the thread
//! waited for the CPU. `probe_s` combines each CPU's median sample into
//! the time per sample at the CPUs' mean speed (their harmonic mean, since
//! work spread over the CPUs proceeds at the sum of their speeds): how
//! fast the host ran code while the program ran. The work does not depend
//! on the program, so the benchmark can divide the host's speed out of the
//! program's times. Without samples (a program that ends before the first
//! one), `probe_s` and `probe_n` are 0.

use std::ffi::c_long;
use std::process::{Command, ExitCode};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const PROBE_PERIOD: Duration = Duration::from_millis(25);
const PROBE_STEPS: u64 = 25_000;

#[repr(C)]
struct Timeval {
    sec: c_long,
    usec: c_long,
}

/// `struct rusage` on 64-bit Linux: two timevals, then 14 longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: c_long,
    rest: [c_long; 13],
}

#[repr(C)]
struct Timespec {
    sec: c_long,
    nsec: c_long,
}

/// A 1024-CPU `cpu_set_t`.
type CpuSet = [u64; 16];

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

fn secs(t: &Timeval) -> f64 {
    t.sec as f64 + t.usec as f64 * 1e-6
}

fn thread_cpu_s() -> f64 {
    let mut t = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `t` is a live, writable `struct timespec`.
    unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut t) };
    t.sec as f64 + t.nsec as f64 * 1e-9
}

/// The CPUs this process may run on (CPU 0 alone if that cannot be read).
fn allowed_cpus() -> Vec<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a live, writable mask of the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    let cpus: Vec<usize> = (0..set.len() * 64)
        .filter(|&c| rc == 0 && set[c / 64] >> (c % 64) & 1 == 1)
        .collect();
    if cpus.is_empty() {
        vec![0]
    } else {
        cpus
    }
}

fn pin_to(cpu: usize) {
    let mut set: CpuSet = [0; 16];
    set[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `set` is a live mask of the size passed; 0 is this thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) };
}

/// The probe's fixed work: an unpredictable branch per step (like an
/// interpreter's dispatch), loads and stores scattered over a 1 MiB table,
/// and small allocations.
fn probe_work(table: &mut [u32], seed: u64) -> u64 {
    let mut boxes: Vec<Vec<u32>> = Vec::new();
    let mut x = seed | 1;
    let mut acc = seed;
    for _ in 0..PROBE_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let k = (x >> 32) as usize & (table.len() - 1);
        match x & 7 {
            0..=2 => table[k] = table[k].wrapping_add(acc as u32),
            3 | 4 => acc = acc.wrapping_add(u64::from(table[k])).rotate_left(5),
            5 => acc ^= acc.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            6 => boxes.push(vec![acc as u32; (x >> 40) as usize & 63]),
            _ => {
                if boxes.len() > 256 {
                    boxes.clear();
                }
            }
        }
    }
    acc ^ boxes.len() as u64
}

/// Sample one CPU until `stop`; returns the sorted sample times.
fn probe_cpu(cpu: usize, stop: &AtomicBool) -> Vec<f64> {
    pin_to(cpu);
    let mut table = vec![0u32; 1 << 18];
    let mut samples = Vec::new();
    let mut sink = 0u64;
    loop {
        std::thread::sleep(PROBE_PERIOD);
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let t0 = thread_cpu_s();
        sink ^= probe_work(&mut table, samples.len() as u64 + 1);
        samples.push(thread_cpu_s() - t0);
    }
    std::hint::black_box(sink);
    samples.sort_by(f64::total_cmp);
    samples
}

/// Spawn PROGRAM, reap it; returns (status, wall, usage).
fn reap(program: &str, rest: &[String]) -> Result<(i32, f64, Rusage), String> {
    let started = Instant::now();
    let child = Command::new(program)
        .args(rest)
        .spawn()
        .map_err(|e| format!("cannot spawn {program}: {e}"))?;
    let pid = i32::try_from(child.id()).map_err(|_| "pid out of range".to_string())?;
    let mut status = 0i32;
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `status` and `usage` are live, writable locals laid out as
    // the kernel's `int` and 64-bit `struct rusage`; `pid` is our own
    // unreaped child, so `wait4` writes only into them.
    let reaped = unsafe { wait4(pid, &mut status, 0, &mut usage) };
    let wall = started.elapsed().as_secs_f64();
    if reaped != pid {
        return Err(format!("wait4 failed: {}", std::io::Error::last_os_error()));
    }
    Ok((status, wall, usage))
}

fn run(args: &[String]) -> Result<i32, String> {
    let (probe, args) = match args {
        [flag, rest @ ..] if flag == "--probe" => (true, rest),
        _ => (false, args),
    };
    let [out, program, rest @ ..] = args else {
        return Err("usage: perfbench-spawn [--probe] OUT PROGRAM [ARGS...]".into());
    };
    let cpus = if probe { allowed_cpus() } else { Vec::new() };
    let stop = AtomicBool::new(false);
    let (reaped, per_cpu) = std::thread::scope(|s| {
        let stop = &stop;
        let probes: Vec<_> = cpus
            .iter()
            .map(|&cpu| s.spawn(move || probe_cpu(cpu, stop)))
            .collect();
        let reaped = reap(program, rest);
        stop.store(true, Ordering::Relaxed);
        let per_cpu: Vec<Vec<f64>> = probes
            .into_iter()
            .map(|p| p.join().unwrap_or_default())
            .collect();
        (reaped, per_cpu)
    });
    let (status, wall, usage) = reaped?;
    let medians: Vec<f64> = per_cpu
        .iter()
        .filter(|s| !s.is_empty())
        .map(|s| s[s.len() / 2])
        .filter(|&m| m > 0.0)
        .collect();
    let probe_n: usize = per_cpu.iter().map(Vec::len).sum();
    let probe_s = if medians.len() == per_cpu.len() && !medians.is_empty() {
        medians.len() as f64 / medians.iter().map(|m| 1.0 / m).sum::<f64>()
    } else {
        0.0
    };
    // WIFEXITED → WEXITSTATUS; otherwise 128 + the terminating signal.
    let code = if status & 0x7f == 0 {
        (status >> 8) & 0xff
    } else {
        128 + (status & 0x7f)
    };
    std::fs::write(
        out,
        format!(
            "{code} {wall} {} {} {} {probe_s} {probe_n}\n",
            secs(&usage.utime),
            secs(&usage.stime),
            usage.maxrss
        ),
    )
    .map_err(|e| format!("cannot write {out}: {e}"))?;
    Ok(code)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => ExitCode::from(u8::try_from(code).unwrap_or(255)),
        Err(e) => {
            eprintln!("perfbench-spawn: {e}");
            ExitCode::from(2)
        }
    }
}
