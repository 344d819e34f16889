//! Process-based backend: drive *real* host compilers, as the paper's
//! framework does on an HPC system.
//!
//! A [`ProcessBackend`] wraps one host compiler (`g++`, `clang++`, `icpx`),
//! emits each program to a `.cpp` file, compiles it with
//! `-fopenmp <opt> -lm`, and runs the produced binary with the input vector
//! on `argv`. The run protocol mirrors §IV-C:
//!
//! * normal exit + parseable `comp=`/`time_us=` output → `OK`;
//! * killed by a signal (e.g. SIGSEGV) → `CRASH`;
//! * no exit before the timeout → killed and labelled `HANG` (the paper
//!   uses SIGINT after ~3 minutes).
//!
//! A process run reports no interpreter ops (`vm_ops` is 0), and the
//! simulated `perf` report ([`ompfuzz_backends::SimBinary::perf_report`])
//! has no process counterpart: it would require the host `perf`.

use ompfuzz_ast::printer::{emit_translation_unit, PrintOptions};
use ompfuzz_ast::Program;
use ompfuzz_backends::oracle::Interpretations;
use ompfuzz_backends::{
    BackendInfo, CompileError, CompileOptions, CompiledTest, OmpBackend, RunOptions, RunResult,
    RunStatus, Vendor,
};
use ompfuzz_inputs::TestInput;
use std::fs;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// A real host OpenMP toolchain. The binaries it compiles live in its work
/// dir, which is removed when the backend drops, so they run only while
/// the backend lives.
#[derive(Debug)]
pub struct ProcessBackend {
    info: BackendInfo,
    compiler: PathBuf,
    openmp_flag: &'static str,
    work_dir: WorkDir,
    counter: AtomicUsize,
}

/// A backend's private temp directory (probe files, emitted sources,
/// compiled binaries), removed with everything in it on drop — also when
/// a probe gives up half way.
#[derive(Debug)]
struct WorkDir(PathBuf);

impl WorkDir {
    /// A fresh directory for `compiler_name`. The name carries the pid and
    /// a process-wide sequence number, so concurrent probes of the same
    /// compiler in one process never share files.
    fn create(compiler_name: &str) -> Option<WorkDir> {
        static DIR_ID: AtomicUsize = AtomicUsize::new(0);
        let path = std::env::temp_dir().join(format!(
            "ompfuzz-proc-{}-{}-{}",
            compiler_name.replace('+', "p"),
            std::process::id(),
            DIR_ID.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&path).ok()?;
        Some(WorkDir(path))
    }

    fn join(&self, name: impl AsRef<Path>) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

impl ProcessBackend {
    /// Probe one compiler by name; verifies it can actually build and run
    /// an OpenMP hello-world. Returns `None` when unusable.
    pub fn probe(compiler_name: &str) -> Option<ProcessBackend> {
        let (vendor, openmp_flag) = match compiler_name {
            "g++" => (Vendor::GccLike, "-fopenmp"),
            "clang++" => (Vendor::ClangLike, "-fopenmp"),
            "icpx" => (Vendor::IntelLike, "-qopenmp"),
            _ => return None,
        };
        let compiler = which(compiler_name)?;
        let work_dir = WorkDir::create(compiler_name)?;

        // Smoke-test: compile and run a one-liner with a parallel region.
        let src = work_dir.join("probe.cpp");
        fs::write(
            &src,
            "#include <omp.h>\n#include <stdio.h>\nint main(){int n=0;\n\
             #pragma omp parallel num_threads(2) reduction(+:n)\n{n+=1;}\n\
             printf(\"%d\\n\", n); return 0;}\n",
        )
        .ok()?;
        let bin = work_dir.join("probe");
        let ok = Command::new(&compiler)
            .arg(openmp_flag)
            .arg("-O1")
            .arg(&src)
            .arg("-o")
            .arg(&bin)
            .stderr(Stdio::null())
            .status()
            .ok()?
            .success();
        if !ok {
            return None;
        }
        let out = Command::new(&bin).output().ok()?;
        if !out.status.success() || String::from_utf8_lossy(&out.stdout).trim() != "2" {
            return None;
        }

        let version = compiler_version(&compiler).unwrap_or_else(|| "unknown".to_string());
        // BackendInfo carries 'static strs for the simulated table; leak the
        // handful of probed strings (backends live for the process).
        let info = BackendInfo {
            vendor,
            implementation: leak(format!("{compiler_name} (host)")),
            compiler: leak(compiler_name.to_string()),
            version: leak(version),
            release: "host",
            runtime_lib: match vendor {
                Vendor::GccLike => "libgomp.so.1.0.0",
                Vendor::ClangLike => "libomp.so",
                Vendor::IntelLike => "libiomp5.so",
            },
        };
        Some(ProcessBackend {
            info,
            compiler,
            openmp_flag,
            work_dir,
            counter: AtomicUsize::new(0),
        })
    }

    /// Probe all of the paper's three compilers on this host.
    pub fn detect_all() -> Vec<ProcessBackend> {
        ["g++", "clang++", "icpx"]
            .iter()
            .filter_map(|c| ProcessBackend::probe(c))
            .collect()
    }
}

fn leak(s: String) -> &'static str {
    Box::leak(s.into_boxed_str())
}

fn which(name: &str) -> Option<PathBuf> {
    let path = std::env::var_os("PATH")?;
    for dir in std::env::split_paths(&path) {
        let candidate = dir.join(name);
        if candidate.is_file() {
            return Some(candidate);
        }
    }
    None
}

fn compiler_version(compiler: &Path) -> Option<String> {
    let out = Command::new(compiler).arg("--version").output().ok()?;
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines().next().map(|l| l.trim().to_string())
}

impl OmpBackend for ProcessBackend {
    fn info(&self) -> &BackendInfo {
        &self.info
    }

    fn compile(
        &self,
        program: &Program,
        opts: &CompileOptions,
    ) -> Result<Box<dyn CompiledTest>, CompileError> {
        let id = self.counter.fetch_add(1, Ordering::Relaxed);
        let src = self.work_dir.join(format!("{}_{}.cpp", program.name, id));
        let bin = self.work_dir.join(format!("{}_{}", program.name, id));
        let cpp = emit_translation_unit(program, &PrintOptions::default());
        fs::write(&src, cpp).map_err(|e| CompileError(format!("write source: {e}")))?;
        let output = Command::new(&self.compiler)
            .arg(self.openmp_flag)
            .arg(opts.opt_level.flag())
            .arg(&src)
            .arg("-o")
            .arg(&bin)
            .arg("-lm")
            .output()
            .map_err(|e| CompileError(format!("spawn {:?}: {e}", self.compiler)))?;
        if !output.status.success() {
            return Err(CompileError(format!(
                "{} failed:\n{}",
                self.info.compiler,
                String::from_utf8_lossy(&output.stderr)
            )));
        }
        Ok(Box::new(ProcessBinary {
            path: bin,
            label: self.info.vendor.label().to_string(),
        }))
    }
}

/// A compiled host binary.
#[derive(Debug)]
pub struct ProcessBinary {
    path: PathBuf,
    label: String,
}

impl CompiledTest for ProcessBinary {
    /// Runs the real binary; a host process shares no interpretation, so
    /// the step goes unused.
    fn run_in_step(
        &self,
        input: &TestInput,
        opts: &RunOptions,
        _step: &mut Interpretations<'_>,
    ) -> RunResult {
        let mut child = match Command::new(&self.path)
            .args(input.to_args())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
        {
            Ok(c) => c,
            Err(e) => {
                return RunResult::no_output(RunStatus::Crash {
                    signal: "SPAWN",
                    reason: e.to_string(),
                })
            }
        };

        // Poll with a deadline (the paper's SIGINT-after-timeout protocol).
        let deadline = Instant::now() + Duration::from_micros(opts.hang_timeout_us);
        let status = loop {
            match child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) => {
                    if Instant::now() >= deadline {
                        let _ = child.kill();
                        let _ = child.wait();
                        return RunResult::no_output(RunStatus::Hang {
                            timeout_us: opts.hang_timeout_us,
                        });
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => {
                    return RunResult::no_output(RunStatus::Crash {
                        signal: "WAIT",
                        reason: e.to_string(),
                    })
                }
            }
        };

        let mut stdout = String::new();
        if let Some(mut pipe) = child.stdout.take() {
            let _ = pipe.read_to_string(&mut stdout);
        }

        if !status.success() {
            let signal = exit_signal_name(&status);
            return RunResult::no_output(RunStatus::Crash {
                signal,
                reason: format!("exit status {status}"),
            });
        }

        let comp = parse_field(&stdout, "comp=").and_then(|s| s.parse::<f64>().ok());
        let time_us = parse_field(&stdout, "time_us=").and_then(|s| s.parse::<u64>().ok());
        match (comp, time_us) {
            (Some(c), Some(t)) => RunResult {
                status: RunStatus::Ok,
                comp: Some(c),
                time_us: Some(t),
                threads: None,
                vm_ops: 0,
            },
            _ => RunResult::no_output(RunStatus::Crash {
                signal: "OUTPUT",
                reason: format!("unparseable output: {stdout:?}"),
            }),
        }
    }

    fn backend_label(&self) -> String {
        self.label.clone()
    }
}

fn parse_field<'a>(stdout: &'a str, prefix: &str) -> Option<&'a str> {
    stdout.lines().find_map(|l| l.trim().strip_prefix(prefix))
}

#[cfg(unix)]
fn exit_signal_name(status: &std::process::ExitStatus) -> &'static str {
    use std::os::unix::process::ExitStatusExt;
    match status.signal() {
        Some(11) => "SIGSEGV",
        Some(6) => "SIGABRT",
        Some(8) => "SIGFPE",
        Some(9) => "SIGKILL",
        Some(_) => "SIGNAL",
        None => "EXIT",
    }
}

#[cfg(not(unix))]
fn exit_signal_name(_status: &std::process::ExitStatus) -> &'static str {
    "EXIT"
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::caselib;

    fn host_gcc() -> Option<ProcessBackend> {
        ProcessBackend::probe("g++")
    }

    #[test]
    fn probe_unknown_compiler_is_none() {
        assert!(ProcessBackend::probe("not-a-compiler").is_none());
        assert!(ProcessBackend::probe("/bin/ls").is_none());
    }

    #[test]
    fn parse_field_extracts_values() {
        let out = "comp=1.5\ntime_us=1234\n";
        assert_eq!(parse_field(out, "comp="), Some("1.5"));
        assert_eq!(parse_field(out, "time_us="), Some("1234"));
        assert_eq!(parse_field(out, "missing="), None);
    }

    /// End-to-end with the real host compiler; skipped when no usable
    /// OpenMP toolchain exists.
    #[test]
    fn host_compiler_runs_case_study_1() {
        let Some(backend) = host_gcc() else {
            eprintln!("skipping: no host g++ with OpenMP");
            return;
        };
        let program = caselib::case_study_1(64, 4);
        let input = caselib::case_study_input(&program);
        let bin = backend
            .compile(&program, &CompileOptions::default())
            .expect("host compile");
        let result = bin.run(&input, &RunOptions::default());
        assert!(result.status.is_ok(), "{:?}", result.status);
        let comp = result.comp.expect("comp parsed");
        assert!(comp.is_finite());
        assert!(result.time_us.is_some());

        // Differential sanity: the simulated backends compute the same comp
        // as the real compiler for this deterministic reduction-free sum?
        // (cs1 uses criticals — order-independent for +, so values match.)
        let sim = ompfuzz_backends::SimBackend::gcc()
            .compile_sim(&program, &CompileOptions::default())
            .unwrap();
        let sim_result = ompfuzz_backends::CompiledTest::run(&sim, &input, &RunOptions::default());
        let sim_comp = sim_result.comp.unwrap();
        let rel = ((comp - sim_comp) / sim_comp.abs().max(1e-300)).abs();
        assert!(rel < 1e-9, "host {comp} vs sim {sim_comp}");
    }

    #[test]
    fn host_timeout_produces_hang() {
        let Some(backend) = host_gcc() else {
            eprintln!("skipping: no host g++ with OpenMP");
            return;
        };
        // A long-running but terminating program with a tiny timeout.
        let program = caselib::case_study_2(2_000, 5_000, 4);
        let input = caselib::case_study_input(&program);
        let bin = backend
            .compile(
                &program,
                &CompileOptions {
                    opt_level: ompfuzz_backends::OptLevel::O0,
                },
            )
            .expect("host compile");
        let result = bin.run(
            &input,
            &RunOptions {
                hang_timeout_us: 30_000, // 30 ms
                ..RunOptions::default()
            },
        );
        assert!(
            matches!(result.status, RunStatus::Hang { .. }),
            "{:?}",
            result.status
        );
    }
}
