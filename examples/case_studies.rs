//! The paper's three case studies, end to end (§V-C, §V-D, §V-E):
//!
//! 1. **GCC binary is fast** — a critical section inside a parallel `for`
//!    loop; Intel's queuing lock pays contention, GCC's mutex doesn't.
//!    Regenerates Table II and the Fig. 6 flat profiles.
//! 2. **Clang binary is slow** — a parallel region inside a serial loop;
//!    `libomp` re-creates team state on every entry. Regenerates Table III
//!    and the Fig. 7 `--children` profiles.
//! 3. **Intel binary hangs** — enough queuing-lock pressure to livelock;
//!    regenerates the Fig. 8 gdb backtrace and the Fig. 9 thread census.
//!
//! ```sh
//! cargo run --release --example case_studies
//! ```

use ompfuzz::backends::{
    CompileOptions, CompiledTest, ProfileMode, RunOptions, RunStatus, SimBackend,
};
use ompfuzz::harness::caselib;

fn main() {
    case_study_1();
    case_study_2();
    case_study_3();
}

fn case_study_1() {
    println!("==================================================================");
    println!("Case study 1: GCC binary is fast (critical section in omp for)");
    println!("==================================================================\n");
    let program = caselib::case_study_1(20_000, 32);
    println!(
        "{}",
        ompfuzz::ast::printer::emit_kernel_source(&program, &Default::default())
    );
    let input = caselib::case_study_input(&program);
    let intel = SimBackend::intel()
        .compile_sim(&program, &CompileOptions::default())
        .unwrap();
    let gcc = SimBackend::gcc()
        .compile_sim(&program, &CompileOptions::default())
        .unwrap();
    let ri = intel.run(&input, &RunOptions::default());
    let rg = gcc.run(&input, &RunOptions::default());
    println!(
        "Intel: {} µs   GCC: {} µs   → GCC {:.0}% faster\n",
        ri.time_us.unwrap(),
        rg.time_us.unwrap(),
        100.0 * (ri.time_us.unwrap() as f64 / rg.time_us.unwrap() as f64 - 1.0)
    );
    let (ci, pi) = intel
        .perf_report(&input, &RunOptions::default(), ProfileMode::Flat)
        .unwrap();
    let (cg, pg) = gcc
        .perf_report(&input, &RunOptions::default(), ProfileMode::Flat)
        .unwrap();
    println!("perf counters (Table II):");
    println!("{:>20}  {:>13}  {:>13}", "counter", "Intel", "GCC");
    for ((name, iv), (_, gv)) in ci.rows().iter().zip(cg.rows().iter()) {
        println!("{name:>20}  {iv:>13}  {gv:>13}");
    }
    println!("\nIntel flat profile (Fig. 6, top):\n{}", pi.render());
    println!("GCC flat profile (Fig. 6, bottom):\n{}", pg.render());
}

fn case_study_2() {
    println!("==================================================================");
    println!("Case study 2: Clang binary is slow (parallel region in a loop)");
    println!("==================================================================\n");
    let program = caselib::case_study_2(400, 600, 32);
    let input = caselib::case_study_input(&program);
    let intel = SimBackend::intel()
        .compile_sim(&program, &CompileOptions::default())
        .unwrap();
    let clang = SimBackend::clang()
        .compile_sim(&program, &CompileOptions::default())
        .unwrap();
    let ri = intel.run(&input, &RunOptions::default());
    let rc = clang.run(&input, &RunOptions::default());
    println!(
        "Intel: {} µs   Clang: {} µs   → Clang {:.0}% slower (paper: 946%)\n",
        ri.time_us.unwrap(),
        rc.time_us.unwrap(),
        100.0 * (rc.time_us.unwrap() as f64 / ri.time_us.unwrap() as f64 - 1.0)
    );
    let (ci, pi) = intel
        .perf_report(&input, &RunOptions::default(), ProfileMode::Children)
        .unwrap();
    let (cc, pc) = clang
        .perf_report(&input, &RunOptions::default(), ProfileMode::Children)
        .unwrap();
    println!("perf counters (Table III):");
    println!("{:>20}  {:>13}  {:>13}", "counter", "Intel", "Clang");
    for ((name, iv), (_, cv)) in ci.rows().iter().zip(cc.rows().iter()) {
        println!("{name:>20}  {iv:>13}  {cv:>13}");
    }
    assert_eq!(pi.mode, ProfileMode::Children);
    println!("\nIntel --children profile (Fig. 7, top):\n{}", pi.render());
    println!(
        "Clang --children profile (Fig. 7, bottom):\n{}",
        pc.render()
    );
}

fn case_study_3() {
    println!("==================================================================");
    println!("Case study 3: Intel binary hangs (queuing-lock livelock)");
    println!("==================================================================\n");
    let program = caselib::case_study_3(8_000, 32);
    let input = caselib::case_study_input(&program);
    for backend in [SimBackend::gcc(), SimBackend::clang()] {
        let bin = backend
            .compile_sim(&program, &CompileOptions::default())
            .unwrap();
        let r = bin.run(&input, &RunOptions::default());
        println!(
            "{:<6} terminates in {} µs [{}]",
            backend.vendor().label(),
            r.time_us.unwrap_or(0),
            r.status.label()
        );
    }
    let intel = SimBackend::intel()
        .compile_sim(&program, &CompileOptions::default())
        .unwrap();
    let r = intel.run(&input, &RunOptions::default());
    match (&r.status, &r.threads) {
        (RunStatus::Hang { timeout_us }, Some(snapshot)) => {
            println!(
                "Intel  does not finish; stopped with SIGINT after {} s\n",
                timeout_us / 1_000_000
            );
            println!("{}", snapshot.gdb_backtrace("case_study_3.cpp"));
            println!("{}", snapshot.render_groups());
        }
        other => println!("unexpected: {other:?}"),
    }
}
