//! `map_parallel` leaves no thread behind: every helper it starts is
//! joined before the call returns. This is its own test binary, so no
//! other test's threads start or stop while it counts the process's
//! threads.

use ompfuzz_harness::pool::map_parallel;
use std::time::{Duration, Instant};

/// The process's live threads, or `None` where `/proc` does not list them.
fn thread_count() -> Option<usize> {
    Some(std::fs::read_dir("/proc/self/task").ok()?.count())
}

#[test]
fn no_thread_outlives_the_call() {
    let Some(before) = thread_count() else {
        eprintln!("skipping: /proc/self/task is not readable, so threads cannot be counted");
        return;
    };
    let items: Vec<u64> = (0..64).collect();
    let out = map_parallel(4, &items, |&x| (0..=x).sum::<u64>());
    assert_eq!(
        out,
        items.iter().map(|&x| x * (x + 1) / 2).collect::<Vec<_>>()
    );

    // The kernel wakes a joining thread before it unlists the exited one,
    // so a joined helper may stay listed for a moment after the call.
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut after = thread_count().expect("/proc/self/task was readable before");
    while after > before && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
        after = thread_count().expect("/proc/self/task was readable before");
    }
    assert_eq!(after, before, "threads outlived the call");
}
