//! The worker-pool pattern shared by the campaign driver and the test-case
//! reducer: fan a slice of independent items over worker threads and
//! collect the results *in item order*, so callers are deterministic for
//! every worker count.
//!
//! Each call spawns its helper threads inside a [`std::thread::scope`] and
//! joins them before it returns, so no thread outlives the call and the
//! helpers borrow the caller's items and closure directly. The calling
//! thread works alongside them, so a call always makes progress on its own
//! thread, nested calls included.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Resolve a configured worker count (`0` = use the machine's available
/// parallelism, falling back to 4 when it cannot be queried).
pub fn resolve_workers(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism().map_or(4, |n| n.get())
    } else {
        requested
    }
}

/// Apply `f` to every item, using up to `workers` threads (the calling
/// thread plus `workers - 1` scoped helpers spawned for this call), and
/// return the results in item order.
///
/// Threads claim items one at a time, so uneven items still balance.
/// Every item is evaluated — there is no early exit — so the output is
/// identical whatever the worker count or scheduling. Single-item batches
/// (and `workers <= 1`) spawn nothing: with one item there is nothing to
/// overlap. A panic in `f` reaches the caller once every helper has
/// stopped.
pub fn map_parallel<T, R, F>(workers: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = workers.min(items.len()).max(1);
    if workers == 1 {
        return items.iter().map(f).collect();
    }

    // The cursor hands out each index exactly once. It publishes nothing
    // else: the results travel back through each thread's join.
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let index = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(index) else {
                return done;
            };
            done.push((index, f(item)));
        }
    };

    let mut done = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        let mut done = work();
        for helper in helpers {
            done.extend(
                helper
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
            );
        }
        done
    });
    done.sort_unstable_by_key(|&(index, _)| index);
    done.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_preserve_item_order() {
        let items: Vec<usize> = (0..100).collect();
        for workers in [0, 1, 3, 8] {
            let out = map_parallel(resolve_workers(workers), &items, |&x| x * 2);
            assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn tiny_batches_and_empty_input_work() {
        assert_eq!(map_parallel(8, &[] as &[u8], |&x| x), Vec::<u8>::new());
        assert_eq!(map_parallel(8, &[7], |&x| x + 1), vec![8]);
        // Two items take the threaded path; order must still hold.
        assert_eq!(map_parallel(8, &[1, 2], |&x| x + 1), vec![2, 3]);
    }

    #[test]
    fn worker_resolution() {
        assert!(resolve_workers(0) >= 1);
        assert_eq!(resolve_workers(5), 5);
    }

    #[test]
    fn borrowed_items_and_closure_state_survive_pooling() {
        // Run many short threaded maps over stack-owned data, with results
        // that depend on borrowed closure state.
        let offset = 1000usize;
        for round in 0..50 {
            let items: Vec<usize> = (0..23).map(|i| i + round).collect();
            let out = map_parallel(4, &items, |&x| x + offset);
            assert_eq!(out, items.iter().map(|&x| x + offset).collect::<Vec<_>>());
        }
    }

    #[test]
    fn concurrent_calls_share_the_pool() {
        // Several threads issuing threaded maps at once: each must finish
        // with correct, ordered results.
        let handles: Vec<_> = (0..4)
            .map(|t| {
                std::thread::spawn(move || {
                    let items: Vec<usize> = (0..200).collect();
                    let out = map_parallel(4, &items, |&x| x * 3 + t);
                    assert_eq!(out, items.iter().map(|&x| x * 3 + t).collect::<Vec<_>>());
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn nested_calls_keep_item_order() {
        // A map inside a map spawns its own helpers and still returns its
        // results in item order.
        let outer: Vec<usize> = (0..16).collect();
        let out = map_parallel(4, &outer, |&x| {
            let inner: Vec<usize> = (0..8).collect();
            map_parallel(4, &inner, |&y| y + x).iter().sum::<usize>()
        });
        let expect: Vec<usize> = outer
            .iter()
            .map(|&x| (0..8).map(|y| y + x).sum::<usize>())
            .collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn a_panicking_item_panics_the_caller() {
        let items: Vec<usize> = (0..32).collect();
        let outcome = std::panic::catch_unwind(|| {
            map_parallel(4, &items, |&x| {
                assert!(x != 17, "item 17 fails");
                x
            })
        });
        assert!(outcome.is_err());
    }
}
