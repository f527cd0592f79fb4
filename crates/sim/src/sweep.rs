//! Thread-parallel sweep runner on scoped threads.
//!
//! Scenario sweeps (ablation grids, capacity scans, seed batteries) run
//! many *independent* single-threaded simulations; [`parallel_map`] fans
//! them out over OS threads with `std::thread` alone. Results are
//! returned sorted by input index, making the output byte-identical to a
//! sequential `map` regardless of thread count or scheduling.
//!
//! Each call spawns its helpers in a [`std::thread::scope`] and joins
//! them before it returns, so nothing outlives the call and the items
//! and the closure may borrow from the caller. The caller drains the
//! shared cursor beside its helpers, and a panicking item is caught,
//! kept as that item's outcome and re-raised on the caller once every
//! item has run, with its own payload.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// Applies `f` to every item across scoped threads and returns the
/// results in input order (identical to `items.map(f).collect()`).
///
/// `threads` caps how many threads work on the batch, the calling
/// thread among them, so `threads <= 1` degenerates to a sequential map
/// with no synchronization at all. `f` must be deterministic per item
/// for the "byte-identical to sequential" guarantee to mean anything;
/// the simulations it wraps are. Nested calls each spawn their own
/// helpers.
///
/// # Panics
///
/// Once every item has run, re-raises the panic of the first item (in
/// input order) that panicked, with its own payload.
pub fn parallel_map<T, U, F>(items: Vec<T>, threads: usize, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let threads = threads.max(1).min(items.len().max(1));
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }
    let cursor = Mutex::new(items.into_iter().enumerate());
    // Claims items off the shared cursor until it runs dry, keeping
    // each item's outcome (its result or its panic) with its index.
    let drain = || {
        let mut done = Vec::new();
        loop {
            let next = cursor
                .lock()
                .expect("the cursor is never held across f")
                .next();
            let Some((k, item)) = next else {
                return done;
            };
            done.push((k, catch_unwind(AssertUnwindSafe(|| f(item)))));
        }
    };
    let mut outcomes = std::thread::scope(|s| {
        let helpers: Vec<_> = (1..threads).map(|_| s.spawn(drain)).collect();
        let mut outcomes = drain();
        for h in helpers {
            outcomes.extend(h.join().expect("drain catches every item's panic"));
        }
        outcomes
    });
    outcomes.sort_unstable_by_key(|&(k, _)| k);
    outcomes
        .into_iter()
        .map(|(_, outcome)| outcome.unwrap_or_else(|payload| resume_unwind(payload)))
        .collect()
}

/// A sensible worker count for sweeps: the machine's parallelism, capped
/// so small sweeps don't invite idle workers.
pub fn default_threads(items: usize) -> usize {
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    hw.min(items.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_match_sequential_order() {
        let items: Vec<u64> = (0..97).collect();
        let seq: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for threads in [1, 2, 3, 8, 200] {
            let par = parallel_map(items.clone(), threads, |x| x * x + 1);
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    #[test]
    fn empty_sweep_is_fine() {
        let out: Vec<u32> = parallel_map(Vec::<u32>::new(), 8, |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn non_clone_items_move_through() {
        let items: Vec<String> = (0..20).map(|k| format!("s{k}")).collect();
        let out = parallel_map(items, 4, |s| s.len());
        assert_eq!(out.len(), 20);
        assert_eq!(out[0], 2);
        assert_eq!(out[10], 3);
    }

    #[test]
    fn nested_sweeps_complete() {
        // The repro binary nests: an outer sweep over experiments whose
        // runners call parallel_map themselves. This test
        // over-subscribes on purpose.
        let outer: Vec<u64> = (0..12).collect();
        let result = parallel_map(outer, 8, |k| {
            let inner: Vec<u64> = (0..9).map(|j| k * 100 + j).collect();
            parallel_map(inner, 8, |x| x * 2).iter().sum::<u64>()
        });
        let expect: Vec<u64> = (0..12)
            .map(|k| (0..9).map(|j| (k * 100 + j) * 2).sum())
            .collect();
        assert_eq!(result, expect);
    }

    #[test]
    fn panics_propagate_to_caller() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            parallel_map((0..32u32).collect(), 4, |x| {
                if x == 19 {
                    panic!("boom at {x}");
                }
                x
            })
        }));
        let payload = result.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("boom at 19"), "{msg}");
    }

    #[test]
    fn default_threads_is_positive_and_capped() {
        assert_eq!(default_threads(0), 1);
        assert!((1..=3).contains(&default_threads(3)));
        assert_eq!(default_threads(1), 1);
    }
}
