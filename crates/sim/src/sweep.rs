//! Thread-parallel sweep runner backed by a persistent worker pool.
//!
//! Scenario sweeps (ablation grids, capacity scans, seed batteries) run
//! many *independent* single-threaded simulations; [`parallel_map`] fans
//! them out over OS threads with `std::thread` alone. Results are
//! returned sorted by input index, making the output byte-identical to a
//! sequential `map` regardless of thread count or scheduling.
//!
//! Earlier revisions spawned a fresh scoped thread per call, so a repro
//! run paid thread start-up once per experiment *and* once per nested
//! sweep inside E11/E13/E14. The pool here is spawned once per process
//! (lazily, sized to the machine) and reused by every call.
//!
//! Two properties keep the pool safe under the workspace's usage:
//!
//! * **The caller participates.** A `parallel_map` call drains the same
//!   work cursor as the pool workers, so it completes even if every pool
//!   worker is busy — in particular, *nested* calls (the repro binary's
//!   outer sweep runs experiments whose inner sweeps call back in) can
//!   never deadlock: the innermost call's caller thread makes progress
//!   by itself in the worst case.
//! * **Panics propagate.** A panicking item is caught on the worker,
//!   ferried back, and re-raised on the calling thread after the batch
//!   settles, matching `std::thread::scope` semantics.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// A unit of pool work: claim-and-run one batch's remaining items.
type Job = Box<dyn FnOnce() + Send + 'static>;

struct Pool {
    jobs: Sender<Job>,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let (tx, rx) = channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        for k in 0..workers {
            let rx: Arc<Mutex<Receiver<Job>>> = Arc::clone(&rx);
            std::thread::Builder::new()
                .name(format!("ctms-sweep-{k}"))
                .spawn(move || loop {
                    let job = {
                        let guard = rx.lock().expect("job queue unpoisoned");
                        guard.recv()
                    };
                    match job {
                        Ok(job) => job(),
                        Err(_) => break, // sender dropped: process exit
                    }
                })
                .expect("spawn sweep worker");
        }
        Pool { jobs: tx }
    })
}

/// Shared state of one `parallel_map` batch.
struct Batch<T, U> {
    items: Vec<Mutex<Option<T>>>,
    results: Vec<Mutex<Option<U>>>,
    cursor: AtomicUsize,
    /// Items fully processed (result stored or panic recorded).
    done: Mutex<usize>,
    settled: Condvar,
    panic: Mutex<Option<Box<dyn std::any::Any + Send + 'static>>>,
}

impl<T, U> Batch<T, U> {
    /// Claims items off the cursor and runs `f` on each until the batch
    /// is exhausted. Returns after contributing; does not wait.
    fn drain<F>(&self, f: &F)
    where
        F: Fn(T) -> U,
    {
        let n = self.items.len();
        loop {
            let k = self.cursor.fetch_add(1, Ordering::Relaxed);
            if k >= n {
                break;
            }
            let item = self.items[k]
                .lock()
                .expect("unpoisoned slot")
                .take()
                .expect("each slot is taken exactly once");
            let out = catch_unwind(AssertUnwindSafe(|| f(item)));
            match out {
                Ok(out) => *self.results[k].lock().expect("unpoisoned result") = Some(out),
                Err(payload) => {
                    let mut slot = self.panic.lock().expect("unpoisoned panic slot");
                    if slot.is_none() {
                        *slot = Some(payload);
                    }
                }
            }
            let mut done = self.done.lock().expect("unpoisoned done count");
            *done += 1;
            if *done == n {
                self.settled.notify_all();
            }
        }
    }

    fn wait_settled(&self) {
        let n = self.items.len();
        let mut done = self.done.lock().expect("unpoisoned done count");
        while *done < n {
            done = self.settled.wait(done).expect("unpoisoned done count");
        }
    }
}

/// Applies `f` to every item across the persistent worker pool and
/// returns the results in input order (identical to
/// `items.map(f).collect()`).
///
/// `threads` caps how many pool workers are invited to help (the calling
/// thread always participates, so `threads <= 1` degenerates to a
/// sequential map with no synchronization at all). `f` must be
/// deterministic per item for the "byte-identical to sequential"
/// guarantee to mean anything; the simulations it wraps are.
///
/// Nested calls are safe: the caller of every `parallel_map` drains the
/// batch cursor itself, so completion never depends on a pool worker
/// being free.
///
/// # Panics
///
/// Propagates the first panic from any item after the batch settles.
pub fn parallel_map<T, U, F>(items: Vec<T>, threads: usize, f: F) -> Vec<U>
where
    T: Send + 'static,
    U: Send + 'static,
    F: Fn(T) -> U + Send + Sync + 'static,
{
    let threads = threads.max(1).min(items.len().max(1));
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }
    let n = items.len();
    let batch = Arc::new(Batch {
        items: items.into_iter().map(|t| Mutex::new(Some(t))).collect(),
        results: (0..n).map(|_| Mutex::new(None)).collect(),
        cursor: AtomicUsize::new(0),
        done: Mutex::new(0),
        settled: Condvar::new(),
        panic: Mutex::new(None),
    });
    let f = Arc::new(f);
    // Invite helpers (the caller is one of the `threads` participants).
    for _ in 0..threads - 1 {
        let batch = Arc::clone(&batch);
        let f = Arc::clone(&f);
        let job: Job = Box::new(move || batch.drain(f.as_ref()));
        // A send error means the pool is gone (process teardown); the
        // caller still drains the whole batch itself below.
        let _ = pool().jobs.send(job);
    }
    batch.drain(f.as_ref());
    batch.wait_settled();
    let batch = match Arc::try_unwrap(batch) {
        Ok(b) => b,
        Err(shared) => {
            // A helper still holds a clone (it finished draining but has
            // not dropped its Arc yet). Results are settled either way;
            // copy them out through the shared reference.
            if let Some(payload) = shared.panic.lock().expect("unpoisoned panic slot").take() {
                resume_unwind(payload);
            }
            return (0..n)
                .map(|k| {
                    shared.results[k]
                        .lock()
                        .expect("unpoisoned result")
                        .take()
                        .unwrap_or_else(|| panic!("sweep item {k} produced no result"))
                })
                .collect();
        }
    };
    if let Some(payload) = batch.panic.into_inner().expect("unpoisoned panic slot") {
        resume_unwind(payload);
    }
    batch
        .results
        .into_iter()
        .enumerate()
        .map(|(k, m)| {
            m.into_inner()
                .expect("unpoisoned result")
                .unwrap_or_else(|| panic!("sweep item {k} produced no result"))
        })
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
        // runners call parallel_map themselves. With a fixed pool this
        // deadlocks unless callers participate in draining — so this
        // test over-subscribes on purpose.
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
    fn pool_is_reused_across_calls() {
        // Consecutive calls must not accumulate threads: everything runs
        // on the one persistent pool. (Smoke check: many batches back to
        // back stay correct; the pool size is process-global.)
        for round in 0..50u64 {
            let items: Vec<u64> = (0..17).collect();
            let out = parallel_map(items, 4, move |x| x + round);
            assert_eq!(out[16], 16 + round, "round {round}");
        }
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
