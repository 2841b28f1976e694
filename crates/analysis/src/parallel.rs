//! A small deterministic fork-join helper (no external dependencies).
//!
//! Experiment fan-out — the distinct machine runs, then the reports —
//! is embarrassingly parallel, but the `experiments` binary
//! promises byte-identical output regardless of `--jobs`. The contract
//! here makes that trivial: [`parallel_map`] returns results **in item
//! order**, whatever order the worker threads finished in, and every
//! job itself is deterministic (the simulated machine has no wall-clock
//! or host-randomness inputs). Thread count therefore affects wall
//! clock only, never results.

use atum_conc::sync::atomic::{AtomicUsize, Ordering};
use atum_conc::sync::Mutex;
use atum_conc::thread;
use std::collections::VecDeque;
use std::num::NonZeroUsize;

/// Global default thread count for the machine runs of a single
/// experiment (`experiments::run_by_id`, which the per-experiment
/// `t1_…`/`t2_…`/`a1_…` functions call); `run_selected` takes its
/// thread count as an argument instead. 0 = not set; fall back to the
/// host's available parallelism.
static JOBS: AtomicUsize = AtomicUsize::new(0);

/// Sets the default thread count `run_by_id` performs its machine runs
/// on. 0 restores the host default.
pub fn set_jobs(n: usize) {
    JOBS.store(n, Ordering::Relaxed);
}

/// The current default thread count (see [`set_jobs`]).
pub fn jobs() -> usize {
    match JOBS.load(Ordering::Relaxed) {
        0 => thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1),
        n => n,
    }
}

/// Maps `f` over `items` on up to `jobs` scoped threads, returning the
/// results **in input order** — output is independent of scheduling, so
/// callers get byte-identical results at any thread count. `f` receives
/// `(index, item)`. A panicking job propagates the panic to the caller.
pub fn parallel_map<I, T, F>(jobs: usize, items: Vec<I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(usize, I) -> T + Sync,
{
    let n = items.len();
    let workers = jobs.max(1).min(n);
    if workers <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, x)| f(i, x))
            .collect();
    }

    let queue: Mutex<VecDeque<(usize, I)>> = Mutex::new(items.into_iter().enumerate().collect());
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let panicked: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
    thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let next = queue.lock().expect("queue poisoned").pop_front();
                match next {
                    Some((i, item)) => {
                        // Re-thrown with its original payload below, so a
                        // failing job reads the same as it would inline.
                        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(i, item)))
                        {
                            Ok(out) => *slots[i].lock().expect("slot poisoned") = Some(out),
                            Err(payload) => {
                                panicked.lock().expect("panic slot").get_or_insert(payload);
                                queue.lock().expect("queue poisoned").clear();
                                break;
                            }
                        }
                    }
                    None => break,
                }
            });
        }
    });
    if let Some(payload) = panicked.into_inner().expect("panic slot") {
        std::panic::resume_unwind(payload);
    }
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("slot poisoned")
                .expect("every job ran to completion")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        // Jobs finish in scrambled order (later items sleep less); the
        // result order must still match the input.
        let items: Vec<u64> = (0..32).collect();
        let got = parallel_map(8, items.clone(), |i, x| {
            std::thread::sleep(std::time::Duration::from_micros(500 - 15 * i as u64));
            x * 2
        });
        assert_eq!(got, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn identical_across_thread_counts() {
        let work =
            |_: usize, x: u64| -> u64 { (0..x).fold(x, |a, b| a.wrapping_mul(31).wrapping_add(b)) };
        let items: Vec<u64> = (0..100).collect();
        let one = parallel_map(1, items.clone(), work);
        let four = parallel_map(4, items.clone(), work);
        let many = parallel_map(16, items, work);
        assert_eq!(one, four);
        assert_eq!(one, many);
    }

    #[test]
    fn single_item_runs_inline() {
        assert_eq!(
            parallel_map(8, vec![7], |i, x: i32| (i, x * 3)),
            vec![(0, 21)]
        );
    }

    #[test]
    fn empty_input() {
        let out: Vec<i32> = parallel_map(4, Vec::<i32>::new(), |_, x| x);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn job_panics_propagate() {
        parallel_map(2, vec![1, 2, 3], |_, x: i32| {
            if x == 2 {
                panic!("boom");
            }
            x
        });
    }
}
