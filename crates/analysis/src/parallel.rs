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

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

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
/// `(index, item)`. With one job or one item, `f` runs inline on the
/// calling thread.
///
/// A panicking job ends only its own worker: the other workers finish
/// the items still queued, and then the first panicking worker's
/// payload is re-raised on the caller, so a failing job reads the same
/// as it would inline.
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

    let queue = Mutex::new(items.into_iter().enumerate());
    let joined: Vec<thread::Result<Vec<(usize, T)>>> = thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        // Taken in a `let`, not in a `while let` scrutinee,
                        // so the guard drops before the job runs: a job
                        // run under the lock would make the pool serial.
                        let next = queue
                            .lock()
                            .expect("no job runs under the queue lock")
                            .next();
                        let Some((i, x)) = next else { break done };
                        done.push((i, f(i, x)));
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for worker in joined {
        let done = match worker {
            Ok(done) => done,
            Err(payload) => std::panic::resume_unwind(payload),
        };
        for (i, out) in done {
            slots[i] = Some(out);
        }
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("each item leaves the queue exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

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
    fn jobs_run_at_the_same_time() {
        // Each job announces itself, then waits for the other's
        // arrival. Both see it only if the two jobs overlap; a pool that
        // ran its jobs one at a time fails at the deadline, never hangs.
        let arrived = AtomicUsize::new(0);
        let saw_other = parallel_map(2, vec![(); 2], |_, ()| {
            arrived.fetch_add(1, Ordering::SeqCst);
            let deadline = Instant::now() + Duration::from_secs(5);
            while arrived.load(Ordering::SeqCst) < 2 {
                if Instant::now() > deadline {
                    return false;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            true
        });
        assert_eq!(saw_other, [true, true]);
    }

    #[test]
    fn job_panics_propagate() {
        // The payload reaches the caller unchanged, after the surviving
        // worker has run every other item.
        let ran = AtomicUsize::new(0);
        let payload = std::panic::catch_unwind(|| {
            parallel_map(2, (0..8).collect(), |_, x: u32| {
                if x == 2 {
                    panic!("boom");
                }
                ran.fetch_or(1 << x, Ordering::SeqCst);
            })
        })
        .expect_err("the job panic must reach the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));
        assert_eq!(ran.into_inner(), 0b1111_1011, "items other than 2 ran");
    }
}
