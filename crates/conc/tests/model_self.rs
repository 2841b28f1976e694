//! Self-tests for the model checker: positive protocols that must come
//! up clean under exhaustive exploration, and textbook bugs (races,
//! deadlocks, missed wakeups) that the detectors must catch with a
//! report naming the access points.
//!
//! The negative half only exists under `--cfg atum_model`: without the
//! model these scenarios would be *real* races and deadlocks.

use atum_conc::cell::ModelCell;
use atum_conc::model::Builder;
use atum_conc::sync::atomic::{AtomicUsize, Ordering};
use atum_conc::sync::{Arc, Condvar, Mutex};
use atum_conc::thread;

#[test]
fn mutex_counter_is_race_free() {
    let stats = Builder::new().name("self:mutex-counter").check(|| {
        let n = Arc::new(Mutex::new(0usize));
        thread::scope(|s| {
            for _ in 0..2 {
                let n = Arc::clone(&n);
                s.spawn(move || {
                    *n.lock().unwrap() += 1;
                });
            }
        });
        assert_eq!(*n.lock().unwrap(), 2);
    });
    assert!(stats.schedules >= 1);
    #[cfg(atum_model)]
    assert!(
        stats.schedules > 1,
        "two racing lockers must yield more than one interleaving"
    );
}

#[test]
fn release_acquire_message_passing_is_race_free() {
    Builder::new().name("self:release-acquire").check(|| {
        let data = Arc::new(ModelCell::new(0usize));
        let flag = Arc::new(AtomicUsize::new(0));
        thread::scope(|s| {
            {
                let (data, flag) = (Arc::clone(&data), Arc::clone(&flag));
                s.spawn(move || {
                    data.set(42);
                    flag.store(1, Ordering::Release);
                });
            }
            let (data, flag) = (Arc::clone(&data), Arc::clone(&flag));
            s.spawn(move || {
                if flag.load(Ordering::Acquire) == 1 {
                    assert_eq!(data.get(), 42);
                }
            });
        });
    });
}

#[test]
fn condvar_handoff_with_spurious_wakeups() {
    // `wait_while` must survive the forced-spurious-wakeup adversary.
    Builder::new()
        .name("self:cv-handoff")
        .spurious_wakeups(2)
        .check(|| {
            let state = Arc::new((Mutex::new(false), Condvar::new()));
            thread::scope(|s| {
                let st = Arc::clone(&state);
                s.spawn(move || {
                    *st.0.lock().unwrap() = true;
                    st.1.notify_one();
                });
                let g = state.0.lock().unwrap();
                let g = state.1.wait_while(g, |ready| !*ready).unwrap();
                assert!(*g);
            });
        });
}

// ---------------------------------------------------------------------------
// Negative suite: every scenario below must FAIL under the model, with
// a report naming what went wrong and where.
// ---------------------------------------------------------------------------

#[cfg(atum_model)]
mod negative {
    use super::*;
    use std::collections::{BTreeMap, VecDeque};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Runs `f` under `b` expecting a failure whose report contains
    /// every needle (detector verdict + access-point file names).
    fn check_fails(b: Builder, needles: &[&str], f: impl Fn()) {
        let result = catch_unwind(AssertUnwindSafe(|| b.check(f)));
        let payload = match result {
            Ok(stats) => panic!(
                "expected the model to fail, but {} schedules came up clean",
                stats.schedules
            ),
            Err(p) => p,
        };
        let msg = p_to_string(payload);
        for needle in needles {
            assert!(
                msg.contains(needle),
                "failure report should contain {needle:?}; got:\n{msg}"
            );
        }
    }

    fn p_to_string(p: Box<dyn std::any::Any + Send>) -> String {
        if let Some(s) = p.downcast_ref::<String>() {
            s.clone()
        } else if let Some(s) = p.downcast_ref::<&str>() {
            (*s).to_string()
        } else {
            "<non-string panic>".to_string()
        }
    }

    #[test]
    fn unsynchronized_counter_races() {
        check_fails(
            Builder::new().name("self:unsync-race"),
            &["data race", "unsync-", "model_self.rs"],
            || {
                let n = Arc::new(AtomicUsize::new(0));
                thread::scope(|s| {
                    for _ in 0..2 {
                        let n = Arc::clone(&n);
                        s.spawn(move || {
                            let v = n.unsync_load();
                            n.unsync_store(v + 1);
                        });
                    }
                });
            },
        );
    }

    #[test]
    fn cell_write_write_races() {
        check_fails(
            Builder::new().name("self:cell-race"),
            &["data race", "model_self.rs"],
            || {
                let c = Arc::new(ModelCell::new(0usize));
                thread::scope(|s| {
                    for _ in 0..2 {
                        let c = Arc::clone(&c);
                        s.spawn(move || c.set(1));
                    }
                });
            },
        );
    }

    #[test]
    fn relaxed_flag_does_not_order_the_data() {
        // Same shape as the positive message-passing test, but the
        // flag is Relaxed: no happens-before edge, so the data access
        // races in the interleaving where the reader sees flag == 1.
        check_fails(
            Builder::new().name("self:relaxed-race"),
            &["data race"],
            || {
                let data = Arc::new(ModelCell::new(0usize));
                let flag = Arc::new(AtomicUsize::new(0));
                thread::scope(|s| {
                    {
                        let (data, flag) = (Arc::clone(&data), Arc::clone(&flag));
                        s.spawn(move || {
                            data.set(42);
                            flag.store(1, Ordering::Relaxed);
                        });
                    }
                    let (data, flag) = (Arc::clone(&data), Arc::clone(&flag));
                    s.spawn(move || {
                        if flag.load(Ordering::Relaxed) == 1 {
                            let _ = data.get();
                        }
                    });
                });
            },
        );
    }

    #[test]
    fn ab_ba_lock_order_deadlocks() {
        check_fails(
            Builder::new().name("self:ab-ba"),
            &["deadlock", "blocked acquiring mutex"],
            || {
                let a = Arc::new(Mutex::new(()));
                let b = Arc::new(Mutex::new(()));
                thread::scope(|s| {
                    {
                        let (a, b) = (Arc::clone(&a), Arc::clone(&b));
                        s.spawn(move || {
                            let _ga = a.lock().unwrap();
                            let _gb = b.lock().unwrap();
                        });
                    }
                    let (a, b) = (Arc::clone(&a), Arc::clone(&b));
                    s.spawn(move || {
                        let _gb = b.lock().unwrap();
                        let _ga = a.lock().unwrap();
                    });
                });
            },
        );
    }

    #[test]
    fn missed_wakeup_check_outside_lock_deadlocks() {
        // Classic missed-wakeup: the predicate is read under the lock
        // but the lock is dropped before waiting, so the notify can
        // land in the window between check and wait — delivered to
        // nobody — and the waiter parks forever.
        check_fails(
            Builder::new()
                .name("self:missed-wakeup")
                .spurious_wakeups(0),
            &["deadlock", "parked on condvar"],
            || {
                let state = Arc::new((Mutex::new(false), Condvar::new()));
                thread::scope(|s| {
                    let st = Arc::clone(&state);
                    s.spawn(move || {
                        *st.0.lock().unwrap() = true;
                        st.1.notify_one();
                    });
                    let ready = *state.0.lock().unwrap();
                    if !ready {
                        let g = state.0.lock().unwrap();
                        let _g = state.1.wait(g).unwrap();
                    }
                });
            },
        );
    }

    #[test]
    fn lost_notify_adversary_defeats_single_notify_one() {
        // With the lost-notify budget on, one branch of each
        // `notify_one` drops the wakeup entirely: the waiter parks
        // forever even though the code "sent" a notify. (This is the
        // adversary that models wakeup stealing / notify loss — code
        // must prove it re-notifies or bounds the loss.)
        check_fails(
            Builder::new()
                .name("self:lost-notify")
                .spurious_wakeups(0)
                .lost_notifies(1),
            &["deadlock", "parked on condvar"],
            || {
                let state = Arc::new((Mutex::new(0usize), Condvar::new()));
                thread::scope(|s| {
                    let st = Arc::clone(&state);
                    s.spawn(move || {
                        *st.0.lock().unwrap() = 1;
                        st.1.notify_one();
                    });
                    let g = state.0.lock().unwrap();
                    let _g = state.1.wait_while(g, |v| *v == 0).unwrap();
                });
            },
        );
    }

    #[test]
    fn child_panic_is_reported_with_the_schedule() {
        check_fails(
            Builder::new().name("self:child-panic"),
            &["panicked", "boom", "schedule trace"],
            || {
                thread::scope(|s| {
                    s.spawn(|| panic!("boom"));
                });
            },
        );
    }

    // Seeded bugs: the classic ways a ring, a work-claim counter and an
    // ordered merge go wrong, each re-introduced in miniature. The model
    // must catch every one and name the access points in its report.

    /// Seeded bug 1: the ring consumer pops a slot but the notify on
    /// slot release is dropped — the producer blocked on ring capacity
    /// never wakes. Caught as a deadlock naming both parked threads.
    #[test]
    fn dropped_notify_on_ring_slot_release_deadlocks() {
        check_fails(
            Builder::new()
                .name("seeded:ring-lost-notify")
                .spurious_wakeups(0),
            &["deadlock", "parked on condvar", "model_self.rs"],
            || {
                let state = Arc::new((Mutex::new(VecDeque::new()), Condvar::new()));
                thread::scope(|s| {
                    let st = Arc::clone(&state);
                    s.spawn(move || {
                        // Consumer: drain 3 items from the depth-1 ring.
                        for _ in 0..3 {
                            let mut g =
                                st.1.wait_while(st.0.lock().unwrap(), |q: &mut VecDeque<u32>| {
                                    q.is_empty()
                                })
                                .unwrap();
                            g.pop_front();
                            // BUG: no notify_all() here — the producer
                            // waiting out the full ring never learns the
                            // slot freed up.
                        }
                    });
                    for i in 0..3u32 {
                        let mut g = state
                            .1
                            .wait_while(state.0.lock().unwrap(), |q: &mut VecDeque<u32>| {
                                !q.is_empty()
                            })
                            .unwrap();
                        g.push_back(i);
                        state.1.notify_all();
                    }
                });
            },
        );
    }

    /// Seeded bug 2: the work-claim `fetch_add` weakened to an
    /// unsynchronized load/store pair — two workers can claim the same
    /// segment. Caught as a data race on the claim counter naming both
    /// access points.
    #[test]
    fn weakened_work_claim_counter_races() {
        check_fails(
            Builder::new().name("seeded:claim-race"),
            &["data race", "unsync-", "model_self.rs"],
            || {
                let next = Arc::new(AtomicUsize::new(0));
                thread::scope(|s| {
                    for _ in 0..2 {
                        let next = Arc::clone(&next);
                        s.spawn(move || {
                            // BUG: should be next.fetch_add(1, _) — the
                            // read-modify-write is no longer atomic and
                            // carries no happens-before edge.
                            let i = next.unsync_load();
                            next.unsync_store(i + 1);
                        });
                    }
                });
            },
        );
    }

    /// Seeded bug 3: the ordered merge without the wanted-segment
    /// bypass. With the in-flight window full of later segments, the
    /// worker holding the segment the consumer needs can never deposit
    /// it: everyone parks. Caught as a deadlock.
    #[test]
    fn merge_without_wanted_segment_bypass_deadlocks() {
        check_fails(
            Builder::new()
                .name("seeded:merge-no-bypass")
                .spurious_wakeups(0),
            &["deadlock", "parked on condvar", "model_self.rs"],
            || {
                const SEGMENTS: usize = 3;
                const CAP: usize = 1;
                struct Merge {
                    ready: BTreeMap<usize, usize>,
                    want: usize,
                }
                let next = Arc::new(AtomicUsize::new(0));
                let state = Arc::new((
                    Mutex::new(Merge {
                        ready: BTreeMap::new(),
                        want: 0,
                    }),
                    Condvar::new(),
                ));
                thread::scope(|s| {
                    for _ in 0..2 {
                        let next = Arc::clone(&next);
                        let st = Arc::clone(&state);
                        s.spawn(move || loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= SEGMENTS {
                                return;
                            }
                            let mut g =
                                st.1.wait_while(st.0.lock().unwrap(), |g: &mut Merge| {
                                    // BUG: the real protocol also lets
                                    // `i == g.want` through the cap.
                                    g.ready.len() >= CAP
                                })
                                .unwrap();
                            g.ready.insert(i, i * 10);
                            st.1.notify_all();
                        });
                    }
                    for want in 0..SEGMENTS {
                        let mut g = state.0.lock().unwrap();
                        g.want = want;
                        state.1.notify_all();
                        let mut g = state
                            .1
                            .wait_while(g, |g: &mut Merge| !g.ready.contains_key(&want))
                            .unwrap();
                        assert_eq!(g.ready.remove(&want), Some(want * 10));
                        state.1.notify_all();
                    }
                });
            },
        );
    }

    /// Seeded bug 4: a shared records-seen counter bumped by two
    /// consumers without a lock. Caught as a data race on the cell,
    /// naming both write sites.
    #[test]
    fn unlocked_shared_counter_races() {
        check_fails(
            Builder::new().name("seeded:counter-race"),
            &["data race", "model_self.rs"],
            || {
                let seen = Arc::new(ModelCell::new(0usize));
                thread::scope(|s| {
                    for _ in 0..2 {
                        let seen = Arc::clone(&seen);
                        s.spawn(move || {
                            // BUG: read-modify-write with no ordering.
                            let v = seen.get();
                            seen.set(v + 1);
                        });
                    }
                });
            },
        );
    }
}
