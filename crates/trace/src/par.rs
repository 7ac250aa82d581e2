//! The one deterministic parallel map every engine schedules through:
//! the world sweep (E16), the fleet round (E20/E26) and the packed
//! state-space sweep and BFS (E19).
//!
//! [`par_ordered`] runs `f(state, i)` for every `i in 0..n` and returns
//! the results in index order, so its output is a pure function of `n`
//! and `f` whenever `f` is a pure function of `i`: any thread count
//! yields the same `Vec`. Workers claim indices from one shared
//! `AtomicUsize` counter, so a slow job never idles the others.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Map `f` over `0..n` on up to `threads` workers and return the results
/// in index order.
///
/// Each worker builds its own state with `init(worker)` inside its own
/// thread, so the state need not be `Send` (a memo table, a recycled
/// heap, a lock guard). `init` runs at most `min(threads, n)` times.
///
/// * **Serial** (`threads <= 1` or `n <= 1`): one `init(0)` and a plain
///   loop on the calling thread. Nothing is spawned and nothing is
///   allocated beyond the result `Vec`, so a `Vec<()>` result allocates
///   nothing at all.
/// * **Parallel**: `min(threads, n)` scoped workers pull indices from
///   one atomic counter; each keeps its `(index, result)` pairs and the
///   caller places them by index once every worker has joined.
///
/// A panic in `init` or `f` propagates to the caller with its payload.
pub fn par_ordered<S, R, I, F>(n: usize, threads: usize, init: I, f: F) -> Vec<R>
where
    R: Send,
    I: Fn(usize) -> S + Sync,
    F: Fn(&mut S, usize) -> R + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    if threads <= 1 || n == 1 {
        let mut state = init(0);
        return (0..n).map(|i| f(&mut state, i)).collect();
    }
    let next = AtomicUsize::new(0);
    let parts: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.min(n))
            .map(|worker| {
                let (init, f, next) = (&init, &f, &next);
                scope.spawn(move || {
                    let mut state = init(worker);
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            return done;
                        }
                        done.push((i, f(&mut state, i)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
            .collect()
    });
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for (i, r) in parts.into_iter().flatten() {
        slots[i] = Some(r);
    }
    slots.into_iter().map(|r| r.expect("every index produces exactly one result")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        for n in [0, 1, 3, 64] {
            for threads in [1, 2, 4, 8] {
                let out = par_ordered(n, threads, |_| (), |_, i| (i, i * 3));
                let want: Vec<(usize, usize)> = (0..n).map(|i| (i, i * 3)).collect();
                assert_eq!(out, want, "n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn init_runs_at_most_once_per_worker() {
        for n in [0, 1, 3, 64] {
            for threads in [1, 2, 4, 8] {
                let inits = AtomicUsize::new(0);
                let out = par_ordered(
                    n,
                    threads,
                    |worker| {
                        inits.fetch_add(1, Ordering::Relaxed);
                        worker
                    },
                    |worker, i| {
                        assert!(*worker < threads.max(1));
                        i
                    },
                );
                assert_eq!(out, (0..n).collect::<Vec<_>>());
                let ran = inits.load(Ordering::Relaxed);
                assert!(ran <= threads.min(n), "n={n} threads={threads}: init ran {ran} times");
            }
        }
    }

    #[test]
    #[should_panic(expected = "job 17 failed")]
    fn a_panicking_job_propagates() {
        par_ordered(64, 4, |_| (), |_, i| assert!(i != 17, "job {i} failed"));
    }
}
