//! Scoped thread pool for deterministic sweep parallelism.
//!
//! Every parallel code path in the workspace routes through this crate
//! (lint RV012 bans raw `std::thread` use elsewhere), which pins down the
//! two properties the experiment harness depends on:
//!
//! * **Determinism.** [`par_map`] returns results in submission order, so a
//!   sweep folded from its output is byte-identical to the serial fold no
//!   matter how many workers ran or which worker took which item.
//! * **No detached threads.** All helpers are scoped (`std::thread::scope`),
//!   so a panic inside a task is surfaced to the caller instead of leaving
//!   the process wedged with a half-finished sweep.
//!
//! Thread count resolution order: explicit [`set_thread_override`] (used by
//! `recsim run --threads N`), then the `RECSIM_THREADS` environment
//! variable, then the core count. The override and the variable are read on
//! every call; the core count ([`std::thread::available_parallelism`]) is
//! read once per process, so a later change to CPU affinity or cgroup quota
//! is not seen.
//!
//! The scheduler is intentionally simple: the calling thread is worker 0
//! and spawns scoped helpers, and one shared atomic cursor hands out item
//! indices one at a time to whichever worker asks next. Each worker returns
//! its `(index, result)` pairs, and the caller sorts them once.
//!
//! Nesting has one rule. Every thread running items is marked and counted
//! process-wide. A top-level call keeps its full width (see [`par_map`] and
//! [`par_map_with`]); a call made on a marked thread spawns only as many
//! helpers as there are cores the count leaves idle, and runs inline when
//! there are none. It asks again before each item it runs itself, and a
//! thread's place in the count is returned as soon as its loop ends, so
//! the long tail of an uneven sweep borrows the cores that finished early,
//! and nested calls never add threads past the core count.
//! [`scoped_workers`] threads are counted the same way.

#![forbid(unsafe_code)]

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Process-wide thread-count override; 0 means "unset".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Environment variable consulted by [`thread_count`] when no override is set.
pub const THREADS_ENV_VAR: &str = "RECSIM_THREADS";

/// Set (or clear, with `None`) the process-wide worker-count override.
///
/// Takes precedence over `RECSIM_THREADS` and the detected core count.
/// `Some(0)` is treated as `None`.
pub fn set_thread_override(threads: Option<usize>) {
    THREAD_OVERRIDE.store(threads.unwrap_or(0), Ordering::SeqCst);
}

/// The detected core count, read once per process (`None` if undetectable).
/// Each std query re-reads the cgroup quota files, which costs more than a
/// short `par_map` call's dispatch.
fn cores() -> Option<usize> {
    static CORES: OnceLock<Option<usize>> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().ok().map(usize::from))
}

/// Number of workers [`par_map`] will use: override, then `RECSIM_THREADS`,
/// then the number of available cores (at least 1).
pub fn thread_count() -> usize {
    let forced = THREAD_OVERRIDE.load(Ordering::SeqCst);
    if forced > 0 {
        return forced;
    }
    if let Ok(raw) = std::env::var(THREADS_ENV_VAR) {
        if let Ok(n) = raw.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    cores().unwrap_or(1)
}

/// Map `f` over `items` on up to [`thread_count`] workers (capped at the
/// detected core count), preserving input order.
///
/// The calling thread runs items too, as worker 0, alongside `workers - 1`
/// scoped helpers; all of them take indices from one shared cursor. Called
/// from inside another call's item, it spawns helpers only for idle cores
/// (see the crate docs). The output is element-for-element identical to
/// `items.iter().map(f).collect()`; with one worker (or one item) that exact
/// serial path is taken. A panic in `f` is re-raised on the calling thread
/// after all workers have drained.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    // CPU-bound workers gain nothing past the physical core count —
    // oversubscription only adds scheduling overhead — so a requested count
    // above the detected parallelism is capped. Outputs are worker-count
    // invariant by construction, so the cap never changes a result.
    par_map_with(items, thread_count().min(cores().unwrap_or(usize::MAX)), f)
}

/// [`par_map`] with an explicit worker count, bypassing the global override.
/// A nested call still borrows only idle cores.
///
/// Exposed so determinism tests can compare thread counts side by side
/// without racing on process-global state.
pub fn par_map_with<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if recsim_detsan::enabled() {
        return par_map_traced(items, threads, &f);
    }
    par_map_plain(items, threads, f)
}

/// Sanitizer path for [`par_map_with`]: each item runs inside a detsan
/// point scope that captures the stage digests its closure records; the
/// captured streams are then re-emitted *serially in submission order*, so
/// the recorded digest stream is identical at any worker count and a
/// divergence in the digested state itself pins the first bad sweep point.
fn par_map_traced<T, R, F>(items: &[T], threads: usize, f: &F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let traced = par_map_plain(items, threads, |item| {
        recsim_detsan::with_point_scope(|| f(item))
    });
    let mut out = Vec::with_capacity(traced.len());
    for (idx, (result, entries)) in traced.into_iter().enumerate() {
        recsim_detsan::emit_point(idx as u64, entries);
        out.push(result);
    }
    out
}

fn par_map_plain<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = threads.clamp(1, items.len().max(1));
    let caller = Mark::enter();
    if workers == 1 {
        return items.iter().map(f).collect();
    }
    // A top-level call counts its caller and keeps its full width. A nested
    // call's caller is counted already; before each item it runs, it claims
    // idle cores for the helpers it still lacks, so a call that started
    // inline picks up the cores that other work frees while it runs.
    let top_level = caller.is_some();
    let cursor = AtomicUsize::new(0);
    let next = || {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        items.get(i).map(|item| (i, item))
    };
    // A helper's loop: take the next index until the cursor runs off the
    // end, keeping each result with its index.
    let work = || {
        let mut done = Vec::new();
        while let Some((i, item)) = next() {
            done.push((i, f(item)));
        }
        done
    };
    let mut pairs = std::thread::scope(|scope| {
        let mut spawned = Vec::new();
        let mut pairs = Vec::new();
        loop {
            // Helpers only for items beyond the one the caller takes next.
            let left = items
                .len()
                .saturating_sub(cursor.load(Ordering::Relaxed) + 1);
            let want = (workers - 1 - spawned.len()).min(left);
            if want > 0 {
                let slots = if top_level {
                    (0..want).map(|_| Slot::add()).collect()
                } else {
                    claim_idle(want)
                };
                spawned.extend(slots.into_iter().map(|slot| {
                    scope.spawn(move || {
                        let _mark = Mark::new(slot);
                        work()
                    })
                }));
            }
            let Some((i, item)) = next() else { break };
            pairs.push((i, f(item)));
        }
        // A top-level caller returns its slot before it waits, so nested
        // calls still running on the helpers can borrow its core.
        drop(caller);
        for helper in spawned {
            match helper.join() {
                Ok(done) => pairs.extend(done),
                // Surface the original payload on the caller; the scope
                // joins the remaining helpers before it unwinds.
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        pairs
    });
    pairs.sort_unstable_by_key(|&(i, _)| i);
    pairs.into_iter().map(|(_, result)| result).collect()
}

/// Run `n` long-lived workers `f(0) .. f(n-1)` to completion.
///
/// For actor-style parallelism (e.g. asynchronous EASGD trainers) where each
/// worker owns an index rather than pulling from a shared queue. Worker 0
/// runs on the calling thread; the rest are scoped threads, so a worker
/// panic propagates to the caller once all workers have finished. Workers
/// may wait on each other, so all `n` always run at once, but each counts
/// as busy like a `par_map` worker: a `par_map` inside one borrows only
/// idle cores.
pub fn scoped_workers<F>(n: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    let caller = Mark::enter();
    let slots: Vec<Slot> = (1..n.max(1)).map(|_| Slot::add()).collect();
    let f = &f;
    std::thread::scope(|scope| {
        for (worker, slot) in (1..).zip(slots) {
            scope.spawn(move || {
                let _mark = Mark::new(slot);
                f(worker);
            });
        }
        f(0);
        drop(caller);
    });
}

/// Threads counted as busy running `par_map` items or `scoped_workers`,
/// process-wide. A top-level call adds its full width; a nested call adds
/// only what [`claim_idle`] grants, which never takes the count past the
/// core count.
static LIVE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Whether this thread is counted in [`LIVE`]: a `par_map` called while
    /// it is set is nested.
    static IN_ITEMS: Cell<bool> = const { Cell::new(false) };
}

/// Claims up to `want` of the cores [`LIVE`] does not count, one slot each.
fn claim_idle(want: usize) -> Vec<Slot> {
    let cap = cores().unwrap_or(1);
    let grant = |live: usize| want.min(cap.saturating_sub(live));
    let granted = LIVE
        .fetch_update(Ordering::AcqRel, Ordering::Acquire, |live| {
            match grant(live) {
                0 => None,
                n => Some(live + n),
            }
        })
        .map_or(0, grant);
    (0..granted).map(|_| Slot).collect()
}

/// One place in [`LIVE`]; dropping it returns the place, so a slot moved
/// into a helper that never starts is not lost.
struct Slot;

impl Slot {
    /// Adds a place to [`LIVE`] whatever the count.
    fn add() -> Self {
        LIVE.fetch_add(1, Ordering::AcqRel);
        Slot
    }
}

impl Drop for Slot {
    fn drop(&mut self) {
        LIVE.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Marks the current thread as busy while it holds a [`Slot`]. Dropping it,
/// when the thread's loop ends or unwinds, clears the mark and returns the
/// slot.
struct Mark {
    _slot: Slot,
}

impl Mark {
    fn new(slot: Slot) -> Self {
        IN_ITEMS.set(true);
        Mark { _slot: slot }
    }

    /// Counts and marks the current thread, unless it is marked already.
    fn enter() -> Option<Self> {
        (!IN_ITEMS.get()).then(|| Mark::new(Slot::add()))
    }
}

impl Drop for Mark {
    fn drop(&mut self) {
        IN_ITEMS.set(false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicU64;
    use std::sync::{Barrier, Mutex, MutexGuard, PoisonError};

    /// Tests that touch the process-global override serialize on this lock.
    static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

    fn lock_override() -> MutexGuard<'static, ()> {
        OVERRIDE_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn lcg_items(seed: u64, len: usize) -> Vec<u64> {
        let mut state = seed | 1;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                state >> 33
            })
            .collect()
    }

    fn busy_hash(x: u64) -> u64 {
        (0..50).fold(x, |acc, i| acc.rotate_left(7) ^ acc.wrapping_mul(i + 3))
    }

    #[test]
    fn matches_serial_map_across_thread_counts() {
        for len in [0, 1, 2, 3, 7, 64, 257, 1000] {
            let items = lcg_items(len as u64 + 5, len);
            let serial: Vec<u64> = items.iter().map(|&x| busy_hash(x)).collect();
            for threads in [1, 2, 3, 8, 17] {
                let parallel = par_map_with(&items, threads, |&x| busy_hash(x));
                assert_eq!(parallel, serial, "len={len} threads={threads}");
            }
        }
    }

    #[test]
    fn results_are_in_submission_order() {
        let items: Vec<usize> = (0..1000).collect();
        let out = par_map_with(&items, 8, |&i| i * 2);
        assert_eq!(out, (0..1000).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn no_item_lost_or_duplicated() {
        let items: Vec<usize> = (0..513).collect();
        let counts: Vec<AtomicU64> = (0..items.len()).map(|_| AtomicU64::new(0)).collect();
        let out = par_map_with(&items, 6, |&i| {
            counts[i].fetch_add(1, Ordering::SeqCst);
            i
        });
        assert_eq!(out, items);
        for (i, count) in counts.iter().enumerate() {
            assert_eq!(
                count.load(Ordering::SeqCst),
                1,
                "item {i} ran a wrong number of times"
            );
        }
    }

    #[test]
    fn panic_in_task_is_surfaced_not_hung() {
        let items: Vec<usize> = (0..200).collect();
        let result = catch_unwind(AssertUnwindSafe(|| {
            par_map_with(&items, 4, |&i| {
                assert!(i != 137, "boom at {i}");
                i
            })
        }));
        assert!(
            result.is_err(),
            "panic in a worker must propagate to the caller"
        );
    }

    #[test]
    fn caller_runs_items_alongside_helpers() {
        // Every item blocks until `w` items are in flight at once, so the
        // call completes only if `w` distinct threads each took one item —
        // and the calling thread must be one of them.
        for w in [2, 3, 4] {
            let barrier = Barrier::new(w);
            let items: Vec<usize> = (0..w).collect();
            let ran_on = par_map_with(&items, w, |_| {
                barrier.wait();
                std::thread::current().id()
            });
            let distinct: HashSet<_> = ran_on.iter().collect();
            assert_eq!(distinct.len(), w, "workers={w}");
            assert!(
                ran_on.contains(&std::thread::current().id()),
                "caller ran no item at workers={w}"
            );
        }
    }

    #[test]
    fn scoped_workers_runs_each_index_once() {
        let hits: Vec<AtomicU64> = (0..5).map(|_| AtomicU64::new(0)).collect();
        scoped_workers(5, |w| {
            hits[w].fetch_add(1, Ordering::SeqCst);
        });
        for (w, hit) in hits.iter().enumerate() {
            assert_eq!(hit.load(Ordering::SeqCst), 1, "worker {w}");
        }
    }

    #[test]
    fn scoped_workers_single_runs_inline() {
        let hits = AtomicU64::new(0);
        scoped_workers(0, |w| {
            assert_eq!(w, 0);
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn override_takes_precedence() {
        let _guard = lock_override();
        set_thread_override(Some(3));
        assert_eq!(thread_count(), 3);
        set_thread_override(Some(0));
        assert!(thread_count() >= 1);
        set_thread_override(None);
        assert!(thread_count() >= 1);
    }

    #[test]
    fn env_var_is_consulted_when_no_override() {
        let _guard = lock_override();
        set_thread_override(None);
        std::env::set_var(THREADS_ENV_VAR, "5");
        assert_eq!(thread_count(), 5);
        std::env::set_var(THREADS_ENV_VAR, "not-a-number");
        assert!(thread_count() >= 1);
        std::env::remove_var(THREADS_ENV_VAR);
        set_thread_override(None);
    }

    #[test]
    fn zero_sized_and_unit_types_work() {
        let items: Vec<()> = vec![(); 100];
        let out: Vec<()> = par_map_with(&items, 4, |_| ());
        assert_eq!(out.len(), 100);
    }
}
