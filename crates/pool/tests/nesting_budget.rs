//! The pool's nesting rule: a `par_map` called inside another call's item
//! spawns helpers only for cores no counted thread is using.
//!
//! Its own test binary with a single test, because the count of busy threads
//! is process-wide: a concurrent test would change what a nested call may
//! borrow.

use recsim_pool::{par_map_with, scoped_workers};
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::thread::{self, ThreadId};
use std::time::{Duration, Instant};

/// Leaf items in flight right now, and the most ever seen at once.
struct InFlight {
    now: AtomicUsize,
    peak: AtomicUsize,
}

impl InFlight {
    fn new() -> Self {
        Self {
            now: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
        }
    }

    /// One leaf item: in flight for about a millisecond.
    fn leaf(&self) {
        let now = self.now.fetch_add(1, Ordering::SeqCst) + 1;
        self.peak.fetch_max(now, Ordering::SeqCst);
        thread::sleep(Duration::from_millis(1));
        self.now.fetch_sub(1, Ordering::SeqCst);
    }

    /// An inner sweep of 8 leaves that asks for 8 workers.
    fn inner(&self) {
        let points: Vec<u32> = (0..8).collect();
        par_map_with(&points, 8, |_| self.leaf());
    }
}

/// Spins until `done` holds or two seconds pass, so a broken pool fails
/// the assertion that follows instead of hanging.
fn wait_until(done: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(2);
    while !done() && Instant::now() < deadline {
        thread::yield_now();
    }
}

/// Runs `n` items that each wait (up to a deadline) until all `n` have
/// started, and returns the distinct threads that ran them. Only a call
/// that got `n` threads sees every item start before the deadline.
fn distinct_threads(n: usize) -> usize {
    let started = AtomicUsize::new(0);
    let items: Vec<usize> = (0..n).collect();
    let ran_on: Vec<ThreadId> = par_map_with(&items, n, |_| {
        started.fetch_add(1, Ordering::SeqCst);
        wait_until(|| started.load(Ordering::SeqCst) == n);
        thread::current().id()
    });
    ran_on.into_iter().collect::<HashSet<_>>().len()
}

#[test]
fn nested_calls_borrow_only_idle_cores() {
    let cores = thread::available_parallelism().map_or(1, usize::from);

    // (a) A full-width outer sweep leaves no idle core, so its inner sweeps
    // run inline until outer workers finish and return theirs.
    let flight = InFlight::new();
    let outer: Vec<usize> = (0..3 * cores).collect();
    par_map_with(&outer, cores, |_| flight.inner());
    let peak = flight.peak.load(Ordering::SeqCst);
    assert!(
        peak <= cores,
        "{peak} leaf items in flight at once on {cores} cores"
    );

    // (b) A panic inside a nested call returns its slots: a later nested
    // call on an otherwise idle pool still gets a thread per core.
    let first: [usize; 1] = [0];
    par_map_with(&first, 1, |_| {
        let items: Vec<usize> = (0..4 * cores).collect();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            par_map_with(&items, 8, |&i| {
                thread::sleep(Duration::from_millis(1));
                assert!(i != 1, "deliberate test panic at {i}");
            })
        }));
        assert!(caught.is_err(), "the nested panic must reach its caller");
    });
    let after = par_map_with(&first, 1, |_| distinct_threads(cores));
    assert_eq!(after, vec![cores], "a nested call after a panic");

    // (c) `scoped_workers` threads count as busy too.
    let flight = InFlight::new();
    scoped_workers(cores, |_| {
        for _ in 0..3 {
            flight.inner();
        }
    });
    let peak = flight.peak.load(Ordering::SeqCst);
    assert!(
        peak <= cores,
        "{peak} leaf items in flight at once under {cores} scoped workers"
    );

    // (d) A nested call that starts with no idle core picks up the cores
    // its siblings free: the other outer items hold their cores until the
    // inner sweep has started inline, and then finish, and a later inner
    // item boundary spawns a helper.
    let inner_started = AtomicBool::new(false);
    let inner_threads = Mutex::new(HashSet::new());
    let outer: Vec<usize> = (0..cores).collect();
    par_map_with(&outer, cores, |&o| {
        if o > 0 {
            wait_until(|| inner_started.load(Ordering::SeqCst));
            return;
        }
        let points: Vec<usize> = (0..200).collect();
        par_map_with(&points, 2, |_| {
            inner_started.store(true, Ordering::SeqCst);
            thread::sleep(Duration::from_millis(1));
            let mut seen = inner_threads.lock().unwrap_or_else(PoisonError::into_inner);
            seen.insert(thread::current().id());
        });
    });
    let seen = inner_threads
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    assert_eq!(seen.len(), cores.min(2), "threads that ran the inner sweep");
}
