//! The detsan point scopes stay balanced now that the calling thread runs
//! items itself and nested calls may run inline: a 3-level armed nest with
//! uneven sizes drains the same stream at any worker count, and a panicking
//! armed call leaves the caller's scope stack empty.
//!
//! Its own test binary, so arming the process-wide recorder cannot leak
//! into the unit tests; it needs only `recsim-pool` and `recsim-detsan`, so bare `rustc` builds it.

use recsim_detsan::{drain, record, set_enabled, StageEntry};
use recsim_pool::par_map_with;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Drivers in the outer sweep, as `run --all` fans out its registry.
const DRIVERS: u64 = 5;

/// Grid points of driver `d`: uneven, 1 to 7.
fn grid(d: u64) -> u64 {
    [3, 1, 7, 2, 5][d as usize]
}

/// Batch shards per step at grid point `p` of driver `d`: uneven, 1 to 4.
fn shards(d: u64, p: u64) -> u64 {
    (d * 3 + p) % 4 + 1
}

/// A 3-level nest shaped like `run --all` → driver grid → batch shards,
/// where every level records a stage; returns the drained stream.
fn nested_stream(threads: usize) -> Vec<StageEntry> {
    let _ = drain();
    let drivers: Vec<u64> = (0..DRIVERS).collect();
    let sums = par_map_with(&drivers, threads, |&d| {
        record("driver/start", d);
        let points: Vec<u64> = (0..grid(d)).collect();
        let cells = par_map_with(&points, threads, |&p| {
            record("grid/point", d * 100 + p);
            let shard_ids: Vec<u64> = (0..shards(d, p)).collect();
            let parts = par_map_with(&shard_ids, threads, |&s| {
                record("shard/step", d * 10_000 + p * 100 + s);
                d * 10_000 + p * 100 + s
            });
            parts.iter().sum::<u64>()
        });
        cells.iter().sum::<u64>()
    });
    record("run/all", sums.iter().sum());
    drain()
}

/// The stream length [`nested_stream`] must drain: every item records one
/// stage and is closed by one `sweep/point` marker, plus the final record.
fn closed_form_len() -> usize {
    let per_driver = |d: u64| 2 + (0..grid(d)).map(|p| 2 + 2 * shards(d, p)).sum::<u64>();
    (1 + (0..DRIVERS).map(per_driver).sum::<u64>()) as usize
}

// Both checks arm the process-wide recorder, so they share one test.
#[test]
fn scopes_balance_with_caller_running_items() {
    set_enabled(true);

    let serial = nested_stream(1);
    assert_eq!(serial.len(), closed_form_len());
    for threads in [2, 3, 8] {
        assert_eq!(nested_stream(threads), serial, "threads={threads}");
    }

    let items: Vec<u64> = (0..40).collect();
    let panicked = catch_unwind(AssertUnwindSafe(|| {
        par_map_with(&items, 4, |&i| {
            record("doomed/item", i);
            assert!(i % 7 != 3, "boom at {i}");
            i
        })
    }));
    assert!(panicked.is_err(), "the armed call must re-raise the panic");
    let _ = drain();
    record("after/panic", 99);
    let stream = drain();
    set_enabled(false);

    assert_eq!(
        stream,
        vec![StageEntry {
            stage: "after/panic".to_string(),
            point: None,
            digest: 99,
        }],
        "a record on the caller after the panic must reach the global stream"
    );
}
