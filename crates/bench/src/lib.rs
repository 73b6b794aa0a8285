//! The one performance recorder, [`record`], and the [`bench()`] timer
//! behind the `benches/` targets. Writing result artifacts is `recsim run`'s
//! job; this crate only measures.
//!
//! # `BENCH.json`
//!
//! `cargo run --release -p recsim-bench -- [--quick]` records every registry
//! driver and writes `BENCH.json` at the workspace root:
//!
//! ```text
//! {
//!   "schema": "recsim-bench-v1",
//!   "effort": "quick" | "full",
//!   "threads": 4,                  // pool width of every N-thread pass
//!   "cores": 2,                    // detected cores
//!   "drivers": [                   // registry order, each driver run alone
//!     { "id": "table1", "t1_secs": 0.001, "tn_secs": 0.001 },
//!     ...
//!   ],
//!   "serial_total_secs": 14.2,     // sum of tn_secs: one driver at a time
//!   "parallel_total_secs": 4.1,    // one wall for the run_all fan-out
//!   "speedup": 3.46,               // serial_total / parallel_total
//!   "kernels": {                   // one profiled `automl` pass
//!     "driver": "automl",
//!     "profiled_wall_secs": 5.2,
//!     "loop_total_secs": 4.8,
//!     "leaf_total_secs": 4.1,
//!     "ops": [ { "op": "linear/fwd", "count": 26508, "total_secs": 0.27,
//!                "p50_us": 10.0, "p99_us": 37.2, "gflop": 3.13,
//!                "gbyte": 0.62, "speedup_vs": 1.66 }, ... ],
//!     "speedup_vs": 1.02           // prior profiled wall over this one
//!   },
//!   "outputs_identical": true      // t1, tN, run_all and profiled agree
//! }
//! ```
//!
//! `speedup_vs` compares against the `BENCH.json` the run replaces (null
//! when there is none), so a kernel regression shows in the diff of the
//! re-recorded file. The binary exits non-zero on any entry of
//! [`Recording::failures`]: a failed claim, an artifact that differs between
//! passes, or — when `min(threads, cores) > 1`, so the pool really
//! dispatches workers — a [`FANOUT_GATED`] driver slower at N threads than
//! at 1, or a fan-out wall above the serial total.

#![forbid(unsafe_code)]

use recsim_core::experiments::Driver;
use recsim_core::{Effort, ExperimentOutput};
use recsim_metrics::json::Value;
use recsim_metrics::Table;
use recsim_prof::OpProfile;
use std::fmt::Display;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The recorder's output file, at the workspace root.
pub const BENCH_FILE: &str = "BENCH.json";

/// The driver whose per-op kernel profile the recording carries.
pub const PROFILED: &str = "automl";

/// Drivers that must not run slower at the pool width than at one thread
/// where the host has the cores: the batch-shard training drivers and the
/// serving grids.
pub const FANOUT_GATED: [&str; 3] = ["automl", "fig15", "serve"];

/// One driver run alone at one thread and at the pool width.
#[derive(Debug, Clone, PartialEq)]
pub struct DriverTiming {
    /// Registry id.
    pub id: &'static str,
    /// Wall seconds with the pool pinned to one thread.
    pub t1_secs: f64,
    /// Wall seconds at the pool width.
    pub tn_secs: f64,
}

/// The profiled pass of [`PROFILED`].
#[derive(Debug, Clone, PartialEq)]
pub struct Kernels {
    /// Registry id of the profiled driver.
    pub driver: &'static str,
    /// Wall seconds of the profiled pass.
    pub profiled_wall_secs: f64,
    /// Summed phase (loop) scope time, seconds.
    pub loop_total_secs: f64,
    /// Summed leaf-op scope time, seconds.
    pub leaf_total_secs: f64,
    /// Every op that recorded a scope.
    pub ops: Vec<OpProfile>,
}

/// Everything one recording measured, plus the gates it failed.
#[derive(Debug, Clone, PartialEq)]
pub struct Recording {
    /// Effort every pass ran at.
    pub effort: Effort,
    /// Pool width of the N-thread passes.
    pub threads: usize,
    /// Detected cores.
    pub cores: usize,
    /// Per-driver timings, in the order recorded.
    pub drivers: Vec<DriverTiming>,
    /// Wall seconds of all drivers fanned across the pool at once.
    pub parallel_total_secs: f64,
    /// The profiled pass, if its driver was among those recorded.
    pub kernels: Option<Kernels>,
    /// Whether every pass produced byte-identical artifacts.
    pub outputs_identical: bool,
    /// One line per failed claim, artifact mismatch or speed gate.
    pub failures: Vec<String>,
}

/// Runs `drivers` four ways at `effort` — each alone at one thread, each
/// alone at the pool width, all at once through the `run_all` fan-out, and
/// `profiled` once more with the kernel profiler armed — byte-compares the
/// artifacts of every pass and applies the gates described in the crate
/// docs.
pub fn record(effort: Effort, drivers: &[(&'static str, Driver)], profiled: &str) -> Recording {
    let threads = recsim_pool::thread_count();
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let json = |out: &ExperimentOutput| out.to_json().to_compact();
    let timed = |driver: Driver| {
        let t = Instant::now();
        let out = driver(effort);
        (
            t.elapsed().as_secs_f64(),
            json(&out),
            out.failed_claims().len(),
        )
    };
    let mut failures = Vec::new();
    let mut outputs_identical = true;
    let mut differs = |id: &str, pass: &str| {
        outputs_identical = false;
        format!("`{id}`: {pass} artifact differs from the 1-thread run")
    };

    recsim_pool::set_thread_override(Some(1));
    let serial: Vec<(f64, String, usize)> = drivers.iter().map(|&(_, d)| timed(d)).collect();
    recsim_pool::set_thread_override(None);
    let pooled: Vec<(f64, String, usize)> = drivers.iter().map(|&(_, d)| timed(d)).collect();

    let start = Instant::now();
    let fanned = recsim_core::sweep(drivers, |&(_, driver)| json(&driver(effort)));
    let parallel_total_secs = start.elapsed().as_secs_f64();

    let mut timings = Vec::new();
    for (i, &(id, _)) in drivers.iter().enumerate() {
        let (t1_secs, reference, failed) = &serial[i];
        if *failed > 0 {
            failures.push(format!("`{id}`: {failed} claim(s) failed"));
        }
        for (pass, out) in [("N-thread", &pooled[i].1), ("run_all", &fanned[i])] {
            if out != reference {
                failures.push(differs(id, pass));
            }
        }
        timings.push(DriverTiming {
            id,
            t1_secs: *t1_secs,
            tn_secs: pooled[i].0,
        });
    }

    let kernels = match drivers.iter().position(|&(id, _)| id == profiled) {
        Some(i) => {
            recsim_prof::reset();
            recsim_prof::set_enabled(true);
            let (wall, out, _) = timed(drivers[i].1);
            let snapshot = recsim_prof::drain();
            recsim_prof::set_enabled(false);
            if out != serial[i].1 {
                failures.push(differs(profiled, "profiled"));
            }
            Some(Kernels {
                driver: drivers[i].0,
                profiled_wall_secs: wall,
                loop_total_secs: snapshot.phase_total_ns() as f64 * 1e-9,
                leaf_total_secs: snapshot.leaf_total_ns() as f64 * 1e-9,
                ops: snapshot.active_ops().cloned().collect(),
            })
        }
        None => {
            failures.push(format!("`{profiled}` is not among the recorded drivers"));
            None
        }
    };

    let mut recording = Recording {
        effort,
        threads,
        cores,
        drivers: timings,
        parallel_total_secs,
        kernels,
        outputs_identical,
        failures,
    };
    if threads.min(cores) > 1 {
        for t in recording
            .drivers
            .iter()
            .filter(|t| FANOUT_GATED.contains(&t.id))
        {
            if t.tn_secs > t.t1_secs {
                recording.failures.push(format!(
                    "`{}`: {threads}-thread run {:.2}s is slower than 1-thread {:.2}s",
                    t.id, t.tn_secs, t.t1_secs
                ));
            }
        }
        let serial_total = recording.serial_total_secs();
        if parallel_total_secs > serial_total {
            recording.failures.push(format!(
                "run_all fan-out {parallel_total_secs:.2}s is slower than the serial total \
                 {serial_total:.2}s"
            ));
        }
    }
    recording
}

impl Recording {
    /// Sum of the per-driver N-thread walls: the registry run one driver at
    /// a time.
    pub fn serial_total_secs(&self) -> f64 {
        // detsan: reduction-order — wall times summed in recorded order; the
        // total is a measurement, never a result artifact.
        self.drivers.iter().map(|t| t.tn_secs).sum()
    }

    /// Serial total over the fan-out wall (1.0 when the wall is zero).
    pub fn speedup(&self) -> f64 {
        ratio(Some(self.serial_total_secs()), self.parallel_total_secs).unwrap_or(1.0)
    }

    /// The `recsim-bench-v1` document. `prior` is the document this one
    /// replaces; each `speedup_vs` is its time over this one's.
    pub fn to_json(&self, prior: Option<&Value>) -> Value {
        let drivers = self.drivers.iter().map(|t| {
            Value::object([
                ("id", Value::from(t.id)),
                ("t1_secs", secs(t.t1_secs)),
                ("tn_secs", secs(t.tn_secs)),
            ])
        });
        let prior_kernels = prior.and_then(|p| p.get("kernels"));
        let kernels = self.kernels.as_ref().map_or(Value::Null, |k| {
            let prior_op = |op: &str| {
                prior_kernels?
                    .get("ops")?
                    .as_array()?
                    .iter()
                    .find(|o| o.get("op").and_then(Value::as_str) == Some(op))?
                    .get("total_secs")?
                    .as_f64()
            };
            let ops = k.ops.iter().map(|p| {
                let total_secs = p.total_ns as f64 * 1e-9;
                Value::object([
                    ("op", Value::from(p.op.id())),
                    ("count", p.count.into()),
                    ("total_secs", secs(total_secs)),
                    ("p50_us", rounded(p.p50_ns as f64 * 1e-3, 1e1).into()),
                    ("p99_us", rounded(p.p99_ns as f64 * 1e-3, 1e1).into()),
                    ("gflop", rounded(p.flops as f64 * 1e-9, 1e3).into()),
                    ("gbyte", rounded(p.bytes as f64 * 1e-9, 1e3).into()),
                    ("speedup_vs", ratio(prior_op(p.op.id()), total_secs).into()),
                ])
            });
            let prior_wall = prior_kernels
                .and_then(|k| k.get("profiled_wall_secs"))
                .and_then(Value::as_f64);
            Value::object([
                ("driver", Value::from(k.driver)),
                ("profiled_wall_secs", secs(k.profiled_wall_secs)),
                ("loop_total_secs", secs(k.loop_total_secs)),
                ("leaf_total_secs", secs(k.leaf_total_secs)),
                ("ops", Value::Array(ops.collect())),
                ("speedup_vs", ratio(prior_wall, k.profiled_wall_secs).into()),
            ])
        });
        Value::object([
            (
                "schema",
                Value::from(recsim_verify::lint::artifacts::BENCH_SCHEMA),
            ),
            ("effort", self.effort.pick("quick", "full").into()),
            ("threads", self.threads.into()),
            ("cores", self.cores.into()),
            ("drivers", Value::Array(drivers.collect())),
            ("serial_total_secs", secs(self.serial_total_secs())),
            ("parallel_total_secs", secs(self.parallel_total_secs)),
            ("speedup", rounded(self.speedup(), 1e3).into()),
            ("kernels", kernels),
            ("outputs_identical", self.outputs_identical.into()),
        ])
    }

    /// The per-driver table (slowest at N threads first) and the fan-out
    /// summary, for the console: a failed gate must be diagnosable from the
    /// log alone.
    pub fn render(&self) -> String {
        let n = self.threads;
        let mut drivers = self.drivers.clone();
        drivers.sort_by(|a, b| b.tn_secs.total_cmp(&a.tn_secs).then(a.id.cmp(b.id)));
        let mut table = Table::new(vec![
            "driver".to_string(),
            "1-thread s".to_string(),
            format!("{n}-thread s"),
            "speedup".to_string(),
        ]);
        for t in &drivers {
            table.push_row(vec![
                t.id.to_string(),
                format!("{:.3}", t.t1_secs),
                format!("{:.3}", t.tn_secs),
                format!("{:.2}x", ratio(Some(t.t1_secs), t.tn_secs).unwrap_or(1.0)),
            ]);
        }
        let mut out = format!(
            "{} effort, {n} thread(s), {} core(s)\n{table}\n\
             serial total {:.2}s, run_all fan-out {:.2}s ({:.2}x), outputs identical: {}\n",
            self.effort.pick("quick", "full"),
            self.cores,
            self.serial_total_secs(),
            self.parallel_total_secs,
            self.speedup(),
            self.outputs_identical,
        );
        if let Some(k) = &self.kernels {
            out.push_str(&format!(
                "profiled `{}`: {:.2}s over {} op(s)\n",
                k.driver,
                k.profiled_wall_secs,
                k.ops.len()
            ));
        }
        out
    }
}

/// `prior / now`, when there is a prior and `now` is positive.
fn ratio(prior: Option<f64>, now: f64) -> Option<f64> {
    prior.filter(|_| now > 0.0).map(|p| rounded(p / now, 1e3))
}

/// `x` rounded to `1 / scale`.
fn rounded(x: f64, scale: f64) -> f64 {
    (x * scale).round() / scale
}

/// A duration in seconds, to the microsecond.
fn secs(s: f64) -> Value {
    rounded(s, 1e6).into()
}

/// The timer behind the `benches/` targets: times `f` as bench
/// `<group>/<id>`. `cargo bench -p recsim-bench --bench <name> [-- <filter>]`
/// runs every bench whose name contains the filter: a warm-up of at least
/// 200 ms, then `samples` samples of about 20 ms each, reporting the median
/// and minimum time per iteration. Without cargo's `--bench` flag (as under
/// `cargo test --benches`) each bench runs once as a smoke test.
pub fn bench<R>(group: &str, id: impl Display, samples: usize, mut f: impl FnMut() -> R) {
    let name = format!("{group}/{id}");
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args
        .iter()
        .any(|a| !a.starts_with('-') && !name.contains(a.as_str()))
    {
        return;
    }
    if !args.iter().any(|a| a == "--bench") {
        black_box(f());
        println!("{name}: ok");
        return;
    }
    let warm = Instant::now();
    let mut runs = 0u32;
    while runs == 0 || warm.elapsed() < Duration::from_millis(200) {
        black_box(f());
        runs += 1;
    }
    let iters = (0.02 * f64::from(runs) / warm.elapsed().as_secs_f64()).ceil() as u32;
    let mut per_iter: Vec<f64> = (0..samples.max(1))
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters.max(1) {
                black_box(f());
            }
            t.elapsed().as_secs_f64() / f64::from(iters.max(1))
        })
        .collect();
    per_iter.sort_by(f64::total_cmp);
    println!(
        "{name:<44} median {:>11}  min {:>11}  ({} samples x {})",
        seconds(per_iter[per_iter.len() / 2]),
        seconds(per_iter[0]),
        per_iter.len(),
        iters.max(1)
    );
}

/// A duration in seconds with a readable unit.
fn seconds(s: f64) -> String {
    match s {
        s if s >= 1.0 => format!("{s:.3} s"),
        s if s >= 1e-3 => format!("{:.3} ms", s * 1e3),
        s if s >= 1e-6 => format!("{:.3} us", s * 1e6),
        s => format!("{:.1} ns", s * 1e9),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recsim_verify::lint::artifacts::check_bench_artifacts;

    #[test]
    fn recorded_document_passes_rv014() {
        let drivers: Vec<(&'static str, Driver)> = recsim_core::experiments::registry()
            .into_iter()
            .filter(|(id, _)| matches!(*id, "table1" | "table2"))
            .collect();
        let recording = record(Effort::Quick, &drivers, "table2");
        assert!(recording.outputs_identical, "{:?}", recording.failures);
        assert_eq!(recording.drivers.len(), 2);
        let doc = recording.to_json(None).to_pretty();
        let producer = [(
            "crates/bench/src/lib.rs".to_string(),
            include_str!("lib.rs").to_string(),
        )];
        let diags = check_bench_artifacts(&[(BENCH_FILE.to_string(), doc)], &producer);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn speedup_vs_compares_against_the_prior_document() {
        let recording = Recording {
            effort: Effort::Quick,
            threads: 2,
            cores: 2,
            drivers: Vec::new(),
            parallel_total_secs: 0.0,
            kernels: Some(Kernels {
                driver: PROFILED,
                profiled_wall_secs: 2.0,
                loop_total_secs: 1.0,
                leaf_total_secs: 1.0,
                ops: Vec::new(),
            }),
            outputs_identical: true,
            failures: Vec::new(),
        };
        let first = recording.to_json(None);
        let kernels = first.get("kernels").expect("kernels section");
        assert_eq!(kernels.get("speedup_vs"), Some(&Value::Null));
        let mut faster = recording.clone();
        if let Some(k) = faster.kernels.as_mut() {
            k.profiled_wall_secs = 1.0;
        }
        let second = faster.to_json(Some(&first));
        let speedup = second
            .get("kernels")
            .and_then(|k| k.get("speedup_vs"))
            .and_then(Value::as_f64);
        assert_eq!(speedup, Some(2.0));
        assert_eq!(second.get("speedup").and_then(Value::as_f64), Some(1.0));
    }
}
