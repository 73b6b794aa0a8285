//! `recsim-bench [--quick]`: records every registry driver (see the crate
//! docs), prints the tables, writes `BENCH.json` at the workspace root and
//! exits non-zero on any failed claim, artifact mismatch or speed gate.
//! `RECSIM_THREADS` sets the pool width of the N-thread passes.

use recsim_core::Effort;
use recsim_metrics::json;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut effort = Effort::Full;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => effort = Effort::Quick,
            other => {
                eprintln!("unknown argument `{other}`; usage: recsim-bench [--quick]");
                return ExitCode::FAILURE;
            }
        }
    }
    let root = recsim_verify::lint::workspace_root().unwrap_or_else(|| ".".into());
    let path = root.join(recsim_bench::BENCH_FILE);
    let prior = std::fs::read_to_string(&path)
        .ok()
        .and_then(|text| json::parse(&text).ok());

    let recording = recsim_bench::record(
        effort,
        &recsim_core::experiments::registry(),
        recsim_bench::PROFILED,
    );
    print!("{}", recording.render());
    let doc = recording.to_json(prior.as_ref()).to_pretty() + "\n";
    if let Err(e) = std::fs::write(&path, doc) {
        eprintln!("could not write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("(written to {})", path.display());
    for failure in &recording.failures {
        eprintln!(">>> {failure}");
    }
    if recording.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
