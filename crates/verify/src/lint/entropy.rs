//! RV017: no wall-clock or entropy sources in result-producing library code.
//!
//! A simulated-time simulator must never consult host time or OS entropy on
//! a result path: `SystemTime::now` and friends make artifacts differ run to
//! run, which the byte-identical determinism contract forbids. Randomness
//! must come from explicitly seeded generators (the workspace threads a
//! fixed seed through every driver). Only the recsim-bench recorder — whose
//! entire purpose is measuring host wall-clock — is exempt.

use super::source;
use crate::{Code, Diagnostic};

/// The wall-clock and entropy tokens RV017 looks for. Assembled at runtime
/// so this file does not flag itself when the scanner runs over the verify
/// crate. `SystemTime` catches both `now()` and `UNIX_EPOCH` arithmetic;
/// `Instant::now` leaves the `Instant` *type* usable for plumbing
/// externally-measured durations.
fn entropy_tokens() -> [String; 6] {
    [
        format!("System{}", "Time"),
        format!("Instant::{}", "now"),
        format!("thread_{}(", "rng"),
        format!("from_{}(", "entropy"),
        format!("Os{}", "Rng"),
        format!("rand::{}(", "random"),
    ]
}

/// True for files RV017 exempts: recsim-bench exists to time real execution,
/// so its sources (the `BENCH.json` recorder and the bench timer) may read
/// the host clock; and the profiler's single clock module — every recsim-prof
/// timestamp funnels through `crates/prof/src/clock.rs`, keeping the rest
/// of the profiler (and everything it instruments) under the ban.
pub fn is_exempt(path: &str) -> bool {
    path.starts_with("crates/bench/src/") || path == "crates/prof/src/clock.rs"
}

/// RV017 for one library source file.
pub fn check_entropy_sources(path: &str, content: &str) -> Vec<Diagnostic> {
    if is_exempt(path) {
        return Vec::new();
    }
    source::token_sites(content, &entropy_tokens())
        .into_iter()
        .map(|(line, token)| {
            Diagnostic::error(
                Code::EntropyInResultPath,
                format!("{path}:{line}"),
                format!(
                    "`{token}` reads host time or OS entropy; results must \
                     derive only from the simulated clock and explicitly \
                     seeded generators"
                ),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_in_library_is_rv017() {
        let src = "use std::time::Instant;\n\
                   pub fn f() -> u128 {\n    Instant::now().elapsed().as_nanos()\n}\n";
        let diags = check_entropy_sources("crates/sim/src/des.rs", src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code(), Code::EntropyInResultPath);
        assert_eq!(diags[0].location(), "crates/sim/src/des.rs:3");
    }

    #[test]
    fn seeded_rng_passes() {
        let src = "use rand::SeedableRng;\n\
                   pub fn f() -> rand::rngs::StdRng { rand::rngs::StdRng::seed_from_u64(7) }\n";
        assert!(check_entropy_sources("crates/data/src/synthetic.rs", src).is_empty());
    }

    #[test]
    fn bench_timing_sources_are_exempt() {
        let src = "fn main() { let t = std::time::Instant::now(); }\n";
        assert!(check_entropy_sources("crates/bench/src/lib.rs", src).is_empty());
    }

    #[test]
    fn profiler_clock_module_alone_is_exempt() {
        let src = "pub fn now() -> u128 { std::time::Instant::now().elapsed().as_nanos() }\n";
        assert!(check_entropy_sources("crates/prof/src/clock.rs", src).is_empty());
        // The rest of the profiler must route through the clock module.
        let diags = check_entropy_sources("crates/prof/src/record.rs", src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code(), Code::EntropyInResultPath);
    }

    #[test]
    fn test_code_is_exempt() {
        let src =
            "#[cfg(test)]\nmod tests {\n    fn t() { let _ = std::time::SystemTime::now(); }\n}\n";
        assert!(check_entropy_sources("crates/hw/src/roofline.rs", src).is_empty());
    }
}
