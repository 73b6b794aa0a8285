//! One driver per paper artifact. Every driver has the shape
//! `pub fn run(effort: Effort) -> ExperimentOutput`.

pub mod automl;
pub mod autoshard;
pub mod compression;
pub mod detsan_demo;
pub mod faults;
pub mod fig01;
pub mod fig02;
pub mod fig05;
pub mod fig06;
pub mod fig07;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod locality;
pub mod readers;
pub mod rowshard;
pub mod scaleout;
pub mod serve;
pub mod table1;
pub mod table2;
pub mod table3;

use crate::{Effort, ExperimentOutput};

/// An experiment driver: scale in, structured output out.
pub type Driver = fn(Effort) -> ExperimentOutput;

/// Every driver, as `(id, function)` pairs — the registry behind
/// `recsim run`, the `recsim-bench` recorder and the integration tests.
/// `detsan_demo` is deliberately left out (it is broken on purpose).
pub fn registry() -> Vec<(&'static str, Driver)> {
    vec![
        ("table1", table1::run as Driver),
        ("table2", table2::run),
        ("table3", table3::run),
        ("fig01", fig01::run),
        ("fig02", fig02::run),
        ("fig05", fig05::run),
        ("fig06", fig06::run),
        ("fig07", fig07::run),
        ("fig09", fig09::run),
        ("fig10", fig10::run),
        ("fig11", fig11::run),
        ("fig12", fig12::run),
        ("fig13", fig13::run),
        ("fig14", fig14::run),
        ("fig15", fig15::run),
        ("automl", automl::run),
        ("autoshard", autoshard::run),
        ("locality", locality::run),
        ("scaleout", scaleout::run),
        ("readers", readers::run),
        ("compression", compression::run),
        ("faults", faults::run),
        ("serve", serve::run),
        ("rowshard", rowshard::run),
    ]
}

/// Finds the registered driver `id`.
///
/// # Errors
///
/// Names `id` and lists every registered id when `id` is not in the
/// registry.
pub fn lookup(id: &str) -> Result<Driver, String> {
    let registry = registry();
    if let Some(&(_, driver)) = registry.iter().find(|(known, _)| *known == id) {
        return Ok(driver);
    }
    let known: Vec<&str> = registry.iter().map(|(known, _)| *known).collect();
    Err(format!(
        "unknown driver `{id}`; known drivers: {}",
        known.join(", ")
    ))
}

/// Runs every registered driver at `effort`, fanning whole drivers across
/// cores (`recsim-pool`), and returns `(id, output)` pairs in registry
/// order. Each driver is a pure function of `effort`, and any sweep *inside*
/// a driver is itself order-preserving, so the outputs are identical to a
/// serial `registry()` loop at any thread count.
pub fn run_all(effort: Effort) -> Vec<(&'static str, ExperimentOutput)> {
    let entries = registry();
    crate::sweep::sweep(&entries, |&(id, driver)| (id, driver(effort)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_resolves_every_registry_id() {
        for (id, _) in registry() {
            assert!(lookup(id).is_ok(), "`{id}` does not resolve");
        }
    }

    #[test]
    fn lookup_of_unknown_id_lists_every_registry_id() {
        let err = lookup("nope").expect_err("unknown id is an error");
        assert!(err.contains("`nope`"), "{err}");
        let registry = registry();
        assert_eq!(registry.len(), 24);
        for (id, _) in registry {
            assert!(err.contains(id), "`{id}` missing from: {err}");
        }
        assert!(
            lookup("detsan_demo").is_err(),
            "detsan_demo is unregistered"
        );
    }
}
