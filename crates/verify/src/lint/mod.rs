//! Layer 1: the workspace lint driver.
//!
//! Pure rule logic lives in the submodules ([`source`], [`knobs`],
//! [`registry`], [`layering`]) so it can be unit-tested on inline
//! fixtures; this module does the filesystem walking and wires the rules
//! to the real tree. Everything runs offline on the checked-out sources —
//! no network, no external tooling, no proc macros.

pub mod artifacts;
pub mod categories;
pub mod collections;
pub mod entropy;
pub mod instrumentation;
pub mod inventory;
pub mod knobs;
pub mod layering;
pub mod parallelism;
pub mod reductions;
pub mod registry;
pub mod source;
pub mod sweep_purity;

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use crate::{Code, Diagnostic};

/// Relative path of the RV002 budget file.
pub const ALLOWLIST_PATH: &str = "crates/verify/panic_allowlist.txt";

/// Relative path of the RV015 budget file (hash-collection sites per file).
pub const DETSAN_ALLOWLIST_PATH: &str = "crates/verify/detsan_allowlist.txt";

/// Locates the workspace root: `$CARGO_MANIFEST_DIR/../..` when run via
/// `cargo run -p recsim-verify`, otherwise the nearest ancestor of the
/// current directory whose `Cargo.toml` declares `[workspace]`.
pub fn workspace_root() -> Option<PathBuf> {
    if let Ok(manifest) = std::env::var("CARGO_MANIFEST_DIR") {
        let candidate = Path::new(&manifest).join("../..");
        if is_workspace_root(&candidate) {
            return candidate.canonicalize().ok();
        }
    }
    let mut dir = std::env::current_dir().ok()?;
    loop {
        if is_workspace_root(&dir) {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn is_workspace_root(dir: &Path) -> bool {
    fs::read_to_string(dir.join("Cargo.toml")).is_ok_and(|s| s.contains("[workspace]"))
}

/// Runs every Layer-1 rule over the workspace at `root`.
pub fn run(root: &Path) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let budgets = load_allowlist(root, ALLOWLIST_PATH, &mut diags);
    let detsan_budgets = load_allowlist(root, DETSAN_ALLOWLIST_PATH, &mut diags);

    // RV001 + RV002 + RV012 over library sources; RV011 over simulator
    // sources (des.rs hosts the uncategorized wrappers for generic graphs,
    // so it is exempt — every *simulator builder* must categorize its
    // tasks). RV012 exempts crates/pool/src/, the sanctioned thread host.
    // RV015–RV018 are the determinism-sanitizer rules (DESIGN.md §11).
    for (rel, content) in library_sources(root, &mut diags) {
        if rel.ends_with("src/lib.rs") {
            diags.extend(source::check_forbid_unsafe(&rel, &content));
        }
        let budget = budgets.get(rel.as_str()).copied().unwrap_or(0);
        diags.extend(source::check_panic_budget(&rel, &content, budget));
        if rel.starts_with("crates/sim/src/") && !rel.ends_with("/des.rs") {
            diags.extend(categories::check_task_categories(&rel, &content));
        }
        diags.extend(parallelism::check_raw_threading(&rel, &content));
        let detsan_budget = detsan_budgets.get(rel.as_str()).copied().unwrap_or(0);
        diags.extend(collections::check_unordered_collections(
            &rel,
            &content,
            detsan_budget,
        ));
        diags.extend(reductions::check_float_reductions(&rel, &content));
        diags.extend(entropy::check_entropy_sources(&rel, &content));
        diags.extend(sweep_purity::check_sweep_purity(&rel, &content));
    }
    // Budgets pointing at files that no longer exist are stale too.
    for (list, budgets) in [
        (ALLOWLIST_PATH, &budgets),
        (DETSAN_ALLOWLIST_PATH, &detsan_budgets),
    ] {
        for (path, budget) in budgets {
            if !root.join(path).is_file() {
                diags.push(Diagnostic::warning(
                    Code::StaleAllowlist,
                    list,
                    format!("allowlisted file `{path}` (budget {budget}) does not exist"),
                ));
            }
        }
    }

    // RV003–RV005 over the cost model.
    let cost_rel = "crates/sim/src/cost.rs";
    match fs::read_to_string(root.join(cost_rel)) {
        Ok(cost_src) => {
            diags.extend(knobs::check_knob_declarations(cost_rel, &cost_src));
            let bench_sources = sources_under(root, &["crates/bench/benches", "crates/bench/src"]);
            diags.extend(knobs::check_knob_references(
                cost_rel,
                &cost_src,
                &bench_sources,
            ));
        }
        Err(e) => diags.push(read_error(cost_rel, &e)),
    }

    // RV006 + RV007 over the experiment registry.
    let mod_rel = "crates/core/src/experiments/mod.rs";
    let mod_rs = fs::read_to_string(root.join(mod_rel)).unwrap_or_else(|e| {
        diags.push(read_error(mod_rel, &e));
        String::new()
    });
    let experiments_md = fs::read_to_string(root.join("EXPERIMENTS.md")).unwrap_or_default();
    diags.extend(registry::check_registry(
        &registry::registry_ids(&mod_rs),
        &registry::experiment_modules(&mod_rs),
        &experiments_md,
    ));

    // RV019 over the profiler op inventory: every op must be instrumented
    // somewhere in the model/train/serve sources.
    let ops_rel = "crates/prof/src/ops.rs";
    match fs::read_to_string(root.join(ops_rel)) {
        Ok(ops_src) => {
            let instrumented = sources_under(
                root,
                &["crates/model/src", "crates/train/src", "crates/serve/src"],
            );
            diags.extend(instrumentation::check_instrumentation(
                ops_rel,
                &ops_src,
                &instrumented,
            ));
        }
        Err(e) => diags.push(read_error(ops_rel, &e)),
    }

    // RV014 over the repo-root bench baselines.
    let bench_artifacts = root_bench_artifacts(root, &mut diags);
    let bench_sources = sources_under(root, &["crates/bench/src"]);
    diags.extend(artifacts::check_bench_artifacts(
        &bench_artifacts,
        &bench_sources,
    ));

    // RV008 + RV009 over every manifest; RV013 (DESIGN.md inventory + DAG
    // membership) over the crates/ manifests.
    let design_md = fs::read_to_string(root.join("DESIGN.md")).unwrap_or_default();
    for (rel, toml) in manifests(root, &mut diags) {
        diags.extend(layering::check_manifest(&rel, &toml));
        if rel.starts_with("crates/") {
            let package = layering::parse_manifest(&toml).package;
            diags.extend(inventory::check_inventory(&rel, &package, &design_md));
        }
    }

    diags
}

/// Regenerates both budget files from the actual per-file counts, so the
/// budgets are exactly tight (`lint --write-allowlist`). Returns the number
/// of files with a nonzero budget across both lists.
pub fn write_allowlist(root: &Path) -> std::io::Result<usize> {
    let mut ignored = Vec::new();
    let mut panic_lines = vec![
        "# RV002 budget: panicking sites allowed per library file.".to_string(),
        "# Regenerate with `cargo run -p recsim-verify -- lint --write-allowlist`.".to_string(),
        "# The budget only ratchets down: exceeding it is an error, beating it".to_string(),
        "# is an RV010 warning until this file is tightened.".to_string(),
    ];
    let mut detsan_lines = vec![
        "# RV015 budget: hash-ordered collection sites allowed per library file.".to_string(),
        "# Regenerate with `cargo run -p recsim-verify -- lint --write-allowlist`.".to_string(),
        "# The budget only ratchets down: exceeding it is an error, beating it".to_string(),
        "# is an RV010 warning until this file is tightened. The tree ships".to_string(),
        "# clean — think hard before adding an entry here.".to_string(),
    ];
    let mut files = 0;
    for (rel, content) in library_sources(root, &mut ignored) {
        let panics = source::panic_sites(&content).len();
        if panics > 0 {
            panic_lines.push(format!("{rel} {panics}"));
            files += 1;
        }
        if !collections::is_exempt(&rel) {
            let sites = collections::collection_sites(&content).len();
            if sites > 0 {
                detsan_lines.push(format!("{rel} {sites}"));
                files += 1;
            }
        }
    }
    panic_lines.push(String::new());
    detsan_lines.push(String::new());
    fs::write(root.join(ALLOWLIST_PATH), panic_lines.join("\n"))?;
    fs::write(root.join(DETSAN_ALLOWLIST_PATH), detsan_lines.join("\n"))?;
    Ok(files)
}

fn load_allowlist(
    root: &Path,
    list_rel: &str,
    diags: &mut Vec<Diagnostic>,
) -> BTreeMap<String, usize> {
    let mut budgets = BTreeMap::new();
    // No allowlist = zero budget everywhere.
    let Ok(text) = fs::read_to_string(root.join(list_rel)) else {
        return budgets;
    };
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let entry = (
            parts.next(),
            parts.next().and_then(|n| n.parse::<usize>().ok()),
        );
        if let (Some(path), Some(count)) = entry {
            budgets.insert(path.to_string(), count);
        } else {
            diags.push(Diagnostic::error(
                Code::StaleAllowlist,
                format!("{list_rel}:{}", idx + 1),
                format!("malformed allowlist line `{line}` (expected `path count`)"),
            ));
        }
    }
    budgets
}

/// Every non-test library source in the workspace: `crates/*/src/**/*.rs`
/// excluding `src/bin/` and `main.rs`, plus the root facade `src/lib.rs`.
/// Test dirs (`tests/`), benches, and examples are exempt by construction —
/// they are never under `src/`.
fn library_sources(root: &Path, diags: &mut Vec<Diagnostic>) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .map(|e| e.path())
                .filter(|p| p.is_dir())
                .collect()
        })
        .unwrap_or_default();
    crate_dirs.sort();
    let mut files = Vec::new();
    for crate_dir in crate_dirs {
        files.extend(rs_files_excluding_bin(&crate_dir.join("src")));
    }
    files.push(root.join("src/lib.rs"));
    files.sort();
    for path in files {
        let rel = rel_path(root, &path);
        match fs::read_to_string(&path) {
            Ok(content) => out.push((rel, content)),
            Err(e) => diags.push(read_error(&rel, &e)),
        }
    }
    out
}

fn rs_files_excluding_bin(src: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![src.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(rd) = fs::read_dir(&dir) else { continue };
        for entry in rd.filter_map(Result::ok) {
            let path = entry.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n == "bin") {
                    continue;
                }
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs")
                && path.file_name().is_none_or(|n| n != "main.rs")
            {
                out.push(path);
            }
        }
    }
    out
}

fn sources_under(root: &Path, rel_dirs: &[&str]) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for rel_dir in rel_dirs {
        let mut stack = vec![root.join(rel_dir)];
        while let Some(dir) = stack.pop() {
            let Ok(rd) = fs::read_dir(&dir) else { continue };
            for entry in rd.filter_map(Result::ok) {
                let path = entry.path();
                if path.is_dir() {
                    stack.push(path);
                } else if path.extension().is_some_and(|e| e == "rs") {
                    if let Ok(content) = fs::read_to_string(&path) {
                        out.push((rel_path(root, &path), content));
                    }
                }
            }
        }
    }
    out.sort();
    out
}

/// `BENCH.json` and every `BENCH_*.json` at the workspace root, as
/// `(file name, contents)`.
fn root_bench_artifacts(root: &Path, diags: &mut Vec<Diagnostic>) -> Vec<(String, String)> {
    let mut names: Vec<String> = fs::read_dir(root)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter(|e| e.path().is_file())
                .filter_map(|e| e.file_name().to_str().map(String::from))
                .filter(|n| n == "BENCH.json" || (n.starts_with("BENCH_") && n.ends_with(".json")))
                .collect()
        })
        .unwrap_or_default();
    names.sort();
    let mut out = Vec::new();
    for name in names {
        match fs::read_to_string(root.join(&name)) {
            Ok(content) => out.push((name, content)),
            Err(e) => diags.push(read_error(&name, &e)),
        }
    }
    out
}

/// Root `Cargo.toml` plus every `crates/*/Cargo.toml`.
fn manifests(root: &Path, diags: &mut Vec<Diagnostic>) -> Vec<(String, String)> {
    let mut paths = vec![root.join("Cargo.toml")];
    if let Ok(rd) = fs::read_dir(root.join("crates")) {
        let mut crate_manifests: Vec<PathBuf> = rd
            .filter_map(Result::ok)
            .map(|e| e.path().join("Cargo.toml"))
            .filter(|p| p.is_file())
            .collect();
        crate_manifests.sort();
        paths.extend(crate_manifests);
    }
    let mut out = Vec::new();
    for path in paths {
        let rel = rel_path(root, &path);
        match fs::read_to_string(&path) {
            Ok(toml) => out.push((rel, toml)),
            Err(e) => diags.push(read_error(&rel, &e)),
        }
    }
    out
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

fn read_error(rel: &str, e: &std::io::Error) -> Diagnostic {
    Diagnostic::error(
        Code::StaleAllowlist,
        rel.to_string(),
        format!("lint driver could not read this file: {e}"),
    )
}
