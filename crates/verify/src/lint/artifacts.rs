//! RV014: `BENCH.json` and any `BENCH_*.json` at the repo root must be
//! backed by the workspace. The recorder writes `BENCH.json`; if it is
//! renamed or deleted, or a file from an older recorder lingers, CI keeps
//! comparing against a ghost. The rule is structural (the lint engine is
//! dependency-free, so there is no JSON parser here): the artifact must be
//! balanced JSON, carry the one schema tag plus every field of that schema,
//! and its filename must appear verbatim in some `crates/bench/src` source —
//! the writer names its own artifact, so a missing mention means the
//! producer is gone.

use crate::{Code, Diagnostic};

/// The schema tag of `BENCH.json` (documented in `crates/bench/src/lib.rs`).
pub const BENCH_SCHEMA: &str = "recsim-bench-v1";

/// Top-level fields of the `recsim-bench-v1` schema besides `schema` itself
/// (which is value-checked, not just presence-checked).
pub const REQUIRED_KEYS: [&str; 9] = [
    "effort",
    "threads",
    "cores",
    "drivers",
    "serial_total_secs",
    "parallel_total_secs",
    "speedup",
    "kernels",
    "outputs_identical",
];

/// RV014 for the repo-root bench artifacts. `artifacts` holds
/// `(file name, contents)` for `BENCH.json` and every `BENCH_*.json`;
/// `bench_sources` holds `(rel path, contents)` for every `crates/bench/src`
/// source.
pub fn check_bench_artifacts(
    artifacts: &[(String, String)],
    bench_sources: &[(String, String)],
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (name, json) in artifacts {
        if !json_is_balanced(json) {
            out.push(Diagnostic::error(
                Code::StaleBenchArtifact,
                name,
                "artifact is not well-formed JSON (unbalanced braces/brackets \
                 or unterminated string)",
            ));
            continue;
        }
        match string_value_of(json, "schema") {
            Some(tag) if tag == BENCH_SCHEMA => {
                for key in REQUIRED_KEYS {
                    if !has_key(json, key) {
                        out.push(Diagnostic::error(
                            Code::StaleBenchArtifact,
                            name,
                            format!("required schema field `{key}` is missing"),
                        ));
                    }
                }
            }
            Some(tag) => out.push(Diagnostic::error(
                Code::StaleBenchArtifact,
                name,
                format!("schema tag `{tag}` is not `{BENCH_SCHEMA}`"),
            )),
            None => out.push(Diagnostic::error(
                Code::StaleBenchArtifact,
                name,
                format!("artifact has no `schema` string field (`{BENCH_SCHEMA}` expected)"),
            )),
        }
        if !bench_sources
            .iter()
            .any(|(_, src)| src.contains(name.as_str()))
        {
            out.push(Diagnostic::error(
                Code::StaleBenchArtifact,
                name,
                "no source under crates/bench/src names this artifact — its \
                 producer was renamed or removed; delete or regenerate it",
            ));
        }
    }
    out
}

/// Whether `{}`/`[]` nest correctly with strings (and escapes) respected.
fn json_is_balanced(json: &str) -> bool {
    let mut depth: i64 = 0;
    let mut in_string = false;
    let mut escaped = false;
    for c in json.chars() {
        if in_string {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' | '[' => depth += 1,
            '}' | ']' => {
                depth -= 1;
                if depth < 0 {
                    return false;
                }
            }
            _ => {}
        }
    }
    depth == 0 && !in_string
}

/// Whether `"key"` appears as an object key (followed by `:`).
fn has_key(json: &str, key: &str) -> bool {
    let needle = format!("\"{key}\"");
    let mut from = 0;
    while let Some(pos) = json[from..].find(&needle) {
        let after = from + pos + needle.len();
        if json[after..].trim_start().starts_with(':') {
            return true;
        }
        from = after;
    }
    false
}

/// The string value of top-level-ish `"key": "value"`, if present.
fn string_value_of(json: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\"");
    let mut from = 0;
    while let Some(pos) = json[from..].find(&needle) {
        let after = from + pos + needle.len();
        let rest = json[after..].trim_start();
        if let Some(rest) = rest.strip_prefix(':') {
            let rest = rest.trim_start();
            let mut value = String::new();
            let mut chars = rest.chars();
            if chars.next() == Some('"') {
                let mut escaped = false;
                for c in chars {
                    if escaped {
                        value.push(c);
                        escaped = false;
                    } else if c == '\\' {
                        escaped = true;
                    } else if c == '"' {
                        return Some(value);
                    } else {
                        value.push(c);
                    }
                }
            }
            return None;
        }
        from = after;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_doc() -> String {
        format!(
            "{{\"schema\": \"{BENCH_SCHEMA}\", \"effort\": \"quick\", \"threads\": 4, \
             \"cores\": 2, \"drivers\": [{{\"id\": \"fig10\", \"t1_secs\": 0.5, \
             \"tn_secs\": 0.3}}], \"serial_total_secs\": 0.3, \"parallel_total_secs\": 0.2, \
             \"speedup\": 1.5, \"kernels\": {{\"driver\": \"automl\", \"ops\": []}}, \
             \"outputs_identical\": true}}"
        )
    }

    fn producer() -> Vec<(String, String)> {
        vec![(
            "crates/bench/src/lib.rs".to_string(),
            "pub const BENCH_FILE: &str = \"BENCH.json\";".to_string(),
        )]
    }

    #[test]
    fn valid_artifact_with_producer_passes() {
        let artifacts = vec![("BENCH.json".to_string(), valid_doc())];
        assert!(check_bench_artifacts(&artifacts, &producer()).is_empty());
    }

    #[test]
    fn orphaned_artifact_is_flagged() {
        let artifacts = vec![("BENCH_ghost.json".to_string(), valid_doc())];
        let diags = check_bench_artifacts(&artifacts, &producer());
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code(), Code::StaleBenchArtifact);
        assert!(diags[0].message().contains("producer"));
    }

    #[test]
    fn wrong_schema_tag_is_flagged() {
        let doc = valid_doc().replace(BENCH_SCHEMA, "recsim-bench-v0");
        let artifacts = vec![("BENCH.json".to_string(), doc)];
        let diags = check_bench_artifacts(&artifacts, &producer());
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message().contains("recsim-bench-v0"));
    }

    #[test]
    fn retired_schema_tags_are_rejected() {
        // The per-recorder schemas `BENCH.json` replaced, as a leftover
        // file of each would carry them: wrong tag, and no producer.
        for (file, tag) in [
            ("BENCH_sweeps.json", "recsim-bench-sweeps-v1"),
            ("BENCH_kernels.json", "recsim-bench-kernels-v1"),
            ("BENCH_serve.json", "recsim-bench-serve-v1"),
            ("BENCH_rowshard.json", "recsim-bench-rowshard-v1"),
        ] {
            let artifacts = vec![(file.to_string(), valid_doc().replace(BENCH_SCHEMA, tag))];
            let diags = check_bench_artifacts(&artifacts, &producer());
            assert_eq!(diags.len(), 2, "{file}");
            assert!(diags[0].message().contains(tag), "{file}");
            assert!(diags[1].message().contains("producer"), "{file}");
        }
    }

    #[test]
    fn missing_field_is_flagged() {
        for (key, field) in [
            ("speedup", "\"speedup\": 1.5, "),
            ("cores", "\"cores\": 2, "),
        ] {
            let doc = valid_doc().replace(field, "");
            let artifacts = vec![("BENCH.json".to_string(), doc)];
            let diags = check_bench_artifacts(&artifacts, &producer());
            assert_eq!(diags.len(), 1);
            assert!(diags[0].message().contains(key));
        }
    }

    #[test]
    fn unbalanced_json_is_flagged_once() {
        let artifacts = vec![("BENCH.json".to_string(), "{\"schema\": [}".to_string())];
        let diags = check_bench_artifacts(&artifacts, &producer());
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message().contains("well-formed"));
    }

    #[test]
    fn key_matching_requires_colon() {
        // "schema" appearing only as a *value* must not satisfy the key scan.
        let doc = "{\"note\": \"schema\", \"x\": 1}";
        assert!(!has_key(doc, "schema"));
        assert!(has_key(doc, "note"));
        assert_eq!(string_value_of(doc, "note").as_deref(), Some("schema"));
        assert_eq!(string_value_of(doc, "x"), None);
    }
}
