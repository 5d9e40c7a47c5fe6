//! SARIF 2.1.0 rendering for analyzer reports.
//!
//! Static Analysis Results Interchange Format output lets CI viewers
//! and editors consume `vpir-analyze` findings directly. The shape
//! kept here is the minimal valid core: one run, the tool's rule
//! metadata, one `result` per finding (suppressed findings carry an
//! `inSource` suppression object, which is SARIF's native rendering of
//! the `// vpir: allow(…)` comment), and the R8 proof notes under the
//! run's `properties` bag. [`validate_sarif`] re-parses the emitted
//! document through `vpir-jsonlite` and checks the structural
//! invariants, so the emitter cannot silently drift.

use std::fmt::Write as _;

use vpir_jsonlite::{json_escape, parse_json, validate_json, JsonValue};

use crate::findings::{Report, Rule};

/// Every host rule, in `ruleIndex` order.
const HOST_RULES: [(Rule, &str); 8] = [
    (Rule::Determinism, "Cycle-level code must not use hash-ordered collections."),
    (Rule::Panic, "Pipeline hot paths must not contain panicking constructs."),
    (Rule::Config, "Every config field must be read outside its definition."),
    (Rule::WallClock, "Cycle-level code must not read wall-clock time."),
    (Rule::Columnar, "Cycle-level hot state must be columnar, not Vec<Option<...>>."),
    (Rule::PanicReach, "Entry-point call trees must be transitively panic-free."),
    (Rule::Concurrency, "Spawned closures must not race on shared mutable captures; control-flow atomics must not be Relaxed."),
    (Rule::LockOrder, "The lock-acquisition graph must be acyclic."),
];

/// Renders a report as a SARIF 2.1.0 document.
pub fn to_sarif(report: &Report) -> String {
    let mut rules = String::from("[");
    for (i, (rule, desc)) in HOST_RULES.iter().enumerate() {
        if i > 0 {
            rules.push(',');
        }
        let _ = write!(
            rules,
            "{{\"id\":\"{}\",\"name\":\"{}\",\"shortDescription\":{{\"text\":\"{}\"}}}}",
            rule.id(),
            json_escape(rule.name()),
            json_escape(desc)
        );
    }
    rules.push(']');

    let mut results = String::from("[");
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            results.push(',');
        }
        let rule_index = HOST_RULES.iter().position(|(r, _)| *r == f.rule);
        let level = if f.suppressed.is_some() { "note" } else { "error" };
        let _ = write!(
            results,
            "{{\"ruleId\":\"{}\",{}\"level\":\"{}\",\"message\":{{\"text\":\"{}\"}}",
            f.rule.id(),
            rule_index.map_or(String::new(), |x| format!("\"ruleIndex\":{x},")),
            level,
            json_escape(&f.message)
        );
        let _ = write!(
            results,
            ",\"locations\":[{{\"physicalLocation\":{{\"artifactLocation\":{{\"uri\":\"{}\"}},\"region\":{{\"startLine\":{}{}}}}}}}]",
            json_escape(&f.file),
            f.line.max(1),
            if f.col > 0 {
                format!(",\"startColumn\":{}", f.col)
            } else {
                String::new()
            }
        );
        if let Some(reason) = &f.suppressed {
            let _ = write!(
                results,
                ",\"suppressions\":[{{\"kind\":\"inSource\",\"justification\":\"{}\"}}]",
                json_escape(reason)
            );
        }
        results.push('}');
    }
    results.push(']');

    let mut proofs = String::from("[");
    for (i, p) in report.proofs.iter().enumerate() {
        if i > 0 {
            proofs.push(',');
        }
        let _ = write!(
            proofs,
            "{{\"rule\":\"{}\",\"root\":\"{}\",\"summary\":\"{}\",\"details\":[",
            p.rule.id(),
            json_escape(&p.root),
            json_escape(&p.summary)
        );
        for (j, d) in p.details.iter().enumerate() {
            if j > 0 {
                proofs.push(',');
            }
            let _ = write!(proofs, "\"{}\"", json_escape(d));
        }
        proofs.push_str("]}");
    }
    proofs.push(']');

    format!(
        "{{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",\"version\":\"2.1.0\",\"runs\":[{{\"tool\":{{\"driver\":{{\"name\":\"vpir-analyze\",\"informationUri\":\"https://example.invalid/vpir\",\"rules\":{rules}}}}},\"results\":{results},\"properties\":{{\"filesScanned\":{},\"proofs\":{proofs}}}}}]}}",
        report.files_scanned
    )
}

/// Validates a SARIF document produced by [`to_sarif`]: well-formed
/// JSON with the required top-level keys, version 2.1.0, exactly one
/// run with tool metadata, and every result carrying a ruleId, a
/// message, and a physical location.
pub fn validate_sarif(text: &str) -> Result<(), String> {
    validate_json(text, &["$schema", "version", "runs"])?;
    let doc = parse_json(text)?;
    if doc.get("version").and_then(JsonValue::as_str) != Some("2.1.0") {
        return Err("version is not 2.1.0".into());
    }
    let runs = doc
        .get("runs")
        .and_then(JsonValue::as_arr)
        .ok_or("runs is not an array")?;
    let [run] = runs else {
        return Err(format!("expected exactly 1 run, found {}", runs.len()));
    };
    let driver = run
        .get("tool")
        .and_then(|t| t.get("driver"))
        .ok_or("run has no tool.driver")?;
    if driver.get("name").and_then(JsonValue::as_str) != Some("vpir-analyze") {
        return Err("tool.driver.name is not vpir-analyze".into());
    }
    let rules = driver
        .get("rules")
        .and_then(JsonValue::as_arr)
        .ok_or("tool.driver.rules is not an array")?;
    let results = run
        .get("results")
        .and_then(JsonValue::as_arr)
        .ok_or("run.results is not an array")?;
    for r in results {
        let rule_id = r
            .get("ruleId")
            .and_then(JsonValue::as_str)
            .ok_or("result without ruleId")?;
        if let Some(ri) = r.get("ruleIndex").and_then(JsonValue::as_u64) {
            let declared = rules
                .get(ri as usize)
                .and_then(|x| x.get("id"))
                .and_then(JsonValue::as_str);
            if declared != Some(rule_id) {
                return Err(format!("ruleIndex {ri} does not match ruleId {rule_id}"));
            }
        }
        r.get("message")
            .and_then(|m| m.get("text"))
            .and_then(JsonValue::as_str)
            .ok_or("result without message.text")?;
        let locs = r
            .get("locations")
            .and_then(JsonValue::as_arr)
            .ok_or("result without locations")?;
        for l in locs {
            l.get("physicalLocation")
                .and_then(|p| p.get("artifactLocation"))
                .and_then(|a| a.get("uri"))
                .and_then(JsonValue::as_str)
                .ok_or("location without artifact uri")?;
            l.get("physicalLocation")
                .and_then(|p| p.get("region"))
                .and_then(|g| g.get("startLine"))
                .and_then(JsonValue::as_u64)
                .ok_or("location without region.startLine")?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::findings::{Finding, ProofNote};

    fn report() -> Report {
        Report {
            findings: vec![
                Finding {
                    rule: Rule::Panic,
                    file: "crates/core/src/x.rs".into(),
                    line: 7,
                    col: 3,
                    message: "`.unwrap()` with \"quotes\"".into(),
                    suppressed: None,
                },
                Finding {
                    rule: Rule::PanicReach,
                    file: "crates/isa/src/x.rs".into(),
                    line: 12,
                    col: 0,
                    message: "reachable panic".into(),
                    suppressed: Some("vetted".into()),
                },
            ],
            files_scanned: 42,
            proofs: vec![ProofNote {
                rule: Rule::PanicReach,
                root: "Machine::run".into(),
                summary: "panic-free: 10 reachable fn(s)".into(),
                details: vec!["unresolved `.push` at a.rs:3".into()],
            }],
        }
    }

    #[test]
    fn sarif_round_trips_through_the_validator() {
        let sarif = to_sarif(&report());
        validate_sarif(&sarif).unwrap();
    }

    #[test]
    fn sarif_carries_suppressions_and_proofs() {
        let sarif = to_sarif(&report());
        let doc = parse_json(&sarif).unwrap();
        let run = &doc.get("runs").unwrap().as_arr().unwrap()[0];
        let results = run.get("results").unwrap().as_arr().unwrap();
        assert_eq!(results.len(), 2);
        assert!(results[0].get("suppressions").is_none());
        let sup = results[1].get("suppressions").unwrap().as_arr().unwrap();
        assert_eq!(
            sup[0].get("justification").and_then(JsonValue::as_str),
            Some("vetted")
        );
        let proofs = run
            .get("properties")
            .unwrap()
            .get("proofs")
            .unwrap()
            .as_arr()
            .unwrap();
        assert_eq!(
            proofs[0].get("root").and_then(JsonValue::as_str),
            Some("Machine::run")
        );
    }

    #[test]
    fn validator_rejects_structural_drift() {
        assert!(validate_sarif("{}").is_err());
        assert!(validate_sarif(
            "{\"$schema\":\"s\",\"version\":\"2.0.0\",\"runs\":[]}"
        )
        .is_err());
    }
}
