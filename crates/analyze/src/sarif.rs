//! SARIF 2.1.0 rendering for analyzer reports.
//!
//! Static Analysis Results Interchange Format output lets CI viewers
//! and editors consume `vpir-analyze` findings directly. The shape
//! kept here is the minimal valid core: one run, the tool's rule
//! metadata, one `error` result per finding, and the R8 proof notes
//! under the run's `properties` bag. [`validate_sarif`] re-parses the
//! emitted document through `vpir-jsonlite` and checks the structural
//! invariants, so the emitter cannot silently drift.

use vpir_jsonlite::{compact_array, json_str, parse_json, JsonObj, JsonValue};

use crate::findings::{ProofNote, Report, Rule};

/// Every host rule (`R…`), in `ruleIndex` order.
fn host_rules() -> impl Iterator<Item = Rule> {
    Rule::ALL.iter().copied().filter(|rule| rule.id().starts_with('R'))
}

/// A compact object with one member.
fn wrap(key: &str, value: &str) -> String {
    JsonObj::compact().raw(key, value).finish()
}

/// Renders a report as a SARIF 2.1.0 document.
pub fn to_sarif(report: &Report) -> String {
    let rules = host_rules().map(|rule| {
        // SARIF's text is plain: the description without its code marks.
        let desc = rule.description().replace('`', "");
        JsonObj::compact()
            .s("id", rule.id())
            .s("name", rule.name())
            .raw("shortDescription", &wrap("text", &json_str(&desc)))
            .finish()
    });
    let results = report.findings.iter().map(|f| {
        let mut region = JsonObj::compact().u("startLine", f.line.max(1) as u64);
        if f.col > 0 {
            region = region.u("startColumn", f.col as u64);
        }
        let physical = JsonObj::compact()
            .raw("artifactLocation", &wrap("uri", &json_str(&f.file)))
            .raw("region", &region.finish())
            .finish();
        let locations = compact_array([wrap("physicalLocation", &physical)]);
        let mut result = JsonObj::compact().s("ruleId", f.rule.id());
        if let Some(x) = host_rules().position(|r| r == f.rule) {
            result = result.u("ruleIndex", x as u64);
        }
        result
            .s("level", "error")
            .raw("message", &wrap("text", &json_str(&f.message)))
            .raw("locations", &locations)
            .finish()
    });
    let driver = JsonObj::compact()
        .s("name", "vpir-analyze")
        .s("informationUri", "https://example.invalid/vpir")
        .raw("rules", &compact_array(rules))
        .finish();
    let proofs = compact_array(report.proofs.iter().map(ProofNote::to_json));
    let properties = JsonObj::compact()
        .u("filesScanned", report.files_scanned as u64)
        .raw("proofs", &proofs)
        .finish();
    let run = JsonObj::compact()
        .raw("tool", &wrap("driver", &driver))
        .raw("results", &compact_array(results))
        .raw("properties", &properties)
        .finish();
    JsonObj::compact()
        .s("$schema", "https://json.schemastore.org/sarif-2.1.0.json")
        .s("version", "2.1.0")
        .raw("runs", &compact_array([run]))
        .finish()
}

/// Validates a SARIF document produced by [`to_sarif`]: well-formed
/// JSON with the required top-level keys, version 2.1.0, exactly one
/// run with tool metadata, and every result carrying a ruleId, a
/// message, and a physical location.
pub fn validate_sarif(text: &str) -> Result<(), String> {
    let doc = parse_json(text)?;
    for key in ["$schema", "version", "runs"] {
        if doc.get(key).is_none() {
            return Err(format!("missing required top-level key {key:?}"));
        }
    }
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
                    message: "`[0]` with \"quotes\"".into(),
                },
                Finding {
                    rule: Rule::PanicReach,
                    file: "crates/isa/src/x.rs".into(),
                    line: 12,
                    col: 0,
                    message: "reachable panic".into(),
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
    fn sarif_carries_results_and_proofs() {
        let sarif = to_sarif(&report());
        let doc = parse_json(&sarif).unwrap();
        let run = &doc.get("runs").unwrap().as_arr().unwrap()[0];
        let results = run.get("results").unwrap().as_arr().unwrap();
        assert_eq!(results.len(), 2);
        assert_eq!(
            results[1].get("ruleId").and_then(JsonValue::as_str),
            Some("R8")
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
