//! Fixture tests: each rule has a bad/good twin under
//! `tests/fixtures/`, shaped like a miniature workspace, plus a
//! self-check that the real workspace stays clean.

use std::path::{Path, PathBuf};

use vpir_analyze::{analyze_root, dump_call_graph, sarif, Report};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn analyze(name: &str) -> Report {
    analyze_root(&fixture(name)).expect("fixture tree readable")
}

/// Rule ids of unsuppressed findings, e.g. `["R1"]`.
fn live_ids(report: &Report) -> Vec<&'static str> {
    report.live().map(|f| f.rule.id()).collect()
}

#[test]
fn r1_fires_on_hash_collections_and_not_on_btree() {
    let bad = analyze("r1_bad");
    assert_eq!(live_ids(&bad), ["R1", "R1", "R1"], "{}", bad.to_text());
    let good = analyze("r1_good");
    assert!(live_ids(&good).is_empty(), "{}", good.to_text());
}

#[test]
fn r2_fires_on_panicking_constructs_and_honors_allows() {
    let bad = analyze("r2_bad");
    let ids = live_ids(&bad);
    assert_eq!(ids.len(), 4, "{}", bad.to_text());
    assert!(ids.iter().all(|id| *id == "R2"));

    let good = analyze("r2_good");
    assert!(live_ids(&good).is_empty(), "{}", good.to_text());
    // The allow comments are recorded, not discarded: one on the cached
    // expect, one on the scratch-pool balance assert.
    assert_eq!(good.suppressed().count(), 2, "{}", good.to_text());
    let reasons: Vec<String> = good
        .suppressed()
        .filter_map(|f| f.suppressed.clone())
        .collect();
    assert!(
        reasons.iter().any(|r| r.contains("constructor")),
        "reasons: {reasons:?}"
    );
    assert!(
        reasons.iter().any(|r| r.contains("pool take/put-back")),
        "reasons: {reasons:?}"
    );
}

#[test]
fn r4_fires_on_unread_config_fields() {
    let bad = analyze("r4_bad");
    let ids = live_ids(&bad);
    assert_eq!(ids, ["R4"], "{}", bad.to_text());
    assert!(bad.live().next().is_some_and(|f| f.message.contains("ghost")));

    let good = analyze("r4_good");
    assert!(live_ids(&good).is_empty(), "{}", good.to_text());
}

#[test]
fn r6_fires_on_wall_clock_reads_in_cycle_code() {
    let bad = analyze("r6_bad");
    let ids = live_ids(&bad);
    assert_eq!(ids, ["R6", "R6", "R6", "R6"], "{}", bad.to_text());
    assert!(bad.live().all(|f| f.message.contains("wall-clock")));

    let good = analyze("r6_good");
    assert!(live_ids(&good).is_empty(), "{}", good.to_text());
}

#[test]
fn r7_fires_on_vec_option_hot_state_and_not_on_columns() {
    let bad = analyze("r7_bad");
    let ids = live_ids(&bad);
    assert_eq!(ids, ["R7", "R7"], "{}", bad.to_text());
    assert!(bad.live().all(|f| f.message.contains("Vec<Option<")));

    let good = analyze("r7_good");
    assert!(live_ids(&good).is_empty(), "{}", good.to_text());
}

#[test]
fn r8_fires_on_transitively_reachable_panic_and_proves_the_good_twin() {
    let bad = analyze("r8_bad");
    let ids = live_ids(&bad);
    assert_eq!(ids, ["R8"], "{}", bad.to_text());
    let finding = bad.live().next().expect("one finding");
    assert!(
        finding.message.contains(".unwrap()") && finding.message.contains("Machine::"),
        "message: {}",
        finding.message
    );

    let good = analyze("r8_good");
    assert!(live_ids(&good).is_empty(), "{}", good.to_text());
    // The proof notes certify the root's whole tree, not just silence.
    let run_proof = good
        .proofs
        .iter()
        .find(|p| p.root == "Machine::run")
        .expect("a proof for Machine::run");
    assert!(
        run_proof.summary.starts_with("panic-free"),
        "summary: {}",
        run_proof.summary
    );
    assert!(run_proof.summary.contains("0 panic site(s)"));
}

#[test]
fn r9_fires_on_shared_writes_and_relaxed_control_flow() {
    let bad = analyze("r9_bad");
    let ids = live_ids(&bad);
    assert_eq!(ids, ["R9", "R9"], "{}", bad.to_text());
    assert!(bad.live().any(|f| f.message.contains("total")), "{}", bad.to_text());
    assert!(
        bad.live().any(|f| f.message.contains("Relaxed")),
        "{}",
        bad.to_text()
    );

    // Per-slot writes and RMW counters are the sanctioned disciplines.
    let good = analyze("r9_good");
    assert!(live_ids(&good).is_empty(), "{}", good.to_text());
}

#[test]
fn r10_fires_on_opposite_lock_orders_and_not_on_a_fixed_order() {
    let bad = analyze("r10_bad");
    let ids = live_ids(&bad);
    assert!(!ids.is_empty() && ids.iter().all(|id| *id == "R10"), "{}", bad.to_text());
    assert!(
        bad.live().any(|f| f.message.contains("fixed order")),
        "{}",
        bad.to_text()
    );

    let good = analyze("r10_good");
    assert!(live_ids(&good).is_empty(), "{}", good.to_text());
}

#[test]
fn call_graph_dump_resolves_methods_and_free_functions() {
    let tree = dump_call_graph(&fixture("r8_bad"), "Machine::run")
        .expect("fixture readable")
        .expect("root resolves");
    assert!(tree.starts_with("Machine::run"), "tree: {tree}");
    assert!(tree.contains("Machine::step"), "tree: {tree}");
    assert!(tree.contains("decode"), "tree: {tree}");
    assert!(tree.contains("[1 panic"), "tree: {tree}");

    // A unique suffix resolves too; an unknown name reports cleanly.
    assert!(dump_call_graph(&fixture("r8_bad"), "step")
        .expect("fixture readable")
        .is_ok());
    let missing = dump_call_graph(&fixture("r8_bad"), "no_such_fn")
        .expect("fixture readable");
    assert!(missing.is_err());
}

#[test]
fn sarif_output_round_trips_through_the_validator() {
    // Findings, suppressions, and proofs all survive the round trip.
    for name in ["r8_bad", "r2_good", "r10_bad"] {
        let report = analyze(name);
        let sarif_text = sarif::to_sarif(&report);
        sarif::validate_sarif(&sarif_text)
            .unwrap_or_else(|e| panic!("{name} SARIF failed validation: {e}"));
    }
    let bad = sarif::to_sarif(&analyze("r8_bad"));
    assert!(bad.contains("\"ruleId\":\"R8\""), "{bad}");
    let suppressed = sarif::to_sarif(&analyze("r2_good"));
    assert!(suppressed.contains("\"suppressions\""), "{suppressed}");
    assert!(suppressed.contains("inSource"), "{suppressed}");
}

#[test]
fn json_output_round_trips_rule_ids() {
    let bad = analyze("r2_bad");
    let json = bad.to_json();
    assert!(json.contains("\"rule\":\"R2\""));
    assert!(json.contains("\"name\":\"panic\""));
    assert!(json.starts_with('{') && json.ends_with('}'));
}

#[test]
fn the_workspace_itself_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root");
    let report = analyze_root(root).expect("workspace readable");
    assert!(
        report.live().next().is_none(),
        "workspace has live findings:\n{}",
        report.to_text()
    );
    // The R2 burn-down removed every suppression: each former allow
    // site now handles its case structurally (let-else, `?`, if-let).
    // New suppressions need a justification strong enough to also
    // justify weakening this count.
    assert_eq!(
        report.suppressed().count(),
        0,
        "unexpected suppressions:\n{}",
        report.to_text()
    );
    // The interprocedural pass certifies every simulator entry point.
    assert!(
        report.proofs.iter().any(|p| p.root == "Simulator::run_checked"
            && p.summary.starts_with("panic-free")),
        "no panic-freedom proof for Simulator::run_checked:\n{}",
        report.to_text()
    );
}
