//! Fixture tests: each rule has a bad/good twin under
//! `tests/fixtures/`, shaped like a miniature workspace, plus
//! self-checks that the real workspace stays clean and that every cycle
//! crate carries the clippy settings that replaced the retired rules.

use std::fs;
use std::path::{Path, PathBuf};

use vpir_analyze::passes::PANIC_ROOTS;
use vpir_analyze::rules::CYCLE_CRATES;
use vpir_analyze::{analyze_root, dump_call_graph, sarif, Report};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root")
}

fn analyze(name: &str) -> Report {
    analyze_root(&fixture(name)).expect("fixture tree readable")
}

/// Rule ids of the findings, e.g. `["R2"]`.
fn ids(report: &Report) -> Vec<&'static str> {
    report.findings.iter().map(|f| f.rule.id()).collect()
}

#[test]
fn r2_fires_on_literal_indexes_and_not_on_get() {
    let bad = analyze("r2_bad");
    assert_eq!(ids(&bad), ["R2", "R2"], "{}", bad.to_text());
    assert!(bad.findings.iter().any(|f| f.message.contains("[1]")));

    let good = analyze("r2_good");
    assert!(ids(&good).is_empty(), "{}", good.to_text());
}

#[test]
fn r4_fires_on_unread_config_fields() {
    let bad = analyze("r4_bad");
    assert_eq!(ids(&bad), ["R4"], "{}", bad.to_text());
    assert!(bad.findings.iter().any(|f| f.message.contains("ghost")));

    let good = analyze("r4_good");
    assert!(ids(&good).is_empty(), "{}", good.to_text());
}

#[test]
fn r7_fires_on_vec_option_hot_state_and_not_on_columns() {
    let bad = analyze("r7_bad");
    assert_eq!(ids(&bad), ["R7", "R7"], "{}", bad.to_text());
    assert!(bad
        .findings
        .iter()
        .all(|f| f.message.contains("Vec<Option<")));

    let good = analyze("r7_good");
    assert!(ids(&good).is_empty(), "{}", good.to_text());
}

#[test]
fn r8_fires_on_transitively_reachable_panic_and_proves_the_good_twin() {
    let bad = analyze("r8_bad");
    assert_eq!(ids(&bad), ["R8"], "{}", bad.to_text());
    let finding = &bad.findings[0];
    assert!(
        finding.message.contains(".unwrap()") && finding.message.contains("Machine::"),
        "message: {}",
        finding.message
    );

    let good = analyze("r8_good");
    assert!(ids(&good).is_empty(), "{}", good.to_text());
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
fn r9_fires_on_relaxed_control_flow_and_not_on_acquire() {
    let bad = analyze("r9_bad");
    assert_eq!(ids(&bad), ["R9"], "{}", bad.to_text());
    assert!(
        bad.findings[0].message.contains("Relaxed"),
        "{}",
        bad.to_text()
    );

    // Acquire gates control flow; a Relaxed counter is only reported.
    let good = analyze("r9_good");
    assert!(ids(&good).is_empty(), "{}", good.to_text());
}

#[test]
fn r10_fires_on_opposite_lock_orders_and_not_on_a_fixed_order() {
    let bad = analyze("r10_bad");
    let found = ids(&bad);
    assert!(
        !found.is_empty() && found.iter().all(|id| *id == "R10"),
        "{}",
        bad.to_text()
    );
    assert!(
        bad.findings
            .iter()
            .any(|f| f.message.contains("fixed order")),
        "{}",
        bad.to_text()
    );

    let good = analyze("r10_good");
    assert!(ids(&good).is_empty(), "{}", good.to_text());
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
    // Findings and proofs both survive the round trip.
    for name in ["r8_bad", "r8_good", "r10_bad"] {
        let report = analyze(name);
        let sarif_text = sarif::to_sarif(&report);
        sarif::validate_sarif(&sarif_text)
            .unwrap_or_else(|e| panic!("{name} SARIF failed validation: {e}"));
    }
    let bad = sarif::to_sarif(&analyze("r8_bad"));
    assert!(bad.contains("\"ruleId\":\"R8\""), "{bad}");
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
    let report = analyze_root(workspace_root()).expect("workspace readable");
    assert!(
        report.findings.is_empty(),
        "workspace has findings:\n{}",
        report.to_text()
    );
    // R8 certifies every entry point in `PANIC_ROOTS` (a root that no
    // longer resolves loses its proof and fails here), with no residual
    // unresolved edge to a panicking fn.
    let roots: Vec<&str> = report.proofs.iter().map(|p| p.root.as_str()).collect();
    assert_eq!(roots, PANIC_ROOTS, "{}", report.to_text());
    for p in &report.proofs {
        assert!(
            p.summary.starts_with("panic-free:"),
            "{} is not proven panic-free:\n{}",
            p.root,
            report.to_text()
        );
    }
}

/// The attribute that denies panicking calls and macros in every crate
/// root (and `isa/src/asm.rs`) in R2's scope. Matched with whitespace
/// removed, so any formatting of it counts.
const PANIC_DENY: &str = "#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, \
    clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented))]";

#[test]
fn cycle_crates_carry_the_clippy_settings() {
    let root = workspace_root();
    // The crates with a clippy.toml are exactly the cycle crates.
    let mut with_toml: Vec<String> = fs::read_dir(root.join("crates"))
        .expect("crates dir readable")
        .filter_map(|e| e.ok())
        .filter(|e| e.path().join("clippy.toml").is_file())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    with_toml.sort();
    let mut cycle: Vec<&str> = CYCLE_CRATES.to_vec();
    cycle.sort();
    assert_eq!(with_toml, cycle);
    // One shared file, byte for byte.
    let read =
        |c: &str| fs::read(root.join("crates").join(c).join("clippy.toml")).expect("clippy.toml");
    let first = read(CYCLE_CRATES[0]);
    for c in CYCLE_CRATES {
        assert!(
            read(c) == first,
            "crates/{c}/clippy.toml differs from crates/{}",
            CYCLE_CRATES[0]
        );
    }
    // The panic deny sits in every crate root in R2's scope.
    let roots = CYCLE_CRATES
        .iter()
        .chain(["serve"].iter())
        .map(|c| format!("crates/{c}/src/lib.rs"))
        .chain(["crates/isa/src/asm.rs".to_string()]);
    let squash = |s: &str| -> String { s.chars().filter(|c| !c.is_whitespace()).collect() };
    for path in roots {
        let src = fs::read_to_string(root.join(&path)).expect("crate root readable");
        assert!(
            squash(&src).contains(&squash(PANIC_DENY)),
            "{path} lacks `{PANIC_DENY}`"
        );
    }
}
