//! The `vpir` binary's argument errors.
//!
//! Every invocation below fails while its arguments are read, before a
//! program is loaded, a socket bound or a simulation started. Each must
//! exit with status 1 and print exactly one line on stderr.

use std::process::Command;

/// (arguments, the one stderr line after `error: `).
const FAILURES: &[(&[&str], &str)] = &[
    // run
    (&["run"], "run: missing program path"),
    (&["run", "prog.s", "--machine"], "--machine needs a value"),
    (&["run", "prog.s", "--cycles"], "--cycles needs a number"),
    (&["run", "prog.s", "--cycles", "many"], "--cycles needs a number"),
    (&["run", "prog.s", "--trace"], "--trace needs a count"),
    (&["run", "prog.s", "--trace", "many"], "--trace needs a count"),
    (&["run", "prog.s", "--bogus"], "run: unknown option `--bogus`"),
    // asm
    (&["asm"], "asm: expected <prog.s> -o <prog.vpir>"),
    (&["asm", "prog.s", "-o"], "asm: expected <prog.s> -o <prog.vpir>"),
    (&["asm", "prog.s", "--bogus", "prog.vpir"], "asm: expected -o <output>"),
    // limit
    (&["limit"], "limit: missing program path"),
    (&["limit", "prog.s", "--insts"], "--insts needs a number"),
    (&["limit", "prog.s", "--insts", "many"], "--insts needs a number"),
    (&["limit", "prog.s", "--bogus"], "limit: unknown option `--bogus`"),
    (&["limit", "prog.s", "--insts", "5", "--bogus"], "limit: unknown option `--bogus`"),
    // analyze-isa
    (&["analyze-isa"], "analyze-isa: missing program path (or --all-workloads)"),
    (&["analyze-isa", "--format"], "--format needs text|json"),
    (&["analyze-isa", "--format", "xml"], "--format needs text|json"),
    (&["analyze-isa", "--insts"], "--insts needs a number"),
    (&["analyze-isa", "--insts", "many"], "--insts needs a number"),
    (&["analyze-isa", "--bogus"], "analyze-isa: unknown option `--bogus`"),
    (
        &["analyze-isa", "--all-workloads", "prog.s"],
        "analyze-isa: --all-workloads does not take a program path",
    ),
    // analyze
    (&["analyze", "--root"], "--root needs a directory"),
    (&["analyze", "--format"], "--format needs text|json|sarif"),
    (&["analyze", "--format", "xml"], "--format needs text|json|sarif"),
    (&["analyze", "--call-graph"], "--call-graph needs a function name"),
    (&["analyze", "--bogus"], "analyze: unknown option `--bogus`"),
    // bench
    (&["bench", "--baseline"], "--baseline needs a path"),
    (&["bench", "--gate-pct"], "--gate-pct needs a number"),
    (&["bench", "--gate-pct", "many"], "--gate-pct needs a number"),
    (&["bench", "--scale"], "--scale needs a number"),
    (&["bench", "--scale", "many"], "--scale needs a number"),
    (&["bench", "--jobs"], "--jobs needs a number"),
    (&["bench", "--jobs", "many"], "--jobs needs a number"),
    (&["bench", "--out"], "--out needs a path"),
    (&["bench", "--bench"], "--bench needs a name"),
    (&["bench", "--bench", "warp"], "unknown benchmark `warp`"),
    (&["bench", "--dump-dir"], "--dump-dir needs a path"),
    (&["bench", "--inject-fault"], "--inject-fault needs <bench>/<config>"),
    (
        &["bench", "--inject-fault", "warp"],
        "--inject-fault: bad fault target `warp`: want <bench>/<config>[:panic|:wedge]",
    ),
    (&["bench", "--bogus"], "bench: unknown option `--bogus`"),
    (&["bench", "--resume"], "--resume requires --dump-dir"),
    (&["bench", "--baseline", "B"], "--baseline requires --cycle-rate"),
    // serve
    (&["serve", "--addr"], "--addr needs host:port"),
    (&["serve", "--workers"], "--workers needs a number"),
    (&["serve", "--workers", "many"], "--workers needs a number"),
    (&["serve", "--queue"], "--queue needs a number"),
    (&["serve", "--queue", "many"], "--queue needs a number"),
    (&["serve", "--cache-dir"], "--cache-dir needs a path"),
    (&["serve", "--request-deadline-ms"], "--request-deadline-ms needs a number"),
    (&["serve", "--request-deadline-ms", "many"], "--request-deadline-ms needs a number"),
    (&["serve", "--idle-timeout-ms"], "--idle-timeout-ms needs a number"),
    (&["serve", "--idle-timeout-ms", "many"], "--idle-timeout-ms needs a number"),
    (&["serve", "--read-deadline-ms"], "--read-deadline-ms needs a number"),
    (&["serve", "--read-deadline-ms", "many"], "--read-deadline-ms needs a number"),
    (&["serve", "--inject-fault"], "--inject-fault needs a fault name"),
    (
        &["serve", "--inject-fault", "warp"],
        "serve: unknown serve fault `warp` (valid: corrupt-store, truncate-store)",
    ),
    (&["serve", "--bogus"], "serve: unknown option `--bogus`"),
    (&["serve", "--workers", "0"], "serve: --workers must be at least 1"),
    (&["serve", "--queue", "0"], "serve: --queue must be at least 1"),
    (&["serve", "--inject-fault", "corrupt-store"], "serve: --inject-fault requires --cache-dir"),
    // loadgen
    (&["loadgen"], "loadgen: --addr is required"),
    (&["loadgen", "--addr"], "--addr needs host:port"),
    (&["loadgen", "--conns"], "--conns needs a number"),
    (&["loadgen", "--conns", "many"], "--conns needs a number"),
    (&["loadgen", "--duration-ms"], "--duration-ms needs a number"),
    (&["loadgen", "--duration-ms", "many"], "--duration-ms needs a number"),
    (&["loadgen", "--mix"], "--mix needs a name"),
    (
        &["loadgen", "--mix", "warp"],
        "unknown mix `warp` (valid: hit-heavy, miss-heavy, matrix, malformed, slowloris)",
    ),
    (&["loadgen", "--out"], "--out needs a path"),
    (&["loadgen", "--baseline"], "--baseline needs a path"),
    (&["loadgen", "--gate-pct"], "--gate-pct needs a number"),
    (&["loadgen", "--gate-pct", "many"], "--gate-pct needs a number"),
    (&["loadgen", "--bogus"], "loadgen: unknown option `--bogus`"),
    (&["loadgen", "--addr", "127.0.0.1:1", "--conns", "0"], "loadgen: --conns must be at least 1"),
];

fn vpir(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_vpir"))
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("vpir {args:?} did not start: {e}"));
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn argument_errors_exit_1_with_one_stderr_line() {
    let mut wrong = Vec::new();
    for (args, line) in FAILURES {
        let want = (Some(1), format!("error: {line}\n"));
        let got = vpir(args);
        if got != want {
            wrong.push(format!("vpir {args:?}: got {got:?}, want {want:?}"));
        }
    }
    assert!(
        wrong.is_empty(),
        "{} of {} invocations:\n{}",
        wrong.len(),
        FAILURES.len(),
        wrong.join("\n")
    );
}

#[test]
fn a_missing_or_unknown_subcommand_prints_usage() {
    for args in [&[][..], &["warp"]] {
        let (code, stderr) = vpir(args);
        assert_eq!(code, Some(1), "vpir {args:?}");
        assert!(stderr.starts_with("usage:\n  vpir run "), "vpir {args:?}: {stderr}");
    }
}
