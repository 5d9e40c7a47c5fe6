//! The `vpir` command-line simulator.
//!
//! ```text
//! vpir run <prog.s|prog.vpir> [--machine M] [--cycles N] [--trace N] [--disasm]
//! vpir asm <prog.s> -o <prog.vpir>
//! vpir disasm <prog.s|prog.vpir>
//! vpir limit <prog.s|prog.vpir> [--insts N]
//! vpir analyze-isa <prog.s|prog.vpir> [--format text|json]
//! vpir analyze-isa --all-workloads [--format text|json] [--insts N]
//! vpir analyze [--root DIR] [--format text|json|sarif] [--call-graph FN]
//! vpir bench [--full] [--scale N] [--jobs N] [--out PATH] [--compare-sequential]
//!            [--bench NAME] [--dump-dir DIR] [--resume]
//!            [--inject-fault <bench>/<config>[:panic|:wedge]]
//! vpir bench --cycle-rate [--baseline PATH] [--gate-pct N] [--out PATH]
//! vpir serve [--addr HOST:PORT] [--workers N] [--queue N] [--cache N]
//!            [--cache-dir DIR] [--disk-bytes N] [--request-deadline-ms N]
//!            [--idle-timeout-ms N] [--read-deadline-ms N] [--max-requests N]
//!            [--inject-fault corrupt-store|truncate-store]
//! vpir loadgen --addr HOST:PORT [--conns N] [--duration-ms N]
//!              [--mix hit-heavy|miss-heavy|matrix|malformed|slowloris]
//!              [--out PATH]
//!
//! machines: any registry label (base (default), magic:NME-NSB:vl1,
//!           lvp:ME-SB:vl0, ir_early, ir_late, rtb:t4, rtb:t8, hybrid,
//!           ...), or the aliases vp, lvp, stride, ir, ir-late, rtb
//! ```
//!
//! `bench` exits nonzero when any matrix cell fails, summarizing each
//! failed cell; with `--dump-dir` the per-job results and failure dumps
//! persist, and `--resume` re-executes only the missing or failed cells.
//!
//! `bench --cycle-rate` writes a focused `BENCH_cycles.json` cycles/sec
//! record; with `--baseline` it exits nonzero when the measured rate
//! regresses more than `--gate-pct` percent (default 10) below the
//! committed baseline.
//!
//! `serve` prints the bound address on stdout (so scripts can discover
//! an ephemeral port) and runs until `POST /v1/shutdown` arrives. With
//! `--cache-dir` the result cache gains a crash-safe disk tier that
//! survives restarts (prior hits answer `X-Cache: hit-disk`
//! byte-identically); `--request-deadline-ms` bounds each simulation
//! (a structured 504 past it), and the read/idle deadlines bound how
//! long a slow client can hold a connection (408 on a mid-request
//! stall).
//!
//! `loadgen` drives a running server with one of five traffic mixes
//! (including malformed and slowloris chaos), verifies repeated hits
//! are byte-identical under load, and writes a schema-validated
//! `BENCH_serve.json` with throughput, latency percentiles, and
//! error/shed counts.
//!
//! `analyze-isa` runs the guest static analyzer (CFG, loops, constant
//! propagation, lints L1–L4); with `--all-workloads` it also
//! cross-validates the static redundancy classes against the dynamic
//! limit study and exits nonzero on any lint finding or any statically
//! invariant instruction the dynamic study contradicts.
//!
//! `analyze` runs the *host*-code analyzer over the workspace's own
//! Rust sources: rules R2/R4/R7 plus the workspace-wide passes R8–R10
//! (panic-reachability, relaxed-atomic control flow, lock-order). SARIF
//! 2.1.0 output is available for CI upload, and `--call-graph FN`
//! dumps the resolved call tree under any workspace function.

use std::env;
use std::fs;
use std::process::ExitCode;

use vpir::analyze;
use vpir::core::{CoreConfig, RunLimits, Simulator};
use vpir::mechanism::registry;
use vpir::bench::matrix::{InjectFault, MatrixConfig, RunOptions};
use vpir::bench::perf::{
    measure_cycle_rate, run_matrix_timed_opts, validate_json, CYCLES_REQUIRED_KEYS, REQUIRED_KEYS,
};
use vpir::isa::{asm, image, Program};
use vpir::isa_analyze::{analyze_program, cross_validate, REQUIRED_KEYS as ANALYZE_KEYS};
use vpir::redundancy::{analyze, analyze_per_pc, LimitConfig};
use vpir::serve::loadgen::{self, LoadgenConfig, Mix};
use vpir::serve::{ServeConfig, Server, StoreFault};
use vpir::workloads::{Bench, Scale};

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  vpir run <prog.s|prog.vpir> [--machine M] [--cycles N] [--trace N] [--disasm]\n  \
         vpir asm <prog.s> -o <prog.vpir>\n  \
         vpir disasm <prog.s|prog.vpir>\n  \
         vpir limit <prog.s|prog.vpir> [--insts N]\n  \
         vpir analyze-isa <prog.s|prog.vpir|--all-workloads> [--format text|json] [--insts N]\n  \
         vpir analyze [--root DIR] [--format text|json|sarif] [--call-graph FN]\n  \
         vpir bench [--full] [--scale N] [--jobs N] [--out PATH] [--compare-sequential]\n  \
         \x20          [--bench NAME] [--dump-dir DIR] [--resume] [--inject-fault SPEC]\n  \
         vpir bench --cycle-rate [--baseline PATH] [--gate-pct N] [--out PATH]\n  \
         vpir serve [--addr HOST:PORT] [--workers N] [--queue N] [--cache N]\n  \
         \x20          [--cache-dir DIR] [--disk-bytes N] [--request-deadline-ms N]\n  \
         \x20          [--idle-timeout-ms N] [--read-deadline-ms N] [--max-requests N]\n  \
         \x20          [--inject-fault corrupt-store|truncate-store]\n  \
         vpir loadgen --addr HOST:PORT [--conns N] [--duration-ms N] [--mix MIX] [--out PATH]\n\
         \x20          [--baseline PATH] [--gate-pct N]\n\n\
         machines: any registry label: base | <magic|lvp|stride>:<ME|NME>-<SB|NSB>:vl<0|1>\n\
         \x20         | ir_early | ir_late | rtb:t4 | rtb:t8 | hybrid\n\
         \x20         or vp | lvp | stride | ir | ir-late | rtb"
    );
    ExitCode::FAILURE
}

fn load_program(path: &str) -> Result<Program, String> {
    let bytes = fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    if bytes.starts_with(b"VPIR") {
        image::read(&bytes).map_err(|e| format!("{path}: {e}"))
    } else {
        let src = String::from_utf8(bytes).map_err(|_| format!("{path}: not UTF-8"))?;
        asm::assemble(&src).map_err(|e| e.at_file(path))
    }
}

/// `--machine` shorthands, each naming a registry label.
const MACHINE_ALIASES: [(&str, &str); 6] = [
    ("vp", "magic:ME-SB:vl0"),
    ("lvp", "lvp:ME-SB:vl0"),
    ("stride", "stride:ME-SB:vl0"),
    ("ir", "ir_early"),
    ("ir-late", "ir_late"),
    ("rtb", "rtb:t8"),
];

/// Resolves a `--machine` value: a registry label (`base`,
/// `magic:NME-NSB:vl1`, `ir_late`, `rtb:t4`, `hybrid`, ...) — the same
/// vocabulary the bench matrix, fault injection, and `vpir serve` use —
/// or one of its aliases.
fn parse_machine(spec: &str) -> Result<CoreConfig, String> {
    let label = MACHINE_ALIASES
        .iter()
        .find(|(alias, _)| *alias == spec)
        .map_or(spec, |(_, label)| label);
    registry::enhancement_for_label(label)
        .map(CoreConfig::with_enhancement)
        .ok_or_else(|| format!("unknown machine `{spec}`"))
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    let result = match cmd.as_str() {
        "run" => cmd_run(&args[1..]),
        "asm" => cmd_asm(&args[1..]),
        "disasm" => cmd_disasm(&args[1..]),
        "limit" => cmd_limit(&args[1..]),
        "analyze-isa" => cmd_analyze_isa(&args[1..]),
        "analyze" => cmd_analyze(&args[1..]),
        "bench" => cmd_bench(&args[1..]),
        "serve" => cmd_serve(&args[1..]),
        "loadgen" => cmd_loadgen(&args[1..]),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let Some(path) = args.first() else {
        return Err("run: missing program path".into());
    };
    let mut machine = "base".to_string();
    let mut cycles: u64 = 200_000_000;
    let mut trace: usize = 0;
    let mut show_disasm = false;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--machine" => {
                i += 1;
                machine = args.get(i).cloned().ok_or("--machine needs a value")?;
            }
            "--cycles" => {
                i += 1;
                cycles = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or("--cycles needs a number")?;
            }
            "--trace" => {
                i += 1;
                trace = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or("--trace needs a count")?;
            }
            "--disasm" => show_disasm = true,
            other => return Err(format!("run: unknown option `{other}`")),
        }
        i += 1;
    }

    let program = load_program(path)?;
    if show_disasm {
        print!("{}", program.disassemble());
        println!();
    }
    let mut sim = Simulator::new(&program, parse_machine(&machine)?);
    if trace > 0 {
        sim.enable_trace(trace);
    }
    sim.run(RunLimits::cycles(cycles));
    if !sim.halted() {
        eprintln!("(cycle limit reached before halt)");
    }
    print!("{}", sim.stats().report());
    if let Some(t) = sim.trace() {
        println!("\ntrace of the first {} dispatches:", t.records().len());
        print!("{}", t.render());
    }
    Ok(())
}

fn cmd_asm(args: &[String]) -> Result<(), String> {
    let (Some(input), Some(flag), Some(output)) = (args.first(), args.get(1), args.get(2))
    else {
        return Err("asm: expected <prog.s> -o <prog.vpir>".into());
    };
    if flag != "-o" {
        return Err("asm: expected -o <output>".into());
    }
    let src = fs::read_to_string(input).map_err(|e| format!("{input}: {e}"))?;
    let program = asm::assemble(&src).map_err(|e| e.at_file(input))?;
    let bytes = image::write(&program).map_err(|e| e.to_string())?;
    fs::write(output, &bytes).map_err(|e| format!("{output}: {e}"))?;
    println!(
        "{output}: {} instructions, {} data segment(s), {} bytes",
        program.insts.len(),
        program.data.len(),
        bytes.len()
    );
    Ok(())
}

fn cmd_disasm(args: &[String]) -> Result<(), String> {
    let Some(path) = args.first() else {
        return Err("disasm: missing program path".into());
    };
    let program = load_program(path)?;
    print!("{}", program.disassemble());
    Ok(())
}

/// Runs the measured benchmark matrix and writes `BENCH_matrix.json`.
///
/// Fault-isolated: a failed cell degrades to a `failures` row in the
/// report and a nonzero exit, while every other cell still produces
/// numbers. `--dump-dir` persists per-job results incrementally so
/// `--resume` can complete an interrupted or partially failed run.
fn cmd_bench(args: &[String]) -> Result<(), String> {
    let mut cfg = MatrixConfig::quick();
    let mut jobs = 0usize; // 0 = available parallelism
    let mut out_path: Option<String> = None;
    let mut compare_sequential = false;
    let mut benches: Vec<Bench> = Bench::ALL.to_vec();
    let mut opts = RunOptions::default();
    let mut cycle_rate = false;
    let mut baseline_path: Option<String> = None;
    let mut gate_pct: u64 = 10;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--full" => cfg = MatrixConfig::experiment(),
            "--cycle-rate" => cycle_rate = true,
            "--baseline" => {
                i += 1;
                baseline_path = Some(args.get(i).cloned().ok_or("--baseline needs a path")?);
            }
            "--gate-pct" => {
                i += 1;
                gate_pct = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or("--gate-pct needs a number")?;
            }
            "--scale" => {
                i += 1;
                let n: u32 = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or("--scale needs a number")?;
                cfg.scale = Scale::of(n);
            }
            "--jobs" => {
                i += 1;
                jobs = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or("--jobs needs a number")?;
            }
            "--out" => {
                i += 1;
                out_path = Some(args.get(i).cloned().ok_or("--out needs a path")?);
            }
            "--compare-sequential" => compare_sequential = true,
            "--bench" => {
                i += 1;
                let name = args.get(i).ok_or("--bench needs a name")?;
                let bench = Bench::ALL
                    .into_iter()
                    .find(|b| b.name() == name)
                    .ok_or_else(|| format!("unknown benchmark `{name}`"))?;
                benches = vec![bench];
            }
            "--dump-dir" => {
                i += 1;
                let dir = args.get(i).cloned().ok_or("--dump-dir needs a path")?;
                opts.dump_dir = Some(dir.into());
            }
            "--resume" => opts.resume = true,
            "--inject-fault" => {
                i += 1;
                let spec = args.get(i).ok_or("--inject-fault needs <bench>/<config>")?;
                let fault = InjectFault::parse(spec).map_err(|e| format!("--inject-fault: {e}"))?;
                opts.inject_fault = Some(fault);
            }
            other => return Err(format!("bench: unknown option `{other}`")),
        }
        i += 1;
    }
    if opts.resume && opts.dump_dir.is_none() {
        return Err("--resume requires --dump-dir".into());
    }
    if baseline_path.is_some() && !cycle_rate {
        return Err("--baseline requires --cycle-rate".into());
    }

    if cycle_rate {
        let out_path = out_path.unwrap_or_else(|| "BENCH_cycles.json".to_string());
        let rate = measure_cycle_rate(&benches, cfg, jobs)?;
        let json = rate.to_json();
        validate_json(&json, CYCLES_REQUIRED_KEYS)
            .map_err(|e| format!("emitted JSON failed self-validation: {e}"))?;
        fs::write(&out_path, &json).map_err(|e| format!("{out_path}: {e}"))?;
        println!("{}", rate.summary());
        println!("wrote {out_path}");
        if let Some(baseline) = baseline_path {
            let text = fs::read_to_string(&baseline).map_err(|e| format!("{baseline}: {e}"))?;
            let verdict = rate.gate(&text, gate_pct)?;
            println!("{verdict}");
        }
        return Ok(());
    }

    let out_path = out_path.unwrap_or_else(|| "BENCH_matrix.json".to_string());
    let (outcome, perf) = run_matrix_timed_opts(&benches, cfg, jobs, compare_sequential, &opts);
    let json = perf.to_json();
    validate_json(&json, REQUIRED_KEYS)
        .map_err(|e| format!("emitted JSON failed self-validation: {e}"))?;
    fs::write(&out_path, &json).map_err(|e| format!("{out_path}: {e}"))?;
    println!("{}", perf.summary());
    if outcome.resumed_jobs > 0 {
        println!(
            "resumed {} of {} cells from the dump directory",
            outcome.resumed_jobs, outcome.total_jobs
        );
    }
    println!("wrote {out_path}");
    if let Some((_, _, identical)) = perf.sequential {
        if !identical {
            return Err("parallel result is not bit-identical to sequential".into());
        }
    }
    if !outcome.failures.is_empty() {
        for f in &outcome.failures {
            let dump = f
                .dump_path
                .as_ref()
                .map(|p| format!(" (dump: {})", p.display()))
                .unwrap_or_default();
            eprintln!("failed cell {}/{}: [{}] {}{}", f.bench, f.config, f.kind, f.error, dump);
        }
        return Err(format!(
            "{} of {} matrix cells failed",
            outcome.failures.len(),
            outcome.total_jobs
        ));
    }
    Ok(())
}

/// Starts the HTTP simulation service and blocks until it shuts down.
///
/// The bound address is printed on stdout first — with `--addr` port 0
/// the OS picks an ephemeral port, and scripts (CI included) read the
/// line to discover it. Shutdown arrives as `POST /v1/shutdown`; the
/// workspace forbids `unsafe`, so there is no signal handler to catch
/// SIGTERM — the admin endpoint is the graceful path.
fn cmd_serve(args: &[String]) -> Result<(), String> {
    let mut cfg = ServeConfig::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => {
                i += 1;
                cfg.addr = args.get(i).cloned().ok_or("--addr needs host:port")?;
            }
            "--workers" => {
                i += 1;
                cfg.workers = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or("--workers needs a number")?;
            }
            "--queue" => {
                i += 1;
                cfg.queue_capacity = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or("--queue needs a number")?;
            }
            "--cache" => {
                i += 1;
                cfg.cache_capacity = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or("--cache needs a number")?;
            }
            "--cache-dir" => {
                i += 1;
                let dir = args.get(i).cloned().ok_or("--cache-dir needs a path")?;
                cfg.cache_dir = Some(dir.into());
            }
            "--disk-bytes" => {
                i += 1;
                cfg.cache_disk_bytes = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or("--disk-bytes needs a number")?;
            }
            "--request-deadline-ms" => {
                i += 1;
                let ms: u64 = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or("--request-deadline-ms needs a number")?;
                cfg.request_deadline = std::time::Duration::from_millis(ms.max(1));
            }
            "--idle-timeout-ms" => {
                i += 1;
                let ms: u64 = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or("--idle-timeout-ms needs a number")?;
                cfg.idle_timeout = std::time::Duration::from_millis(ms.max(1));
            }
            "--read-deadline-ms" => {
                i += 1;
                let ms: u64 = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or("--read-deadline-ms needs a number")?;
                cfg.read_deadline = std::time::Duration::from_millis(ms.max(1));
            }
            "--max-requests" => {
                i += 1;
                cfg.max_requests_per_conn = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or("--max-requests needs a number")?;
            }
            "--inject-fault" => {
                i += 1;
                let spec = args.get(i).ok_or("--inject-fault needs a fault name")?;
                cfg.inject_fault = Some(StoreFault::parse(spec).map_err(|e| format!("serve: {e}"))?);
            }
            other => return Err(format!("serve: unknown option `{other}`")),
        }
        i += 1;
    }
    if cfg.workers == 0 {
        return Err("serve: --workers must be at least 1".into());
    }
    if cfg.queue_capacity == 0 {
        return Err("serve: --queue must be at least 1".into());
    }
    if cfg.max_requests_per_conn == 0 {
        return Err("serve: --max-requests must be at least 1".into());
    }
    if cfg.inject_fault.is_some() && cfg.cache_dir.is_none() {
        return Err("serve: --inject-fault requires --cache-dir".into());
    }
    let server = Server::start(cfg).map_err(|e| format!("serve: bind failed: {e}"))?;
    println!("listening on {}", server.addr());
    server.join();
    println!("shutdown complete");
    Ok(())
}

/// Drives a running `vpir serve` instance with one of the loadgen
/// traffic mixes and writes the schema-validated `BENCH_serve.json`
/// report (throughput, latency percentiles, error/shed counts, cache
/// hit ratio, byte-identity violations).
fn cmd_loadgen(args: &[String]) -> Result<(), String> {
    let mut cfg = LoadgenConfig {
        addr: String::new(),
        conns: 8,
        duration: std::time::Duration::from_millis(2000),
        mix: Mix::HitHeavy,
    };
    let mut out_path = "BENCH_serve.json".to_string();
    let mut baseline_path: Option<String> = None;
    let mut gate_pct: u64 = 10;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => {
                i += 1;
                cfg.addr = args.get(i).cloned().ok_or("--addr needs host:port")?;
            }
            "--conns" => {
                i += 1;
                cfg.conns = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or("--conns needs a number")?;
            }
            "--duration-ms" => {
                i += 1;
                let ms: u64 = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or("--duration-ms needs a number")?;
                cfg.duration = std::time::Duration::from_millis(ms.max(1));
            }
            "--mix" => {
                i += 1;
                let name = args.get(i).ok_or("--mix needs a name")?;
                cfg.mix = Mix::parse(name)
                    .ok_or_else(|| format!("unknown mix `{name}` (valid: {})", Mix::ALL_NAMES))?;
            }
            "--out" => {
                i += 1;
                out_path = args.get(i).cloned().ok_or("--out needs a path")?;
            }
            "--baseline" => {
                i += 1;
                baseline_path = Some(args.get(i).cloned().ok_or("--baseline needs a path")?);
            }
            "--gate-pct" => {
                i += 1;
                gate_pct = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or("--gate-pct needs a number")?;
            }
            other => return Err(format!("loadgen: unknown option `{other}`")),
        }
        i += 1;
    }
    if cfg.addr.is_empty() {
        return Err("loadgen: --addr is required".into());
    }
    if cfg.conns == 0 {
        return Err("loadgen: --conns must be at least 1".into());
    }
    let report = loadgen::run(&cfg).map_err(|e| format!("loadgen: {e}"))?;
    fs::write(&out_path, &report).map_err(|e| format!("{out_path}: {e}"))?;
    println!("{report}");
    println!("wrote {out_path}");
    if let Some(path) = baseline_path {
        let baseline = fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        let verdict = loadgen::gate(&report, &baseline, gate_pct)?;
        println!("{verdict}");
    }
    Ok(())
}

/// Runs the guest static analyzer on one program, or — with
/// `--all-workloads` — on every built-in benchmark, cross-validating
/// the static redundancy classes against the dynamic limit study.
///
/// Returns `Err` (nonzero exit) on any lint finding, and in
/// `--all-workloads` mode also on any statically invariant instruction
/// the dynamic study contradicts: both mean the analysis or the guest
/// program regressed.
fn cmd_analyze_isa(args: &[String]) -> Result<(), String> {
    let mut path: Option<&str> = None;
    let mut all_workloads = false;
    let mut json_out = false;
    let mut insts: u64 = 200_000;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--all-workloads" => all_workloads = true,
            "--format" => {
                i += 1;
                match args.get(i).map(String::as_str) {
                    Some("text") => json_out = false,
                    Some("json") => json_out = true,
                    _ => return Err("--format needs text|json".into()),
                }
            }
            "--insts" => {
                i += 1;
                insts = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or("--insts needs a number")?;
            }
            other if !other.starts_with('-') && path.is_none() => path = Some(other),
            other => return Err(format!("analyze-isa: unknown option `{other}`")),
        }
        i += 1;
    }

    if !all_workloads {
        let path = path.ok_or("analyze-isa: missing program path (or --all-workloads)")?;
        let program = load_program(path)?;
        let analysis = analyze_program(&program, path);
        if json_out {
            let json = analysis.to_json();
            validate_json(&json, ANALYZE_KEYS)
                .map_err(|e| format!("emitted JSON failed self-validation: {e}"))?;
            println!("{json}");
        } else {
            print!("{}", analysis.to_text());
        }
        if !analysis.findings.is_empty() {
            return Err(format!(
                "analyze-isa: {} lint finding(s) in {path}",
                analysis.findings.len()
            ));
        }
        return Ok(());
    }

    if path.is_some() {
        return Err("analyze-isa: --all-workloads does not take a program path".into());
    }
    let mut total_live = 0usize;
    let mut total_fps = 0usize;
    let mut parts: Vec<String> = Vec::new();
    for bench in Bench::ALL {
        let program = bench.program(Scale::test());
        let analysis = analyze_program(&program, bench.name());
        let (_, per_pc) = analyze_per_pc(&program, insts, LimitConfig::default());
        let xv = cross_validate(&analysis.insts, &per_pc);
        total_live += analysis.findings.len();
        total_fps += xv.false_positive_pcs.len();
        if json_out {
            parts.push(format!(
                "{{\"name\":\"{}\",\"analysis\":{},\"xval\":{}}}",
                bench.name(),
                analysis.to_json(),
                xv.to_json()
            ));
        } else {
            let (inv, stride, dep, producers) = analysis.class_counts();
            println!(
                "== {} ==  {} inst(s), {} block(s), {} loop(s)",
                bench.name(),
                analysis.insts.len(),
                analysis.cfg.blocks.len(),
                analysis.loops.loops.len()
            );
            println!(
                "  static: {producers} producers = {inv} invariant + {stride} stride-derivable \
                 + {dep} input-dependent"
            );
            println!(
                "  xval:   universe {}  static-invariant {}  dynamic-repeated {}  TP {}  \
                 precision {:.3}  recall {:.3}",
                xv.universe,
                xv.static_invariant,
                xv.dynamic_repeated,
                xv.true_positives,
                xv.precision(),
                xv.recall()
            );
            for f in &analysis.findings {
                println!("  {}: {}({}): {}", f.location(), f.rule.id(), f.rule.name(), f.message);
            }
            for pc in &xv.false_positive_pcs {
                println!("  false positive: {pc:#x} statically invariant but never repeated");
            }
        }
    }
    if json_out {
        let json = format!(
            "{{\"schema\":\"vpir-analyze-isa-v1\",\"insts_per_workload\":{insts},\
             \"workloads\":[{}],\"live\":{total_live},\"false_positives\":{total_fps}}}",
            parts.join(",")
        );
        validate_json(&json, &["schema", "workloads", "live", "false_positives"])
            .map_err(|e| format!("emitted JSON failed self-validation: {e}"))?;
        println!("{json}");
    }
    if total_live > 0 || total_fps > 0 {
        return Err(format!(
            "analyze-isa: {total_live} lint finding(s), {total_fps} cross-validation \
             false positive(s) across the workloads"
        ));
    }
    Ok(())
}

/// Runs the host-code analyzer (rules R2/R4/R7 + workspace-wide passes
/// R8–R10) over the workspace's own Rust sources, or dumps the call tree
/// under one function with `--call-graph`.
///
/// Returns `Err` (nonzero exit) on any finding: the workspace keeps
/// itself clean under its own analyzer.
fn cmd_analyze(args: &[String]) -> Result<(), String> {
    let mut root = String::from(".");
    let mut format = "text".to_string();
    let mut call_graph: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--root" => {
                i += 1;
                root = args.get(i).cloned().ok_or("--root needs a directory")?;
            }
            "--format" => {
                i += 1;
                match args.get(i).map(String::as_str) {
                    Some(f @ ("text" | "json" | "sarif")) => format = f.to_string(),
                    _ => return Err("--format needs text|json|sarif".into()),
                }
            }
            "--call-graph" => {
                i += 1;
                call_graph = Some(
                    args.get(i)
                        .cloned()
                        .ok_or("--call-graph needs a function name")?,
                );
            }
            other => return Err(format!("analyze: unknown option `{other}`")),
        }
        i += 1;
    }
    if let Some(spec) = call_graph {
        let tree = analyze::dump_call_graph(root.as_ref(), &spec)
            .map_err(|e| format!("analyze: cannot read {root}: {e}"))?
            .map_err(|msg| format!("analyze: {msg}"))?;
        print!("{tree}");
        return Ok(());
    }
    let report = analyze::analyze_root(root.as_ref())
        .map_err(|e| format!("analyze: cannot read {root}: {e}"))?;
    if report.files_scanned == 0 {
        return Err(format!("analyze: no Rust sources under {root}"));
    }
    match format.as_str() {
        "json" => println!("{}", report.to_json()),
        "sarif" => {
            let sarif = analyze::sarif::to_sarif(&report);
            analyze::sarif::validate_sarif(&sarif)
                .map_err(|e| format!("emitted SARIF failed self-validation: {e}"))?;
            println!("{sarif}");
        }
        _ => print!("{}", report.to_text()),
    }
    let found = report.findings.len();
    if found > 0 {
        return Err(format!("analyze: {found} finding(s)"));
    }
    Ok(())
}

fn cmd_limit(args: &[String]) -> Result<(), String> {
    let Some(path) = args.first() else {
        return Err("limit: missing program path".into());
    };
    let mut insts: u64 = 5_000_000;
    if let Some(flag) = args.get(1) {
        if flag == "--insts" {
            insts = args
                .get(2)
                .and_then(|s| s.parse().ok())
                .ok_or("--insts needs a number")?;
        }
    }
    let program = load_program(path)?;
    let study = analyze(&program, insts, LimitConfig::default());
    let (u, r, d, un) = study.classification_pct();
    let (pr, far, near) = study.readiness_pct();
    println!(
        "result producers: {}\nclassification: unique {u:.1}%  repeated {r:.1}%  \
         derivable {d:.1}%  unaccounted {un:.1}%",
        study.total
    );
    println!(
        "repeated inputs: producers-reused {pr:.1}%  ready(dist>=50) {far:.1}%  \
         not-ready {near:.1}%"
    );
    println!(
        "redundant: {:.1}% of producers; reusable: {:.1}% of the redundancy",
        study.redundant_pct(),
        study.reusable_pct()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpir::core::VpConfig;

    #[test]
    fn machine_aliases_name_registry_labels() {
        for (alias, label) in MACHINE_ALIASES {
            assert!(registry::enhancement_for_label(label).is_some(), "{alias} -> {label}");
        }
        assert_eq!(parse_machine("vp"), Ok(CoreConfig::with_vp(VpConfig::magic())));
        assert_eq!(parse_machine("magic:ME-SB:vl0"), parse_machine("vp"));
        assert!(parse_machine("hybrid").is_ok());
        assert!(parse_machine("vp:nme-nsb:vl1").is_err(), "the lowercase grammar is gone");
    }
}
