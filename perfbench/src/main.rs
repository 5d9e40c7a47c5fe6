//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <matrix|families|serve-mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a table of every metric with its unit and sample count, then,
//! as the last line, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics of `BENCHMARK.json`
//! for `--trace 0`, its per-layer metrics for `--trace 1`. Exits 1 when
//! any output is wrong, 2 on bad arguments. See `perfbench/README.md`.

mod profile;
mod report;
mod run;
mod serve;
mod sim;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use report::{print_table, result_line};

/// The benchmark's definition: metric names are read
/// from it, so the output cannot drift from the file.
const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Matrix,
    Families,
    ServeMixed,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "matrix" => Some(Workload::Matrix),
            "families" => Some(Workload::Families),
            "serve-mixed" => Some(Workload::ServeMixed),
            _ => None,
        }
    }
}

/// The `"name"` values of one top-level list of `BENCHMARK.json`
/// (`end_to_end` or `per_layer`; the lists appear in the order
/// `workloads`, `end_to_end`, `per_layer`). `vpir_jsonlite` holds integers only, and the file has
/// fractional bounds, so the names are cut out of the text.
fn names(section: &str) -> Vec<String> {
    let sections = ["\"workloads\"", "\"end_to_end\"", "\"per_layer\""];
    let at = |key: &str| BENCHMARK.find(key).expect("BENCHMARK.json lists every section");
    let start = at(&format!("\"{section}\""));
    let end = sections.iter().map(|k| at(k)).filter(|&i| i > start).min().unwrap_or(BENCHMARK.len());
    BENCHMARK[start..end]
        .split("\"name\": \"")
        .skip(1)
        .filter_map(|rest| rest.split('"').next())
        .map(str::to_string)
        .collect()
}

pub static PER_LAYER: std::sync::LazyLock<Vec<String>> =
    std::sync::LazyLock::new(|| names("per_layer"));

struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <matrix|families|serve-mixed> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv.iter().position(|a| a == flag).ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1).cloned().ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let workload = Workload::parse(&name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let seed = get("--seed")?.parse().map_err(|_| "--seed must be an unsigned integer".to_string())?;
    let seconds: f64 = get("--seconds")?.parse().map_err(|_| "--seconds must be a number".to_string())?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
    };
    Ok(Args { workload, name, seed, seconds, trace })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} available_parallelism={workers}",
        args.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let outcome = if args.trace {
        let path = PathBuf::from(format!("target/perfbench/trace-{}-seed{}.jsonl", args.name, args.seed));
        profile::run(args.workload, args.seconds, args.seed, workers, &path)
    } else {
        match args.workload {
            Workload::Matrix => run::matrix(args.seconds, workers),
            Workload::Families => run::families(args.seconds),
            Workload::ServeMixed => run::serve_mixed(args.seconds, args.seed, workers),
        }
    };
    let mut tally = outcome.tally;

    // The result line must carry exactly the metrics BENCHMARK.json names.
    let want = if args.trace { PER_LAYER.clone() } else { names("end_to_end") };
    let got: Vec<String> = outcome.metrics.iter().map(|m| m.name.clone()).collect();
    if got != want {
        tally.fail(format!("reported metrics {got:?} differ from BENCHMARK.json's {want:?}"));
    }

    for note in &outcome.notes {
        println!("# {note}");
    }
    if !outcome.detail.is_empty() {
        print_table(&format!("{} detail", args.name), &outcome.detail);
    }
    print_table(if args.trace { "per-layer metrics" } else { "end-to-end metrics" }, &outcome.metrics);
    for why in tally.failures.iter().take(20) {
        eprintln!("perfbench: FAILED: {why}");
    }
    let correct = tally.failures.is_empty();
    println!("{}", result_line(correct, &tally, &outcome.metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
