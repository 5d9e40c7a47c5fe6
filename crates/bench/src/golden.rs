//! Golden-state digests: pins the simulator's observable results.
//!
//! A golden cell is one (benchmark × configuration) run at the quick
//! matrix scale, serialized through the exact-u64 JSON forms in
//! [`state`](crate::state) and hashed with FNV-1a-64. The digests were
//! recorded with the pre-columnar (array-of-structs) simulator and are
//! pinned by `tests/golden.rs`: any layout or scheduling change that
//! alters a single counter, stat, or limit-study number flips a digest.
//!
//! Regenerate the fixture (only for an *intentional* semantic change)
//! with:
//!
//! ```text
//! cargo run -p vpir-bench --example golden_gen > crates/bench/tests/fixtures/golden_digests.json
//! ```

use vpir_core::{RunLimits, Simulator};
use vpir_redundancy::{analyze, LimitConfig};
use vpir_workloads::Bench;

use crate::matrix::{config_for_label, MatrixConfig};
use crate::state::JobPayload;

/// The configuration families pinned by the golden suite: the paper's
/// baseline, one representative VP cell, both IR validation policies,
/// one trace-reuse cell, and the functional limit study.
pub const GOLDEN_LABELS: [&str; 6] =
    ["base", "magic:ME-SB:vl1", "ir_early", "ir_late", "rtb:t8", "limit"];

/// FNV-1a 64-bit over one byte string (the digest of a serialized run).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Runs one golden cell: the simulator's counters, or the limit study.
///
/// # Panics
///
/// Panics if `label` is not one of [`GOLDEN_LABELS`].
pub fn golden_run(bench: Bench, label: &str) -> JobPayload {
    let cfg = MatrixConfig::quick();
    let prog = bench.program(cfg.scale);
    if label == "limit" {
        JobPayload::Limit(analyze(&prog, cfg.limit_insts, LimitConfig::default()))
    } else {
        let core = config_for_label(label).expect("unknown golden label");
        let mut sim = Simulator::new(&prog, core);
        JobPayload::Stats(sim.run(RunLimits::cycles(cfg.max_cycles)).clone())
    }
}

/// Renders the full golden fixture table as JSON: one object per cell
/// with `bench`, `config`, and the hex digest.
pub fn golden_fixture_json() -> String {
    let mut out = String::from("{\n  \"schema\": \"vpir-golden-v1\",\n  \"cells\": [\n");
    let mut first = true;
    for bench in Bench::ALL {
        for label in GOLDEN_LABELS {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&format!(
                "    {{\"bench\": \"{}\", \"config\": \"{}\", \"digest\": \"{:016x}\"}}",
                bench.name(),
                label,
                fnv1a64(golden_run(bench, label).to_json().as_bytes())
            ));
        }
    }
    out.push_str("\n  ]\n}\n");
    out
}
