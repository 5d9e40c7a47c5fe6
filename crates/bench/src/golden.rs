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

use vpir_core::SimError;
use vpir_jsonlite::{pretty_array, JsonObj};
use vpir_workloads::Bench;

use crate::matrix::{run_cell, MatrixConfig};
use crate::state::JobPayload;

/// The configuration families pinned by the golden suite: the paper's
/// baseline, one representative VP cell, both IR validation policies,
/// one trace-reuse cell, the IR + VP hybrid (the only machine with two
/// mechanisms), and the functional limit study.
pub const GOLDEN_LABELS: [&str; 7] =
    ["base", "magic:ME-SB:vl1", "ir_early", "ir_late", "rtb:t8", "hybrid", "limit"];

/// FNV-1a 64-bit over one byte string (the digest of a serialized run).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Runs one golden cell — the simulator's counters, or the limit
/// study — as a matrix cell at [`MatrixConfig::quick`] scale.
pub fn golden_run(bench: Bench, label: &str) -> Result<JobPayload, SimError> {
    let cfg = MatrixConfig::quick();
    run_cell(&bench.program(cfg.scale), cfg, label, false)
}

/// Renders the full golden fixture table as JSON: one object per cell
/// with `bench`, `config`, and the hex digest.
pub fn golden_fixture_json() -> Result<String, SimError> {
    let mut cells = Vec::new();
    for bench in Bench::ALL {
        for label in GOLDEN_LABELS {
            let digest = fnv1a64(golden_run(bench, label)?.to_json().as_bytes());
            cells.push((bench.name().to_string(), label.to_string(), digest));
        }
    }
    Ok(render_fixture(&cells))
}

/// Renders `(bench, config, digest)` cells as the golden fixture file.
pub fn render_fixture(cells: &[(String, String, u64)]) -> String {
    let cells = cells.iter().map(|(bench, config, digest)| {
        JsonObj::new()
            .s("bench", bench)
            .s("config", config)
            .s("digest", &format!("{digest:016x}"))
            .finish()
    });
    JsonObj::pretty()
        .s("schema", "vpir-golden-v1")
        .raw("cells", &pretty_array(cells))
        .finish()
        + "\n"
}
