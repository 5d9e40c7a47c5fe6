//! Golden-state equivalence suite.
//!
//! Pins the simulator bit-identical to the final states recorded with
//! the pre-columnar (array-of-structs) machine: every cell of seven
//! workloads × `GOLDEN_LABELS` must reproduce the exact FNV-1a-64
//! digest of its serialized run. A digest
//! mismatch means the structure-of-arrays refactor changed observable
//! semantics somewhere — a counter, a stat, a limit-study number — and
//! is a bug unless the change is intentional (then regenerate with
//! `cargo run -p vpir-bench --example golden_gen`).
//!
//! The same runs feed a counter-liveness check: the set of counters
//! that stay zero in every cell is pinned, so a counter the simulator
//! stops updating fails here.

use std::collections::BTreeSet;
use std::sync::OnceLock;

use vpir_bench::golden::{fnv1a64, golden_run, render_fixture, GOLDEN_LABELS};
use vpir_bench::state::{CounterVisitor, Counters, JobPayload};
use vpir_jsonlite::parse_json;
use vpir_workloads::Bench;

const FIXTURE: &str = include_str!("fixtures/golden_digests.json");

/// Loads the recorded digests as (bench, config, digest) triples.
fn fixture_cells() -> Vec<(String, String, u64)> {
    let doc = parse_json(FIXTURE).expect("fixture parses");
    assert_eq!(
        doc.get("schema").and_then(|v| v.as_str()),
        Some("vpir-golden-v1"),
        "fixture schema"
    );
    let cells = doc
        .get("cells")
        .and_then(|v| v.as_arr())
        .expect("fixture has cells");
    cells
        .iter()
        .map(|c| {
            let bench = c.get("bench").and_then(|v| v.as_str()).expect("bench").to_string();
            let config = c.get("config").and_then(|v| v.as_str()).expect("config").to_string();
            let digest = c.get("digest").and_then(|v| v.as_str()).expect("digest");
            let digest = u64::from_str_radix(digest, 16).expect("hex digest");
            (bench, config, digest)
        })
        .collect()
}

#[test]
fn fixture_covers_every_cell_exactly_once() {
    let cells = fixture_cells();
    assert_eq!(cells.len(), Bench::ALL.len() * GOLDEN_LABELS.len());
    for bench in Bench::ALL {
        for label in GOLDEN_LABELS {
            let n = cells
                .iter()
                .filter(|(b, c, _)| b == bench.name() && c == label)
                .count();
            assert_eq!(n, 1, "cell {}/{} recorded once", bench.name(), label);
        }
    }
}

#[test]
fn fixture_re_renders_byte_for_byte() {
    assert_eq!(render_fixture(&fixture_cells()), FIXTURE);
}

/// Every golden cell of one workload, run once per test binary and
/// shared by that workload's digest test and the liveness test.
fn runs(bench: Bench) -> &'static [(&'static str, JobPayload)] {
    static RUNS: [OnceLock<Vec<(&str, JobPayload)>>; Bench::ALL.len()] =
        [const { OnceLock::new() }; Bench::ALL.len()];
    let i = Bench::ALL.iter().position(|&b| b == bench).expect("known bench");
    RUNS[i].get_or_init(|| {
        GOLDEN_LABELS
            .map(|label| (label, golden_run(bench, label).expect("golden cells run clean")))
            .to_vec()
    })
}

/// One test per workload so a mismatch names the benchmark and the
/// suite parallelizes across the test harness's threads.
macro_rules! golden_bench {
    ($test:ident, $bench:expr) => {
        #[test]
        fn $test() {
            let cells = fixture_cells();
            for (label, payload) in runs($bench) {
                let expected = cells
                    .iter()
                    .find(|(b, c, _)| b == $bench.name() && c == label)
                    .map(|(_, _, d)| *d)
                    .expect("cell recorded");
                let got = fnv1a64(payload.to_json().as_bytes());
                assert_eq!(
                    got,
                    expected,
                    "golden digest mismatch for {}/{}: got {:016x}, recorded {:016x}",
                    $bench.name(),
                    label,
                    got,
                    expected
                );
            }
        }
    };
}

golden_bench!(golden_go, Bench::Go);
golden_bench!(golden_m88ksim, Bench::M88ksim);
golden_bench!(golden_ijpeg, Bench::Ijpeg);
golden_bench!(golden_perl, Bench::Perl);
golden_bench!(golden_vortex, Bench::Vortex);
golden_bench!(golden_gcc, Bench::Gcc);
golden_bench!(golden_compress, Bench::Compress);

/// Records every counter leaf by dotted path (`rtb.per_class[5]`), and
/// which of them were nonzero.
#[derive(Default)]
struct Leaves {
    path: String,
    all: BTreeSet<String>,
    live: BTreeSet<String>,
}

impl CounterVisitor for Leaves {
    fn count(&mut self, name: &str, value: &mut u64) {
        let leaf = format!("{}{name}", self.path);
        if *value != 0 {
            self.live.insert(leaf.clone());
        }
        self.all.insert(leaf);
    }

    fn array(&mut self, name: &str, values: &mut [u64]) {
        for (i, value) in values.iter_mut().enumerate() {
            self.count(&format!("{name}[{i}]"), value);
        }
    }

    fn group(&mut self, name: &str, group: &mut dyn Counters, _: bool) {
        let outer = self.path.len();
        self.path.push_str(name);
        self.path.push('.');
        group.walk(self);
        self.path.truncate(outer);
    }
}

/// Every counter the schema serializes must move in some golden cell,
/// except these, which no workload or configuration here exercises.
#[test]
fn counters_zero_in_every_cell_are_exactly_the_known_set() {
    let mut leaves = Leaves::default();
    for bench in Bench::ALL {
        for (_, payload) in runs(bench) {
            match payload.clone() {
                JobPayload::Stats(mut s) => s.walk(&mut leaves),
                JobPayload::Limit(mut l) => leaves.group("limit", &mut l, false),
            }
        }
    }
    assert_eq!(leaves.all.len(), 85, "{:?}", leaves.all);
    let dead: Vec<&str> = leaves.all.difference(&leaves.live).map(String::as_str).collect();
    assert_eq!(
        dead,
        [
            "limit.unaccounted",
            "return_mispredicts",
            "rtb.aborted",
            "rtb.dropped",
            // jump, jump-reg, fp, misc
            "rtb.per_class[5]",
            "rtb.per_class[6]",
            "rtb.per_class[7]",
            "rtb.per_class[8]",
            "rtb.per_depth[4]",
        ]
    );
}
