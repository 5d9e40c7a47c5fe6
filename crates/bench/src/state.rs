//! Incremental per-job persistence for resumable matrix runs, and the
//! counter schema every serialized number goes through.
//!
//! Each (benchmark × configuration) cell of the matrix is one job; as a
//! worker finishes a job it writes `job-NNN.json` into the dump
//! directory, and a failed job leaves `job-NNN-failure.json` instead.
//! `--resume` reloads the completed files and re-executes only the
//! missing or failed cells. Because every simulator counter is an exact
//! `u64`, the round trip through JSON is lossless and a resumed matrix
//! is bit-identical to an uninterrupted run.
//!
//! The JSON forms of [`SimStats`] and [`LimitStudy`] come from one
//! field list per struct (the `counters!` invocation below): the
//! emitter, the parser, and the tests all walk the same [`Counters`]
//! schema. Counter completeness and `u64` width are compile-time
//! properties of that list.
//!
//! Everything here is std-only: the emitter and the exact-`u64`
//! recursive-descent parser live in the shared `vpir-jsonlite` crate
//! (they started life in this module) and are re-exported below so
//! existing `vpir_bench::state::{parse_json, ...}` imports keep working.

use std::mem::take;
use std::path::{Path, PathBuf};

use vpir_core::SimStats;
use vpir_jsonlite::JsonObj as Obj;
use vpir_mem::CacheStats;
use vpir_predict::VptStats;
use vpir_redundancy::LimitStudy;
use vpir_reuse::ReuseStats;
use vpir_stats::RtbStats;

pub use vpir_jsonlite::{json_escape, parse_json, JsonValue};

/// Schema tag stamped into every per-job result file.
pub const JOB_SCHEMA: &str = "vpir-bench-job-v2";

/// Schema tag stamped into every per-job failure dump.
pub const FAILURE_SCHEMA: &str = "vpir-bench-failure-v2";

// ---------------------------------------------------------------------
// The counter schema
// ---------------------------------------------------------------------

/// A struct of simulator counters that can walk its fields, in
/// serialization order, through a [`CounterVisitor`].
pub trait Counters {
    /// Visits every field once, in schema order.
    fn walk(&mut self, v: &mut dyn CounterVisitor);
}

/// What a [`Counters`] walk visits.
pub trait CounterVisitor {
    /// A scalar counter.
    fn count(&mut self, name: &str, value: &mut u64);
    /// A fixed-length row of counters (a histogram or an attribution).
    fn array(&mut self, name: &str, values: &mut [u64]);
    /// A nested counter struct. An `optional` group is left out of the
    /// JSON while all its counters are zero, and reads back as zeros
    /// when absent.
    fn group(&mut self, name: &str, group: &mut dyn Counters, optional: bool);
}

/// The only field types a counter struct may hold: `u64`, `[u64; N]`
/// and nested counter structs. Any other field type (a narrower
/// integer, say) has no impl, so its struct's `counters!` entry fails
/// to compile.
trait Field {
    fn visit(&mut self, name: &str, v: &mut dyn CounterVisitor);
}

impl Field for u64 {
    fn visit(&mut self, name: &str, v: &mut dyn CounterVisitor) {
        v.count(name, self);
    }
}

impl<const N: usize> Field for [u64; N] {
    fn visit(&mut self, name: &str, v: &mut dyn CounterVisitor) {
        v.array(name, self);
    }
}

impl<T: Counters> Field for T {
    fn visit(&mut self, name: &str, v: &mut dyn CounterVisitor) {
        v.group(name, self, false);
    }
}

/// Implements [`Counters`] from one field list per struct, in
/// serialization order. The struct is destructured without `..`, so a
/// field missing from its list fails to compile (rustc words it as
/// "pattern requires `..`": list the field, never add `..`). Fields
/// after `; optional` are optional groups (see
/// [`CounterVisitor::group`]).
macro_rules! counters {
    ($($ty:ident { $($field:ident),* $(; optional $opt:ident)? })*) => {$(
        impl Counters for $ty {
            fn walk(&mut self, v: &mut dyn CounterVisitor) {
                let $ty { $($field,)* $($opt)? } = self;
                $(Field::visit($field, stringify!($field), v);)*
                $(v.group(stringify!($opt), $opt, true);)?
            }
        }
    )*};
}

counters! {
    CacheStats { hits, misses, mshr_merges }
    VptStats { lookups, predictions, trainings, allocations }
    ReuseStats {
        inserts, updates, evictions, reg_invalidations, revalidations,
        mem_invalidations, full_reuses, addr_reuses, misses
    }
    RtbStats {
        captured, pending_squashed, installed, dropped, replays,
        replayed_insts, aborted, committed_reused, per_class, per_depth
    }
    SimStats {
        cycles, committed, dispatched, executions, branches,
        branch_mispredicts, returns, return_mispredicts, squashes,
        spurious_squashes, branch_resolution_latency_sum,
        branch_resolution_count, squashed_executed, squash_recovered,
        result_producers, result_predicted, result_pred_correct, mem_ops,
        addr_predicted, addr_pred_correct, exec_histogram, reused_full,
        reused_addr, fu_requests, fu_denials, port_requests, port_denials,
        icache, dcache, vpt_result, vpt_addr, rb;
        // Absent from every pre-RTB job file and golden digest.
        optional rtb
    }
    LimitStudy {
        total, unique, repeated, derivable, unaccounted,
        rep_producers_reused, rep_ready_far, rep_not_ready,
        rep_different_inputs, reusable
    }
}

// ---------------------------------------------------------------------
// JSON emission and parsing
// ---------------------------------------------------------------------

fn u(v: &JsonValue, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| format!("missing or non-integer field `{key}`"))
}

fn s(v: &JsonValue, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(JsonValue::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing or non-string field `{key}`"))
}

fn sub<'a>(v: &'a JsonValue, key: &str) -> Result<&'a JsonValue, String> {
    v.get(key).ok_or_else(|| format!("missing object `{key}`"))
}

/// Renders a walk as a one-line JSON object, noting whether any counter
/// in it was nonzero.
#[derive(Default)]
struct Emit {
    obj: Obj,
    nonzero: bool,
}

impl CounterVisitor for Emit {
    fn count(&mut self, name: &str, value: &mut u64) {
        self.nonzero |= *value != 0;
        self.obj = take(&mut self.obj).u(name, *value);
    }

    fn array(&mut self, name: &str, values: &mut [u64]) {
        self.nonzero |= values.iter().any(|&x| x != 0);
        let items: Vec<String> = values.iter().map(u64::to_string).collect();
        self.obj = take(&mut self.obj).raw(name, &format!("[{}]", items.join(", ")));
    }

    fn group(&mut self, name: &str, group: &mut dyn Counters, optional: bool) {
        let mut inner = Emit::default();
        group.walk(&mut inner);
        if inner.nonzero || !optional {
            self.nonzero |= inner.nonzero;
            self.obj = take(&mut self.obj).raw(name, &inner.obj.finish());
        }
    }
}

fn to_json(mut counters: impl Counters) -> String {
    let mut emit = Emit::default();
    counters.walk(&mut emit);
    emit.obj.finish()
}

/// Serializes a full [`SimStats`] as a JSON object.
pub fn stats_to_json(s: &SimStats) -> String {
    to_json(s.clone())
}

/// Serializes a [`LimitStudy`] as a JSON object.
pub fn limit_to_json(l: &LimitStudy) -> String {
    to_json(*l)
}

/// Fills a walk from a parsed JSON object, keeping the first error.
struct Read<'a> {
    v: &'a JsonValue,
    err: Option<String>,
}

impl Read<'_> {
    fn fail(&mut self, msg: String) {
        self.err.get_or_insert(msg);
    }
}

impl CounterVisitor for Read<'_> {
    fn count(&mut self, name: &str, value: &mut u64) {
        match u(self.v, name) {
            Ok(n) => *value = n,
            Err(e) => self.fail(e),
        }
    }

    fn array(&mut self, name: &str, values: &mut [u64]) {
        let items: Option<Vec<u64>> = self
            .v
            .get(name)
            .and_then(JsonValue::as_arr)
            .and_then(|items| items.iter().map(JsonValue::as_u64).collect());
        match items {
            Some(items) if items.len() == values.len() => values.copy_from_slice(&items),
            _ => self.fail(format!("`{name}` is not an array of {} integers", values.len())),
        }
    }

    fn group(&mut self, name: &str, group: &mut dyn Counters, optional: bool) {
        let outer = self.v;
        match outer.get(name) {
            Some(inner) => {
                self.v = inner;
                group.walk(self);
                self.v = outer;
            }
            None if optional => {}
            None => self.fail(format!("missing object `{name}`")),
        }
    }
}

/// Reads every counter of a `T` from its JSON object form. No counter
/// defaults except an absent optional group.
fn from_json<T: Counters + Default>(v: &JsonValue) -> Result<T, String> {
    let mut out = T::default();
    let mut read = Read { v, err: None };
    out.walk(&mut read);
    read.err.map_or(Ok(out), Err)
}

/// Reconstructs a [`SimStats`] from its JSON object form.
pub fn stats_from_json(v: &JsonValue) -> Result<SimStats, String> {
    from_json(v)
}

/// Reconstructs a [`LimitStudy`] from its JSON object form.
pub fn limit_from_json(v: &JsonValue) -> Result<LimitStudy, String> {
    from_json(v)
}

// ---------------------------------------------------------------------
// Job records
// ---------------------------------------------------------------------

/// The result a job produced: full pipeline statistics for simulator
/// configurations, or the redundancy limit study.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobPayload {
    /// A simulator run's counters, boxed: `SimStats` is several
    /// hundred bytes, `LimitStudy` a few words.
    Stats(Box<SimStats>),
    /// The functional limit-study histogram.
    Limit(LimitStudy),
}

impl JobPayload {
    /// The payload's counters as a one-line JSON object.
    pub fn to_json(&self) -> String {
        match self {
            JobPayload::Stats(s) => stats_to_json(s),
            JobPayload::Limit(l) => limit_to_json(l),
        }
    }
}

/// One completed matrix cell, as persisted to (and reloaded from) the
/// dump directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobRecord {
    /// Flat index of the job in the matrix's fixed job order.
    pub job_index: usize,
    /// Benchmark name (e.g. `"go"`).
    pub bench: String,
    /// Configuration label (e.g. `"base"`, `"magic:ME-SB:vl1"`).
    pub config: String,
    /// Workload scale the job ran at.
    pub scale: u32,
    /// Per-job cycle budget the job ran under.
    pub max_cycles: u64,
    /// Instruction cap for the limit study.
    pub limit_insts: u64,
    /// The job's result.
    pub payload: JobPayload,
}

impl JobRecord {
    /// Serializes the record as a `vpir-bench-job-v2` document.
    pub fn to_json(&self) -> String {
        let kind = match self.payload {
            JobPayload::Stats(_) => "stats",
            JobPayload::Limit(_) => "limit",
        };
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": \"{JOB_SCHEMA}\",\n"));
        out.push_str(&format!("  \"job_index\": {},\n", self.job_index));
        out.push_str(&format!("  \"bench\": \"{}\",\n", json_escape(&self.bench)));
        out.push_str(&format!("  \"config\": \"{}\",\n", json_escape(&self.config)));
        out.push_str(&format!("  \"scale\": {},\n", self.scale));
        out.push_str(&format!("  \"max_cycles\": {},\n", self.max_cycles));
        out.push_str(&format!("  \"limit_insts\": {},\n", self.limit_insts));
        out.push_str(&format!("  \"kind\": \"{kind}\",\n"));
        out.push_str(&format!("  \"{kind}\": {}\n", self.payload.to_json()));
        out.push_str("}\n");
        out
    }

    /// Parses a `vpir-bench-job-v2` document.
    pub fn from_json(text: &str) -> Result<JobRecord, String> {
        let v = parse_json(text)?;
        let schema = s(&v, "schema")?;
        if schema != JOB_SCHEMA {
            return Err(format!("schema `{schema}`, want `{JOB_SCHEMA}`"));
        }
        let kind = s(&v, "kind")?;
        let payload = match kind.as_str() {
            "stats" => JobPayload::Stats(Box::new(stats_from_json(sub(&v, "stats")?)?)),
            "limit" => JobPayload::Limit(limit_from_json(sub(&v, "limit")?)?),
            other => return Err(format!("unknown job kind `{other}`")),
        };
        Ok(JobRecord {
            job_index: usize::try_from(u(&v, "job_index")?)
                .map_err(|_| "job_index out of range".to_string())?,
            bench: s(&v, "bench")?,
            config: s(&v, "config")?,
            scale: u32::try_from(u(&v, "scale")?)
                .map_err(|_| "scale out of range".to_string())?,
            max_cycles: u(&v, "max_cycles")?,
            limit_insts: u(&v, "limit_insts")?,
            payload,
        })
    }
}

/// Path of the result file for job `job_index` inside `dir`.
pub fn job_path(dir: &Path, job_index: usize) -> PathBuf {
    dir.join(format!("job-{job_index:03}.json"))
}

/// Path of the failure dump for job `job_index` inside `dir`.
pub fn failure_path(dir: &Path, job_index: usize) -> PathBuf {
    dir.join(format!("job-{job_index:03}-failure.json"))
}

/// Writes a job record atomically (temp file + rename), so a crash
/// mid-write never leaves a half-valid file for `--resume` to trust.
pub fn write_job(dir: &Path, rec: &JobRecord) -> std::io::Result<()> {
    let final_path = job_path(dir, rec.job_index);
    let tmp_path = dir.join(format!("job-{:03}.json.tmp", rec.job_index));
    std::fs::write(&tmp_path, rec.to_json())?;
    std::fs::rename(&tmp_path, &final_path)
}

/// Loads job `job_index` from `dir`, or `None` when the file is
/// missing or does not parse as a valid v2 job record (either way the
/// job is simply re-executed).
pub fn load_job(dir: &Path, job_index: usize) -> Option<JobRecord> {
    let text = std::fs::read_to_string(job_path(dir, job_index)).ok()?;
    let rec = JobRecord::from_json(&text).ok()?;
    (rec.job_index == job_index).then_some(rec)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Numbers every counter 1, 2, 3, … in walk order, so a field
    /// swapped or dropped in either direction of a round trip is caught.
    struct Number(u64);

    impl CounterVisitor for Number {
        fn count(&mut self, _: &str, value: &mut u64) {
            self.0 += 1;
            *value = self.0;
        }

        fn array(&mut self, name: &str, values: &mut [u64]) {
            for value in values {
                self.count(name, value);
            }
        }

        fn group(&mut self, _: &str, group: &mut dyn Counters, _: bool) {
            group.walk(self);
        }
    }

    fn numbered<T: Counters + Default>() -> T {
        let mut out = T::default();
        out.walk(&mut Number(0));
        out
    }

    #[test]
    fn stats_round_trip_is_exact() {
        let stats: SimStats = numbered();
        let text = stats_to_json(&stats);
        let v = parse_json(&text).expect("parse");
        assert_eq!(stats_from_json(&v).expect("decode"), stats);

        // No counter defaults: a missing or short field is an error.
        for broken in [
            text.replace("\"cycles\": 1, ", ""),
            text.replace("[21, 22, 23, 24]", "[21, 22, 23]"),
        ] {
            let v = parse_json(&broken).expect("parse");
            assert!(stats_from_json(&v).is_err(), "{broken}");
        }
    }

    /// The `rtb` block must stay out of non-RTB documents (existing
    /// golden digests hash exactly the old byte stream) yet round-trip
    /// when present.
    #[test]
    fn rtb_block_is_conditional_and_defaulted() {
        let mut stats = numbered::<SimStats>();
        stats.rtb = RtbStats::default();
        let text = stats_to_json(&stats);
        assert!(!text.contains("\"rtb\""), "default RTB stats must not serialize");
        let v = parse_json(&text).expect("parse");
        assert_eq!(stats_from_json(&v).expect("decode"), stats);

        let with_rtb = numbered::<SimStats>();
        assert!(stats_to_json(&with_rtb).contains("\"rtb\""));
    }

    #[test]
    fn limit_round_trip_is_exact() {
        let limit: LimitStudy = numbered();
        let v = parse_json(&limit_to_json(&limit)).expect("parse");
        assert_eq!(limit_from_json(&v).expect("decode"), limit);
    }

    #[test]
    fn job_record_round_trips_through_its_file_form() {
        let rec = JobRecord {
            job_index: 7,
            bench: "go".to_string(),
            config: "magic:ME-SB:vl1".to_string(),
            scale: 2,
            max_cycles: 30_000,
            limit_insts: 6_000,
            payload: JobPayload::Stats(Box::new(numbered::<SimStats>())),
        };
        let back = JobRecord::from_json(&rec.to_json()).expect("decode");
        assert_eq!(back, rec);

        let rec = JobRecord {
            payload: JobPayload::Limit(LimitStudy::default()),
            ..rec
        };
        let back = JobRecord::from_json(&rec.to_json()).expect("decode");
        assert_eq!(back, rec);
    }

    /// Job files written before the counter schema existed (the `go`
    /// base, ir_early, rtb:t8 and limit cells) load and re-serialize to
    /// their exact bytes, so `--resume` keeps accepting them.
    #[test]
    fn committed_job_files_reserialize_byte_for_byte() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/jobs");
        for i in [0, 17, 20, 21] {
            let text = std::fs::read_to_string(job_path(&dir, i)).expect("fixture readable");
            let rec = load_job(&dir, i).expect("fixture loads");
            assert_eq!(rec.to_json(), text, "job {i}");
        }
    }

    #[test]
    fn wrong_schema_and_stale_index_are_rejected() {
        let rec = JobRecord {
            job_index: 3,
            bench: "go".to_string(),
            config: "base".to_string(),
            scale: 1,
            max_cycles: 1000,
            limit_insts: 100,
            payload: JobPayload::Stats(Box::default()),
        };
        let bad = rec.to_json().replace(JOB_SCHEMA, "vpir-bench-job-v1");
        assert!(JobRecord::from_json(&bad).is_err());

        let dir =
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/scratch/state-test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        write_job(&dir, &rec).expect("write");
        assert_eq!(load_job(&dir, 3), Some(rec));
        // A record stored under the wrong index is not trusted.
        std::fs::rename(job_path(&dir, 3), job_path(&dir, 4)).expect("rename");
        assert_eq!(load_job(&dir, 4), None);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
