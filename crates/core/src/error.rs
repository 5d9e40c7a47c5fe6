//! The simulator failure model.
//!
//! A cycle-level simulator has two very different failure shapes. A
//! *workload* failure (cycle cap reached before `halt`) is a normal,
//! expected outcome of a capped run. A *simulator* failure — a wedge
//! where no instruction ever retires again, or a broken internal
//! invariant — used to spin to `max_cycles` or panic a worker thread.
//! [`SimError`] gives every such failure a structured identity, and
//! [`DiagSnapshot`] captures the machine state at the point of failure
//! so the wedge is diagnosable after the fact: the last retired
//! instructions, ROB occupancy, the checkpoint stack, and the
//! per-stage counters.
//!
//! Snapshots serialise through `vpir_jsonlite::JsonObj`'s pretty layout,
//! as the bench harness's failure dumps do; the emitted text passes
//! `vpir_jsonlite::validate_json` (pinned by
//! `crates/bench/tests/failure.rs`).

use std::fmt;

use vpir_isa::Op;
use vpir_jsonlite::{line_array, pretty_array, JsonObj};

/// How many retired instructions the diagnostic ring buffer keeps.
pub const RETIRED_RING: usize = 16;

/// One retired instruction in the diagnostic ring buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetiredInst {
    /// Dynamic sequence number.
    pub seq: u64,
    /// Instruction address.
    pub pc: u64,
    /// The opcode.
    pub op: Op,
    /// Commit cycle.
    pub cycle: u64,
}

/// A deterministic snapshot of machine state at the point of failure.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DiagSnapshot {
    /// Cycle the snapshot was taken.
    pub cycle: u64,
    /// Instructions committed so far.
    pub committed: u64,
    /// Instructions dispatched so far (including wrong path).
    pub dispatched: u64,
    /// Execution events so far.
    pub executions: u64,
    /// Squash events so far.
    pub squashes: u64,
    /// Occupied ROB entries.
    pub rob_len: usize,
    /// Total ROB capacity.
    pub rob_capacity: usize,
    /// Sequence number at the ROB head, if any.
    pub rob_head_seq: Option<u64>,
    /// PC at the ROB head, if any.
    pub rob_head_pc: Option<u64>,
    /// Live branch checkpoints (sequence numbers, oldest first).
    pub checkpoint_seqs: Vec<u64>,
    /// Next fetch PC.
    pub fetch_pc: u64,
    /// Whether fetch is halted (drained or fell off the text segment).
    pub fetch_halted: bool,
    /// Instructions waiting in the fetch queue.
    pub fetch_queue_len: usize,
    /// The last retired instructions, oldest first (at most
    /// [`RETIRED_RING`]).
    pub last_retired: Vec<RetiredInst>,
}

impl DiagSnapshot {
    /// Serialises the snapshot as a pretty JSON object.
    pub fn to_json(&self) -> String {
        let retired = self.last_retired.iter().map(|r| {
            JsonObj::new()
                .u("seq", r.seq)
                .u("pc", r.pc)
                .s("op", &format!("{:?}", r.op))
                .u("cycle", r.cycle)
                .finish()
        });
        let seqs = line_array(self.checkpoint_seqs.iter().map(u64::to_string));
        JsonObj::pretty()
            .u("cycle", self.cycle)
            .u("committed", self.committed)
            .u("dispatched", self.dispatched)
            .u("executions", self.executions)
            .u("squashes", self.squashes)
            .u("rob_len", self.rob_len as u64)
            .u("rob_capacity", self.rob_capacity as u64)
            .opt_u("rob_head_seq", self.rob_head_seq)
            .opt_u("rob_head_pc", self.rob_head_pc)
            .raw("checkpoint_seqs", &seqs)
            .u("fetch_pc", self.fetch_pc)
            .b("fetch_halted", self.fetch_halted)
            .u("fetch_queue_len", self.fetch_queue_len as u64)
            .raw("last_retired", &pretty_array(retired))
            .finish()
    }
}

/// Structured simulator failures (the taxonomy the bench harness keys
/// its per-cell degradation on).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The forward-progress watchdog fired while the machine was still
    /// doing work (dispatching, executing, or squashing) — instructions
    /// flow but none retires, e.g. a self-feeding replay loop.
    Livelock {
        /// Cycle the watchdog fired.
        cycle: u64,
        /// The configured watchdog window.
        watchdog_cycles: u64,
        /// Cycle of the last committed instruction.
        last_commit_cycle: u64,
        /// Machine state at the trip point.
        snapshot: Box<DiagSnapshot>,
    },
    /// The forward-progress watchdog fired with the machine fully idle:
    /// nothing retires and nothing is in flight (e.g. fetch fell off
    /// the text segment on the architecturally true path).
    Deadlock {
        /// Cycle the watchdog fired.
        cycle: u64,
        /// The configured watchdog window.
        watchdog_cycles: u64,
        /// Cycle of the last committed instruction.
        last_commit_cycle: u64,
        /// Machine state at the trip point.
        snapshot: Box<DiagSnapshot>,
    },
    /// A per-cycle paranoia check found the machine in an inconsistent
    /// state (ROB ordering, checkpoint stack, or speculation-field
    /// sanity).
    InvariantViolation {
        /// Cycle of the failed check.
        cycle: u64,
        /// Which invariant failed.
        what: String,
        /// Machine state at the failed check.
        snapshot: Box<DiagSnapshot>,
    },
    /// A run that was required to halt hit its cycle or instruction
    /// budget first (see `Simulator::run_to_halt`).
    CycleBudgetExceeded {
        /// Cycle the budget ran out.
        cycle: u64,
        /// The configured cycle budget.
        max_cycles: u64,
        /// Instructions committed within the budget.
        committed: u64,
    },
    /// An internal bookkeeping contract was broken (a state that the
    /// pipeline should make unrepresentable was observed) — previously
    /// a panic, now a structured fatal error.
    Internal {
        /// Cycle of the detection.
        cycle: u64,
        /// What was observed.
        what: String,
    },
}

impl SimError {
    /// Short machine-readable kind tag (`"livelock"`, `"deadlock"`,
    /// `"invariant_violation"`, `"cycle_budget_exceeded"`,
    /// `"internal"`).
    pub fn kind(&self) -> &'static str {
        match self {
            SimError::Livelock { .. } => "livelock",
            SimError::Deadlock { .. } => "deadlock",
            SimError::InvariantViolation { .. } => "invariant_violation",
            SimError::CycleBudgetExceeded { .. } => "cycle_budget_exceeded",
            SimError::Internal { .. } => "internal",
        }
    }

    /// Cycle at which the failure was detected.
    pub fn cycle(&self) -> u64 {
        match self {
            SimError::Livelock { cycle, .. }
            | SimError::Deadlock { cycle, .. }
            | SimError::InvariantViolation { cycle, .. }
            | SimError::CycleBudgetExceeded { cycle, .. }
            | SimError::Internal { cycle, .. } => *cycle,
        }
    }

    /// The diagnostic snapshot, when the failure carries one.
    pub fn snapshot(&self) -> Option<&DiagSnapshot> {
        match self {
            SimError::Livelock { snapshot, .. }
            | SimError::Deadlock { snapshot, .. }
            | SimError::InvariantViolation { snapshot, .. } => Some(snapshot),
            _ => None,
        }
    }

    /// Serialises the error (kind, message, and snapshot if any) as a
    /// pretty JSON object suitable for a failure dump file.
    pub fn to_json(&self) -> String {
        let snapshot = self
            .snapshot()
            .map_or("null".to_string(), DiagSnapshot::to_json);
        JsonObj::pretty()
            .s("kind", self.kind())
            .u("cycle", self.cycle())
            .s("message", &self.to_string())
            .raw("snapshot", &snapshot)
            .finish()
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Livelock {
                cycle,
                watchdog_cycles,
                last_commit_cycle,
                ..
            } => write!(
                f,
                "livelock: no instruction retired for {watchdog_cycles} cycles \
                 (last commit at cycle {last_commit_cycle}, tripped at {cycle}) \
                 while the pipeline was still active"
            ),
            SimError::Deadlock {
                cycle,
                watchdog_cycles,
                last_commit_cycle,
                ..
            } => write!(
                f,
                "deadlock: no instruction retired for {watchdog_cycles} cycles \
                 (last commit at cycle {last_commit_cycle}, tripped at {cycle}) \
                 with the pipeline fully idle"
            ),
            SimError::InvariantViolation { cycle, what, .. } => {
                write!(f, "invariant violation at cycle {cycle}: {what}")
            }
            SimError::CycleBudgetExceeded {
                cycle,
                max_cycles,
                committed,
            } => write!(
                f,
                "cycle budget exceeded: {committed} instructions committed in \
                 {cycle} of {max_cycles} budgeted cycles without reaching halt"
            ),
            SimError::Internal { cycle, what } => {
                write!(f, "internal error at cycle {cycle}: {what}")
            }
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_and_cycles_are_exposed() {
        let e = SimError::CycleBudgetExceeded {
            cycle: 10,
            max_cycles: 10,
            committed: 3,
        };
        assert_eq!(e.kind(), "cycle_budget_exceeded");
        assert_eq!(e.cycle(), 10);
        assert!(e.snapshot().is_none());
        assert!(e.to_string().contains("without reaching halt"));
    }

    #[test]
    fn snapshot_json_contains_every_section() {
        let snap = DiagSnapshot {
            cycle: 42,
            committed: 7,
            rob_len: 3,
            rob_capacity: 32,
            rob_head_seq: Some(8),
            rob_head_pc: Some(0x1000),
            checkpoint_seqs: vec![9, 11],
            last_retired: vec![RetiredInst {
                seq: 7,
                pc: 0x0ffc,
                op: Op::Addi,
                cycle: 40,
            }],
            ..DiagSnapshot::default()
        };
        let json = snap.to_json();
        for key in [
            "\"cycle\"",
            "\"rob_len\"",
            "\"checkpoint_seqs\"",
            "\"last_retired\"",
            "\"fetch_halted\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        let err = SimError::InvariantViolation {
            cycle: 42,
            what: "rob \"order\"".to_string(),
            snapshot: Box::new(snap),
        };
        let dump = err.to_json();
        assert!(dump.contains("\"kind\": \"invariant_violation\""));
        assert!(dump.contains("rob \\\"order\\\""), "escaping: {dump}");
    }
}
