//! Per-instruction pipeline tracing.
//!
//! When enabled, the simulator records the lifecycle of the first *N*
//! dispatched instructions — dispatch, (re)issue, completion, resolution
//! and commit cycles, plus how the instruction was satisfied (executed,
//! value predicted, reused, replayed from a reuse trace) — and can
//! render them as a text timeline similar to classic pipeline viewers.

use std::fmt::Write as _;

use vpir_isa::Inst;

/// How a traced instruction's result was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceOutcome {
    /// Executed normally.
    Executed,
    /// Result (or address) predicted; executed to verify.
    Predicted,
    /// Result reused from the reuse buffer (IR); never executed.
    Reused,
    /// Replayed as a member of a trace from the reuse trace buffer
    /// (RTB); never executed.
    TraceReused,
    /// Address reused; memory access still performed.
    AddrReused,
    /// Discarded by a squash.
    Squashed,
}

/// Lifecycle of one traced dynamic instruction.
#[derive(Debug, Clone)]
pub struct TraceRecord {
    /// Dynamic sequence number.
    pub seq: u64,
    /// Instruction address.
    pub pc: u64,
    /// The instruction.
    pub inst: Inst,
    /// Dispatch (decode + rename) cycle.
    pub dispatch: u64,
    /// Cycles at which executions were issued (re-executions append).
    pub issues: Vec<u64>,
    /// Cycles at which executions completed.
    pub completions: Vec<u64>,
    /// Commit cycle, if the instruction committed.
    pub commit: Option<u64>,
    /// Squash cycle, if the instruction was discarded.
    pub squash: Option<u64>,
    /// How the result was obtained.
    pub outcome: TraceOutcome,
}

/// A bounded log of [`TraceRecord`]s for the first *N* dispatches.
#[derive(Debug, Default)]
pub struct TraceLog {
    records: Vec<TraceRecord>,
    capacity: usize,
    first_seq: Option<u64>,
}

impl TraceLog {
    /// Creates a log that captures the first `capacity` dispatches.
    pub fn new(capacity: usize) -> TraceLog {
        TraceLog {
            records: Vec::with_capacity(capacity.min(4096)),
            capacity,
            first_seq: None,
        }
    }

    /// The captured records, in dispatch order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    pub(crate) fn on_dispatch(&mut self, seq: u64, pc: u64, inst: Inst, cycle: u64) {
        if self.records.len() >= self.capacity {
            return;
        }
        self.first_seq.get_or_insert(seq);
        self.records.push(TraceRecord {
            seq,
            pc,
            inst,
            dispatch: cycle,
            issues: Vec::new(),
            completions: Vec::new(),
            commit: None,
            squash: None,
            outcome: TraceOutcome::Executed,
        });
    }

    fn get(&mut self, seq: u64) -> Option<&mut TraceRecord> {
        let first = self.first_seq?;
        let idx = seq.checked_sub(first)? as usize;
        self.records.get_mut(idx).filter(|r| r.seq == seq)
    }

    pub(crate) fn on_issue(&mut self, seq: u64, cycle: u64) {
        if let Some(r) = self.get(seq) {
            r.issues.push(cycle);
        }
    }

    pub(crate) fn on_complete(&mut self, seq: u64, cycle: u64) {
        if let Some(r) = self.get(seq) {
            r.completions.push(cycle);
        }
    }

    pub(crate) fn on_outcome(&mut self, seq: u64, outcome: TraceOutcome) {
        if let Some(r) = self.get(seq) {
            if r.outcome == TraceOutcome::Executed {
                r.outcome = outcome;
            }
        }
    }

    pub(crate) fn on_commit(&mut self, seq: u64, cycle: u64) {
        if let Some(r) = self.get(seq) {
            r.commit = Some(cycle);
        }
    }

    pub(crate) fn on_squash(&mut self, seq: u64, cycle: u64) {
        if let Some(r) = self.get(seq) {
            r.squash = Some(cycle);
            r.outcome = TraceOutcome::Squashed;
        }
    }

    /// Renders the log as a text timeline: one row per instruction,
    /// `D` dispatch, `i` issue, `x` completion, `C` commit, `#` squash.
    ///
    /// # Examples
    ///
    /// ```text
    /// seq pc      instruction          |D..ix...C      |
    /// ```
    pub fn render(&self) -> String {
        let Some(end) = self
            .records
            .iter()
            .map(|r| {
                r.commit
                    .or(r.squash)
                    .unwrap_or(r.dispatch)
                    .max(r.completions.last().copied().unwrap_or(0))
            })
            .max()
        else {
            return String::new();
        };
        let start = self.records.iter().map(|r| r.dispatch).min().unwrap_or(0);
        let width = ((end - start) as usize + 2).min(240);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>5} {:<10} {:<26} |{}| outcome",
            "seq",
            "pc",
            "instruction",
            " ".repeat(width)
        );
        for r in &self.records {
            let mut lane = vec![b' '; width];
            let mut put = |cycle: u64, ch: u8| {
                let c = (cycle.saturating_sub(start)) as usize;
                if c < lane.len() {
                    // Later events overwrite earlier markers in the cell.
                    lane[c] = ch;
                }
            };
            put(r.dispatch, b'D');
            for &c in &r.issues {
                put(c, b'i');
            }
            for &c in &r.completions {
                put(c, b'x');
            }
            if let Some(c) = r.commit {
                put(c, b'C');
            }
            if let Some(c) = r.squash {
                put(c, b'#');
            }
            let _ = writeln!(
                out,
                "{:>5} {:<#10x} {:<26} |{}| {:?}",
                r.seq,
                r.pc,
                r.inst.to_string(),
                String::from_utf8_lossy(&lane),
                r.outcome
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpir_isa::Op;

    fn inst() -> Inst {
        Inst::rri(Op::Addi, vpir_isa::Reg::int(1), vpir_isa::Reg::ZERO, 1)
    }

    #[test]
    fn captures_up_to_capacity() {
        let mut log = TraceLog::new(2);
        log.on_dispatch(1, 0x1000, inst(), 10);
        log.on_dispatch(2, 0x1004, inst(), 10);
        log.on_dispatch(3, 0x1008, inst(), 11);
        assert_eq!(log.records().len(), 2);
    }

    #[test]
    fn lifecycle_updates_reach_the_right_record() {
        let mut log = TraceLog::new(4);
        log.on_dispatch(5, 0x1000, inst(), 1);
        log.on_dispatch(6, 0x1004, inst(), 1);
        log.on_issue(6, 2);
        log.on_complete(6, 3);
        log.on_commit(6, 4);
        log.on_squash(5, 3);
        let r5 = &log.records()[0];
        let r6 = &log.records()[1];
        assert_eq!(r5.squash, Some(3));
        assert_eq!(r5.outcome, TraceOutcome::Squashed);
        assert_eq!(r6.issues, vec![2]);
        assert_eq!(r6.completions, vec![3]);
        assert_eq!(r6.commit, Some(4));
    }

    #[test]
    fn updates_for_untracked_seq_are_ignored() {
        let mut log = TraceLog::new(1);
        log.on_dispatch(1, 0x1000, inst(), 1);
        log.on_issue(99, 2);
        log.on_commit(99, 3);
        assert!(log.records()[0].issues.is_empty());
    }

    #[test]
    fn render_contains_markers() {
        let mut log = TraceLog::new(2);
        log.on_dispatch(1, 0x1000, inst(), 1);
        log.on_issue(1, 2);
        log.on_complete(1, 3);
        log.on_commit(1, 4);
        let s = log.render();
        assert!(s.contains('D'));
        assert!(s.contains('i'));
        assert!(s.contains('x'));
        assert!(s.contains('C'));
        assert!(s.contains("addi"));
    }

    #[test]
    fn empty_log_renders_empty() {
        let log = TraceLog::new(4);
        assert!(log.render().is_empty());
    }
}
