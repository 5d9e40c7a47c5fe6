//! Functional-unit pool with issue intervals.

use vpir_isa::{FuClass, Op};

/// Tracks per-unit busy times for the five Table 1 pools.
///
/// A unit accepts a new operation when its previous operation's *issue
/// interval* has elapsed (divides are effectively non-pipelined:
/// `int div` holds its unit for 19 cycles, `fp div` for 12, `fp sqrt`
/// for 24).
#[derive(Debug, Clone)]
pub struct FuPool {
    /// `busy_until[pool][unit]`: first cycle the unit is free again.
    busy_until: [Vec<u64>; 5],
    requests: u64,
    denials: u64,
}

impl FuPool {
    /// The Table 1 pool: 8 int ALUs, 2 load/store, 1 int mul/div,
    /// 4 FP adders, 1 FP mul/div ([`FuClass::default_count`] units of
    /// each class).
    pub fn table1() -> FuPool {
        let mut busy_until: [Vec<u64>; 5] = Default::default();
        for fu in FuClass::ALL {
            busy_until[fu.index()] = vec![0; fu.default_count()];
        }
        FuPool {
            busy_until,
            requests: 0,
            denials: 0,
        }
    }

    /// Tries to issue `op` in `cycle`; on success the chosen unit is busy
    /// for the op's issue interval. Returns whether a unit was granted.
    pub fn try_issue(&mut self, cycle: u64, op: Op) -> bool {
        self.requests += 1;
        let pool = &mut self.busy_until[op.fu_class().index()];
        match pool.iter_mut().find(|b| **b <= cycle) {
            Some(slot) => {
                *slot = cycle + op.latency().1 as u64;
                true
            }
            None => {
                self.denials += 1;
                false
            }
        }
    }

    /// Total `(requests, denials)`.
    pub fn totals(&self) -> (u64, u64) {
        (self.requests, self.denials)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipelined_alu_accepts_every_cycle() {
        let mut p = FuPool::table1();
        for c in 0..20 {
            assert!(p.try_issue(c, Op::Add));
        }
        assert_eq!(p.totals(), (20, 0));
    }

    #[test]
    fn alu_width_is_eight() {
        let mut p = FuPool::table1();
        for _ in 0..8 {
            assert!(p.try_issue(5, Op::Add));
        }
        assert!(!p.try_issue(5, Op::Add));
        assert!(p.try_issue(6, Op::Add));
    }

    #[test]
    fn divider_blocks_for_issue_interval() {
        let mut p = FuPool::table1();
        assert!(p.try_issue(0, Op::Div));
        // One int divider: a second divide in the same cycle is denied.
        assert!(!p.try_issue(0, Op::Div));
        assert!(!p.try_issue(18, Op::Div));
        assert!(p.try_issue(19, Op::Div));
    }

    #[test]
    fn multiplier_is_pipelined() {
        let mut p = FuPool::table1();
        assert!(p.try_issue(0, Op::Mul));
        assert!(p.try_issue(1, Op::Mul));
    }

    #[test]
    fn pools_are_independent() {
        let mut p = FuPool::table1();
        assert!(p.try_issue(0, Op::DivF));
        assert!(!p.try_issue(0, Op::SqrtF), "same FP mul/div unit");
        assert!(p.try_issue(0, Op::AddF), "FP adders are separate");
        assert!(p.try_issue(0, Op::Lw));
        assert!(p.try_issue(0, Op::Sw));
        assert!(!p.try_issue(0, Op::Lb), "only two load/store units");
    }
}
