//! The value-prediction mechanism.
//!
//! A result VPT and an address VPT, called at dispatch (predict)
//! and at commit (train). Every register-writing, non-control
//! instruction is predictable; a predictor that declines still clears a
//! standing prediction; and a load's address is predicted only when its
//! result is not (including by the prediction made earlier in the same
//! call). The golden-digest suite pins this behaviour.

use vpir_isa::OpClass;
use vpir_predict::{LastValuePredictor, MagicPredictor, StridePredictor, VptConfig, VptStats};

use crate::config::{VpConfig, VpKind};
use crate::{CommitEvent, DispatchAction, DispatchQuery};

/// One configured value predictor (static dispatch over the kinds).
#[derive(Debug, Clone)]
enum Vp {
    Magic(MagicPredictor),
    Lvp(LastValuePredictor),
    Stride(StridePredictor),
}

impl Vp {
    fn new(kind: VpKind, vpt: VptConfig) -> Vp {
        match kind {
            VpKind::Magic => Vp::Magic(MagicPredictor::new(vpt)),
            VpKind::Lvp => Vp::Lvp(LastValuePredictor::new(vpt)),
            VpKind::Stride => Vp::Stride(StridePredictor::new(vpt)),
        }
    }

    fn predict(&mut self, pc: u64, oracle: Option<u64>) -> Option<u64> {
        match self {
            Vp::Magic(p) => p.predict(pc, oracle),
            Vp::Lvp(p) => p.predict(pc, oracle),
            Vp::Stride(p) => p.predict(pc, oracle),
        }
    }

    fn train(&mut self, pc: u64, actual: u64) {
        match self {
            Vp::Magic(p) => p.train(pc, actual),
            Vp::Lvp(p) => p.train(pc, actual),
            Vp::Stride(p) => p.train(pc, actual),
        }
    }

    fn stats(&self) -> VptStats {
        match self {
            Vp::Magic(p) => p.stats(),
            Vp::Lvp(p) => p.stats(),
            Vp::Stride(p) => p.stats(),
        }
    }
}

/// Value prediction: a result VPT and an address VPT.
#[derive(Debug, Clone)]
pub struct VpMech {
    result: Vp,
    addr: Vp,
}

impl VpMech {
    /// Builds the predictors described by `vp`.
    pub fn new(vp: &VpConfig) -> VpMech {
        VpMech {
            result: Vp::new(vp.kind, vp.vpt),
            addr: Vp::new(vp.kind, vp.vpt),
        }
    }

    /// Predicts the result (and, for loads, the address) of one
    /// dispatching instruction.
    pub fn on_dispatch(&mut self, q: &DispatchQuery) -> DispatchAction {
        let mut act = DispatchAction::default();
        // In the hybrid, reuse runs first and prediction covers only
        // the RB misses.
        if q.reused {
            return act;
        }
        // Results: every register-writing, non-control instruction
        // (including loads — load value prediction).
        let predictable = q.inst.dst.is_some()
            && q.out.result.is_some()
            && !matches!(
                q.inst.op.class(),
                OpClass::Jump | OpClass::JumpReg | OpClass::Misc
            );
        if predictable {
            act.predicted = Some(self.result.predict(q.pc, q.out.result));
        }
        // Addresses: loads whose result was not predicted (by the line
        // above, or by a standing prediction) and whose address did not
        // already come from the reuse buffer.
        let predicted_now = match act.predicted {
            Some(p) => p,
            None => q.predicted,
        };
        if q.is_load && predicted_now.is_none() && !q.addr_reused {
            act.addr_predicted = Some(self.addr.predict(q.pc, q.out.addr));
        }
        act
    }

    /// Trains the predictors with one committing instruction's result
    /// and, for loads, its address.
    pub fn on_commit(&mut self, ev: &CommitEvent) {
        if ev.inst.dst.is_some() && ev.inst.op.class() != OpClass::Jump {
            if let Some(actual) = ev.result {
                self.result.train(ev.pc, actual);
            }
        }
        if let Some(mem) = &ev.mem {
            if mem.is_load {
                if let Some(actual) = ev.addr {
                    self.addr.train(ev.pc, actual);
                }
            }
        }
    }

    /// Result-VPT and address-VPT statistics.
    pub fn stats(&self) -> (VptStats, VptStats) {
        (self.result.stats(), self.addr.stats())
    }
}
