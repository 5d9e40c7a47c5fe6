//! Renders each of the paper's tables and figures from a [`Matrix`].
//!
//! Every function returns the report as a `String`; the `experiments`
//! binary prints them, `EXPERIMENTS.md` records them, and the
//! integration tests assert on their qualitative shape.

use vpir_core::{BranchResolution, Reexecution, VpKind};
use vpir_stats::{harmonic_mean, AsciiBars, Table};

use crate::matrix::{vp_label, Matrix, VpKey};

fn fmt(v: f64) -> String {
    format!("{v:.1}")
}

fn fmt2(v: f64) -> String {
    format!("{v:.2}")
}

/// Table 2: benchmark characteristics on the base machine.
pub fn table2(m: &Matrix) -> String {
    let mut t = Table::new(&[
        "Bench",
        "Inst Count (K)",
        "Br. Pred Rate (%)",
        "Ret. Pred Rate (%)",
    ]);
    for r in &m.runs {
        t.row_owned(vec![
            r.bench.name().to_string(),
            format!("{:.1}", r.base.committed as f64 / 1_000.0),
            fmt(r.base.branch_pred_rate()),
            fmt(r.base.return_pred_rate()),
        ]);
    }
    format!("Table 2: benchmarks, committed instructions, prediction rates\n\n{}", t.render())
}

/// Table 3: reuse and value-prediction rates.
pub fn table3(m: &Matrix) -> String {
    let magic: VpKey = (VpKind::Magic, Reexecution::Me, BranchResolution::Sb, 0);
    let lvp: VpKey = (VpKind::Lvp, Reexecution::Me, BranchResolution::Sb, 0);
    let mut t = Table::new(&[
        "Bench",
        "IR res%",
        "IR addr%",
        "Mag res%",
        "Mag mis%",
        "Mag adr%",
        "Mag amis%",
        "LVP res%",
        "LVP mis%",
        "LVP adr%",
        "LVP amis%",
    ]);
    for r in &m.runs {
        let ir = &r.ir_early;
        let mg = &r.vp[&magic];
        let lv = &r.vp[&lvp];
        t.row_owned(vec![
            r.bench.name().to_string(),
            fmt(ir.reuse_result_rate()),
            fmt(ir.reuse_addr_rate()),
            fmt(mg.vp_result_rate()),
            fmt(mg.vp_result_mispred_rate()),
            fmt(mg.vp_addr_rate()),
            fmt(mg.vp_addr_mispred_rate()),
            fmt(lv.vp_result_rate()),
            fmt(lv.vp_result_mispred_rate()),
            fmt(lv.vp_addr_rate()),
            fmt(lv.vp_addr_mispred_rate()),
        ]);
    }
    format!(
        "Table 3: IR reuse rates and VP prediction/misprediction rates\n\
         (result % over committed instructions; address % over memory ops)\n\n{}",
        t.render()
    )
}

/// Table 4: percent increase in branch squashes from spurious
/// (value-misprediction-induced) branch resolutions, SB configurations.
pub fn table4(m: &Matrix) -> String {
    let keys: [(&str, VpKey); 4] = [
        ("Magic ME-SB", (VpKind::Magic, Reexecution::Me, BranchResolution::Sb, 0)),
        ("Magic NME-SB", (VpKind::Magic, Reexecution::Nme, BranchResolution::Sb, 0)),
        ("LVP ME-SB", (VpKind::Lvp, Reexecution::Me, BranchResolution::Sb, 0)),
        ("LVP NME-SB", (VpKind::Lvp, Reexecution::Nme, BranchResolution::Sb, 0)),
    ];
    let mut t = Table::new(&["Bench", keys[0].0, keys[1].0, keys[2].0, keys[3].0]);
    for r in &m.runs {
        let base = r.base.squashes.max(1) as f64;
        let mut row = vec![r.bench.name().to_string()];
        for (_, key) in keys {
            let s = r.vp[&key].squashes as f64;
            row.push(fmt(100.0 * (s - base) / base));
        }
        t.row_owned(row);
    }
    format!(
        "Table 4: % increase in branch squashes under speculative branch\n\
         resolution (vs. the base machine's squash count)\n\n{}",
        t.render()
    )
}

/// Table 5: wrong-path work and how much of it IR recovers.
pub fn table5(m: &Matrix) -> String {
    let mut t = Table::new(&[
        "Bench",
        "Inst Executed (K)",
        "Exec Inst Squashed (%)",
        "Squashed Recovered (%)",
    ]);
    for r in &m.runs {
        let s = &r.ir_early;
        t.row_owned(vec![
            r.bench.name().to_string(),
            format!("{:.1}", s.executions as f64 / 1_000.0),
            fmt(s.squashed_exec_rate()),
            fmt(s.squash_recovery_rate()),
        ]);
    }
    format!(
        "Table 5: executed instructions squashed by branch mispredictions,\n\
         and the fraction recovered through reuse of wrong-path RB entries\n\n{}",
        t.render()
    )
}

/// Table 6: per-instruction execution counts under `VP_Magic` ME-SB with
/// 1-cycle verification.
pub fn table6(m: &Matrix) -> String {
    let key: VpKey = (VpKind::Magic, Reexecution::Me, BranchResolution::Sb, 1);
    let mut t = Table::new(&["Bench", "1 (%)", "2 (%)", "3+ (%)"]);
    for r in &m.runs {
        let s = &r.vp[&key];
        t.row_owned(vec![
            r.bench.name().to_string(),
            fmt(s.exec_times_rate(1)),
            fmt(s.exec_times_rate(2)),
            fmt(s.exec_times_rate(3)),
        ]);
    }
    format!(
        "Table 6: % of committed instructions executed once/twice/3+ times\n\
         (VP_Magic, ME-SB, 1-cycle verification)\n\n{}",
        t.render()
    )
}

/// Figure 3: IR speedup with early vs late validation.
pub fn fig3(m: &Matrix) -> String {
    let mut t = Table::new(&["Bench", "early (%)", "late (%)"]);
    let mut early = Vec::new();
    let mut late = Vec::new();
    for r in &m.runs {
        let e = r.speedup(&r.ir_early);
        let l = r.speedup(&r.ir_late);
        early.push(e);
        late.push(l);
        t.row_owned(vec![
            r.bench.name().to_string(),
            fmt(100.0 * (e - 1.0)),
            fmt(100.0 * (l - 1.0)),
        ]);
    }
    let hm_e = harmonic_mean(early).unwrap_or(0.0);
    let hm_l = harmonic_mean(late).unwrap_or(0.0);
    t.row_owned(vec![
        "HM".to_string(),
        fmt(100.0 * (hm_e - 1.0)),
        fmt(100.0 * (hm_l - 1.0)),
    ]);
    format!(
        "Figure 3: % speedup of IR with early vs late validation\n\n{}",
        t.render()
    )
}

fn magic_keys(vl: u32) -> [(String, VpKey); 4] {
    let mk = |re, br| -> (String, VpKey) {
        let key = (VpKind::Magic, re, br, vl);
        (vp_label(key), key)
    };
    [
        mk(Reexecution::Me, BranchResolution::Sb),
        mk(Reexecution::Nme, BranchResolution::Sb),
        mk(Reexecution::Me, BranchResolution::Nsb),
        mk(Reexecution::Nme, BranchResolution::Nsb),
    ]
}

fn lvp_keys(vl: u32) -> [(String, VpKey); 4] {
    let mk = |re, br| -> (String, VpKey) {
        let key = (VpKind::Lvp, re, br, vl);
        (vp_label(key), key)
    };
    [
        mk(Reexecution::Me, BranchResolution::Sb),
        mk(Reexecution::Nme, BranchResolution::Sb),
        mk(Reexecution::Me, BranchResolution::Nsb),
        mk(Reexecution::Nme, BranchResolution::Nsb),
    ]
}

/// Figure 4: branch-resolution latency normalised to base.
pub fn fig4(m: &Matrix) -> String {
    let mut out = String::new();
    for vl in [0u32, 1] {
        let keys = magic_keys(vl);
        let mut t = Table::new(&[
            "Bench", &keys[0].0, &keys[1].0, &keys[2].0, &keys[3].0, "reuse-n+d",
        ]);
        for r in &m.runs {
            let base = r.base.branch_resolution_latency().max(1e-9);
            let mut row = vec![r.bench.name().to_string()];
            for (_, key) in &keys {
                row.push(fmt2(r.vp[key].branch_resolution_latency() / base));
            }
            row.push(fmt2(r.ir_early.branch_resolution_latency() / base));
            t.row_owned(row);
        }
        out.push_str(&format!(
            "Figure 4({}): branch resolution latency / base, {}-cycle VP verification\n\n{}\n",
            if vl == 0 { 'a' } else { 'b' },
            vl,
            t.render()
        ));
    }
    out
}

/// Figure 5: resource contention normalised to base (0-cycle verify).
pub fn fig5(m: &Matrix) -> String {
    let keys = magic_keys(0);
    let mut t = Table::new(&[
        "Bench", &keys[0].0, &keys[1].0, &keys[2].0, &keys[3].0, "reuse-n+d",
    ]);
    for r in &m.runs {
        let base = r.base.contention().max(1e-9);
        let mut row = vec![r.bench.name().to_string()];
        for (_, key) in &keys {
            row.push(fmt2(r.vp[key].contention() / base));
        }
        row.push(fmt2(r.ir_early.contention() / base));
        t.row_owned(row);
    }
    format!(
        "Figure 5: resource contention (denied/requested), normalised to base\n\n{}",
        t.render()
    )
}

/// Figure 6: speedups of `VP_Magic` configurations and IR.
pub fn fig6(m: &Matrix) -> String {
    let mut out = String::new();
    for vl in [0u32, 1] {
        let keys = magic_keys(vl);
        let mut t = Table::new(&[
            "Bench", &keys[0].0, &keys[1].0, &keys[2].0, &keys[3].0, "reuse-n+d",
        ]);
        let mut cols: Vec<Vec<f64>> = vec![Vec::new(); 5];
        for r in &m.runs {
            let mut row = vec![r.bench.name().to_string()];
            for (i, (_, key)) in keys.iter().enumerate() {
                let sp = r.speedup(&r.vp[key]);
                cols[i].push(sp);
                row.push(fmt2(sp));
            }
            let sp = r.speedup(&r.ir_early);
            cols[4].push(sp);
            row.push(fmt2(sp));
            t.row_owned(row);
        }
        let mut hm_row = vec!["HM".to_string()];
        for col in &cols {
            hm_row.push(fmt2(harmonic_mean(col.iter().copied()).unwrap_or(0.0)));
        }
        t.row_owned(hm_row);
        out.push_str(&format!(
            "Figure 6({}): speedup over base, VP_Magic + IR, {}-cycle verification\n\n{}\n",
            if vl == 0 { 'a' } else { 'b' },
            vl,
            t.render()
        ));
    }
    out
}

/// Figure 7: speedups of `VP_LVP` configurations.
pub fn fig7(m: &Matrix) -> String {
    let mut out = String::new();
    for vl in [0u32, 1] {
        let keys = lvp_keys(vl);
        let mut t = Table::new(&[
            "Bench", &keys[0].0, &keys[1].0, &keys[2].0, &keys[3].0,
        ]);
        let mut cols: Vec<Vec<f64>> = vec![Vec::new(); 4];
        for r in &m.runs {
            let mut row = vec![r.bench.name().to_string()];
            for (i, (_, key)) in keys.iter().enumerate() {
                let sp = r.speedup(&r.vp[key]);
                cols[i].push(sp);
                row.push(fmt2(sp));
            }
            t.row_owned(row);
        }
        let mut hm_row = vec!["HM".to_string()];
        for col in &cols {
            hm_row.push(fmt2(harmonic_mean(col.iter().copied()).unwrap_or(0.0)));
        }
        t.row_owned(hm_row);
        out.push_str(&format!(
            "Figure 7({}): speedup over base, VP_LVP, {}-cycle verification\n\n{}\n",
            if vl == 0 { 'a' } else { 'b' },
            vl,
            t.render()
        ));
    }
    out
}

/// Figure 8: classification of instruction results.
pub fn fig8(m: &Matrix) -> String {
    let mut t = Table::new(&["Bench", "unique", "repeated", "derivable", "unacct"]);
    for r in &m.runs {
        let (u, rep, d, una) = r.limit.classification_pct();
        t.row_owned(vec![
            r.bench.name().to_string(),
            fmt(u),
            fmt(rep),
            fmt(d),
            fmt(una),
        ]);
    }
    format!(
        "Figure 8: classification of instruction results (% of dynamic\n\
         result-producing instructions)\n\n{}",
        t.render()
    )
}

/// Figure 9: input readiness of repeated instructions.
pub fn fig9(m: &Matrix) -> String {
    let mut t = Table::new(&["Bench", "prod reused", "dist >= 50", "dist < 50"]);
    for r in &m.runs {
        let (pr, far, near) = r.limit.readiness_pct();
        t.row_owned(vec![r.bench.name().to_string(), fmt(pr), fmt(far), fmt(near)]);
    }
    format!(
        "Figure 9: repeated instructions by input readiness (% of repeated)\n\n{}",
        t.render()
    )
}

/// Figure 10: how much of the redundancy is reusable.
pub fn fig10(m: &Matrix) -> String {
    let mut t = Table::new(&["Bench", "redundant (%dyn)", "reusable (%red)"]);
    let mut bars = AsciiBars::new(40, 100.0);
    for r in &m.runs {
        t.row_owned(vec![
            r.bench.name().to_string(),
            fmt(r.limit.redundant_pct()),
            fmt(r.limit.reusable_pct()),
        ]);
        bars.bar(r.bench.name(), r.limit.reusable_pct());
    }
    format!(
        "Figure 10: amount of redundancy that can be reused\n\n{}\n{}",
        t.render(),
        bars.render()
    )
}

/// Trace reuse (RTB) against the paper's two mechanisms: speedup side
/// by side with IR and the magic value predictor, plus the trace-level
/// rates that explain the gap. The per-instruction-type and
/// per-loop-depth attribution is in each run's `SimStats::report()`.
pub fn rtb_table(m: &Matrix) -> String {
    let magic: VpKey = (VpKind::Magic, Reexecution::Me, BranchResolution::Sb, 0);
    let mut t = Table::new(&[
        "Bench",
        "IR sp",
        "VP sp",
        "t4 sp",
        "t8 sp",
        "t8 reuse%",
        "t8 len",
        "t8 abort%",
    ]);
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); 4];
    for r in &m.runs {
        let mut row = vec![r.bench.name().to_string()];
        let speedups = [
            r.speedup(&r.ir_early),
            r.speedup(&r.vp[&magic]),
            r.rtb.get(&4).map_or(1.0, |s| r.speedup(s)),
            r.rtb.get(&8).map_or(1.0, |s| r.speedup(s)),
        ];
        for (col, sp) in cols.iter_mut().zip(speedups) {
            col.push(sp);
            row.push(fmt2(sp));
        }
        if let Some(s) = r.rtb.get(&8) {
            let replays = s.rtb.replays.max(1) as f64;
            row.push(fmt(s.rtb.committed_reuse_pct(s.committed)));
            row.push(fmt2(s.rtb.mean_trace_len()));
            row.push(fmt(100.0 * s.rtb.aborted as f64 / replays));
        } else {
            row.extend(["-".to_string(), "-".to_string(), "-".to_string()]);
        }
        t.row_owned(row);
    }
    let mut hm_row = vec!["HM".to_string()];
    for col in &cols {
        hm_row.push(fmt2(harmonic_mean(col.iter().copied()).unwrap_or(0.0)));
    }
    hm_row.extend(["".to_string(), "".to_string(), "".to_string()]);
    t.row_owned(hm_row);

    // Where the trace-reuse pipeline loses captures (invalidated by a
    // squash before install, or dropped as unclassifiable), and where
    // the committed reuse lands: dominant instruction class and the
    // loop-depth distribution (depth 0 = straight-line, 4+ pooled).
    let mut attr = Table::new(&[
        "Bench", "captured", "inv", "drop", "top class", "d0%", "d1%", "d2%", "d3%", "d4+%",
    ]);
    for r in &m.runs {
        let Some(s) = r.rtb.get(&8) else { continue };
        let reused = s.rtb.committed_reused.max(1) as f64;
        let top = vpir_mechanism::CLASS_NAMES
            .iter()
            .zip(s.rtb.per_class)
            .max_by_key(|&(_, n)| n)
            .map_or("-", |(name, _)| name);
        let mut row = vec![
            r.bench.name().to_string(),
            s.rtb.captured.to_string(),
            s.rtb.pending_squashed.to_string(),
            s.rtb.dropped.to_string(),
            top.to_string(),
        ];
        for d in s.rtb.per_depth {
            row.push(fmt(100.0 * d as f64 / reused));
        }
        attr.row_owned(row);
    }
    format!(
        "Trace reuse: speedup vs IR and VP_Magic (ME-SB, vl0), with the\n\
         fraction of committed instructions that arrived via trace replay,\n\
         the mean installed trace length, and the replay abort rate\n\n{}\n\
         Trace reuse attribution (rtb:t8): capture losses, the dominant\n\
         reused instruction class, and committed reuse by loop depth\n\n{}",
        t.render(),
        attr.render()
    )
}

/// Machine-readable export: one CSV row per (benchmark, configuration)
/// with the headline metrics, for external plotting.
pub fn csv(m: &Matrix) -> String {
    let mut out = String::from(
        "bench,config,ipc,speedup,reuse_result_pct,reuse_addr_pct,vp_result_pct,\
         vp_result_mispred_pct,branch_pred_pct,squashes,spurious_squashes,\
         branch_resolution_latency,contention\n",
    );
    for r in &m.runs {
        let mut emit = |config: &str, s: &vpir_core::SimStats| {
            out.push_str(&format!(
                "{},{},{:.4},{:.4},{:.2},{:.2},{:.2},{:.2},{:.2},{},{},{:.3},{:.5}\n",
                r.bench.name(),
                config,
                s.ipc(),
                r.speedup(s),
                s.reuse_result_rate(),
                s.reuse_addr_rate(),
                s.vp_result_rate(),
                s.vp_result_mispred_rate(),
                s.branch_pred_rate(),
                s.squashes,
                s.spurious_squashes,
                s.branch_resolution_latency(),
                s.contention(),
            ));
        };
        emit("base", &r.base);
        emit("ir-early", &r.ir_early);
        emit("ir-late", &r.ir_late);
        for (key, stats) in &r.vp {
            emit(&format!("vp-{}", vp_label(*key)), stats);
        }
        for (len, stats) in &r.rtb {
            emit(&format!("rtb-t{len}"), stats);
        }
    }
    out
}

/// Every report, concatenated (the `all` subcommand).
pub fn all(m: &Matrix) -> String {
    [
        table2(m),
        table3(m),
        table4(m),
        table5(m),
        table6(m),
        fig3(m),
        fig4(m),
        fig5(m),
        fig6(m),
        fig7(m),
        fig8(m),
        fig9(m),
        fig10(m),
        rtb_table(m),
    ]
    .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::{run_bench, MatrixConfig};
    use vpir_workloads::{Bench, Scale};

    fn tiny_matrix() -> Matrix {
        let cfg = MatrixConfig {
            scale: Scale::of(1),
            max_cycles: 150_000,
            limit_insts: 40_000,
        };
        Matrix {
            runs: vec![run_bench(Bench::Ijpeg, cfg), run_bench(Bench::Compress, cfg)],
        }
    }

    #[test]
    fn every_report_renders() {
        let m = tiny_matrix();
        for (name, render) in [
            ("table2", table2(&m)),
            ("table3", table3(&m)),
            ("table4", table4(&m)),
            ("table5", table5(&m)),
            ("table6", table6(&m)),
            ("fig3", fig3(&m)),
            ("fig4", fig4(&m)),
            ("fig5", fig5(&m)),
            ("fig6", fig6(&m)),
            ("fig7", fig7(&m)),
            ("fig8", fig8(&m)),
            ("fig9", fig9(&m)),
            ("fig10", fig10(&m)),
            ("rtb_table", rtb_table(&m)),
        ] {
            assert!(render.contains("ijpeg"), "{name} must list benchmarks:\n{render}");
            assert!(render.lines().count() >= 4, "{name} too short");
        }
        assert!(all(&m).len() > 1000);
    }

    #[test]
    fn csv_has_a_row_per_config() {
        let m = tiny_matrix();
        let csv = csv(&m);
        let lines: Vec<&str> = csv.lines().collect();
        // header + 2 benchmarks x (base + 2 IR + 16 VP + 2 RTB)
        assert_eq!(lines.len(), 1 + 2 * 21, "{csv}");
        assert!(lines[0].starts_with("bench,config,ipc"));
        let header: Vec<&str> = lines[0].split(',').collect();
        assert_eq!(header.len(), 13, "{}", lines[0]);
        for name in &header {
            assert!(
                !name.is_empty() && name.bytes().all(|b| b.is_ascii_lowercase() || b == b'_'),
                "header field {name:?}"
            );
        }
        for row in &lines[1..] {
            assert_eq!(row.split(',').count(), header.len(), "{row}");
        }
        assert!(csv.contains("ijpeg,base,"));
        assert!(csv.contains("compress,ir-early,"));
        assert!(csv.contains("ijpeg,rtb-t8,"));
    }
}
