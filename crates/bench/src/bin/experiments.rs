//! Command-line front end for the paper's experiments.
//!
//! ```text
//! experiments <id> [--quick] [--scale N] [--bench NAME]
//!
//! ids: table2 table3 table4 table5 table6
//!      fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10
//!      all csv rtb ablations hybrid frontend
//! ```

use std::env;
use std::process::ExitCode;

use vpir_bench::matrix::{run_benches_jobs, run_one, Matrix, MatrixConfig};
use vpir_bench::report;
use vpir_core::{CoreConfig, FrontEnd, IrConfig, VpConfig, VpKind};
use vpir_predict::VptConfig;
use vpir_reuse::{RbConfig, ReuseScheme};
use vpir_stats::Table;
use vpir_workloads::{Bench, Scale};

fn usage() -> ExitCode {
    eprintln!(
        "usage: experiments <id> [--quick] [--scale N] [--bench NAME] [--jobs N]\n\
         ids: table2..table6, fig3..fig10, all, csv, rtb, ablations, hybrid, frontend"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let Some(id) = args.first().cloned() else {
        return usage();
    };
    let mut cfg = MatrixConfig::experiment();
    let mut only_bench: Option<Bench> = None;
    let mut jobs = 0usize; // 0 = available parallelism
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => cfg = MatrixConfig::quick(),
            "--jobs" => {
                i += 1;
                let Some(n) = args.get(i).and_then(|s| s.parse::<usize>().ok()) else {
                    return usage();
                };
                jobs = n;
            }
            "--scale" => {
                i += 1;
                let Some(n) = args.get(i).and_then(|s| s.parse::<u32>().ok()) else {
                    return usage();
                };
                cfg.scale = Scale::of(n);
            }
            "--bench" => {
                i += 1;
                let Some(b) = args.get(i).map(|s| Bench::parse(s)) else {
                    return usage();
                };
                match b {
                    Some(b) => only_bench = Some(b),
                    None => {
                        eprintln!("unknown benchmark; choose from: {:?}",
                            Bench::ALL.map(|b| b.name()));
                        return ExitCode::FAILURE;
                    }
                }
            }
            _ => return usage(),
        }
        i += 1;
    }

    if id == "ablations" {
        print!("{}", ablations(cfg, only_bench));
        return ExitCode::SUCCESS;
    }
    if id == "hybrid" {
        print!("{}", hybrid(cfg, only_bench));
        return ExitCode::SUCCESS;
    }
    if id == "frontend" {
        print!("{}", frontend(cfg, only_bench));
        return ExitCode::SUCCESS;
    }

    eprintln!(
        "running matrix (scale {}, cycle cap {}) ...",
        cfg.scale.outer, cfg.max_cycles
    );
    let matrix = build_matrix(cfg, only_bench, jobs);
    let out = match id.as_str() {
        "table2" => report::table2(&matrix),
        "table3" => report::table3(&matrix),
        "table4" => report::table4(&matrix),
        "table5" => report::table5(&matrix),
        "table6" => report::table6(&matrix),
        "fig3" => report::fig3(&matrix),
        "fig4" => report::fig4(&matrix),
        "fig5" => report::fig5(&matrix),
        "fig6" => report::fig6(&matrix),
        "fig7" => report::fig7(&matrix),
        "fig8" => report::fig8(&matrix),
        "fig9" => report::fig9(&matrix),
        "fig10" => report::fig10(&matrix),
        "all" => report::all(&matrix),
        "csv" => report::csv(&matrix),
        "rtb" => report::rtb_table(&matrix),
        _ => return usage(),
    };
    println!("{out}");
    ExitCode::SUCCESS
}

fn build_matrix(cfg: MatrixConfig, only: Option<Bench>, jobs: usize) -> Matrix {
    match only {
        None => run_benches_jobs(&Bench::ALL, cfg, jobs),
        Some(b) => run_benches_jobs(&[b], cfg, jobs),
    }
}

/// Beyond the paper: the VP+IR hybrid its conclusion proposes, for each
/// predictor flavour (reuse first, predict on a reuse miss).
fn hybrid(cfg: MatrixConfig, only: Option<Bench>) -> String {
    let benches: Vec<Bench> = match only {
        Some(b) => vec![b],
        None => Bench::ALL.to_vec(),
    };
    let mut t = Table::new(&[
        "Bench", "VP", "IR", "hyb(magic)", "hyb(lvp)", "hyb(stride)", "hyb reuse%", "hyb pred%",
    ]);
    for &bench in &benches {
        let base = run_one(bench, cfg.scale, CoreConfig::table1(), cfg.max_cycles);
        let b = base.ipc().max(1e-9);
        let vp = run_one(bench, cfg.scale, CoreConfig::with_vp(VpConfig::magic()), cfg.max_cycles);
        let ir = run_one(bench, cfg.scale, CoreConfig::with_ir(IrConfig::table1()), cfg.max_cycles);
        let mut row = vec![
            bench.name().to_string(),
            format!("{:.3}", vp.ipc() / b),
            format!("{:.3}", ir.ipc() / b),
        ];
        let mut magic_stats = None;
        for kind in [VpKind::Magic, VpKind::Lvp, VpKind::Stride] {
            let hv = VpConfig { kind, ..VpConfig::magic() };
            let h = run_one(
                bench,
                cfg.scale,
                CoreConfig::with_hybrid(hv, IrConfig::table1()),
                cfg.max_cycles,
            );
            row.push(format!("{:.3}", h.ipc() / b));
            if kind == VpKind::Magic {
                magic_stats = Some(h);
            }
        }
        let h = magic_stats.expect("magic hybrid ran");
        row.push(format!("{:.1}", h.reuse_result_rate()));
        row.push(format!("{:.1}", h.vp_result_rate()));
        t.row_owned(row);
    }
    format!(
        "Beyond the paper: VP+IR hybrid speedups (reuse test first,\n\
         value prediction on a reuse miss)\n\n{}\n",
        t.render()
    )
}

/// Sensitivity to front-end quality: how the mechanisms' benefits move
/// when gshare is replaced by a weaker predictor.
fn frontend(cfg: MatrixConfig, only: Option<Bench>) -> String {
    let benches: Vec<Bench> = match only {
        Some(b) => vec![b],
        None => Bench::ALL.to_vec(),
    };
    let mut t = Table::new(&[
        "Bench", "FE", "base IPC", "br pred%", "VP speedup", "IR speedup",
    ]);
    for &bench in &benches {
        for fe in [FrontEnd::Gshare, FrontEnd::Bimodal, FrontEnd::StaticTaken] {
            let mut base_cfg = CoreConfig::table1();
            base_cfg.front_end = fe;
            let base = run_one(bench, cfg.scale, base_cfg.clone(), cfg.max_cycles);
            let b = base.ipc().max(1e-9);
            let mut vp_cfg = CoreConfig::with_vp(VpConfig::magic());
            vp_cfg.front_end = fe;
            let vp = run_one(bench, cfg.scale, vp_cfg, cfg.max_cycles);
            let mut ir_cfg = CoreConfig::with_ir(IrConfig::table1());
            ir_cfg.front_end = fe;
            let ir = run_one(bench, cfg.scale, ir_cfg, cfg.max_cycles);
            t.row_owned(vec![
                bench.name().to_string(),
                format!("{fe:?}"),
                format!("{:.3}", base.ipc()),
                format!("{:.1}", base.branch_pred_rate()),
                format!("{:.3}", vp.ipc() / b),
                format!("{:.3}", ir.ipc() / b),
            ]);
        }
    }
    format!(
        "Sensitivity: front-end predictor quality vs mechanism benefit\n\n{}\n",
        t.render()
    )
}

/// Design-choice sweeps beyond the paper: reuse-test schemes, RB/VPT
/// sizes, and confidence thresholds.
fn ablations(cfg: MatrixConfig, only: Option<Bench>) -> String {
    let benches: Vec<Bench> = match only {
        Some(b) => vec![b],
        None => Bench::ALL.to_vec(),
    };
    let mut out = String::new();

    // 1. Reuse-test scheme sweep.
    let mut t = Table::new(&["Bench", "Sn res%", "SnD res%", "SnDValues res%"]);
    for &bench in &benches {
        let mut row = vec![bench.name().to_string()];
        for scheme in [ReuseScheme::Sn, ReuseScheme::SnD, ReuseScheme::SnDValues] {
            let ir = IrConfig {
                rb: RbConfig {
                    scheme,
                    ..RbConfig::table1()
                },
                ..IrConfig::table1()
            };
            let s = run_one(bench, cfg.scale, CoreConfig::with_ir(ir), cfg.max_cycles);
            row.push(format!("{:.1}", s.reuse_result_rate()));
        }
        t.row_owned(row);
    }
    out.push_str(&format!("Ablation: reuse-test scheme vs reuse rate\n\n{}\n", t.render()));

    // 2. RB size sweep (entries at fixed 4-way associativity).
    let mut t = Table::new(&["Bench", "256", "1K", "4K", "16K"]);
    for &bench in &benches {
        let mut row = vec![bench.name().to_string()];
        for entries in [256usize, 1024, 4096, 16384] {
            let ir = IrConfig {
                rb: RbConfig {
                    entries,
                    ..RbConfig::table1()
                },
                ..IrConfig::table1()
            };
            let s = run_one(bench, cfg.scale, CoreConfig::with_ir(ir), cfg.max_cycles);
            row.push(format!("{:.1}", s.reuse_result_rate()));
        }
        t.row_owned(row);
    }
    out.push_str(&format!("Ablation: RB entries vs reuse rate (%)\n\n{}\n", t.render()));

    // 3. VPT confidence threshold sweep (Magic, ME-SB, 0-cycle).
    let mut t = Table::new(&["Bench", "thr1 pred%", "thr1 mis%", "thr2 pred%", "thr2 mis%", "thr3 pred%", "thr3 mis%"]);
    for &bench in &benches {
        let mut row = vec![bench.name().to_string()];
        for thr in [1u8, 2, 3] {
            let vp = VpConfig {
                vpt: VptConfig {
                    confidence_threshold: thr,
                    ..VptConfig::table1()
                },
                ..VpConfig::magic()
            };
            let s = run_one(bench, cfg.scale, CoreConfig::with_vp(vp), cfg.max_cycles);
            row.push(format!("{:.1}", s.vp_result_rate()));
            row.push(format!("{:.1}", s.vp_result_mispred_rate()));
        }
        t.row_owned(row);
    }
    out.push_str(&format!(
        "Ablation: VPT confidence threshold vs prediction and misprediction rates\n\n{}\n",
        t.render()
    ));

    // 4. ROB-size sensitivity: how much of each mechanism's benefit
    // depends on the window (the paper fixes it at 32).
    let mut t = Table::new(&["Bench", "rob16 VP", "rob16 IR", "rob32 VP", "rob32 IR", "rob64 VP", "rob64 IR"]);
    for &bench in &benches {
        let mut row = vec![bench.name().to_string()];
        for rob in [16usize, 32, 64] {
            let mut base_cfg = CoreConfig::table1();
            base_cfg.rob_size = rob;
            let base = run_one(bench, cfg.scale, base_cfg.clone(), cfg.max_cycles);
            let mut vp_cfg = CoreConfig::with_vp(VpConfig::magic());
            vp_cfg.rob_size = rob;
            let vp = run_one(bench, cfg.scale, vp_cfg, cfg.max_cycles);
            let mut ir_cfg = CoreConfig::with_ir(IrConfig::table1());
            ir_cfg.rob_size = rob;
            let ir = run_one(bench, cfg.scale, ir_cfg, cfg.max_cycles);
            let b = base.ipc().max(1e-9);
            row.push(format!("{:.3}", vp.ipc() / b));
            row.push(format!("{:.3}", ir.ipc() / b));
        }
        t.row_owned(row);
    }
    out.push_str(&format!(
        "Ablation: speedup vs reorder-buffer size (VP_Magic ME-SB and IR)\n\n{}\n",
        t.render()
    ));

    out
}
