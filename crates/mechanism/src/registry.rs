//! The configuration-label registry: one vocabulary for every consumer.
//!
//! A *label* names one machine configuration — `base`, a full VP label
//! like `magic:ME-SB:vl1`, `ir_early` / `ir_late`, a trace-reuse label
//! like `rtb:t8`, or `hybrid`. The bench matrix's job list,
//! `--inject-fault` target validation, `vpir serve`'s run-request
//! validation, and the CLI's machine parser all resolve labels through
//! this module, so a configuration named here is reachable from every
//! entry point — and a label rejected here is rejected everywhere, with
//! the same vocabulary in the error message.

use crate::config::{
    BranchResolution, Enhancement, IrConfig, Reexecution, RtbConfig, Validation, VpConfig,
    VpKind,
};

/// Identifies one VP configuration in the sweep.
pub type VpKey = (VpKind, Reexecution, BranchResolution, u32);

/// All sixteen VP configurations the paper sweeps.
pub fn vp_keys() -> Vec<VpKey> {
    let mut keys = Vec::new();
    for kind in [VpKind::Magic, VpKind::Lvp] {
        for re in [Reexecution::Me, Reexecution::Nme] {
            for br in [BranchResolution::Sb, BranchResolution::Nsb] {
                for vl in [0u32, 1] {
                    keys.push((kind, re, br, vl));
                }
            }
        }
    }
    keys
}

/// A full label like `magic:ME-SB:vl1` for a VP key.
///
/// Every component is included — predictor kind, re-execution policy,
/// branch resolution, and verification latency — so all sixteen keys
/// render distinctly (the seed's `ME-SB`-style label collapsed four
/// configurations onto each label and collided in reports).
pub fn vp_label(key: VpKey) -> String {
    let (kind, re, br, vl) = key;
    format!(
        "{}:{}-{}:vl{}",
        match kind {
            VpKind::Magic => "magic",
            VpKind::Lvp => "lvp",
            VpKind::Stride => "stride",
        },
        match re {
            Reexecution::Me => "ME",
            Reexecution::Nme => "NME",
        },
        match br {
            BranchResolution::Sb => "SB",
            BranchResolution::Nsb => "NSB",
        },
        vl
    )
}

/// The VP configuration behind a key: the key's four axes over the
/// `magic()` defaults.
pub fn vp_config(key: VpKey) -> VpConfig {
    let (kind, re, br, vl) = key;
    VpConfig {
        kind,
        reexecution: re,
        branch_resolution: br,
        verify_latency: vl,
        ..VpConfig::magic()
    }
}

/// Parses a full VP label of the form `kind:RE-BR:vlN` (the inverse of
/// [`vp_label`]).
pub fn parse_vp_label(label: &str) -> Option<VpKey> {
    let (kind, rest) = label.split_once(':')?;
    let (policies, vl) = rest.split_once(':')?;
    let (re, br) = policies.split_once('-')?;
    let kind = match kind {
        "magic" => VpKind::Magic,
        "lvp" => VpKind::Lvp,
        "stride" => VpKind::Stride,
        _ => return None,
    };
    let re = match re {
        "ME" => Reexecution::Me,
        "NME" => Reexecution::Nme,
        _ => return None,
    };
    let br = match br {
        "SB" => BranchResolution::Sb,
        "NSB" => BranchResolution::Nsb,
        _ => return None,
    };
    let vl: u32 = vl.strip_prefix("vl")?.parse().ok()?;
    Some((kind, re, br, vl))
}

/// The registered trace-reuse configurations, in label order
/// (`rtb:t4`, `rtb:t8`).
pub fn rtb_configs() -> [RtbConfig; 2] {
    [RtbConfig::t4(), RtbConfig::t8()]
}

/// Parses an `rtb:tN` label into its configuration (the inverse of
/// [`RtbConfig::label`], over the registered configurations only).
pub fn parse_rtb_label(label: &str) -> Option<RtbConfig> {
    rtb_configs().into_iter().find(|c| c.label() == label)
}

/// Every *machine* configuration label, in matrix job order: `base`,
/// the sixteen VP labels, `ir_early`, `ir_late`, then the trace-reuse
/// labels. (The bench matrix appends its functional `limit` study,
/// which has no machine configuration, after these.)
pub fn machine_labels() -> Vec<String> {
    let mut labels = vec!["base".to_string()];
    labels.extend(vp_keys().into_iter().map(vp_label));
    labels.extend(["ir_early".to_string(), "ir_late".to_string()]);
    labels.extend(rtb_configs().iter().map(|c| c.label()));
    labels
}

/// The enhancement behind a machine label: the inverse of the label
/// vocabulary for every cycle-level configuration, plus `hybrid` (IR
/// with `VP_Magic` covering the RB misses), which is no matrix cell and
/// so not in [`machine_labels`]. Unknown labels (and the bench-only
/// `limit` study) return `None`.
pub fn enhancement_for_label(label: &str) -> Option<Enhancement> {
    match label {
        "base" => Some(Enhancement::None),
        "hybrid" => Some(Enhancement::Hybrid(VpConfig::magic(), IrConfig::table1())),
        "ir_early" => Some(Enhancement::Ir(IrConfig::table1())),
        "ir_late" => Some(Enhancement::Ir(IrConfig {
            validation: Validation::Late,
            ..IrConfig::table1()
        })),
        _ => parse_rtb_label(label)
            .map(Enhancement::Rtb)
            .or_else(|| parse_vp_label(label).map(|key| Enhancement::Vp(vp_config(key)))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vp_key_space_is_complete_and_labels_round_trip() {
        let keys = vp_keys();
        assert_eq!(keys.len(), 16);
        for &key in &keys {
            assert_eq!(parse_vp_label(&vp_label(key)), Some(key));
        }
        let labels: std::collections::BTreeSet<String> =
            keys.iter().map(|&k| vp_label(k)).collect();
        assert_eq!(labels.len(), 16, "labels alone must be distinct");
    }

    #[test]
    fn machine_labels_resolve_and_unknowns_do_not() {
        for label in machine_labels() {
            assert!(
                enhancement_for_label(&label).is_some(),
                "machine label must resolve: {label}"
            );
        }
        for bad in ["", "limit", "basex", "magic:ME-SB", "magic:XX-SB:vl1", "rtb:t5", "rtb"] {
            assert!(enhancement_for_label(bad).is_none(), "accepted `{bad}`");
        }
        // The hybrid resolves but is no matrix cell.
        assert_eq!(
            enhancement_for_label("hybrid"),
            Some(Enhancement::Hybrid(VpConfig::magic(), IrConfig::table1()))
        );
        assert!(!machine_labels().iter().any(|l| l == "hybrid"));
    }

    #[test]
    fn rtb_labels_sit_between_ir_and_nothing() {
        let labels = machine_labels();
        assert_eq!(labels.len(), 21, "base + 16 VP + 2 IR + 2 RTB");
        let ir_late = labels.iter().position(|l| l == "ir_late").expect("ir_late");
        assert_eq!(labels.get(ir_late + 1).map(String::as_str), Some("rtb:t4"));
        assert_eq!(labels.get(ir_late + 2).map(String::as_str), Some("rtb:t8"));
        assert_eq!(
            enhancement_for_label("rtb:t8"),
            Some(Enhancement::Rtb(RtbConfig::t8()))
        );
    }
}
