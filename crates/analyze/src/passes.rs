//! The workspace-wide passes: R8 panic-reachability, R9 relaxed-atomic
//! control flow, R10 lock-order.
//!
//! R8 and R10 run on top of the [`crate::items`] index and the
//! [`crate::callgraph`] graph, where the line rules (R2, R4, R7) see
//! one line at a time. Each pass is conservative in a
//! *reported* way: whatever it cannot resolve shows up as a residual
//! obligation in an R8 [`ProofNote`] or is excluded by a documented
//! limit — nothing is silently assumed resolved.

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::{CallGraph, Target};
use crate::findings::{Finding, ProofNote, Rule};
use crate::items::ItemIndex;
use crate::rules::{emit, File};

/// Runs R8–R10 over the scanned files.
pub fn run_interprocedural(files: &[File]) -> (Vec<Finding>, Vec<ProofNote>) {
    let idx = ItemIndex::build(files);
    let graph = CallGraph::build(files, &idx);
    let mut findings = Vec::new();
    let proofs = panic_reach(files, &idx, &graph, &mut findings);
    for file in files {
        relaxed_control_flow(file, &mut findings);
    }
    lock_order(files, &idx, &graph, &mut findings);
    (findings, proofs)
}

// ----------------------------------------------------------------
// R8: panic reachability.
// ----------------------------------------------------------------

/// The entry points whose whole call tree must be panic-free: the
/// simulator's public run loop and the ISA-level machine's. Matched by
/// exact qualified name so fixtures can use the same shapes. A root
/// with no definition is skipped here; the workspace self-check test
/// requires a proof for every entry, so a renamed one fails there.
pub const PANIC_ROOTS: [&str; 6] = [
    "Simulator::run_checked",
    "Simulator::run",
    "Simulator::run_to_halt",
    "Simulator::step_cycle",
    "Machine::run",
    "Machine::step",
];

fn panic_reach(
    files: &[File],
    idx: &ItemIndex,
    graph: &CallGraph,
    findings: &mut Vec<Finding>,
) -> Vec<ProofNote> {
    let can_panic = graph.can_panic();
    let mut proofs = Vec::new();
    let mut emitted: BTreeSet<(usize, usize, usize, String)> = BTreeSet::new();
    for root_qual in PANIC_ROOTS {
        let Some(cands) = idx.by_qual.get(root_qual) else {
            continue;
        };
        for &root in cands {
            if idx.fns[root].in_test {
                continue;
            }
            let parents = graph.reachable(root);
            let mut panic_hits = 0usize;
            let mut div_assumes = 0usize;
            let mut idx_assumes = 0usize;
            let mut residuals: Vec<String> = Vec::new();
            let mut residual_keys: BTreeSet<(String, usize)> = BTreeSet::new();
            let mut unresolved_total = 0usize;
            for &at in parents.keys() {
                let f = &idx.fns[at];
                let node = &graph.nodes[at];
                for p in &node.panics {
                    panic_hits += 1;
                    let key = (f.file, p.line, p.col, p.what.clone());
                    if emitted.insert(key) {
                        emit(
                            findings,
                            Rule::PanicReach,
                            &files[f.file],
                            p.line,
                            format!(
                                "`{}` can panic and is reachable from {} (path: {})",
                                p.what,
                                root_qual,
                                graph.path_to(idx, &parents, at)
                            ),
                        );
                    }
                }
                for a in &node.assumes {
                    if a.what.contains("divisor") {
                        div_assumes += 1;
                    } else {
                        idx_assumes += 1;
                    }
                }
                for call in &node.calls {
                    if let Target::Ambiguous(cs) = &call.target {
                        unresolved_total += 1;
                        let risky: Vec<&str> = cs
                            .iter()
                            .filter(|c| can_panic[**c])
                            .map(|c| idx.fns[*c].qual.as_str())
                            .collect();
                        if !risky.is_empty()
                            && residual_keys.insert((call.name.clone(), call.line))
                        {
                            residuals.push(format!(
                                "unresolved `{}` at {}:{} may reach panicking {}",
                                call.name,
                                files[f.file].path,
                                call.line,
                                risky.join(", ")
                            ));
                        }
                    }
                }
            }
            let verdict = if panic_hits == 0 && residuals.is_empty() {
                "panic-free"
            } else if panic_hits == 0 {
                "panic-free modulo unresolved edges"
            } else {
                "NOT panic-free"
            };
            let summary = format!(
                "{verdict}: {} reachable fn(s), {} panic site(s), {} unresolved may-call edge(s), {} div/mod + {} index assumption(s)",
                parents.len(),
                panic_hits,
                unresolved_total,
                div_assumes,
                idx_assumes,
            );
            let shown = residuals.len().min(20);
            let extra = residuals.len() - shown;
            residuals.truncate(shown);
            if extra > 0 {
                residuals.push(format!("… and {extra} more unresolved edge(s)"));
            }
            proofs.push(ProofNote {
                rule: Rule::PanicReach,
                root: root_qual.to_string(),
                summary,
                details: residuals,
            });
        }
    }
    proofs
}

// ----------------------------------------------------------------
// R9: relaxed atomics in control flow. Racy writes to a shared capture
// need no check: the borrow checker already rejects two spawned
// threads holding one `&mut`, so shared writes go through atomics or
// locks.
// ----------------------------------------------------------------

/// Flags `.load(Ordering::Relaxed)` whose result feeds control flow on
/// the same line. Relaxed loads may observe arbitrarily stale values;
/// gating behaviour on one makes cross-thread progress depend on cache
/// timing. RMW ops (`fetch_add` cursors) are exempt: their atomicity,
/// not their ordering, is what hands each thread a unique slot.
fn relaxed_control_flow(file: &File, findings: &mut Vec<Finding>) {
    for line in file.lines.iter().filter(|l| !l.in_test) {
        let code = &line.code;
        let Some(at) = code.find(".load(Ordering::Relaxed)") else {
            continue;
        };
        let before = &code[..at];
        let after = &code[at + ".load(Ordering::Relaxed)".len()..];
        let in_condition = ["if ", "while ", "match ", "assert"]
            .iter()
            .any(|k| before.trim_start().starts_with(k) || before.contains(&format!(" {k}")) || before.contains(&format!("({k}")));
        let compared = ["==", "!=", "<=", ">=", " < ", " > ", "&&", "||"]
            .iter()
            .any(|op| after.contains(op));
        if in_condition || compared {
            emit(
                findings,
                Rule::Concurrency,
                file,
                line.number,
                "`.load(Ordering::Relaxed)` feeds control flow: a relaxed load may observe a stale value indefinitely; use Acquire (paired with a Release store) or SeqCst for gating flags".to_string(),
            );
        }
    }
}

// ----------------------------------------------------------------
// R10: lock order.
// ----------------------------------------------------------------

/// One lock-acquisition edge: `from` held while `to` is acquired.
#[derive(Debug)]
struct LockEdge {
    to: String,
    file: usize,
    line: usize,
}

fn lock_order(files: &[File], idx: &ItemIndex, graph: &CallGraph, findings: &mut Vec<Finding>) {
    // Pass 1: per-fn direct acquisitions (named identities only).
    let direct: Vec<Vec<String>> = idx
        .fns
        .iter()
        .map(|f| {
            if f.in_test {
                return Vec::new();
            }
            let mut ids = Vec::new();
            for line in &files[f.file].lines[f.body_start..=f.body_end] {
                for id in lock_identities(&line.code, f.owner.as_deref()) {
                    ids.push(id);
                }
            }
            ids
        })
        .collect();
    // Transitive acquire sets over Known edges (for calls made while a
    // guard is held).
    let mut acquires: Vec<BTreeSet<String>> = direct
        .iter()
        .map(|v| v.iter().cloned().collect())
        .collect();
    let mut changed = true;
    while changed {
        changed = false;
        for i in 0..idx.fns.len() {
            for call in &graph.nodes[i].calls {
                if let Target::Known(t) = call.target {
                    let add: Vec<String> = acquires[t]
                        .iter()
                        .filter(|a| !acquires[i].contains(*a))
                        .cloned()
                        .collect();
                    if !add.is_empty() {
                        acquires[i].extend(add);
                        changed = true;
                    }
                }
            }
        }
    }
    // Pass 2: walk each fn tracking held guards; record edges.
    let mut edges: BTreeMap<String, Vec<LockEdge>> = BTreeMap::new();
    for (fi, f) in idx.fns.iter().enumerate() {
        if f.in_test {
            continue;
        }
        walk_guards(files, idx, graph, f, fi, &acquires, &mut edges);
    }
    // Pass 3: cycle detection (DFS with an explicit path stack).
    let nodes: Vec<String> = edges.keys().cloned().collect();
    let mut done: BTreeSet<String> = BTreeSet::new();
    let mut reported: BTreeSet<(String, String)> = BTreeSet::new();
    for start in nodes {
        dfs_cycles(&start, &edges, &mut done, &mut Vec::new(), &mut reported, files, findings);
    }
}

/// DFS from `at`; an edge back into the current path closes a cycle.
fn dfs_cycles(
    at: &str,
    edges: &BTreeMap<String, Vec<LockEdge>>,
    done: &mut BTreeSet<String>,
    stack: &mut Vec<String>,
    reported: &mut BTreeSet<(String, String)>,
    files: &[File],
    findings: &mut Vec<Finding>,
) {
    if done.contains(at) || stack.iter().any(|s| s == at) {
        return;
    }
    stack.push(at.to_string());
    if let Some(outs) = edges.get(at) {
        for e in outs {
            if let Some(from_pos) = stack.iter().position(|s| s == &e.to) {
                // Cycle: e.to -> … -> at -> e.to (self-loops included:
                // re-acquiring a held std Mutex deadlocks outright).
                let cycle = stack[from_pos..].join(" -> ");
                if reported.insert((at.to_string(), e.to.clone())) {
                    emit(
                        findings,
                        Rule::LockOrder,
                        &files[e.file],
                        e.line,
                        format!(
                            "lock `{}` acquired while holding `{}` closes the cycle {} -> {}: two threads entering from different ends deadlock; acquire these locks in one fixed order",
                            e.to, at, cycle, e.to
                        ),
                    );
                }
            } else {
                dfs_cycles(&e.to.clone(), edges, done, stack, reported, files, findings);
            }
        }
    }
    stack.pop();
    done.insert(at.to_string());
}

/// Lock identities acquired on a line: `self.field.lock()` under an
/// impl owner becomes `Owner.field`. Receivers this parser cannot name
/// (locals, `vec[i].lock()`) do not join the order graph — per-slot
/// locks are intentionally outside a global order.
fn lock_identities(code: &str, owner: Option<&str>) -> Vec<String> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(p) = code[from..].find(".lock(") {
        let at = from + p;
        from = at + ".lock(".len();
        let before = &code[..at];
        if let Some(field_start) = before.rfind("self.") {
            let field: String = before["self.".len() + field_start..]
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            let direct = field_start + "self.".len() + field.len() == at;
            if direct && !field.is_empty() {
                if let Some(o) = owner {
                    out.push(format!("{o}.{field}"));
                }
            }
        }
    }
    out
}

/// Walks a fn's body tracking `let`-bound guards and records an edge
/// for every acquisition (direct or via a called fn's transitive
/// acquire set) made while a guard is held.
fn walk_guards(
    files: &[File],
    idx: &ItemIndex,
    graph: &CallGraph,
    f: &crate::items::FnItem,
    fi: usize,
    acquires: &[BTreeSet<String>],
    edges: &mut BTreeMap<String, Vec<LockEdge>>,
) {
    let lines = &files[f.file].lines;
    let mut depth = 0i32;
    // Active guards: (binding name, identity, depth at binding).
    let mut held: Vec<(String, String, i32)> = Vec::new();
    for (k, line) in lines.iter().enumerate().take(f.body_end + 1).skip(f.body_start) {
        let code = &line.code;
        let ids = lock_identities(code, f.owner.as_deref());
        // Guard-returning helper calls acquire that helper's lock too.
        let mut via_calls: Vec<String> = Vec::new();
        let mut guard_call_ids: Vec<String> = Vec::new();
        for call in graph.nodes[fi].calls.iter().filter(|c| c.line == line.number) {
            if let Target::Known(t) = call.target {
                if idx.fns[t].returns_guard {
                    guard_call_ids.extend(acquires[t].iter().cloned());
                } else {
                    via_calls.extend(acquires[t].iter().cloned());
                }
            }
        }
        // Record edges from every held guard to every new acquisition
        // (including a re-acquisition of the held lock itself, which
        // deadlocks a std Mutex outright).
        for (_, held_id, _) in &held {
            for id in ids.iter().chain(via_calls.iter()).chain(guard_call_ids.iter()) {
                edges.entry(held_id.clone()).or_default().push(LockEdge {
                    to: id.clone(),
                    file: f.file,
                    line: line.number,
                });
            }
        }
        // New let-bound guard?
        let trimmed = code.trim_start();
        if trimmed.starts_with("let ") && (!ids.is_empty() || !guard_call_ids.is_empty()) {
            let after_let = trimmed["let ".len()..].trim_start();
            let after_mut = after_let.strip_prefix("mut ").unwrap_or(after_let);
            let name: String = after_mut
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            let identity = ids
                .first()
                .or(guard_call_ids.first())
                .cloned();
            if let (false, Some(id)) = (name.is_empty() || name == "_", identity) {
                held.push((name, id, depth));
            }
        }
        // `drop(g)` releases g.
        let mut from = 0;
        while let Some(p) = code[from..].find("drop(") {
            let at = from + p;
            from = at + "drop(".len();
            let name: String = code[from..]
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            held.retain(|(n, _, _)| *n != name);
        }
        // Depth bookkeeping; block exit releases guards bound within.
        for c in code.chars() {
            match c {
                '{' => depth += 1,
                '}' => depth -= 1,
                _ => {}
            }
        }
        held.retain(|(_, _, d)| *d <= depth);
        let _ = k;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;

    fn run(path: &str, src: &str) -> (Vec<Finding>, Vec<ProofNote>) {
        let files = vec![File {
            path: path.into(),
            lines: scan(src),
        }];
        run_interprocedural(&files)
    }

    #[test]
    fn r8_flags_transitive_panics_from_roots() {
        let src = "pub struct Machine;\nimpl Machine {\n    pub fn run(&mut self) { self.step(); }\n    fn step(&mut self) { deep(None); }\n}\nfn deep(x: Option<u64>) -> u64 { x.unwrap() }\n";
        let (findings, proofs) = run("crates/isa/src/x.rs", src);
        let r8: Vec<_> = findings.iter().filter(|f| f.rule == Rule::PanicReach).collect();
        assert_eq!(r8.len(), 1);
        assert!(r8[0].message.contains("Machine::run -> Machine::step -> deep"));
        assert!(proofs.iter().any(|p| p.root == "Machine::run" && p.summary.contains("NOT panic-free")));
    }

    #[test]
    fn r8_proves_clean_trees_and_reports_residual_edges() {
        let src = "pub struct Machine;\nimpl Machine {\n    pub fn run(&mut self) { helper(3); }\n}\nfn helper(x: u64) -> u64 { x + 1 }\n";
        let (findings, proofs) = run("crates/isa/src/x.rs", src);
        assert!(findings.iter().all(|f| f.rule != Rule::PanicReach));
        let p = proofs.iter().find(|p| p.root == "Machine::run").unwrap();
        assert!(p.summary.starts_with("panic-free"), "{}", p.summary);
        assert!(p.summary.contains("2 reachable fn(s)"));
    }

    #[test]
    fn r9_flags_relaxed_loads_feeding_control_flow() {
        let src = "fn f(stop: &std::sync::atomic::AtomicBool) {\n    while !stop.load(Ordering::Relaxed) == false {}\n}\nfn g(hits: &std::sync::atomic::AtomicU64) -> u64 {\n    hits.load(Ordering::Relaxed)\n}\n";
        let (findings, _) = run("crates/serve/src/x.rs", src);
        let r9: Vec<_> = findings.iter().filter(|f| f.rule == Rule::Concurrency).collect();
        assert_eq!(r9.len(), 1, "{r9:?}");
        assert_eq!(r9[0].line, 2);
    }

    #[test]
    fn r10_flags_opposite_lock_orders() {
        let src = "use std::sync::Mutex;\npub struct S { a: Mutex<u64>, b: Mutex<u64> }\nimpl S {\n    fn one(&self) -> u64 {\n        let g = self.a.lock().unwrap_or_else(|e| e.into_inner());\n        let h = self.b.lock().unwrap_or_else(|e| e.into_inner());\n        *g + *h\n    }\n    fn two(&self) -> u64 {\n        let g = self.b.lock().unwrap_or_else(|e| e.into_inner());\n        let h = self.a.lock().unwrap_or_else(|e| e.into_inner());\n        *g + *h\n    }\n}\n";
        let (findings, _) = run("crates/bench/src/x.rs", src);
        let r10: Vec<_> = findings.iter().filter(|f| f.rule == Rule::LockOrder).collect();
        assert!(!r10.is_empty());
        assert!(r10[0].message.contains("fixed order"));
    }

    #[test]
    fn r10_accepts_consistent_lock_orders() {
        let src = "use std::sync::Mutex;\npub struct S { a: Mutex<u64>, b: Mutex<u64> }\nimpl S {\n    fn one(&self) -> u64 {\n        let g = self.a.lock().unwrap_or_else(|e| e.into_inner());\n        let h = self.b.lock().unwrap_or_else(|e| e.into_inner());\n        *g + *h\n    }\n    fn two(&self) -> u64 {\n        let g = self.a.lock().unwrap_or_else(|e| e.into_inner());\n        let h = self.b.lock().unwrap_or_else(|e| e.into_inner());\n        *g + *h\n    }\n}\n";
        let (findings, _) = run("crates/bench/src/x.rs", src);
        assert!(findings.iter().all(|f| f.rule != Rule::LockOrder));
    }
}
