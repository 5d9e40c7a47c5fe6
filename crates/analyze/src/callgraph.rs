//! Best-effort workspace call graph over the [`crate::items`] index.
//!
//! Resolution is deliberately tiered and conservative — every tier
//! either resolves a call site to workspace functions or records what
//! it could not prove, so the passes built on top (R8 panic
//! reachability, R10 lock order) never silently drop an edge:
//!
//! 1. **Free fn** — `helper(…)` resolves through the qualified-name
//!    table (free fns are indexed under their bare name, so imported
//!    cross-crate free fns resolve too).
//! 2. **`Type::method(…)`** — resolves `Type::method`; `Self` maps to
//!    the enclosing impl's type.
//! 3. **`self.method(…)`** — resolves `{Owner}::method` via the
//!    enclosing impl block.
//! 4. **`self.field.method(…)`** — the field's declared base type
//!    (wrappers like `Option<Box<…>>` stripped) names the owner.
//! 5. **`expr.method(…)`** on any other receiver — *may-call* edges to
//!    every workspace method (a fn declared in an `impl` or `trait`)
//!    with that bare name ([`Target::Ambiguous`]).
//!
//! A call that matches no workspace function at all is
//! [`Target::External`] (std or vendored code); the passes treat
//! externals as panic-free and say so in their documented limits.
//! Macro bodies (`write!`, `format!`) are invisible by construction —
//! the lexer blanks literals and the extractor skips `name!(…)` —
//! which is also a documented limit, not a silent one.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::items::{FnItem, ItemIndex};
use crate::rules::{index_exprs, is_int_literal, literal_indexes, File};

/// Where a call site leads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Target {
    /// Resolved to exactly one workspace fn (index into `ItemIndex::fns`).
    Known(usize),
    /// May-call: one of several workspace fns with this name.
    Ambiguous(Vec<usize>),
    /// No workspace candidate — std or otherwise out of scope.
    External,
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallEdge {
    /// Display name as written (`helper`, `Type::method`, `.lock`).
    pub name: String,
    /// 1-based source line of the call.
    pub line: usize,
    /// 1-based column of the callee identifier.
    pub col: usize,
    pub target: Target,
}

/// A construct that panics if its assumption fails (R2's class:
/// unwrap / expect / panic-family macro / literal index).
#[derive(Debug, Clone)]
pub struct PanicSite {
    pub line: usize,
    pub col: usize,
    pub what: String,
}

/// A site whose safety rests on a value-range argument the analyzer
/// cannot check: div/mod with a non-literal divisor, or a non-literal
/// slice index. These are *counted* in R8 proof notes, not flagged —
/// the workspace's hot loops index by masked slot numbers and mod by
/// configured capacities on nearly every line.
#[derive(Debug, Clone)]
pub struct AssumeSite {
    pub line: usize,
    pub what: String,
}

/// Per-function facts: outgoing calls plus local panic/assumption sites.
#[derive(Debug, Clone, Default)]
pub struct FnNode {
    pub calls: Vec<CallEdge>,
    pub panics: Vec<PanicSite>,
    pub assumes: Vec<AssumeSite>,
}

/// The workspace call graph, indexed in parallel with `ItemIndex::fns`.
#[derive(Debug, Default)]
pub struct CallGraph {
    pub nodes: Vec<FnNode>,
}

impl CallGraph {
    /// Extracts calls and panic/assumption facts for every indexed fn.
    pub fn build(files: &[File], idx: &ItemIndex) -> CallGraph {
        let mut nodes = Vec::with_capacity(idx.fns.len());
        for f in &idx.fns {
            nodes.push(scan_fn(files, idx, f));
        }
        CallGraph { nodes }
    }

    /// Transitive can-panic, propagated over `Known` edges only.
    ///
    /// `Ambiguous` edges do not propagate: a may-call set that happens
    /// to include a panicking candidate is reported as a residual edge
    /// by the R8 proof, not treated as a proven panic path.
    pub fn can_panic(&self) -> Vec<bool> {
        let mut can: Vec<bool> = self.nodes.iter().map(|n| !n.panics.is_empty()).collect();
        let mut changed = true;
        while changed {
            changed = false;
            for i in 0..self.nodes.len() {
                if can[i] {
                    continue;
                }
                let hit = self.nodes[i].calls.iter().any(|c| match &c.target {
                    Target::Known(t) => can[*t],
                    _ => false,
                });
                if hit {
                    can[i] = true;
                    changed = true;
                }
            }
        }
        can
    }

    /// Every fn reachable from `root` over `Known` edges, with the BFS
    /// parent of each (for shortest-path reconstruction).
    pub fn reachable(&self, root: usize) -> BTreeMap<usize, Option<usize>> {
        let mut parents: BTreeMap<usize, Option<usize>> = BTreeMap::new();
        parents.insert(root, None);
        let mut queue = VecDeque::from([root]);
        while let Some(at) = queue.pop_front() {
            for call in &self.nodes[at].calls {
                if let Target::Known(t) = call.target {
                    if let Entry::Vacant(slot) = parents.entry(t) {
                        slot.insert(Some(at));
                        queue.push_back(t);
                    }
                }
            }
        }
        parents
    }

    /// `root -> a -> b` call path text for a reachable fn.
    pub fn path_to(
        &self,
        idx: &ItemIndex,
        parents: &BTreeMap<usize, Option<usize>>,
        mut at: usize,
    ) -> String {
        let mut hops = vec![idx.fns[at].qual.clone()];
        while let Some(Some(p)) = parents.get(&at) {
            hops.push(idx.fns[*p].qual.clone());
            at = *p;
        }
        hops.reverse();
        hops.join(" -> ")
    }

    /// Renders the resolved call tree under `root_qual` (exact
    /// qualified name, or a unique suffix like `run_checked`).
    pub fn dump(&self, files: &[File], idx: &ItemIndex, root_qual: &str) -> Result<String, String> {
        let root = resolve_root(idx, root_qual)?;
        let mut out = String::new();
        let mut seen = BTreeSet::new();
        self.dump_one(files, idx, root, 0, &mut seen, &mut out);
        Ok(out)
    }

    fn dump_one(
        &self,
        files: &[File],
        idx: &ItemIndex,
        at: usize,
        depth: usize,
        seen: &mut BTreeSet<usize>,
        out: &mut String,
    ) {
        let f = &idx.fns[at];
        let pad = "  ".repeat(depth);
        let node = &self.nodes[at];
        let facts = format!(
            " [{} panic, {} assume]",
            node.panics.len(),
            node.assumes.len()
        );
        if !seen.insert(at) {
            out.push_str(&format!("{pad}{} (…)\n", f.qual));
            return;
        }
        out.push_str(&format!(
            "{pad}{} ({}:{}){}\n",
            f.qual, files[f.file].path, f.line, facts
        ));
        for call in &node.calls {
            match &call.target {
                Target::Known(t) => self.dump_one(files, idx, *t, depth + 1, seen, out),
                Target::Ambiguous(cands) => {
                    out.push_str(&format!(
                        "{pad}  ?{} ({} candidate(s): {})\n",
                        call.name,
                        cands.len(),
                        cands
                            .iter()
                            .take(4)
                            .map(|c| idx.fns[*c].qual.as_str())
                            .collect::<Vec<_>>()
                            .join(", ")
                    ));
                }
                Target::External => {}
            }
        }
    }
}

/// Resolves a root spec: exact qualified name, else unique suffix.
pub fn resolve_root(idx: &ItemIndex, spec: &str) -> Result<usize, String> {
    if let Some(i) = idx.resolve_qual(spec) {
        return Ok(i);
    }
    let hits: Vec<usize> = idx
        .fns
        .iter()
        .enumerate()
        .filter(|(_, f)| !f.in_test && (f.qual.ends_with(spec) || f.name == spec))
        .map(|(i, _)| i)
        .collect();
    match hits.as_slice() {
        [] => Err(format!("no function matches `{spec}`")),
        [one] => Ok(*one),
        many => Err(format!(
            "`{spec}` is ambiguous: {}",
            many.iter()
                .map(|i| idx.fns[*i].qual.as_str())
                .collect::<Vec<_>>()
                .join(", ")
        )),
    }
}

/// Rust keywords and control constructs that look like calls.
const NOT_CALLS: [&str; 16] = [
    "if", "while", "for", "match", "return", "loop", "in", "as", "let", "else", "move", "fn",
    "impl", "where", "unsafe", "pub",
];

fn scan_fn(files: &[File], idx: &ItemIndex, f: &FnItem) -> FnNode {
    let mut node = FnNode::default();
    let lines = &files[f.file].lines;
    for line in &lines[f.body_start..=f.body_end] {
        extract_calls(&line.code, line.number, f, idx, &mut node.calls);
        extract_panics(&line.code, line.number, &mut node.panics);
        extract_assumes(&line.code, line.number, &mut node.assumes);
    }
    node
}

/// Finds `ident(` call shapes and resolves each through the tiers.
fn extract_calls(
    code: &str,
    line: usize,
    f: &FnItem,
    idx: &ItemIndex,
    out: &mut Vec<CallEdge>,
) {
    let chars: Vec<char> = code.chars().collect();
    for open in 0..chars.len() {
        if chars[open] != '(' {
            continue;
        }
        // Identifier directly before the paren.
        let mut s = open;
        while s > 0 && (chars[s - 1].is_alphanumeric() || chars[s - 1] == '_') {
            s -= 1;
        }
        if s == open {
            continue;
        }
        let ident: String = chars[s..open].iter().collect();
        if ident.chars().next().is_some_and(|c| c.is_ascii_digit()) {
            continue;
        }
        if NOT_CALLS.contains(&ident.as_str()) {
            continue;
        }
        // `name!(…)` never reaches here (the `!` breaks the ident run
        // before the paren), but `name! (` styles would: skip both.
        if s > 0 && chars[s - 1] == '!' {
            continue;
        }
        // The declaration's own `fn name(` is not a call.
        let before: String = chars[..s].iter().collect();
        if before.trim_end().ends_with("fn") {
            continue;
        }
        let first_upper = ident.chars().next().is_some_and(|c| c.is_uppercase());
        let target = if s >= 2 && chars[s - 2] == ':' && chars[s - 1] == ':' {
            // Tier 2: `Seg::ident(` — a path call.
            if first_upper {
                // `Enum::Variant(…)` constructor, not a call.
                continue;
            }
            let seg = ident_before(&chars, s - 2);
            match seg {
                Some(ty) => {
                    let ty = if ty == "Self" {
                        f.owner.clone().unwrap_or(ty)
                    } else {
                        ty
                    };
                    resolve_qualified(idx, &ty, &ident)
                }
                None => Target::External,
            }
        } else if s >= 1 && chars[s - 1] == '.' {
            // Tiers 3-5: a method call; walk the receiver chain.
            if first_upper {
                continue;
            }
            match receiver_chain(&chars, s - 1) {
                Receiver::SelfOnly => match &f.owner {
                    Some(owner) => resolve_qualified(idx, owner, &ident),
                    None => resolve_bare(idx, &ident),
                },
                Receiver::SelfField(field) => {
                    let owner_ty = f
                        .owner
                        .as_ref()
                        .and_then(|o| idx.structs.get(o))
                        .and_then(|s| s.fields.get(&field));
                    match owner_ty {
                        Some(ty) => resolve_qualified(idx, &ty.clone(), &ident),
                        None => resolve_bare(idx, &ident),
                    }
                }
                Receiver::Other => resolve_bare(idx, &ident),
            }
        } else {
            // Tier 1: free call — or an uppercase constructor, skipped.
            if first_upper {
                continue;
            }
            match idx.by_qual.get(&ident).map(|v| non_test(idx, v)) {
                Some(cands) if cands.len() == 1 => Target::Known(cands[0]),
                Some(cands) if !cands.is_empty() => Target::Ambiguous(cands),
                _ => Target::External,
            }
        };
        let display = if s >= 1 && chars[s - 1] == '.' {
            format!(".{ident}")
        } else {
            ident.clone()
        };
        out.push(CallEdge {
            name: display,
            line,
            col: s + 1,
            target,
        });
    }
}

/// `Type::method` resolution with bare-name fallback: a workspace type
/// without that method (trait impls the item parser cannot see, derive
/// output) degrades to may-call over the bare name rather than being
/// dropped.
fn resolve_qualified(idx: &ItemIndex, ty: &str, method: &str) -> Target {
    let qual = format!("{ty}::{method}");
    if let Some(v) = idx.by_qual.get(&qual) {
        let cands = non_test(idx, v);
        match cands.as_slice() {
            [one] => return Target::Known(*one),
            [] => {}
            _ => return Target::Ambiguous(cands),
        }
    }
    let known_type = idx.structs.contains_key(ty) || idx.fns.iter().any(|f| f.owner.as_deref() == Some(ty));
    if known_type {
        resolve_bare(idx, method)
    } else {
        Target::External
    }
}

/// Tier-5 may-call resolution over the bare method name. Method-call
/// syntax only reaches fns declared in an `impl` or `trait` block, so
/// free fns that share the name are not candidates.
fn resolve_bare(idx: &ItemIndex, method: &str) -> Target {
    let cands: Vec<usize> = idx
        .by_name
        .get(method)
        .into_iter()
        .flatten()
        .copied()
        .filter(|&i| !idx.fns[i].in_test && idx.fns[i].owner.is_some())
        .collect();
    if cands.is_empty() {
        Target::External
    } else {
        Target::Ambiguous(cands)
    }
}

fn non_test(idx: &ItemIndex, v: &[usize]) -> Vec<usize> {
    v.iter().copied().filter(|i| !idx.fns[*i].in_test).collect()
}

/// What precedes a method call's final `.`.
enum Receiver {
    /// `self.method(…)`
    SelfOnly,
    /// `self.field.method(…)`
    SelfField(String),
    /// Anything else (locals, call results, chained expressions).
    Other,
}

/// Classifies the receiver ending at `dot` (index of the final `.`).
fn receiver_chain(chars: &[char], dot: usize) -> Receiver {
    let Some(seg1) = ident_before(chars, dot) else {
        return Receiver::Other;
    };
    let start1 = dot - seg1.chars().count();
    if seg1 == "self" {
        return Receiver::SelfOnly;
    }
    if start1 >= 1 && chars[start1 - 1] == '.' {
        if let Some(seg2) = ident_before(chars, start1 - 1) {
            let start2 = start1 - 1 - seg2.chars().count();
            let clean = start2 == 0 || !matches!(chars[start2 - 1], '.' | ':');
            if seg2 == "self" && clean {
                return Receiver::SelfField(seg1);
            }
        }
    }
    Receiver::Other
}

/// The identifier ending right before position `end`, if any.
fn ident_before(chars: &[char], end: usize) -> Option<String> {
    let mut s = end;
    while s > 0 && (chars[s - 1].is_alphanumeric() || chars[s - 1] == '_') {
        s -= 1;
    }
    if s == end {
        None
    } else {
        Some(chars[s..end].iter().collect())
    }
}

/// Finds `name!` macro invocations with a token boundary before `name`.
fn has_macro(code: &str, name: &str) -> bool {
    let pat = format!("{name}!");
    let mut from = 0;
    while let Some(pos) = code[from..].find(&pat) {
        let at = from + pos;
        let boundary = at == 0
            || !code[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if boundary {
            return true;
        }
        from = at + pat.len();
    }
    false
}

/// The panicking constructs, recorded as per-fn facts.
fn extract_panics(code: &str, line: usize, out: &mut Vec<PanicSite>) {
    for pat in [".unwrap()", ".expect("] {
        let mut from = 0;
        while let Some(pos) = code[from..].find(pat) {
            out.push(PanicSite {
                line,
                col: from + pos + 1,
                what: pat.trim_end_matches('(').to_string(),
            });
            from += pos + pat.len();
        }
    }
    for mac in ["panic", "unreachable", "todo", "unimplemented"] {
        if has_macro(code, mac) {
            out.push(PanicSite {
                line,
                col: code.find(mac).map_or(0, |p| p + 1),
                what: format!("{mac}!"),
            });
        }
    }
    for idx in literal_indexes(code) {
        out.push(PanicSite {
            line,
            col: 0,
            what: format!("[{idx}]"),
        });
    }
}

/// Division/modulo with a non-literal divisor and non-literal slice
/// indexes: assumed safe, counted per root in the R8 proof notes.
fn extract_assumes(code: &str, line: usize, out: &mut Vec<AssumeSite>) {
    let chars: Vec<char> = code.chars().collect();
    for (i, &c) in chars.iter().enumerate() {
        if c == '/' || c == '%' {
            // Not part of `/=`-style compounds' RHS scanning below, but
            // skip doubled operators and `->`-adjacent noise.
            if i + 1 < chars.len() && (chars[i + 1] == '/' || chars[i + 1] == '*') {
                continue;
            }
            if i > 0 && (chars[i - 1] == '/' || chars[i - 1] == '*') {
                continue;
            }
            let mut j = i + 1;
            if j < chars.len() && chars[j] == '=' {
                j += 1; // `/=` or `%=`
            }
            while j < chars.len() && chars[j].is_whitespace() {
                j += 1;
            }
            if j >= chars.len() {
                continue; // operator at end of line; cannot judge
            }
            let rest: String = chars[j..].iter().collect();
            if rest.starts_with(|c: char| c.is_ascii_digit()) {
                let lit: String = rest
                    .chars()
                    .take_while(|c| c.is_ascii_digit() || *c == '_')
                    .collect();
                if lit.chars().any(|c| c != '0' && c != '_') {
                    continue; // nonzero literal divisor: cannot panic
                }
            }
            // `.max(<nonzero>)`-guarded divisors are proven nonzero.
            if divisor_expr(&rest).contains(".max(") {
                continue;
            }
            // Float division cannot panic; crude but effective filter.
            if code.contains("f64") || code.contains("f32") {
                continue;
            }
            out.push(AssumeSite {
                line,
                what: format!("{c} with non-literal divisor"),
            });
        }
    }
    // A bare `..` slices the whole collection and cannot be out of bounds.
    let dynamic = index_exprs(code)
        .into_iter()
        .filter(|s| !s.is_empty() && s != ".." && !is_int_literal(s));
    for inner in dynamic {
        out.push(AssumeSite {
            line,
            what: format!("[{inner}] bounds-assumed"),
        });
    }
}

/// The divisor's primary expression: identifier/path/call chain up to
/// the next top-level operator.
fn divisor_expr(rest: &str) -> String {
    let mut depth = 0i32;
    let mut out = String::new();
    for c in rest.chars() {
        match c {
            '(' | '[' => depth += 1,
            ')' | ']' => {
                if depth == 0 {
                    break;
                }
                depth -= 1;
            }
            '+' | '-' | '*' | '/' | '%' | ',' | ';' | '<' | '>' | '=' | '&' | '|' if depth == 0 => {
                break
            }
            _ => {}
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;

    fn graph(src: &str) -> (Vec<File>, ItemIndex, CallGraph) {
        let files = vec![File {
            path: "crates/core/src/x.rs".into(),
            lines: scan(src),
        }];
        let idx = ItemIndex::build(&files);
        let g = CallGraph::build(&files, &idx);
        (files, idx, g)
    }

    fn edges_of<'a>(idx: &ItemIndex, g: &'a CallGraph, qual: &str) -> &'a [CallEdge] {
        &g.nodes[idx.resolve_qual(qual).unwrap()].calls
    }

    #[test]
    fn free_fn_calls_resolve() {
        let (_, idx, g) = graph("fn helper(x: u64) -> u64 { x }\nfn caller() -> u64 { helper(3) }\n");
        let calls = edges_of(&idx, &g, "caller");
        assert_eq!(calls.len(), 1);
        assert_eq!(calls[0].target, Target::Known(idx.resolve_qual("helper").unwrap()));
    }

    #[test]
    fn type_method_calls_resolve() {
        let (_, idx, g) = graph(
            "pub struct M;\nimpl M {\n    pub fn new() -> M { M }\n}\nfn caller() { let _ = M::new(); }\n",
        );
        let calls = edges_of(&idx, &g, "caller");
        assert_eq!(calls.len(), 1);
        assert_eq!(calls[0].target, Target::Known(idx.resolve_qual("M::new").unwrap()));
    }

    #[test]
    fn self_method_and_self_field_calls_resolve() {
        let (_, idx, g) = graph(
            "pub struct Rb;\nimpl Rb {\n    pub fn lookup(&self) {}\n}\n\
             pub struct M { rb: Rb }\nimpl M {\n    fn inner(&self) {}\n\
                 fn step(&mut self) { self.inner(); self.rb.lookup(); }\n}\n",
        );
        let calls = edges_of(&idx, &g, "M::step");
        assert_eq!(calls.len(), 2);
        assert_eq!(calls[0].target, Target::Known(idx.resolve_qual("M::inner").unwrap()));
        assert_eq!(calls[1].target, Target::Known(idx.resolve_qual("Rb::lookup").unwrap()));
    }

    #[test]
    fn unknown_receivers_become_may_call_or_external() {
        let (_, idx, g) = graph(
            "pub struct A;\nimpl A { pub fn poke(&self) {} }\n\
             fn caller(x: &A, v: &[u64]) { x.poke(); let _ = v.len(); }\n",
        );
        let calls = edges_of(&idx, &g, "caller");
        assert_eq!(calls.len(), 2);
        // `x.poke()` — unknown receiver, one workspace candidate: may-call.
        assert_eq!(
            calls[0].target,
            Target::Ambiguous(vec![idx.resolve_qual("A::poke").unwrap()])
        );
        // `v.len()` — no workspace fn named `len`: external.
        assert_eq!(calls[1].target, Target::External);
    }

    #[test]
    fn method_calls_never_resolve_to_free_fns() {
        let (_, idx, g) = graph(
            "pub fn all(x: u64) -> bool { x.checked_sub(1).unwrap() > 0 }\n\
             fn caller(v: &[u64]) -> bool { v.iter().all(|x| *x > 0) }\n",
        );
        // `.all(…)` is `Iterator::all`, not the free fn `all`.
        let calls = edges_of(&idx, &g, "caller");
        assert!(calls.iter().all(|c| c.target == Target::External), "{calls:?}");
    }

    #[test]
    fn can_panic_propagates_over_known_edges_only() {
        let (_, idx, g) = graph(
            "fn deep(x: Option<u64>) -> u64 { x.unwrap() }\n\
             fn mid() -> u64 { deep(None) }\n\
             fn top() -> u64 { mid() }\n\
             fn safe() -> u64 { 1 }\n",
        );
        let can = g.can_panic();
        assert!(can[idx.resolve_qual("deep").unwrap()]);
        assert!(can[idx.resolve_qual("mid").unwrap()]);
        assert!(can[idx.resolve_qual("top").unwrap()]);
        assert!(!can[idx.resolve_qual("safe").unwrap()]);
    }

    #[test]
    fn assume_sites_cover_div_mod_and_dynamic_indexes() {
        let (_, idx, g) = graph(
            "fn f(xs: &[u64], i: usize, cap: usize) -> u64 {\n\
                 let a = i % cap;\n\
                 let b = i / 8;\n\
                 let c = i / cap.max(1);\n\
                 xs[a] + b as u64 + c as u64 + xs[2]\n\
             }\n",
        );
        let n = &g.nodes[idx.resolve_qual("f").unwrap()];
        // `% cap` and `xs[a]`; `/ 8` is a literal, `.max(1)` is guarded,
        // `xs[2]` is a literal index (a panic site, not an assumption).
        assert_eq!(n.assumes.len(), 2);
        assert_eq!(n.panics.len(), 1);
    }

    #[test]
    fn dump_renders_the_tree_with_unknowns() {
        let (files, idx, g) = graph(
            "fn leaf() {}\nfn root(v: &[u64]) { leaf(); v.mystery(); }\n\
             pub struct Q;\nimpl Q { pub fn mystery(&self) {} }\n",
        );
        let text = g.dump(&files, &idx, "root").unwrap();
        assert!(text.contains("root (crates/core/src/x.rs:2)"));
        assert!(text.contains("leaf"));
        assert!(text.contains("?.mystery (1 candidate(s): Q::mystery)"));
    }
}
