//! Item extraction: fn / impl / struct spans on top of the blanked lines.
//!
//! The lexer in [`crate::lexer`] gives us comment- and literal-free
//! source lines; this module reads those lines back into a coarse item
//! structure — which functions exist, which `impl` block owns each
//! method, and what type every struct field has. That is exactly the
//! information the interprocedural passes (R8–R10) need to resolve
//! calls, and deliberately nothing more: no expressions, no generics,
//! no trait solving. Where this parser cannot tell what something is,
//! the call-graph layer records an *unknown* node rather than guessing.

use std::collections::BTreeMap;

use crate::rules::File;

/// One function (free or associated) found in the scanned tree.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Bare function name (`lookup`, `run_checked`).
    pub name: String,
    /// The `impl` (or `trait`) block's type name, if the fn is a method.
    pub owner: Option<String>,
    /// `Type::name` for methods, `name` for free functions.
    pub qual: String,
    /// Index of the declaring file in the scanned file list.
    pub file: usize,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// 0-based inclusive line-index range covering signature and body.
    pub body_start: usize,
    /// 0-based inclusive end of the body (the closing-brace line).
    pub body_end: usize,
    /// Whether the declaration sits inside a `#[cfg(test)]` region.
    pub in_test: bool,
    /// Whether the signature's return type mentions `MutexGuard` (the
    /// lock-order pass treats calls to such fns as lock acquisitions).
    pub returns_guard: bool,
}

/// A struct's fields, kept for receiver-type resolution
/// (`self.field.method(…)` resolves through the field's base type).
#[derive(Debug, Clone, Default)]
pub struct StructInfo {
    /// Field name → base type identifier (wrappers stripped).
    pub fields: BTreeMap<String, String>,
}

/// Everything the interprocedural passes need about the workspace.
#[derive(Debug, Default)]
pub struct ItemIndex {
    pub fns: Vec<FnItem>,
    /// Qualified name → indices into `fns` (duplicates across crates).
    pub by_qual: BTreeMap<String, Vec<usize>>,
    /// Bare name → indices into `fns`.
    pub by_name: BTreeMap<String, Vec<usize>>,
    /// Struct name → field types.
    pub structs: BTreeMap<String, StructInfo>,
}

impl ItemIndex {
    /// Parses every scanned file into one workspace-wide index.
    pub fn build(files: &[File]) -> ItemIndex {
        let mut index = ItemIndex::default();
        for (file_idx, file) in files.iter().enumerate() {
            parse_file(file, file_idx, &mut index);
        }
        for (i, f) in index.fns.iter().enumerate() {
            index.by_qual.entry(f.qual.clone()).or_default().push(i);
            index.by_name.entry(f.name.clone()).or_default().push(i);
        }
        index
    }

    /// The unique fn with qualified name `qual`, if exactly one exists.
    pub fn resolve_qual(&self, qual: &str) -> Option<usize> {
        match self.by_qual.get(qual).map(Vec::as_slice) {
            Some([one]) => Some(*one),
            _ => None,
        }
    }
}

/// Strips smart-pointer / container wrappers off a declared type and
/// returns the base type identifier: `Option<Box<ReuseBuffer>>` →
/// `ReuseBuffer`, `Vec<Mutex<Slot>>` → `Slot`, `&'a mut Rob` → `Rob`.
pub fn base_type(ty: &str) -> Option<String> {
    let mut t = ty.trim();
    loop {
        t = t.trim_start_matches('&').trim();
        if let Some(rest) = t.strip_prefix('\'') {
            // Skip a lifetime: `'a mut Rob` → `mut Rob`.
            t = rest.trim_start_matches(|c: char| c.is_alphanumeric() || c == '_').trim();
        }
        t = t.strip_prefix("mut ").unwrap_or(t).trim();
        let mut stripped = false;
        for wrapper in ["Option<", "Box<", "Arc<", "Rc<", "Vec<", "Mutex<", "RwLock<", "RefCell<", "Cell<"] {
            if let Some(rest) = t.strip_prefix(wrapper) {
                t = rest.strip_suffix('>').unwrap_or(rest);
                stripped = true;
                break;
            }
        }
        if !stripped {
            break;
        }
    }
    // `dyn Trait`, tuples, slices, fn pointers: no usable base ident.
    if t.starts_with("dyn ") || t.starts_with('(') || t.starts_with('[') || t.starts_with("fn") {
        return None;
    }
    // Take the last path segment, then trim generics.
    let seg = t.rsplit("::").next().unwrap_or(t);
    let ident: String = seg
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    if ident.is_empty() || ident.chars().next().is_some_and(|c| c.is_lowercase() || c.is_ascii_digit()) {
        None
    } else {
        Some(ident)
    }
}

/// Per-line net brace delta and the depth *before* the line, used to
/// find where items end.
fn brace_delta(code: &str) -> i32 {
    let mut d = 0i32;
    for c in code.chars() {
        match c {
            '{' => d += 1,
            '}' => d -= 1,
            _ => {}
        }
    }
    d
}

/// Extracts the type name an `impl` line introduces:
/// `impl Foo`, `impl<T> Foo<T>`, `impl Trait for Foo` → `Foo`.
fn impl_type(code: &str) -> Option<String> {
    let trimmed = code.trim_start();
    let rest = trimmed.strip_prefix("impl")?;
    // `impl` must be the keyword, not a prefix of an identifier.
    let rest = match rest.chars().next() {
        Some('<') => skip_generics(rest),
        Some(c) if c.is_whitespace() => rest,
        _ => return None,
    };
    let rest = rest.trim_start();
    // `impl Trait for Type` — the type after `for` wins.
    let subject = match rest.split_once(" for ") {
        Some((_, ty)) => ty,
        None => rest,
    };
    let ident: String = subject
        .trim_start()
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    if ident.is_empty() {
        None
    } else {
        Some(ident)
    }
}

/// Extracts the name a `trait` line introduces (default methods in a
/// trait body are indexed under the trait's name).
fn trait_name(code: &str) -> Option<String> {
    let trimmed = code.trim_start();
    let rest = trimmed
        .strip_prefix("pub trait ")
        .or_else(|| trimmed.strip_prefix("pub(crate) trait "))
        .or_else(|| trimmed.strip_prefix("trait "))?;
    let ident: String = rest
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    if ident.is_empty() {
        None
    } else {
        Some(ident)
    }
}

/// Skips a balanced `<…>` generic-parameter list at the start of `s`.
fn skip_generics(s: &str) -> &str {
    let mut depth = 0i32;
    for (i, c) in s.char_indices() {
        match c {
            '<' => depth += 1,
            '>' => {
                depth -= 1;
                if depth == 0 {
                    return &s[i + 1..];
                }
            }
            _ => {}
        }
    }
    s
}

/// Extracts a fn name from a line declaring one, if any.
fn fn_name(code: &str) -> Option<String> {
    let pos = find_fn_keyword(code)?;
    let rest = &code[pos + 3..];
    let name: String = rest
        .trim_start()
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    if name.is_empty() {
        None
    } else {
        Some(name)
    }
}

/// Finds `fn ` used as a keyword (not `fn` inside an identifier, and
/// not in a type position like `Box<fn()>` — the latter is filtered by
/// requiring the keyword at the start of the declaration modifiers).
fn find_fn_keyword(code: &str) -> Option<usize> {
    let trimmed = code.trim_start();
    let lead = code.len() - trimmed.len();
    // Declarations start with an optional modifier run then `fn `.
    let mut rest = trimmed;
    let mut changed = true;
    while changed {
        changed = false;
        for m in ["pub(crate) ", "pub(super) ", "pub ", "const ", "async ", "unsafe "] {
            if let Some(r) = rest.strip_prefix(m) {
                rest = r;
                changed = true;
            }
        }
    }
    if rest.starts_with("fn ") {
        Some(lead + (trimmed.len() - rest.len()))
    } else {
        None
    }
}

/// Parses one file's items into the index.
fn parse_file(file: &File, file_idx: usize, index: &mut ItemIndex) {
    let lines = &file.lines;
    // Owner stack: (owner type, depth its block lives at, armed once
    // the opening brace has actually been seen).
    let mut owners: Vec<(String, i32, bool)> = Vec::new();
    let mut depth = 0i32;
    let mut i = 0usize;
    while i < lines.len() {
        let code = &lines[i].code;
        for o in &mut owners {
            if depth >= o.1 {
                o.2 = true;
            }
        }
        while owners.last().is_some_and(|(_, d, armed)| *armed && depth < *d) {
            owners.pop();
        }
        if let Some(ty) = impl_type(code).or_else(|| trait_name(code)) {
            // A whole impl block on one line (`impl Q { fn f() {} }`)
            // carries its method inline; index it before moving on.
            if brace_delta(code) == 0 && code.contains('{') {
                if let Some(open) = code.find('{') {
                    let inline = &code[open + 1..];
                    if let Some(name) = fn_name(inline) {
                        index.fns.push(FnItem {
                            qual: format!("{ty}::{name}"),
                            name,
                            owner: Some(ty.clone()),
                            file: file_idx,
                            line: lines[i].number,
                            body_start: i,
                            body_end: i,
                            in_test: lines[i].in_test,
                            returns_guard: inline.contains("MutexGuard"),
                        });
                    }
                }
                i += 1;
                continue;
            }
            // The block opens on this or a following line.
            owners.push((ty, depth + 1, code.contains('{')));
            depth += brace_delta(code);
            i += 1;
            continue;
        }
        if struct_decl(code).is_some() {
            i = parse_struct(file, i, index);
            // depth is unchanged across a whole struct declaration.
            continue;
        }
        if let Some(name) = fn_name(code) {
            let (body_end, returns_guard) = fn_extent(lines, i);
            let owner = owners.last().map(|(t, _, _)| t.clone());
            let qual = match &owner {
                Some(t) => format!("{t}::{name}"),
                None => name.clone(),
            };
            index.fns.push(FnItem {
                name,
                owner,
                qual,
                file: file_idx,
                line: lines[i].number,
                body_start: i,
                body_end,
                in_test: lines[i].in_test,
                returns_guard,
            });
            // Trait-signature-only fns (no body) advance past the `;`.
            for line in &lines[i..=body_end] {
                depth += brace_delta(&line.code);
            }
            i = body_end + 1;
            continue;
        }
        depth += brace_delta(code);
        i += 1;
    }
}

/// Finds the extent of a fn starting at line `start`: the end of its
/// body (of its signature for body-less trait signatures), and whether
/// the return type mentions `MutexGuard`.
fn fn_extent(lines: &[crate::lexer::SourceLine], start: usize) -> (usize, bool) {
    let mut sig = String::new();
    let mut depth = 0i32;
    let mut opened = false;
    let mut j = start;
    while j < lines.len() {
        let code = &lines[j].code;
        if !opened {
            sig.push_str(code);
            sig.push(' ');
        }
        for c in code.chars() {
            match c {
                '{' => {
                    depth += 1;
                    opened = true;
                }
                '}' => {
                    depth -= 1;
                    if opened && depth == 0 {
                        let guard = sig.contains("MutexGuard");
                        return (j, guard);
                    }
                }
                ';' if !opened && depth == 0 => {
                    // Trait method signature without a body.
                    let guard = sig.contains("MutexGuard");
                    return (j, guard);
                }
                _ => {}
            }
        }
        j += 1;
    }
    let guard = sig.contains("MutexGuard");
    (lines.len() - 1, guard)
}

/// Extracts the struct name from a declaration line.
fn struct_decl(code: &str) -> Option<String> {
    let trimmed = code.trim_start();
    let rest = trimmed
        .strip_prefix("pub struct ")
        .or_else(|| trimmed.strip_prefix("pub(crate) struct "))
        .or_else(|| trimmed.strip_prefix("struct "))?;
    let name: String = rest
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    if name.is_empty() {
        None
    } else {
        Some(name)
    }
}

/// Parses a struct declaration starting at line `start`; returns the
/// line index just past it.
fn parse_struct(file: &File, start: usize, index: &mut ItemIndex) -> usize {
    let lines = &file.lines;
    let name = match struct_decl(&lines[start].code) {
        Some(n) => n,
        None => return start + 1,
    };
    // Gather the struct's full text through its closing brace (or the
    // `;` of a unit/tuple struct).
    let mut text = String::new();
    let mut depth = 0i32;
    let mut opened = false;
    let mut end = lines.len();
    'outer: for (j, line) in lines.iter().enumerate().skip(start) {
        text.push_str(&line.code);
        text.push('\n');
        for c in line.code.chars() {
            match c {
                '{' => {
                    depth += 1;
                    opened = true;
                }
                ';' if !opened && depth == 0 => {
                    end = j + 1;
                    break 'outer;
                }
                '}' => {
                    depth -= 1;
                    if opened && depth == 0 {
                        end = j + 1;
                        break 'outer;
                    }
                }
                _ => {}
            }
        }
    }
    let mut info = StructInfo::default();
    if let Some(open) = text.find('{') {
        let close = text.rfind('}').unwrap_or(text.len());
        if open < close {
            for decl in split_top_level(&text[open + 1..close]) {
                if let Some((fname, ty)) = field_decl(&decl) {
                    if let Some(base) = base_type(&ty) {
                        info.fields.insert(fname, base);
                    }
                }
            }
        }
    }
    index.structs.insert(name, info);
    end
}

/// Splits `text` on commas that sit outside `<…>`, `(…)`, `[…]`, `{…}`.
fn split_top_level(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut cur = String::new();
    for c in text.chars() {
        match c {
            '<' | '(' | '[' | '{' => depth += 1,
            '>' | ')' | ']' | '}' => depth -= 1,
            ',' if depth == 0 => {
                out.push(std::mem::take(&mut cur));
                continue;
            }
            _ => {}
        }
        cur.push(c);
    }
    if !cur.trim().is_empty() {
        out.push(cur);
    }
    out
}

/// Extracts `name` and type text from a `pub name: Type` declaration.
fn field_decl(decl: &str) -> Option<(String, String)> {
    let trimmed = decl.trim();
    let rest = trimmed
        .strip_prefix("pub(crate) ")
        .or_else(|| trimmed.strip_prefix("pub(super) "))
        .or_else(|| trimmed.strip_prefix("pub "))
        .unwrap_or(trimmed);
    let name: String = rest
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    if name.is_empty() || name == "struct" || name == "fn" || name == "impl" {
        return None;
    }
    let after = rest[name.len()..].trim_start();
    let ty = after.strip_prefix(':')?;
    // `::` marks a path expression, not a field's `name: Type`.
    if ty.starts_with(':') {
        return None;
    }
    Some((name, ty.trim().trim_end_matches(',').to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;

    fn index(src: &str) -> ItemIndex {
        let file = File { path: "crates/core/src/x.rs".into(), lines: scan(src) };
        ItemIndex::build(&[file])
    }

    #[test]
    fn free_fns_and_methods_are_indexed() {
        let idx = index(
            "fn helper(x: u64) -> u64 { x }\n\
             pub struct Machine { rb: Option<Buffer> }\n\
             impl Machine {\n    pub fn step(&mut self) { helper(1); }\n}\n\
             impl Display for Machine {\n    fn fmt(&self) {}\n}\n",
        );
        assert!(idx.resolve_qual("helper").is_some());
        assert!(idx.resolve_qual("Machine::step").is_some());
        assert!(idx.resolve_qual("Machine::fmt").is_some());
        assert_eq!(idx.structs["Machine"].fields["rb"], "Buffer");
    }

    #[test]
    fn fn_extents_cover_multiline_bodies_and_signatures() {
        let idx = index(
            "impl T {\n    fn a(\n        x: u64,\n    ) -> u64 {\n        x\n    }\n    fn b(&self) {}\n}\n",
        );
        let a = &idx.fns[idx.resolve_qual("T::a").unwrap()];
        assert_eq!((a.body_start, a.body_end), (1, 5));
        let b = &idx.fns[idx.resolve_qual("T::b").unwrap()];
        assert_eq!(b.line, 7);
    }

    #[test]
    fn guard_returning_helpers_are_marked() {
        let idx = index(
            "impl Q {\n    fn lock(&self) -> std::sync::MutexGuard<'_, u64> {\n        self.inner.lock().unwrap()\n    }\n}\n",
        );
        assert!(idx.fns[idx.resolve_qual("Q::lock").unwrap()].returns_guard);
    }

    #[test]
    fn base_type_strips_wrappers() {
        assert_eq!(base_type("Option<Box<ReuseBuffer>>").as_deref(), Some("ReuseBuffer"));
        assert_eq!(base_type("Vec<Mutex<Option<SlotOut>>>").as_deref(), Some("SlotOut"));
        assert_eq!(base_type("&'a mut Rob").as_deref(), Some("Rob"));
        assert_eq!(base_type("u64"), None);
        assert_eq!(base_type("Option<Box<dyn Predictor>>"), None);
        assert_eq!(base_type("vpir_isa::MemImage").as_deref(), Some("MemImage"));
    }

    #[test]
    fn trait_default_methods_get_the_trait_as_owner() {
        let idx = index(
            "pub trait Predictor {\n    fn predict(&mut self, pc: u64) -> Option<u64>;\n    fn name(&self) -> &'static str { \"p\" }\n}\n",
        );
        assert!(idx.resolve_qual("Predictor::predict").is_some());
        assert!(idx.resolve_qual("Predictor::name").is_some());
    }
}
