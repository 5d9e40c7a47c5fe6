//! A minimal Rust source scanner.
//!
//! The rules in [`crate::rules`] work on *code text*: source lines with
//! comment and literal contents blanked out, so that an `xs[0]` inside
//! a doc comment or a `panic!` inside a string never produces a
//! finding. This module performs that blanking in a single pass and
//! marks the lines that belong to `#[cfg(test)]` blocks (test-only
//! code is exempt from the hot-path rules).
//!
//! This is not a full lexer — it only understands the token classes
//! that matter for blanking: line and (nested) block comments, string
//! and raw-string literals, byte strings, character literals, and the
//! character-versus-lifetime ambiguity after a `'`.

/// One scanned source line.
#[derive(Debug, Clone)]
pub struct SourceLine {
    /// 1-based line number in the original file.
    pub number: usize,
    /// The line with comments and literal contents replaced by spaces.
    /// Quote delimiters are kept so call shapes like `.expect("…")`
    /// remain recognisable.
    pub code: String,
    /// True when the line sits inside a `#[cfg(test)]` block.
    pub in_test: bool,
}

/// Scans a whole file into blanked [`SourceLine`]s.
pub fn scan(source: &str) -> Vec<SourceLine> {
    let mut lines: Vec<SourceLine> = blank(source)
        .lines()
        .enumerate()
        .map(|(i, code)| SourceLine {
            number: i + 1,
            code: code.to_string(),
            in_test: false,
        })
        .collect();
    mark_test_regions(&mut lines);
    lines
}

/// Pass 1: blanks comments and literal contents, keeping every newline
/// so the output has the input's line structure.
fn blank(source: &str) -> String {
    #[derive(PartialEq)]
    enum Mode {
        Code,
        Block(u32),
        Str,
        RawStr(u32),
        Char,
    }

    let chars: Vec<char> = source.chars().collect();
    let mut mode = Mode::Code;
    let mut out = String::with_capacity(source.len());
    let mut i = 0usize;

    let at = |i: usize| chars.get(i).copied();

    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            // Newlines always survive, whatever mode we are in, so the
            // output keeps the original line structure.
            out.push('\n');
            i += 1;
            // Character literals cannot span lines; resetting here
            // keeps a misread quote from swallowing the rest of the
            // file. String literals may legitimately continue.
            if mode == Mode::Char {
                mode = Mode::Code;
            }
            continue;
        }
        match mode {
            Mode::Code => {
                if c == '/' && at(i + 1) == Some('/') {
                    // Line comment: blank to end of line.
                    while i < chars.len() && chars[i] != '\n' {
                        out.push(' ');
                        i += 1;
                    }
                } else if c == '/' && at(i + 1) == Some('*') {
                    mode = Mode::Block(1);
                    out.push_str("  ");
                    i += 2;
                } else if is_raw_string_start(&chars, i) {
                    let mut j = i;
                    if chars[j] == 'b' {
                        out.push(' ');
                        j += 1;
                    }
                    out.push(' '); // the `r`
                    j += 1;
                    let mut hashes = 0u32;
                    while at(j) == Some('#') {
                        hashes += 1;
                        out.push(' ');
                        j += 1;
                    }
                    out.push('"');
                    j += 1;
                    mode = Mode::RawStr(hashes);
                    i = j;
                } else if c == '"' || (c == 'b' && at(i + 1) == Some('"') && !ident_before(&chars, i))
                {
                    if c == 'b' {
                        out.push(' ');
                        i += 1;
                    }
                    out.push('"');
                    i += 1;
                    mode = Mode::Str;
                } else if c == '\'' {
                    // Disambiguate character literal from lifetime.
                    if at(i + 1) == Some('\\')
                        || (at(i + 2) == Some('\'') && at(i + 1) != Some('\''))
                    {
                        out.push('\'');
                        i += 1;
                        mode = Mode::Char;
                    } else {
                        out.push('\'');
                        i += 1;
                    }
                } else {
                    out.push(c);
                    i += 1;
                }
            }
            Mode::Block(depth) => {
                if c == '*' && at(i + 1) == Some('/') {
                    out.push_str("  ");
                    i += 2;
                    mode = if depth == 1 {
                        Mode::Code
                    } else {
                        Mode::Block(depth - 1)
                    };
                } else if c == '/' && at(i + 1) == Some('*') {
                    out.push_str("  ");
                    i += 2;
                    mode = Mode::Block(depth + 1);
                } else {
                    out.push(' ');
                    i += 1;
                }
            }
            Mode::Str => {
                if c == '\\' {
                    // A backslash escapes exactly one character — unless
                    // that character is a newline (a multi-line string
                    // continuation), which must survive so the blanked
                    // output keeps the original line structure.
                    if at(i + 1) == Some('\n') {
                        out.push(' ');
                        i += 1;
                    } else {
                        out.push_str("  ");
                        i += 2;
                    }
                } else if c == '"' {
                    out.push('"');
                    i += 1;
                    mode = Mode::Code;
                } else {
                    out.push(' ');
                    i += 1;
                }
            }
            Mode::RawStr(hashes) => {
                if c == '"' {
                    let mut ok = true;
                    for k in 0..hashes {
                        if at(i + 1 + k as usize) != Some('#') {
                            ok = false;
                            break;
                        }
                    }
                    if ok {
                        out.push('"');
                        for _ in 0..hashes {
                            out.push(' ');
                        }
                        i += 1 + hashes as usize;
                        mode = Mode::Code;
                        continue;
                    }
                }
                out.push(' ');
                i += 1;
            }
            Mode::Char => {
                if c == '\\' {
                    // Same newline care as Mode::Str: a stray escape at
                    // end of line must not swallow the line break.
                    if at(i + 1) == Some('\n') {
                        out.push(' ');
                        i += 1;
                    } else {
                        out.push_str("  ");
                        i += 2;
                    }
                } else if c == '\'' {
                    out.push('\'');
                    i += 1;
                    mode = Mode::Code;
                } else {
                    out.push(' ');
                    i += 1;
                }
            }
        }
    }
    out
}

/// True when `chars[i]` starts a raw-string literal (`r"`, `r#"`,
/// `br##"`, …) rather than an identifier ending in `r`.
fn is_raw_string_start(chars: &[char], i: usize) -> bool {
    let mut j = i;
    if chars[j] == 'b' {
        j += 1;
        if chars.get(j) != Some(&'r') {
            return false;
        }
    }
    if chars.get(j) != Some(&'r') {
        return false;
    }
    if ident_before(chars, i) {
        return false;
    }
    j += 1;
    while chars.get(j) == Some(&'#') {
        j += 1;
    }
    chars.get(j) == Some(&'"')
}

/// True when the character before index `i` continues an identifier,
/// meaning the `r`/`b` at `i` is the tail of a name, not a prefix.
fn ident_before(chars: &[char], i: usize) -> bool {
    i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_')
}

/// Pass 2: marks every line inside a `#[cfg(test)]` item as test code.
///
/// The attribute introduces the next brace-delimited block (typically
/// `mod tests { … }`); everything from the attribute line through the
/// matching close brace is test-only.
fn mark_test_regions(lines: &mut [SourceLine]) {
    let mut i = 0usize;
    while i < lines.len() {
        if lines[i].code.trim_start().starts_with("#[cfg(test)]") {
            let start = i;
            let mut depth = 0i32;
            let mut opened = false;
            let mut end = lines.len() - 1;
            'outer: for (j, line) in lines.iter().enumerate().skip(start) {
                for c in line.code.chars() {
                    match c {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => {
                            depth -= 1;
                            if opened && depth == 0 {
                                end = j;
                                break 'outer;
                            }
                        }
                        _ => {}
                    }
                }
            }
            for line in &mut lines[start..=end] {
                line.in_test = true;
            }
            i = end + 1;
        } else {
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_are_blanked() {
        let lines = scan("let x = \"HashMap\"; // HashMap here\nuse std::collections::HashMap;\n");
        assert!(!lines[0].code.contains("HashMap"));
        assert!(lines[1].code.contains("HashMap"));
    }

    #[test]
    fn block_comments_nest_and_span_lines() {
        let lines = scan("a /* one /* two */ still */ b\n/* open\npanic!()\n*/ c\n");
        assert!(lines[0].code.contains('a') && lines[0].code.contains('b'));
        assert!(!lines[0].code.contains("still"));
        assert!(!lines[2].code.contains("panic"));
        assert!(lines[3].code.contains('c'));
    }

    #[test]
    fn lifetimes_are_not_chars() {
        let lines = scan("fn f<'a>(x: &'a str) -> &'a str { x } // 'a\nlet c = '\"'; let d = \"q\";\n");
        assert!(lines[0].code.contains("'a"));
        // The quote inside the char literal must not open a string.
        assert!(lines[1].code.contains("\"q\"") || lines[1].code.contains('d'));
    }

    #[test]
    fn raw_strings_are_blanked() {
        let lines = scan("let s = r#\"panic! \"# ; let t = 1;\n");
        assert!(!lines[0].code.contains("panic"));
        assert!(lines[0].code.contains("let t"));
    }

    #[test]
    fn string_continuation_keeps_line_numbers_aligned() {
        // The `\` before the newline is a multi-line string
        // continuation; the newline must survive blanking or every
        // later finding would anchor one line off.
        let src = "let s = \"one \\\n    two\";\nx.unwrap();\n";
        let lines = scan(src);
        assert_eq!(lines.len(), 3);
        assert!(!lines[0].code.contains("one"));
        assert!(!lines[1].code.contains("two"));
        assert!(lines[2].code.contains(".unwrap()"));
        assert_eq!(lines[2].number, 3);
    }

    #[test]
    fn multiline_strings_do_not_leak_tokens() {
        let src = "let s = \"line one\npanic!() HashMap\nstill string\";\nlet t = 1;\n";
        let lines = scan(src);
        assert!(!lines[1].code.contains("panic"));
        assert!(!lines[1].code.contains("HashMap"));
        assert!(!lines[2].code.contains("still"));
        assert!(lines[3].code.contains("let t"));
    }

    #[test]
    fn multiline_raw_strings_do_not_leak_tokens() {
        let src = "let s = r#\"first\nx.unwrap() \"quoted\"\nlast\"#;\nlet after = 2;\n";
        let lines = scan(src);
        assert_eq!(lines.len(), 4);
        assert!(!lines[1].code.contains("unwrap"));
        // The interior `\"quoted\"` must not terminate the raw string.
        assert!(!lines[2].code.contains("last"));
        assert!(lines[3].code.contains("let after"));
    }

    #[test]
    fn nested_block_comments_spanning_lines_do_not_leak() {
        let src = "a /* outer\n/* inner\nx.expect(\"no\")\n*/ still outer\n*/ b\n";
        let lines = scan(src);
        assert_eq!(lines.len(), 5);
        assert!(!lines[2].code.contains("expect"));
        assert!(!lines[3].code.contains("still"));
        assert!(lines[4].code.contains('b'));
    }

    #[test]
    fn cfg_test_region_is_marked() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn after() {}\n";
        let lines = scan(src);
        assert!(!lines[0].in_test);
        assert!(lines[1].in_test && lines[2].in_test && lines[3].in_test && lines[4].in_test);
        assert!(!lines[5].in_test);
    }
}
