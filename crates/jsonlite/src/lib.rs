//! # vpir-jsonlite — the workspace's shared hand-rolled JSON machinery
//!
//! The workspace is offline by construction (no serde), so every
//! subsystem that speaks JSON — the bench harness's job files and perf
//! reports, the simulator's diagnostic snapshots, and the `vpir serve`
//! request/response path — uses the same small, std-only toolkit:
//!
//! - [`JsonValue`] / [`parse_json`] — a recursive-descent parser for
//!   exactly RFC 8259's grammar, holding numbers as **exact `u64`s**.
//!   Refusing signs, fractions, exponents and overflow is what makes
//!   round trips of `u64` simulator counters exact.
//! - [`validate_json`] — the same parser with its number rule widened
//!   to any JSON number, plus a check for required top-level keys; used
//!   by CLIs and CI to self-check emitted documents, which may carry
//!   float timings.
//! - [`JsonObj`], [`json_str`] and an array helper per layout — the one
//!   writer of every emitted document, in three layouts: compact
//!   `{"a":1}` (analyzer reports), line `{"a": 1}` (counters, `vpir
//!   serve` bodies), and pretty: one member per line, two-space indent,
//!   a multi-line value re-indented one level (job files, dumps,
//!   `BENCH_*.json`, the golden fixture).
//!
//! Every parse error names the byte offset at which the input went
//! wrong. `vpir serve` parses untrusted request bodies here, so the
//! crate carries the same panic `deny` as the cycle crates, and
//! `vpir analyze` proves `parse_json` panic-free.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented))]

use std::fmt::Write as _;

// ---------------------------------------------------------------------
// JSON values
// ---------------------------------------------------------------------

/// A parsed JSON value restricted to what workspace documents contain.
///
/// Numbers are unsigned integers only — every simulator counter is a
/// `u64`, and refusing floats is what makes round trips exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (the only number form accepted).
    U64(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in source order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks up a key in an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => {
                fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
            }
            _ => None,
        }
    }

    /// The contained integer, if this is a number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::U64(n) => Some(*n),
            _ => None,
        }
    }

    /// The contained boolean, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The contained string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The contained elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses a JSON document into a [`JsonValue`].
///
/// Rejects negative numbers, fractions, exponents, and integers past
/// `u64::MAX`: workspace documents only ever hold `u64` counters,
/// strings, booleans, and containers, and anything else indicates
/// corruption.
pub fn parse_json(text: &str) -> Result<JsonValue, String> {
    parse(text, Numbers::U64)
}

/// Validates that `text` is well-formed JSON and, at the top level, an
/// object containing every key in `required_keys`.
///
/// This is [`parse_json`]'s grammar with any JSON number allowed:
/// emitted documents may carry floats (e.g. timings) that the
/// exact-counter parser refuses.
pub fn validate_json(text: &str, required_keys: &[&str]) -> Result<(), String> {
    let doc = parse(text, Numbers::Any)?;
    match required_keys.iter().find(|key| doc.get(key).is_none()) {
        Some(key) => Err(format!("missing required top-level key {key:?}")),
        None => Ok(()),
    }
}

/// What the number rule accepts.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Numbers {
    /// Exact `u64` counters only ([`parse_json`]).
    U64,
    /// Any JSON number ([`validate_json`]). One that is not a `u64`
    /// reads as `Null`: this permissive tree never leaves the crate.
    Any,
}

/// The most values on the path from the root to any leaf, leaf
/// included.
const MAX_DEPTH: u32 = 128;

fn parse(text: &str, numbers: Numbers) -> Result<JsonValue, String> {
    let mut p = Parser {
        text,
        pos: 0,
        depth: 0,
        numbers,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(p.err("trailing data"));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    depth: u32,
    numbers: Numbers,
}

impl Parser<'_> {
    /// An error message naming the current byte offset.
    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Consumes `lit` if the input continues with it.
    fn eat(&mut self, lit: &str) -> bool {
        let found = self
            .text
            .as_bytes()
            .get(self.pos..)
            .is_some_and(|rest| rest.starts_with(lit.as_bytes()));
        if found {
            self.pos += lit.len();
        }
        found
    }

    /// Consumes `lit` or fails naming it.
    fn want(&mut self, lit: &str) -> Result<(), String> {
        if self.eat(lit) {
            Ok(())
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.depth += 1;
        let v = match self.peek() {
            Some(b'{') => self.object()?,
            Some(b'[') => self.array()?,
            Some(b'"') => JsonValue::Str(self.string()?),
            Some(b'-' | b'0'..=b'9') => self.number()?,
            Some(b't') if self.eat("true") => JsonValue::Bool(true),
            Some(b'f') if self.eat("false") => JsonValue::Bool(false),
            Some(b'n') if self.eat("null") => JsonValue::Null,
            Some(_) => return Err(self.err("expected a value")),
            None => return Err(self.err("unexpected end of input")),
        };
        self.depth -= 1;
        Ok(v)
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        let mut fields = Vec::new();
        let mut more = self.open_items("{", "}")?;
        while more {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.want(":")?;
            self.skip_ws();
            fields.push((key, self.value()?));
            more = self.after_item("}")?;
        }
        Ok(JsonValue::Obj(fields))
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        let mut items = Vec::new();
        let mut more = self.open_items("[", "]")?;
        while more {
            self.skip_ws();
            items.push(self.value()?);
            more = self.after_item("]")?;
        }
        Ok(JsonValue::Arr(items))
    }

    /// Consumes a container's opening bracket; whether an item follows.
    fn open_items(&mut self, open: &str, close: &str) -> Result<bool, String> {
        self.want(open)?;
        self.skip_ws();
        Ok(!self.eat(close))
    }

    /// Consumes the `,` or `close` after an item; whether another follows.
    fn after_item(&mut self, close: &str) -> Result<bool, String> {
        self.skip_ws();
        if self.eat(",") {
            Ok(true)
        } else if self.eat(close) {
            Ok(false)
        } else {
            Err(self.err(&format!("expected `,` or `{close}`")))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.want("\"")?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            // The run starts and stops next to ASCII bytes (or at the
            // end), which are char boundaries of the `&str` input.
            out.push_str(self.text.get(start..self.pos).unwrap_or_default());
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => out.push(self.escape()?),
                Some(_) => return Err(self.err("raw control byte in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    /// One escape sequence, from its backslash.
    fn escape(&mut self) -> Result<char, String> {
        let at = self.pos;
        self.pos += 1;
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                let mut code = self.hex4()?;
                if (0xd800..0xdc00).contains(&code) && self.eat("\\u") {
                    let low = self.hex4()?;
                    if (0xdc00..0xe000).contains(&low) {
                        code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                    }
                }
                // Any surrogate left unpaired is not a char.
                return char::from_u32(code)
                    .ok_or_else(|| format!("unpaired surrogate at byte {at}"));
            }
            _ => return Err(self.err("bad escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    /// Exactly four hex digits.
    fn hex4(&mut self) -> Result<u32, String> {
        let mut code = 0;
        for _ in 0..4 {
            let digit = self.peek().and_then(|b| char::from(b).to_digit(16));
            code = code * 16 + digit.ok_or_else(|| self.err("bad \\u escape"))?;
            self.pos += 1;
        }
        Ok(code)
    }

    /// `-? (0 | [1-9][0-9]*) (.[0-9]+)? ([eE][+-]?[0-9]+)?`, held by
    /// the [`Numbers`] policy.
    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        let negative = self.eat("-");
        let int = self.pos;
        if !self.eat("0") {
            self.digits()?;
        }
        let n = self
            .text
            .get(int..self.pos)
            .and_then(|d| d.parse::<u64>().ok());
        let fraction = self.eat(".");
        if fraction {
            self.digits()?;
        }
        let exponent = matches!(self.peek(), Some(b'e' | b'E'));
        if exponent {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits()?;
        }
        match n {
            Some(n) if !(negative || fraction || exponent) => Ok(JsonValue::U64(n)),
            _ if self.numbers == Numbers::Any => Ok(JsonValue::Null),
            _ => Err(format!(
                "number at byte {start} is not a u64: this parser holds exact \
                 counters only"
            )),
        }
    }

    /// One or more decimal digits.
    fn digits(&mut self) -> Result<(), String> {
        if !matches!(self.peek(), Some(b'0'..=b'9')) {
            return Err(self.err("expected a digit"));
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// JSON emission
// ---------------------------------------------------------------------

/// Escapes a string for embedding in a JSON document (no quotes added).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Quotes and escapes a string as a JSON string value.
pub fn json_str(s: &str) -> String {
    format!("\"{}\"", json_escape(s))
}

/// The three layouts of the crate docs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Layout {
    Compact,
    #[default]
    Line,
    Pretty,
}

impl Layout {
    /// Appends the next item, a member when `key` is given, to `items`.
    fn push_item(self, items: &mut String, key: Option<&str>, value: &str) {
        if !items.is_empty() {
            items.push_str(if self == Layout::Line { ", " } else { "," });
        }
        if self == Layout::Pretty {
            items.push_str("\n  ");
        }
        if let Some(k) = key {
            let colon = if self == Layout::Compact { ":" } else { ": " };
            let _ = write!(items, "\"{}\"{colon}", json_escape(k));
        }
        match self {
            Layout::Pretty => items.push_str(&value.replace('\n', "\n  ")),
            _ => items.push_str(value),
        }
    }

    fn close_with(self, items: &str, open: char, close: char) -> String {
        match self {
            Layout::Pretty if !items.is_empty() => format!("{open}{items}\n{close}"),
            _ => format!("{open}{items}{close}"),
        }
    }

    fn join_items(self, items: impl IntoIterator<Item = String>) -> String {
        let mut out = String::new();
        for item in items {
            self.push_item(&mut out, None, &item);
        }
        self.close_with(&out, '[', ']')
    }
}

/// Joins rendered values as a compact array.
pub fn compact_array(items: impl IntoIterator<Item = String>) -> String {
    Layout::Compact.join_items(items)
}

/// Joins rendered values as a line array.
pub fn line_array(items: impl IntoIterator<Item = String>) -> String {
    Layout::Line.join_items(items)
}

/// Joins rendered values as a pretty array.
pub fn pretty_array(items: impl IntoIterator<Item = String>) -> String {
    Layout::Pretty.join_items(items)
}

/// Builds a JSON object in one of three layouts, members in call order.
#[derive(Debug, Default)]
pub struct JsonObj {
    members: String,
    layout: Layout,
}

impl JsonObj {
    fn laid_out(layout: Layout) -> JsonObj {
        let members = String::new();
        JsonObj { members, layout }
    }

    /// Starts an empty object in the line layout.
    pub fn new() -> JsonObj {
        JsonObj::default()
    }

    /// Starts an empty object in the compact layout.
    pub fn compact() -> JsonObj {
        JsonObj::laid_out(Layout::Compact)
    }

    /// Starts an empty object in the pretty layout.
    pub fn pretty() -> JsonObj {
        JsonObj::laid_out(Layout::Pretty)
    }

    /// Appends an unsigned-integer field.
    pub fn u(self, k: &str, v: u64) -> JsonObj {
        self.raw(k, &v.to_string())
    }

    /// Appends an unsigned-integer field, or `null` for `None`.
    pub fn opt_u(self, k: &str, v: Option<u64>) -> JsonObj {
        self.raw(k, &v.map_or("null".to_string(), |v| v.to_string()))
    }

    /// Appends a boolean field.
    pub fn b(self, k: &str, v: bool) -> JsonObj {
        self.raw(k, if v { "true" } else { "false" })
    }

    /// Appends an escaped string field.
    pub fn s(self, k: &str, v: &str) -> JsonObj {
        self.raw(k, &json_str(v))
    }

    /// Embeds pre-rendered JSON.
    pub fn raw(mut self, k: &str, v: &str) -> JsonObj {
        self.layout.push_item(&mut self.members, Some(k), v);
        self
    }

    /// Closes the object and returns its text.
    pub fn finish(self) -> String {
        self.layout.close_with(&self.members, '{', '}')
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_rejects_what_workspace_documents_never_contain() {
        assert!(parse_json("1.5").is_err(), "fractions");
        assert!(parse_json("-3").is_err(), "negative numbers");
        assert!(parse_json("1e9").is_err(), "exponents");
        assert!(parse_json("{\"a\": 1,}").is_err(), "trailing comma");
        assert!(parse_json("{\"a\": 1} extra").is_err(), "trailing data");
        assert!(parse_json("\"unterminated").is_err(), "open string");
        assert!(parse_json("18446744073709551616").is_err(), "u64 overflow");
    }

    #[test]
    fn parser_handles_escapes_and_nesting() {
        let v = parse_json(r#"{"msg": "a\"b\\c\ndA", "arr": [1, [2, {"x": true}], null]}"#)
            .expect("parse");
        assert_eq!(v.get("msg").and_then(JsonValue::as_str), Some("a\"b\\c\ndA"));
        let arr = v.get("arr").and_then(JsonValue::as_arr).expect("arr");
        assert_eq!(arr.first().and_then(JsonValue::as_u64), Some(1));
        assert_eq!(arr.get(2), Some(&JsonValue::Null));
        assert_eq!(
            v.get("arr")
                .and_then(|a| a.as_arr())
                .and_then(|a| a.get(1))
                .and_then(|a| a.as_arr())
                .and_then(|a| a.get(1))
                .and_then(|o| o.get("x"))
                .and_then(JsonValue::as_bool),
            Some(true)
        );
    }

    #[test]
    fn obj_builder_emits_every_field_kind() {
        let text = JsonObj::new()
            .u("n", 7)
            .b("flag", true)
            .s("msg", "a\"b\n")
            .raw("nested", "[1, 2]")
            .finish();
        assert_eq!(text, "{\"n\": 7, \"flag\": true, \"msg\": \"a\\\"b\\n\", \"nested\": [1, 2]}");
        let v = parse_json(&text).expect("round trip");
        assert_eq!(v.get("n").and_then(JsonValue::as_u64), Some(7));
        assert_eq!(v.get("msg").and_then(JsonValue::as_str), Some("a\"b\n"));
    }

    #[test]
    fn each_layout_spaces_and_indents_its_own_way() {
        let inner = JsonObj::pretty()
            .u("x", 1)
            .raw("ys", &pretty_array(["2".to_string()]))
            .finish();
        assert_eq!(inner, "{\n  \"x\": 1,\n  \"ys\": [\n    2\n  ]\n}");
        let outer = JsonObj::pretty()
            .opt_u("none", None)
            .raw("inner", &inner)
            .finish();
        assert_eq!(
            outer,
            "{\n  \"none\": null,\n  \"inner\": {\n    \"x\": 1,\n    \"ys\": [\n      2\n    ]\n  }\n}"
        );
        let compact = JsonObj::compact()
            .u("a", 1)
            .raw("b", &compact_array(["1".to_string(), json_str("x")]))
            .finish();
        assert_eq!(compact, "{\"a\":1,\"b\":[1,\"x\"]}");
        let line = JsonObj::new()
            .opt_u("a", Some(3))
            .raw("b", &line_array(["1".to_string(), "2".to_string()]))
            .finish();
        assert_eq!(line, "{\"a\": 3, \"b\": [1, 2]}");
        for empty in [JsonObj::compact(), JsonObj::new(), JsonObj::pretty()] {
            assert_eq!(empty.finish(), "{}");
        }
        for empty in [compact_array([]), line_array([]), pretty_array([])] {
            assert_eq!(empty, "[]");
        }
        assert_eq!(json_str("a\"b\\c\n\u{1}"), "\"a\\\"b\\\\c\\n\\u0001\"");
    }

    #[test]
    fn validator_accepts_json_grammar() {
        for ok in [
            "{}",
            "[]",
            "[1, -2.5, 1e9, 1.25E-3]",
            r#"{"a": [true, false, null], "b": {"c": "d\nA"}}"#,
            "  {  }  ",
        ] {
            validate_json(ok, &[]).unwrap_or_else(|e| panic!("{ok}: {e}"));
        }
    }

    #[test]
    fn validator_rejects_malformed_json() {
        for bad in [
            "",
            "{",
            "{]",
            "[1,]",
            r#"{"a" 1}"#,
            r#"{"a": 1} x"#,
            "01a",
            "1.",
            "1e",
            r#""unterminated"#,
        ] {
            assert!(validate_json(bad, &[]).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn validator_checks_required_keys() {
        let text = r#"{"schema": "x", "jobs": 2}"#;
        validate_json(text, &["schema", "jobs"]).expect("present");
        assert!(validate_json(text, &["schema", "phases"]).is_err());
    }

    #[test]
    fn both_entry_points_share_one_rfc_8259_grammar() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        let deepest = (1..128).fold(JsonValue::Arr(vec![]), |v, _| JsonValue::Arr(vec![v]));
        // Each row: input, and what `parse_json` returns (`None` for an
        // error). `validate_json` must agree: every number is a u64.
        let table = [
            (r#""\u+041""#.to_string(), None), // a sign is not a hex digit
            ("007".to_string(), None),         // leading zeros
            ("-01".to_string(), None),
            ("[01]".to_string(), None),
            (
                r#""\ud83d\ude00""#.to_string(),
                Some(JsonValue::Str("\u{1f600}".into())),
            ),
            (r#""\ud800""#.to_string(), None), // a lone surrogate
            (r#""\udc00""#.to_string(), None),
            (nest(128), Some(deepest)), // one depth cap for both
            (nest(129), None),
        ];
        for (text, want) in &table {
            let parsed = parse_json(text);
            let valid = validate_json(text, &[]);
            assert_eq!(parsed.as_ref().ok(), want.as_ref(), "{text}: {parsed:?}");
            assert_eq!(valid.is_ok(), want.is_some(), "{text}: {valid:?}");
            for err in [parsed.err(), valid.err()].into_iter().flatten() {
                assert!(err.contains(" at byte "), "{text}: {err}");
            }
        }
        validate_json(r#"{"é": 1, "a\nb": 2}"#, &["é", "a\nb"])
            .expect("non-ASCII and escaped keys");
    }
}
