//! Seeded mutation fuzzing of the one JSON parser, and round trips
//! through the emitter.
//!
//! Byte flips, inserts, deletes and truncations of real workspace
//! documents must never panic either entry point, every error must
//! name an offset inside the input, and `parse_json` and
//! `validate_json` may disagree only on a number that is not a `u64`.
//! Strings and counters emitted by `JsonObj` must parse back to the
//! same values and re-emit to the same bytes.

use vpir_jsonlite::{parse_json, validate_json, JsonObj, JsonValue};
use vpir_testkit::{check, Rng};

/// One of each document kind the parser meets: a golden fixture, a
/// matrix job file, a SARIF report, and a `/v1/run` request body.
const SEEDS: [&str; 4] = [
    include_str!("../../bench/tests/fixtures/golden_digests.json"),
    include_str!("../../bench/tests/fixtures/jobs/job-020.json"),
    include_str!("fixtures/r2_bad.sarif"),
    r#"{"asm": "main: li r1, 7\n  addi r1, r1, -1\n  halt", "machine": "ir_early", "max_cycles": 20000, "trace": 8, "note": "café \"x\" \/ é"}"#,
];

/// Bytes that steer inserts toward JSON's own syntax.
const ALPHABET: &[u8] = b"{}[]:,\"\\/-+.eE0123456789 tfnu\n";

fn mutate(rng: &mut Rng, doc: &str) -> String {
    let mut bytes = doc.as_bytes().to_vec();
    for _ in 0..rng.gen_range(1..=4) {
        let at = rng.gen_range(0..=bytes.len());
        match (rng.gen_range(0..4), bytes.get_mut(at)) {
            (0, Some(b)) => *b ^= 1 << rng.gen_range(0..8),
            (1, _) if rng.gen_bool(0.8) => {
                bytes.insert(at, ALPHABET[rng.gen_range(0..ALPHABET.len())]);
            }
            (1, _) => bytes.insert(at, rng.gen_range(0..=255u8)),
            (2, Some(_)) => {
                bytes.remove(at);
            }
            (3, _) => bytes.truncate(at),
            _ => {}
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// The byte offset an error names (`… at byte N …`).
fn offset(err: &str) -> usize {
    let tail = err.split_once(" at byte ").map_or("", |(_, t)| t);
    let digits: String = tail.chars().take_while(char::is_ascii_digit).collect();
    digits
        .parse()
        .unwrap_or_else(|_| panic!("no offset in {err:?}"))
}

#[test]
fn mutated_documents_never_panic_and_both_entry_points_agree() {
    for doc in SEEDS {
        parse_json(doc).expect("every seed is a u64-only document");
    }
    check("jsonlite_mutations", 10_000, |rng| {
        let seed = SEEDS[rng.gen_range(0..SEEDS.len())];
        let text = mutate(rng, seed);
        let parsed = parse_json(&text);
        let valid = validate_json(&text, &[]);
        for err in [parsed.as_ref().err(), valid.as_ref().err()]
            .into_iter()
            .flatten()
        {
            assert!(
                offset(err) <= text.len(),
                "{err} is past the end of {text:?}"
            );
        }
        match (&parsed, &valid) {
            (Ok(_), Err(e)) => panic!("validate_json alone rejects {text:?}: {e}"),
            (Err(e), Ok(())) => {
                // Only the number rule differs: the error sits on a
                // number that is not a u64.
                let number: String = text
                    .get(offset(e)..)
                    .unwrap_or_default()
                    .chars()
                    .take_while(|c| c.is_ascii_digit() || "-+.eE".contains(*c))
                    .collect();
                assert!(
                    number.starts_with(|c: char| c == '-' || c.is_ascii_digit())
                        && number.parse::<u64>().is_err(),
                    "parse_json alone rejects {text:?}: {e}"
                );
            }
            _ => {}
        }
    });
}

/// A string over what `json_escape` and the parser's `\u` decoding must
/// agree on: every control char, the escaped punctuation, DEL, a
/// JavaScript line separator, and chars of two and four UTF-8 bytes.
fn awkward_string(rng: &mut Rng) -> String {
    const OTHERS: [char; 7] = ['"', '\\', '/', '\u{7f}', '\u{2028}', 'é', '\u{1f600}'];
    (0..rng.gen_range(0..12))
        .map(|_| match rng.gen_range(0..2) {
            0 => char::from(rng.gen_range(0..0x20u8)),
            _ => OTHERS[rng.gen_range(0..OTHERS.len())],
        })
        .collect()
}

fn emit(fields: &[(String, JsonValue)]) -> String {
    fields
        .iter()
        .fold(JsonObj::new(), |obj, (k, v)| match v {
            JsonValue::Str(s) => obj.s(k, s),
            JsonValue::U64(n) => obj.u(k, *n),
            other => panic!("not emitted here: {other:?}"),
        })
        .finish()
}

#[test]
fn emitted_strings_and_counters_parse_back_and_re_emit_identically() {
    check("jsonlite_round_trip", 5_000, |rng| {
        let n = match rng.gen_range(0..3) {
            0 => u64::MAX,
            1 => rng.gen_range(0..10),
            _ => rng.gen_u64(),
        };
        let fields = vec![
            ("s".to_string(), JsonValue::Str(awkward_string(rng))),
            ("n".to_string(), JsonValue::U64(n)),
            (awkward_string(rng), JsonValue::Str("key".into())),
        ];
        let text = emit(&fields);
        let back = match parse_json(&text) {
            Ok(JsonValue::Obj(back)) => back,
            other => panic!("{text:?} parsed as {other:?}"),
        };
        assert_eq!(back, fields, "{text:?}");
        assert_eq!(emit(&back), text);
    });
}
