//! Seeded mutation fuzzing of the one JSON parser.
//!
//! Byte flips, inserts, deletes and truncations of real workspace
//! documents must never panic either entry point, every error must
//! name an offset inside the input, and `parse_json` and
//! `validate_json` may disagree only on a number that is not a `u64`.

use vpir_jsonlite::{parse_json, validate_json};
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
