//! Regenerates the golden-state digest fixture.
//!
//! Prints the fixture JSON to stdout; redirect it over
//! `crates/bench/tests/fixtures/golden_digests.json` only when a
//! semantic change to the simulator is intended.

fn main() -> Result<(), vpir_core::SimError> {
    print!("{}", vpir_bench::golden::golden_fixture_json()?);
    Ok(())
}
