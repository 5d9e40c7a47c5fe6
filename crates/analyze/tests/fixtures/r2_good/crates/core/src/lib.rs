//! R2 good twin: literal positions go through `.get`, loop-derived
//! indexes are not R2's concern, and test-only code is exempt.

pub fn head(xs: &[u64], pair: [u64; 2]) -> u64 {
    let first = xs.first().copied().unwrap_or(0);
    let last = (0..pair.len()).map(|i| pair[i]).sum::<u64>();
    first + pair.get(1).copied().unwrap_or(0) + last
}

#[cfg(test)]
mod tests {
    #[test]
    fn literal_indexes_in_tests_are_fine() {
        let xs = [1u64, 2];
        assert_eq!(super::head(&xs, [xs[0], xs[1]]), 1 + 2 + 3);
    }
}
