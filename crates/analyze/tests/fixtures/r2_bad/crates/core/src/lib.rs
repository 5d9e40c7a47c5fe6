//! R2 bad twin: integer-literal indexes on the hot path.

pub fn head(xs: &[u64], pair: [u64; 2]) -> u64 {
    xs[0] + pair[1]
}
