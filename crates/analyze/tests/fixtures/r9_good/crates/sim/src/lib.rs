//! R9 good twin: the flag gates control flow through an `Acquire` load,
//! and the `Relaxed` counter is only read as a reported snapshot.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub fn drain(stop: &AtomicBool, drained: &AtomicU64, queue: &mut Vec<u64>) -> u64 {
    let mut total = 0;
    while let Some(v) = queue.pop() {
        if stop.load(Ordering::Acquire) {
            break;
        }
        drained.fetch_add(1, Ordering::Relaxed);
        total += v;
    }
    total + drained.load(Ordering::Relaxed)
}
