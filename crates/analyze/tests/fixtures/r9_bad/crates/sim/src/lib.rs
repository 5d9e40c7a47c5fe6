//! R9 bad twin: a `Relaxed` load gates the drain loop, so a worker may
//! keep draining long after another thread raised the flag.

use std::sync::atomic::{AtomicBool, Ordering};

pub fn drain(stop: &AtomicBool, queue: &mut Vec<u64>) -> u64 {
    let mut total = 0;
    while let Some(v) = queue.pop() {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        total += v;
    }
    total
}
