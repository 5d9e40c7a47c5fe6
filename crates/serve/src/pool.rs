//! A bounded job queue plus a fixed worker pool.
//!
//! Backpressure is explicit: `try_push` refuses work beyond the
//! configured capacity (the HTTP layer turns that into a 503 with
//! `Retry-After`) and `drain` flips the queue into shutdown mode, after
//! which workers finish what is queued and exit. Each job runs under
//! `catch_unwind` so a panicking simulation takes down one job, not a
//! worker thread — the same fault-isolation stance as the benchmark
//! matrix runner.
//!
//! # Atomic-ordering contract
//!
//! Every atomic in this crate falls into one of two classes, and the
//! R9 concurrency pass enforces the split:
//!
//! * **Control flow — `SeqCst`.** `ServerState::stop` and
//!   `active_connections` (in `lib.rs`) gate accept-loop exit, request
//!   rejection, and shutdown draining. Their loads feed branches, so
//!   they use `SeqCst`: the shutdown `swap(true)` must be globally
//!   ordered before the acceptor observes it, and the connection count
//!   must not be reordered around the limit check. The cost is a few
//!   fences per connection — noise next to a simulation run.
//!
//! * **Monotonic telemetry — `Relaxed`.** Every `Metrics` counter and
//!   gauge (`in_flight_jobs`, `runs_panicked`, …) and every
//!   latency-histogram bucket (`crate::histo`, including the loadgen's
//!   client-side histogram) is written with `Relaxed`
//!   `fetch_add`/`fetch_sub`/`fetch_max` and read only by the
//!   `/metrics` scraper or an end-of-run report. No decision is ever
//!   made on these values, so cross-thread ordering buys nothing; RMW
//!   atomicity alone guarantees no lost increments. A scrape may
//!   observe a counter a beat early or late — that is inherent to
//!   scraping, not ordering.
//!
//! Queue state itself (`Inner`) is plain data under the `Mutex`; the
//! `Condvar` pairs with that same mutex, so no atomics are involved.
//! The `/metrics` queue-depth and shed-state gauges are not atomics
//! either: a scrape reads the depth under that mutex, as the router
//! does for its shed decision.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use crate::metrics::Metrics;

/// A unit of work for the pool.
pub type Job = Box<dyn FnOnce() + Send + 'static>;

/// Why `try_push` refused a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue is at capacity.
    Full,
    /// The queue is draining for shutdown; no new work is accepted.
    Draining,
}

#[derive(Default)]
struct Inner {
    queue: VecDeque<Job>,
    draining: bool,
}

/// A bounded MPMC job queue with shutdown support.
pub struct JobQueue {
    inner: Mutex<Inner>,
    ready: Condvar,
    capacity: usize,
}

impl JobQueue {
    /// An empty queue that holds at most `capacity` pending jobs.
    pub fn new(capacity: usize) -> JobQueue {
        JobQueue { inner: Mutex::new(Inner::default()), ready: Condvar::new(), capacity }
    }

    /// Enqueues `job`, or refuses it.
    pub fn try_push(&self, job: Job) -> Result<(), PushError> {
        let mut inner = self.lock();
        if inner.draining {
            return Err(PushError::Draining);
        }
        if inner.queue.len() >= self.capacity {
            return Err(PushError::Full);
        }
        inner.queue.push_back(job);
        drop(inner);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks for the next job; `None` once draining and empty.
    pub fn pop(&self) -> Option<Job> {
        let mut inner = self.lock();
        loop {
            if let Some(job) = inner.queue.pop_front() {
                return Some(job);
            }
            if inner.draining {
                return None;
            }
            inner = self
                .ready
                .wait(inner)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Flips the queue into shutdown mode and wakes every worker.
    pub fn drain(&self) {
        self.lock().draining = true;
        self.ready.notify_all();
    }

    /// Drops any jobs still queued. Used after the workers have exited
    /// (zero-worker pools only): dropping a job hangs up its result
    /// channel, so the connection handler waiting on it unblocks.
    pub fn clear(&self) {
        self.lock().queue.clear();
    }

    /// Whether the queue has entered shutdown mode.
    pub fn is_draining(&self) -> bool {
        self.lock().draining
    }

    /// Number of jobs currently waiting.
    pub fn depth(&self) -> usize {
        self.lock().queue.len()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // Jobs never run under this lock, so panics cannot poison it in
        // practice; recover the guard anyway rather than propagating.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl std::fmt::Debug for JobQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobQueue")
            .field("capacity", &self.capacity)
            .field("depth", &self.depth())
            .field("draining", &self.is_draining())
            .finish()
    }
}

/// Spawns `n` workers that pop jobs until the queue drains dry.
pub fn spawn_workers(n: usize, queue: Arc<JobQueue>, metrics: Arc<Metrics>) -> Vec<JoinHandle<()>> {
    (0..n)
        .map(|i| {
            let queue = Arc::clone(&queue);
            let metrics = Arc::clone(&metrics);
            std::thread::Builder::new()
                .name(format!("vpir-serve-worker-{i}"))
                .spawn(move || {
                    while let Some(job) = queue.pop() {
                        metrics.in_flight_jobs.fetch_add(1, Ordering::Relaxed);
                        // Safety net: jobs carry their own catch_unwind
                        // around the simulation so they can report the
                        // panic; this one only protects the worker loop
                        // from a panic in the reporting path itself.
                        if catch_unwind(AssertUnwindSafe(job)).is_err() {
                            metrics.runs_panicked.fetch_add(1, Ordering::Relaxed);
                        }
                        metrics.in_flight_jobs.fetch_sub(1, Ordering::Relaxed);
                    }
                })
                .unwrap_or_else(|e| {
                    // Thread spawn only fails on resource exhaustion; a
                    // smaller pool still serves (requests queue longer).
                    eprintln!("vpir-serve: failed to spawn worker {i}: {e}");
                    std::thread::Builder::new()
                        .name("vpir-serve-worker-noop".to_string())
                        .spawn(|| {})
                        .unwrap_or_else(|_| std::process::exit(1))
                })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn queue_enforces_capacity_and_drain_semantics() {
        let queue = JobQueue::new(2);
        assert_eq!(queue.try_push(Box::new(|| {})), Ok(()));
        assert_eq!(queue.depth(), 1);
        assert_eq!(queue.try_push(Box::new(|| {})), Ok(()));
        assert_eq!(queue.depth(), 2);
        assert_eq!(queue.try_push(Box::new(|| {})), Err(PushError::Full));
        assert_eq!(queue.depth(), 2);
        queue.drain();
        // Draining: queued jobs still pop, new pushes are refused.
        assert_eq!(queue.try_push(Box::new(|| {})), Err(PushError::Draining));
        assert!(queue.pop().is_some());
        assert!(queue.pop().is_some());
        assert!(queue.pop().is_none());
    }

    #[test]
    fn workers_run_jobs_and_exit_on_drain() {
        let queue = Arc::new(JobQueue::new(16));
        let metrics = Arc::new(Metrics::new());
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..8 {
            let counter = Arc::clone(&counter);
            let pushed = queue.try_push(Box::new(move || {
                counter.fetch_add(1, Ordering::Relaxed);
            }));
            assert!(pushed.is_ok());
        }
        let handles = spawn_workers(2, Arc::clone(&queue), Arc::clone(&metrics));
        queue.drain();
        for handle in handles {
            assert!(handle.join().is_ok());
        }
        assert_eq!(counter.load(Ordering::Relaxed), 8);
        assert_eq!(metrics.in_flight_jobs.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn a_panicking_job_is_contained_and_counted() {
        let queue = Arc::new(JobQueue::new(4));
        let metrics = Arc::new(Metrics::new());
        let counter = Arc::new(AtomicU64::new(0));
        assert!(queue.try_push(Box::new(|| panic!("boom"))).is_ok());
        let counter2 = Arc::clone(&counter);
        assert!(queue
            .try_push(Box::new(move || {
                counter2.fetch_add(1, Ordering::Relaxed);
            }))
            .is_ok());
        let handles = spawn_workers(1, Arc::clone(&queue), Arc::clone(&metrics));
        queue.drain();
        for handle in handles {
            assert!(handle.join().is_ok());
        }
        // The panic was contained: the later job still ran.
        assert_eq!(counter.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.runs_panicked.load(Ordering::Relaxed), 1);
    }
}
