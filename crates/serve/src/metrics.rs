//! The service's metrics registry: plain `AtomicU64` counters and
//! gauges plus per-endpoint latency histograms, rendered in the
//! Prometheus text exposition format.
//!
//! No labels — every series is a named scalar, emitted in a fixed
//! order so two scrapes of the same state are byte-identical (the same
//! determinism discipline the simulator itself follows). Each series is
//! declared once, in the `registry!` list below. Values that the cache,
//! the disk store or the job queue already hold are not copied here:
//! they are read from their owners when `/metrics` renders. Latency
//! percentiles come from the log-bucketed [`Histogram`]s in
//! [`crate::histo`], whose atomics (like every counter here) follow
//! the telemetry-`Relaxed` half of the ordering contract documented in
//! [`crate::pool`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::histo::Histogram;

/// Load-shedding state derived from queue-depth watermarks; exported
/// on `/metrics` as the `shed_state` owner-held gauge and consulted by
/// the router for expensive endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ShedState {
    /// Below the shed watermark: everything is served.
    Healthy = 0,
    /// At or past the watermark: expensive endpoints are refused with
    /// `503 + Retry-After`; cached hits and cheap endpoints still work.
    Shedding = 1,
    /// The queue is full: every miss is refused.
    Saturated = 2,
}

impl ShedState {
    /// The watermark table: healthy below half the queue capacity,
    /// shedding from half up, saturated when completely full.
    pub fn for_depth(depth: usize, capacity: usize) -> ShedState {
        if depth >= capacity {
            ShedState::Saturated
        } else if depth * 2 >= capacity {
            ShedState::Shedding
        } else {
            ShedState::Healthy
        }
    }

    /// The state's name, as rendered in `/healthz`.
    pub fn name(self) -> &'static str {
        match self {
            ShedState::Healthy => "healthy",
            ShedState::Shedding => "shedding",
            ShedState::Saturated => "saturated",
        }
    }
}

/// Declares the registry, each list in render order.
///
/// A `series` line is `kind field "name" "help";`. A plain `field` is
/// an `AtomicU64` of [`Metrics`] that the service updates as it works;
/// a bracketed `[field]` is an *owner-held gauge*, a value the result
/// cache, the disk store or the job queue already keeps, which the
/// caller reads into an [`OwnerGauges`] when `/metrics` renders. The
/// HELP text is also the field's doc. An `endpoints` line is
/// `path => field "name",`: the histogram [`Metrics::latency_for`]
/// picks for requests to `path`, exported as `vpir_latency_<name>_*`.
macro_rules! registry {
    (
        series { $($kind:ident $($field:ident)? $([$owned:ident])? $name:literal $help:literal;)* }
        endpoints { $($path:pat => $histo:ident $endpoint:literal,)* }
    ) => {
        /// All counters, gauges, and histograms the service exposes on
        /// `GET /metrics`, apart from the [`OwnerGauges`].
        #[derive(Debug)]
        pub struct Metrics {
            start: Instant,
            $($(#[doc = $help] pub $field: AtomicU64,)?)*
            $(#[doc = concat!("Latency of ", $endpoint, " requests, microseconds.")] pub $histo: Histogram,)*
        }

        /// The owner-held gauges, read from their owners for one render.
        #[derive(Debug, Default)]
        pub struct OwnerGauges {
            $($(#[doc = $help] pub $owned: u64,)?)*
        }

        impl Metrics {
            /// A zeroed registry whose uptime clock starts now.
            pub fn new() -> Metrics {
                Metrics {
                    start: Instant::now(),
                    $($($field: AtomicU64::new(0),)?)*
                    $($histo: Histogram::new(),)*
                }
            }

            /// The latency histogram for a request path.
            pub fn latency_for(&self, path: &str) -> &Histogram {
                match path {
                    $($path => &self.$histo,)*
                }
            }

            /// Appends every declared series and endpoint histogram.
            fn render_declared(&self, owners: &OwnerGauges, out: &mut String) {
                $(
                    let value = $(self.$field.load(Ordering::Relaxed))? $(owners.$owned)?;
                    push_series(out, $name, stringify!($kind), $help, &value.to_string());
                )*
                $(push_histogram(out, $endpoint, &self.$histo);)*
            }
        }
    };
}

registry! {
    series {
        counter connections_total "vpir_connections_total" "Connections accepted by the listener.";
        counter requests_total "vpir_requests_total" "Requests accepted by the HTTP layer.";
        counter responses_ok "vpir_responses_ok_total" "Responses with a 2xx status.";
        counter responses_client_error "vpir_responses_client_error_total" "Responses with a 4xx status.";
        counter responses_server_error "vpir_responses_server_error_total" "Responses with a 5xx status other than 503.";
        counter responses_rejected "vpir_responses_rejected_total" "503 responses (backpressure, shedding, or draining).";
        counter cache_hits "vpir_cache_hits_total" "Requests answered from the in-memory cache tier.";
        counter cache_hits_disk "vpir_cache_hits_disk_total" "Requests answered from the disk cache tier.";
        counter cache_misses "vpir_cache_misses_total" "Requests that had to simulate.";
        gauge [cache_entries] "vpir_cache_entries" "Entries held by the in-memory cache tier.";
        gauge [cache_mem_bytes] "vpir_cache_mem_bytes" "Body bytes held by the in-memory cache tier.";
        counter [cache_entries_evicted] "vpir_cache_entries_evicted_total" "Entries evicted from the in-memory LRU.";
        gauge [store_entries] "vpir_store_entries" "Entries indexed by the disk store.";
        gauge [store_bytes] "vpir_store_bytes" "File bytes indexed by the disk store.";
        counter [store_evictions] "vpir_store_evictions_total" "Disk entries evicted for the byte budget.";
        counter [store_quarantined] "vpir_store_quarantined_total" "Disk entries quarantined by a failed frame check.";
        gauge [queue_depth] "vpir_queue_depth" "Jobs waiting in the bounded queue.";
        gauge in_flight_jobs "vpir_in_flight_jobs" "Jobs currently executing on a worker.";
        gauge [shed_state] "vpir_shed_state" "Load shedding state: 0 healthy, 1 shedding, 2 saturated.";
        counter requests_shed "vpir_requests_shed_total" "Expensive requests refused while shedding.";
        counter deadline_exceeded "vpir_deadline_exceeded_total" "Requests answered 504 past the simulation deadline.";
        counter slow_client_timeouts "vpir_slow_client_timeouts_total" "Connections answered 408 for stalling mid-request.";
        counter runs_completed "vpir_runs_completed_total" "Simulations that ran to completion.";
        counter runs_sim_error "vpir_runs_sim_error_total" "Simulations that ended in a structured SimError.";
        counter runs_panicked "vpir_runs_panicked_total" "Jobs whose execution panicked (contained).";
        counter matrix_cells_failed "vpir_matrix_cells_failed_total" "Matrix cells that degraded to failure rows.";
        counter sim_cycles_total "vpir_sim_cycles_total" "Cumulative simulated cycles across all jobs.";
    }
    endpoints {
        "/v1/run" => latency_run "run",
        "/v1/matrix" => latency_matrix "matrix",
        "/v1/analyze" => latency_analyze "analyze",
        _ => latency_other "other",
    }
}

impl Metrics {
    /// Buckets a response status into the right outcome counter.
    pub fn observe_status(&self, status: u16) {
        let counter = match status {
            200..=299 => &self.responses_ok,
            503 => &self.responses_rejected,
            400..=499 => &self.responses_client_error,
            _ => &self.responses_server_error,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Renders the registry, with the owner-held gauges `owners`, in
    /// Prometheus text exposition format.
    pub fn render(&self, owners: &OwnerGauges) -> String {
        let mut out = String::with_capacity(8192);
        self.render_declared(owners, &mut out);
        let uptime = self.start.elapsed().as_secs_f64();
        let cycles = self.sim_cycles_total.load(Ordering::Relaxed);
        let cycles_per_sec = if uptime > 0.0 { cycles as f64 / uptime } else { 0.0 };
        push_series(
            &mut out,
            "vpir_sim_cycles_per_second",
            "gauge",
            "Simulated cycles per wall-clock second since start.",
            &format!("{cycles_per_sec:.3}"),
        );
        push_series(
            &mut out,
            "vpir_uptime_seconds",
            "gauge",
            "Seconds since the service started.",
            &format!("{uptime:.3}"),
        );
        out
    }
}

impl Default for Metrics {
    fn default() -> Metrics {
        Metrics::new()
    }
}

/// Appends one endpoint's request count and latency percentiles.
fn push_histogram(out: &mut String, endpoint: &str, histo: &Histogram) {
    let quantiles = [
        ("count", histo.count()),
        ("p50_micros", histo.p50()),
        ("p99_micros", histo.p99()),
        ("p999_micros", histo.p999()),
    ];
    for (suffix, value) in quantiles {
        let kind = if suffix == "count" { "counter" } else { "gauge" };
        push_series(
            out,
            &format!("vpir_latency_{endpoint}_{suffix}"),
            kind,
            &format!("Latency of {endpoint} requests ({suffix})."),
            &value.to_string(),
        );
    }
}

fn push_series(out: &mut String, name: &str, kind: &str, help: &str, value: &str) {
    out.push_str("# HELP ");
    out.push_str(name);
    out.push(' ');
    out.push_str(help);
    out.push_str("\n# TYPE ");
    out.push_str(name);
    out.push(' ');
    out.push_str(kind);
    out.push('\n');
    out.push_str(name);
    out.push(' ');
    out.push_str(value);
    out.push('\n');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_lists_every_series_with_help_and_type() {
        let m = Metrics::new();
        m.requests_total.fetch_add(3, Ordering::Relaxed);
        m.cache_hits.fetch_add(1, Ordering::Relaxed);
        m.observe_status(200);
        m.observe_status(404);
        m.observe_status(503);
        m.observe_status(500);
        m.latency_for("/v1/run").record(300);
        m.latency_for("/nope").record(5);
        let owners = OwnerGauges { queue_depth: 3, shed_state: 1, ..OwnerGauges::default() };
        let text = m.render(&owners);
        assert!(text.contains("vpir_requests_total 3"), "{text}");
        assert!(text.contains("vpir_cache_hits_total 1"), "{text}");
        assert!(text.contains("vpir_responses_ok_total 1"), "{text}");
        assert!(text.contains("vpir_responses_client_error_total 1"), "{text}");
        assert!(text.contains("vpir_responses_rejected_total 1"), "{text}");
        assert!(text.contains("vpir_responses_server_error_total 1"), "{text}");
        assert!(text.contains("# TYPE vpir_queue_depth gauge\nvpir_queue_depth 3\n"), "{text}");
        assert!(text.contains("# TYPE vpir_shed_state gauge\nvpir_shed_state 1\n"), "{text}");
        assert!(text.contains("vpir_store_quarantined_total 0"), "{text}");
        assert!(text.contains("vpir_latency_run_count 1"), "{text}");
        // Single samples: each percentile is clamped to the exact max.
        assert!(text.contains("vpir_latency_run_p50_micros 300"), "{text}");
        assert!(text.contains("vpir_latency_other_p99_micros 5"), "{text}");
        assert!(text.contains("# HELP vpir_sim_cycles_per_second "), "{text}");
        // One HELP and one TYPE line per series, every series present:
        // 27 scalars + 4 endpoints x 4 histogram series + 2 derived.
        assert_eq!(text.matches("# HELP ").count(), 45);
        assert_eq!(text.matches("# TYPE ").count(), 45);
    }

    #[test]
    fn shed_watermark_table() {
        // (depth, capacity, expected)
        let table: &[(usize, usize, ShedState)] = &[
            (0, 8, ShedState::Healthy),
            (3, 8, ShedState::Healthy),
            (4, 8, ShedState::Shedding),
            (7, 8, ShedState::Shedding),
            (8, 8, ShedState::Saturated),
            (9, 8, ShedState::Saturated),
            (0, 1, ShedState::Healthy),
            (1, 1, ShedState::Saturated),
            (0, 2, ShedState::Healthy),
            (1, 2, ShedState::Shedding),
            (2, 2, ShedState::Saturated),
            (16, 32, ShedState::Shedding),
            (15, 32, ShedState::Healthy),
        ];
        for (depth, capacity, want) in table {
            assert_eq!(
                ShedState::for_depth(*depth, *capacity),
                *want,
                "depth {depth} capacity {capacity}"
            );
        }
        assert_eq!(ShedState::Healthy.name(), "healthy");
        assert_eq!(ShedState::Shedding.name(), "shedding");
        assert_eq!(ShedState::Saturated.name(), "saturated");
        assert!(ShedState::Healthy < ShedState::Shedding);
        assert!(ShedState::Shedding < ShedState::Saturated);
    }
}
