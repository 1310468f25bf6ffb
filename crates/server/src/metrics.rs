//! Server-side observability: counters and a per-query latency histogram
//! backed by the process-wide `hermes-obs` registry, surfaced to clients
//! through `SHOW STATS` (scope `server`) and through the Prometheus
//! `/metrics` endpoint.

use std::sync::Arc;
use std::time::Duration;

use hermes_obs::{Counter, Gauge, Histogram, Registry};

/// Upper bucket bounds of the latency histogram, in microseconds. The last
/// bucket is open-ended.
pub const LATENCY_BUCKETS_US: [u64; 12] = [
    100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 500_000, 1_000_000,
];

/// A fixed-bucket latency histogram over the shared registry instrument.
///
/// The internal buckets are non-cumulative: each counts the queries whose
/// latency fell between the previous bound and its own. That interval form is
/// what [`LatencyHistogram::snapshot`] (and therefore `SHOW STATS`) reports;
/// the Prometheus endpoint converts to cumulative `le` buckets at render
/// time.
pub struct LatencyHistogram {
    inner: Arc<Histogram>,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            inner: Arc::new(Histogram::new(&LATENCY_BUCKETS_US)),
        }
    }
}

impl LatencyHistogram {
    fn from_registry(registry: &Registry) -> LatencyHistogram {
        LatencyHistogram {
            inner: registry.histogram(
                "hermes_server_query_latency_us",
                "Per-query wall-clock latency in microseconds",
                &LATENCY_BUCKETS_US,
            ),
        }
    }

    /// Records one query latency.
    pub fn record(&self, elapsed: Duration) {
        self.inner
            .observe(elapsed.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Recorded queries.
    pub fn count(&self) -> u64 {
        self.inner.count()
    }

    /// Sum of recorded latencies in microseconds.
    pub fn total_us(&self) -> u64 {
        self.inner.sum()
    }

    /// `(label, count)` per bucket, e.g. `("latency_us_le_100", 3)`; the
    /// open-ended tail is labelled `latency_us_gt_1000000`. Counts are
    /// per-interval (non-cumulative), matching the historical `SHOW STATS`
    /// output.
    pub fn snapshot(&self) -> Vec<(String, u64)> {
        let snap = self.inner.snapshot();
        let mut out = Vec::with_capacity(snap.buckets.len());
        for (i, count) in snap.buckets.iter().enumerate() {
            let label = match LATENCY_BUCKETS_US.get(i) {
                Some(bound) => format!("latency_us_le_{bound}"),
                None => format!("latency_us_gt_{}", LATENCY_BUCKETS_US.last().unwrap()),
            };
            out.push((label, *count));
        }
        out
    }
}

/// Counters describing a running server, registered on the process-wide
/// metrics registry. All updates are relaxed atomic ops: the metrics are
/// monotone tallies, not synchronization points.
pub struct ServerMetrics {
    /// Connections admitted into a session.
    pub connections_accepted: Arc<Counter>,
    /// Connections turned away at the connection cap.
    pub connections_rejected: Arc<Counter>,
    /// Connections currently in a session.
    pub connections_active: Arc<Gauge>,
    /// Query/Prepare/ExecutePrepared/Ingest requests answered successfully.
    pub queries_served: Arc<Counter>,
    /// Requests answered with an error response.
    pub query_errors: Arc<Counter>,
    /// Statements that exceeded the slow-query threshold.
    pub slow_queries: Arc<Counter>,
    /// Bytes read off client sockets.
    pub bytes_in: Arc<Counter>,
    /// Bytes written to client sockets.
    pub bytes_out: Arc<Counter>,
    /// Requests parsed off a socket and waiting for an executor slot.
    pub pending_requests: Arc<Gauge>,
    /// Requests currently executing on the worker pool.
    pub inflight_queries: Arc<Gauge>,
    /// Requests whose deadline expired before a result could be sent.
    pub deadline_misses: Arc<Counter>,
    /// Requests refused because the pending-work bound was reached.
    pub backpressure_rejections: Arc<Counter>,
    /// Requests whose service call panicked (answered with an
    /// `Internal` error; the worker survives).
    pub panics: Arc<Counter>,
    /// Engine epoch observed by the most recent request.
    pub epoch: Arc<Gauge>,
    /// Per-query latency distribution.
    pub latency: LatencyHistogram,
}

impl Default for ServerMetrics {
    /// Standalone metrics over a private throwaway registry (used by tests
    /// and embedded setups that never scrape).
    fn default() -> Self {
        ServerMetrics::register(&Registry::new())
    }
}

impl ServerMetrics {
    /// Create the server metric family on `registry` (Prometheus names
    /// `hermes_server_*`) and return the handle struct the hot path updates.
    pub fn register(registry: &Registry) -> ServerMetrics {
        ServerMetrics {
            connections_accepted: registry.counter(
                "hermes_server_connections_accepted_total",
                "Connections admitted into a session",
            ),
            connections_rejected: registry.counter(
                "hermes_server_rejected_connections_total",
                "Connections turned away at the connection cap",
            ),
            connections_active: registry.gauge(
                "hermes_server_connections_active",
                "Connections currently in a session",
            ),
            queries_served: registry.counter(
                "hermes_server_queries_served_total",
                "Requests answered successfully",
            ),
            query_errors: registry.counter(
                "hermes_server_query_errors_total",
                "Requests answered with an error response",
            ),
            slow_queries: registry.counter(
                "hermes_server_slow_queries_total",
                "Statements that exceeded the slow-query threshold",
            ),
            bytes_in: registry.counter(
                "hermes_server_bytes_in_total",
                "Bytes read off client sockets",
            ),
            bytes_out: registry.counter(
                "hermes_server_bytes_out_total",
                "Bytes written to client sockets",
            ),
            pending_requests: registry.gauge(
                "hermes_server_pending_requests",
                "Requests parsed off a socket and waiting for an executor slot",
            ),
            inflight_queries: registry.gauge(
                "hermes_server_inflight_queries",
                "Requests currently executing on the worker pool",
            ),
            deadline_misses: registry.counter(
                "hermes_server_deadline_misses_total",
                "Requests whose deadline expired before a result could be sent",
            ),
            backpressure_rejections: registry.counter(
                "hermes_server_backpressure_rejections_total",
                "Requests refused because the pending-work bound was reached",
            ),
            panics: registry.counter(
                "hermes_server_panics_total",
                "Requests whose service call panicked",
            ),
            epoch: registry.gauge(
                "hermes_server_epoch",
                "Engine epoch observed by the most recent request",
            ),
            latency: LatencyHistogram::from_registry(registry),
        }
    }

    /// The `(metric, value)` rows a server appends to `SHOW STATS` under the
    /// `server` scope.
    pub fn rows(&self) -> Vec<(String, i64)> {
        let mut rows = vec![
            (
                "connections_accepted".to_string(),
                self.connections_accepted.get() as i64,
            ),
            (
                "connections_rejected".to_string(),
                self.connections_rejected.get() as i64,
            ),
            (
                "connections_active".to_string(),
                self.connections_active.get() as i64,
            ),
            (
                "queries_served".to_string(),
                self.queries_served.get() as i64,
            ),
            ("query_errors".to_string(), self.query_errors.get() as i64),
            ("slow_queries".to_string(), self.slow_queries.get() as i64),
            ("bytes_in".to_string(), self.bytes_in.get() as i64),
            ("bytes_out".to_string(), self.bytes_out.get() as i64),
            (
                "pending_requests".to_string(),
                self.pending_requests.get() as i64,
            ),
            (
                "inflight_queries".to_string(),
                self.inflight_queries.get() as i64,
            ),
            (
                "deadline_misses".to_string(),
                self.deadline_misses.get() as i64,
            ),
            (
                "backpressure_rejections".to_string(),
                self.backpressure_rejections.get() as i64,
            ),
            ("panics".to_string(), self.panics.get() as i64),
            ("epoch".to_string(), self.epoch.get() as i64),
            (
                "latency_us_total".to_string(),
                self.latency.total_us() as i64,
            ),
        ];
        for (label, count) in self.latency.snapshot() {
            rows.push((label, count as i64));
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_bound() {
        let h = LatencyHistogram::default();
        h.record(Duration::from_micros(50)); // le_100
        h.record(Duration::from_micros(100)); // le_100 (inclusive bound)
        h.record(Duration::from_micros(700)); // le_1000
        h.record(Duration::from_secs(5)); // open tail
        assert_eq!(h.count(), 4);
        let snap = h.snapshot();
        let get = |label: &str| snap.iter().find(|(l, _)| l == label).unwrap().1;
        assert_eq!(get("latency_us_le_100"), 2);
        assert_eq!(get("latency_us_le_1000"), 1);
        assert_eq!(get("latency_us_gt_1000000"), 1);
        assert_eq!(snap.iter().map(|(_, c)| c).sum::<u64>(), 4);
        assert!(h.total_us() >= 5_000_000);
    }

    #[test]
    fn metrics_rows_cover_every_counter() {
        let m = ServerMetrics::default();
        m.queries_served.add(3);
        m.latency.record(Duration::from_micros(10));
        let rows = m.rows();
        let get = |name: &str| {
            rows.iter()
                .find(|(l, _)| l == name)
                .unwrap_or_else(|| panic!("{name} missing"))
                .1
        };
        assert_eq!(get("queries_served"), 3);
        assert_eq!(get("latency_us_le_100"), 1);
        assert_eq!(get("connections_active"), 0);
        assert_eq!(get("panics"), 0);
    }

    #[test]
    fn prometheus_export_is_cumulative_while_stats_rows_are_not() {
        // Satellite 1: `SHOW STATS` keeps the historical per-interval labels,
        // while the registry renders the same histogram in cumulative `le`
        // form with `_sum`/`_count`.
        let registry = Registry::new();
        let m = ServerMetrics::register(&registry);
        m.latency.record(Duration::from_micros(50));
        m.latency.record(Duration::from_micros(100));
        m.latency.record(Duration::from_micros(700));

        let snap = m.latency.snapshot();
        let get = |label: &str| snap.iter().find(|(l, _)| l == label).unwrap().1;
        assert_eq!(
            get("latency_us_le_100"),
            2,
            "interval form: own bucket only"
        );
        assert_eq!(get("latency_us_le_1000"), 1);

        let text = registry.render_prometheus();
        assert!(text.contains("hermes_server_query_latency_us_bucket{le=\"100\"} 2"));
        assert!(
            text.contains("hermes_server_query_latency_us_bucket{le=\"1000\"} 3"),
            "cumulative form: prefix sum\n{text}"
        );
        assert!(text.contains("hermes_server_query_latency_us_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("hermes_server_query_latency_us_sum 850"));
        assert!(text.contains("hermes_server_query_latency_us_count 3"));
    }
}
