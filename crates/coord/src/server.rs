//! The coordinator as a [`Service`] of `hermes-server`'s serving core: the
//! same wire protocol `hermes-serve` speaks, so `hermes-cli --connect` (and
//! any [`HermesClient`](hermes_server::HermesClient)) works against a
//! sharded deployment unchanged — with the same pipelining, admission
//! control, typed backpressure, deadlines and panic containment.
//!
//! Statements are parsed (and, for the prepared path, bound) locally, then
//! routed; the original SQL text rides along so forwarded statements hit
//! the shards byte-for-byte as the client wrote them.
//!
//! Observability mirrors the single-node server: the server's registry
//! carries its `hermes_server_*` counters plus a collector over the shard
//! registry's `hermes_shard_*` counters, and its [`SpanStore`] backs
//! `SHOW TRACE`. Every `Query`/`ExecutePrepared` statement becomes the
//! *root* of a distributed trace: the router records one child span per
//! contacted shard (propagating the context downstream, so the shard's own
//! span joins the tree) plus a `merge` span, and `SHOW TRACE <id>` against
//! the coordinator returns the whole fan-out tree.

use crate::router::{Coordinator, ForwardSpec};
use hermes_obs::{QueryTrace, Sample, SpanStore, TraceContext};
use hermes_server::protocol::{Request, Response};
use hermes_server::traceview::{self, TraceQuery};
use hermes_server::{ServerConfig, ServerMetrics, Service};
use hermes_sql::{parse, QueryOutcome, Statement};
use std::sync::Arc;
use std::time::Instant;

impl Service for Coordinator {
    /// Wire handles index this connection-private table of parsed
    /// statements plus their original SQL (the text is what gets forwarded
    /// downstream).
    type Conn = Vec<(String, Statement)>;

    fn connect(&self) -> Self::Conn {
        Vec::new()
    }

    /// For statements that fan out (`Query` and `ExecutePrepared`), the
    /// second element carries `(trace_id, statement)` of the root trace
    /// recorded around the execution. The coordinator is the origin of
    /// distributed traces, not a relay: an inbound trace context (only ever
    /// sent by another coordinator, which does not happen in a two-tier
    /// deployment) is ignored.
    fn answer(
        &self,
        prepared: &mut Self::Conn,
        request: Request,
        _trace: Option<TraceContext>,
        metrics: &ServerMetrics,
        spans: &Arc<SpanStore>,
    ) -> (Response, Option<(u64, String)>) {
        match request {
            Request::Query { sql } => match traceview::sniff_trace_text(&sql) {
                // Trace inspection is answered at this serving edge, against the
                // coordinator's own span store — never recorded, never routed.
                Some(TraceQuery::Traces) => {
                    (outcome_response(traceview::traces_outcome(spans)), None)
                }
                Some(TraceQuery::Trace(id)) => {
                    (outcome_response(traceview::trace_outcome(spans, id)), None)
                }
                None => match parse(&sql) {
                    Ok(stmt) => {
                        let trace = QueryTrace::root(Arc::clone(spans));
                        let started = Instant::now();
                        let response =
                            self.execute(&stmt, &ForwardSpec::Query(&sql), metrics, Some(&trace));
                        finish_root(&trace, "query", &sql, started, &response);
                        let trace_id = trace.trace_id();
                        (response, Some((trace_id, sql)))
                    }
                    Err(e) => (error_response(e), None),
                },
            },
            Request::Prepare { sql } => match parse(&sql) {
                Ok(stmt) => {
                    let wire = match prepared.iter().position(|(text, _)| *text == sql) {
                        Some(i) => i,
                        None => {
                            prepared.push((sql, stmt));
                            prepared.len() - 1
                        }
                    };
                    (
                        Response::Prepared {
                            handle: wire as u32,
                        },
                        None,
                    )
                }
                Err(e) => (error_response(e), None),
            },
            Request::ExecutePrepared { handle, params } => {
                let Some((sql, stmt)) = prepared.get(handle as usize) else {
                    return (
                        Response::error(format!(
                            "unknown prepared statement handle {handle} on this connection"
                        )),
                        None,
                    );
                };
                match stmt.bind(&params) {
                    // Prepared trace inspection (`SHOW TRACE $1`) is intercepted
                    // like its direct-text form; binding resolved the id already.
                    Ok(Statement::ShowTraces) => {
                        (outcome_response(traceview::traces_outcome(spans)), None)
                    }
                    Ok(Statement::ShowTrace { id }) => match id.as_i64() {
                        Ok(id) => (outcome_response(traceview::trace_outcome(spans, id)), None),
                        Err(message) => (Response::error(message), None),
                    },
                    Ok(bound) => {
                        let trace = QueryTrace::root(Arc::clone(spans));
                        let started = Instant::now();
                        let response = self.execute(
                            &bound,
                            &ForwardSpec::Prepared {
                                sql,
                                params: &params,
                            },
                            metrics,
                            Some(&trace),
                        );
                        finish_root(&trace, "execute_prepared", sql, started, &response);
                        let trace_id = trace.trace_id();
                        let statement = sql.clone();
                        (response, Some((trace_id, statement)))
                    }
                    Err(e) => (error_response(e), None),
                }
            }
            Request::Ingest {
                dataset,
                trajectories,
            } => (self.ingest(&dataset, trajectories), None),
            Request::QutPartial { .. }
            | Request::RangePartial { .. }
            | Request::GatherTrajectories { .. }
            | Request::InfoPartial { .. } => (
                Response::error(
                    "shard-internal request: the coordinator accepts client statements \
                     (QUERY / PREPARE / EXECUTE / INGEST) only",
                ),
                None,
            ),
        }
    }

    /// A worker blocks on shard I/O for as long as its statement runs, so
    /// the pool gets one worker per admissible connection: every admitted
    /// client can have a statement waiting on the shards at once.
    fn default_workers(&self, config: &ServerConfig) -> usize {
        config.max_connections
    }

    fn collect(&self, out: &mut Vec<Sample>) {
        for shard in self.shards() {
            shard.collect_samples(out);
        }
    }
}

/// Records the root span of a routed statement: the statement text and
/// whether it succeeded, with the shard/merge children already recorded by
/// the router underneath it.
fn finish_root(trace: &QueryTrace, name: &str, sql: &str, started: Instant, response: &Response) {
    let status = match response {
        Response::Error { .. } => "error",
        _ => "ok",
    };
    trace.finish_root(
        name.to_string(),
        started.elapsed(),
        vec![
            ("statement", sql.to_string()),
            ("status", status.to_string()),
        ],
    );
}

fn outcome_response(outcome: QueryOutcome) -> Response {
    match outcome {
        QueryOutcome::Rows { frame, stats } => Response::Rows { frame, stats },
        QueryOutcome::Command(status) => Response::Command(status),
    }
}

fn error_response(e: impl std::fmt::Display) -> Response {
    Response::error(e.to_string())
}
