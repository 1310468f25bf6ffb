//! Per-shard control-plane state: replica endpoints, liveness, counters and
//! connection pools.
//!
//! A [`Shard`] is a **replica set**: one primary endpoint plus N replicas
//! that hold byte-identical state (the router sends every write to every
//! endpoint, all-or-error, so replicas never diverge — `docs/SHARDING.md`).
//! Reads go through [`Shard::call`], which owns the availability machinery:
//!
//! - **Failover ladder** — endpoints are tried live-first/primary-first; a
//!   transport failure, or a server-answered *retryable* error
//!   ([`ErrorCode::is_retryable`](hermes_server::ErrorCode::is_retryable):
//!   `Deadline`/`Capacity`/`Backpressure`),
//!   moves the call to the next endpoint after a jittered exponential
//!   backoff and bumps `failovers`. A `Query`-class error is an *answer* — a
//!   replica would say exactly the same — and is relayed verbatim.
//! - **Hedging** — with [`FailoverPolicy::hedge`] set, a duplicate of the
//!   call is fired at the first replica when the primary has not answered
//!   within the hedge window; the first answer wins and the loser is
//!   cancelled by ignoring it (its thread finishes in the background and its
//!   connection re-pools only if it is still clean).
//!
//! Connections are pooled per **endpoint**. Check-in refuses connections
//! that are not [`clean`](HermesClient::is_clean) — a stream that broke
//! mid-frame, or that still owes responses (a hedge loser), is dropped
//! rather than handed to the next caller desynchronized.

use crate::shardmap::ShardSpec;
use hermes_obs::{Counter, Sample, SampleValue, TraceContext};
use hermes_server::protocol::{Request, Response};
use hermes_server::{ClientError, ConnectOptions, HermesClient};
use hermes_sql::Value;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Idle connections kept per endpoint; extras are dropped on check-in.
const POOL_KEEP: usize = 8;

/// A coordinator-side failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoordError {
    /// An error whose text is exactly what a single-node engine would
    /// produce (shard-answered SQL/engine errors, or errors the coordinator
    /// mirrors from the executor's own validation).
    Data(String),
    /// A shard became unreachable or spoke garbage; names the culprit.
    Shard {
        /// The failing shard's name from the shard map.
        name: String,
        /// The failing endpoint's address.
        addr: String,
        /// What went wrong.
        detail: String,
    },
}

impl fmt::Display for CoordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoordError::Data(m) => f.write_str(m),
            CoordError::Shard { name, addr, detail } => {
                write!(f, "shard '{name}' ({addr}): {detail}")
            }
        }
    }
}

impl std::error::Error for CoordError {}

/// Availability knobs for the read path (`--hedge-ms`,
/// `--failover-backoff-ms` on the binary).
#[derive(Debug, Clone)]
pub struct FailoverPolicy {
    /// Fire a duplicate read at the first replica when the primary has not
    /// answered within this window (`None` = never hedge). The first answer
    /// wins; the loser is ignored.
    pub hedge: Option<Duration>,
    /// Base pause before retrying on the next endpoint; doubles per further
    /// attempt and is jittered ±50% so replicas of a struggling shard are
    /// not hit in lockstep.
    pub backoff: Duration,
    /// Upper bound for the (pre-jitter) backoff.
    pub max_backoff: Duration,
}

impl Default for FailoverPolicy {
    fn default() -> Self {
        FailoverPolicy {
            hedge: None,
            backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(200),
        }
    }
}

/// One read-path wire call, owned so a failover retry or a hedge thread can
/// replay it verbatim on another endpoint.
#[derive(Debug)]
pub enum ReadCall {
    /// A pipelined batch: every request is written before the first response
    /// is read; one `Response` per request, in order (`Error` frames as
    /// values in their slot).
    Pipeline(Vec<Request>),
    /// The prepared-statement forward: `Prepare` then `ExecutePrepared` with
    /// the same bound parameters. Two round trips by necessity — the handle
    /// is assigned by the server mid-exchange — but still replayable.
    Prepared {
        /// The original placeholder SQL.
        sql: String,
        /// The bound parameter values.
        params: Vec<Value>,
    },
}

/// One endpoint of a replica set: its address, last observed liveness and
/// its idle-connection pool.
pub struct Endpoint {
    /// `host:port` of this endpoint's `hermes-serve` listener.
    pub addr: String,
    alive: AtomicBool,
    idle: Mutex<Vec<HermesClient>>,
}

impl Endpoint {
    fn new(addr: String) -> Endpoint {
        Endpoint {
            addr,
            alive: AtomicBool::new(false),
            idle: Mutex::new(Vec::new()),
        }
    }

    /// Last observed liveness of this endpoint.
    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::Relaxed)
    }

    fn pooled(&self) -> usize {
        self.idle.lock().unwrap().len()
    }

    fn check_out(&self, opts: &ConnectOptions) -> Result<HermesClient, ClientError> {
        if let Some(conn) = self.idle.lock().unwrap().pop() {
            return Ok(conn);
        }
        HermesClient::connect_with(self.addr.as_str(), opts).map_err(ClientError::Io)
    }

    fn check_in(&self, conn: HermesClient) {
        // The poison gate: a connection that owes responses or broke
        // mid-frame must never serve another caller.
        if !conn.is_clean() {
            return;
        }
        let mut idle = self.idle.lock().unwrap();
        if idle.len() < POOL_KEEP {
            idle.push(conn);
        }
    }
}

/// One shard's registry entry: its spec, replica endpoints, cumulative
/// counters and the failover policy. All counters are lock-free
/// `hermes-obs` counters — `SHOW STATS` and the `/metrics` collector read
/// them without stopping traffic.
pub struct Shard {
    /// The shard's name, replica set and owned slice.
    pub spec: ShardSpec,
    opts: ConnectOptions,
    policy: FailoverPolicy,
    endpoints: Vec<Endpoint>,
    queries: Counter,
    errors: Counter,
    failovers: Counter,
    hedges_fired: Counter,
    hedges_won: Counter,
    latency_us: Counter,
    bytes_in: Counter,
    bytes_out: Counter,
    /// xorshift state for backoff jitter; seeded from the shard name so runs
    /// are reproducible per shard without any global randomness source.
    rng: AtomicU64,
}

impl Shard {
    /// Creates the registry entry with an explicit [`FailoverPolicy`]; no
    /// connection is attempted until the first call or health probe.
    pub fn with_policy(spec: ShardSpec, opts: ConnectOptions, policy: FailoverPolicy) -> Shard {
        let endpoints = spec
            .endpoints()
            .map(|a| Endpoint::new(a.to_string()))
            .collect();
        // FNV-1a over the name: any nonzero, per-shard-distinct seed works.
        let mut seed = 0xcbf2_9ce4_8422_2325u64;
        for b in spec.name.bytes() {
            seed = (seed ^ b as u64).wrapping_mul(0x1000_0000_01b3);
        }
        Shard {
            spec,
            opts,
            policy,
            endpoints,
            queries: Counter::new(),
            errors: Counter::new(),
            failovers: Counter::new(),
            hedges_fired: Counter::new(),
            hedges_won: Counter::new(),
            latency_us: Counter::new(),
            bytes_in: Counter::new(),
            bytes_out: Counter::new(),
            rng: AtomicU64::new(seed | 1),
        }
    }

    /// The shard's owned `[start_ms, end_ms)` slice.
    pub fn slice(&self) -> (i64, i64) {
        (self.spec.start_ms, self.spec.end_ms)
    }

    /// The replica set, primary first.
    pub fn endpoints(&self) -> &[Endpoint] {
        &self.endpoints
    }

    /// Shard liveness: true while at least one endpoint is alive (updated
    /// by every exchange and by probes).
    pub fn is_alive(&self) -> bool {
        self.endpoints.iter().any(Endpoint::is_alive)
    }

    /// Times the read path failed over to another endpoint.
    pub fn failovers(&self) -> u64 {
        self.failovers.get()
    }

    /// Hedged duplicates fired / hedged duplicates that won the race.
    pub fn hedge_counts(&self) -> (u64, u64) {
        (self.hedges_fired.get(), self.hedges_won.get())
    }

    fn named(&self, addr: &str, detail: String) -> CoordError {
        CoordError::Shard {
            name: self.spec.name.clone(),
            addr: addr.to_string(),
            detail,
        }
    }

    /// Runs `f` over a pooled connection to one specific endpoint — the
    /// **write** path (ingest, DDL, broadcasts) and probes. No failover:
    /// writes must reach every endpoint of the set or fail the statement,
    /// otherwise replicas would diverge. Error taxonomy:
    ///
    /// - a clean answer marks the endpoint alive and re-pools the connection;
    /// - a *server-answered* error (unknown dataset, bad parameters, …)
    ///   keeps the connection when still clean and surfaces the message
    ///   **verbatim** — it is exactly what a single-node engine would say;
    /// - an I/O or protocol failure drops the connection, marks the endpoint
    ///   dead and surfaces a [`CoordError::Shard`] naming shard + endpoint.
    pub fn on_endpoint<T>(
        &self,
        idx: usize,
        f: impl FnOnce(&mut HermesClient) -> Result<T, ClientError>,
    ) -> Result<T, CoordError> {
        let endpoint = &self.endpoints[idx];
        let mut conn = match endpoint.check_out(&self.opts) {
            Ok(conn) => conn,
            Err(e) => {
                endpoint.alive.store(false, Ordering::Relaxed);
                self.errors.inc();
                return Err(self.named(&endpoint.addr, format!("connect failed: {e}")));
            }
        };
        let (out0, in0) = (conn.bytes_out(), conn.bytes_in());
        let started = Instant::now();
        let result = f(&mut conn);
        self.latency_us.add(started.elapsed().as_micros() as u64);
        self.bytes_out.add(conn.bytes_out() - out0);
        self.bytes_in.add(conn.bytes_in() - in0);
        match result {
            Ok(value) => {
                self.queries.inc();
                endpoint.alive.store(true, Ordering::Relaxed);
                endpoint.check_in(conn);
                Ok(value)
            }
            Err(ClientError::Server { message, .. }) => {
                // The endpoint executed the request and said no: the stream
                // is in sync (check_in re-verifies), and the message is
                // relayed verbatim (it matches the single-node error text).
                self.errors.inc();
                endpoint.check_in(conn);
                Err(CoordError::Data(message))
            }
            Err(e) => {
                self.errors.inc();
                endpoint.alive.store(false, Ordering::Relaxed);
                drop(conn);
                Err(self.named(&endpoint.addr, e.to_string()))
            }
        }
    }

    /// The **read** path: executes `call` with failover across the replica
    /// set and optional hedging (see the module docs). Returns the responses
    /// of the first endpoint that produced a non-retryable answer; `Error`
    /// frames of the `Query` class come back as values — they are answers,
    /// identical on every replica.
    pub fn call(
        self: &Arc<Self>,
        call: ReadCall,
        trace: Option<TraceContext>,
    ) -> Result<Vec<Response>, CoordError> {
        let call = Arc::new(call);
        let order = self.endpoint_order();
        let mut attempted = 0usize;
        let mut last_err = None;

        if let (Some(hedge), true) = (self.policy.hedge, order.len() > 1) {
            match self.hedged_pair(&call, trace, order[0], order[1], hedge) {
                Ok(responses) => return Ok(responses),
                Err(e) => {
                    last_err = Some(e);
                    attempted = 2;
                }
            }
        }

        for &idx in &order[attempted.min(order.len())..] {
            if attempted > 0 {
                self.failovers.inc();
                std::thread::sleep(self.jittered_backoff(attempted));
            }
            attempted += 1;
            match self.attempt(idx, &call, trace) {
                Ok(responses) => return Ok(responses),
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.expect("a replica set has at least one endpoint"))
    }

    /// One try on one endpoint: transport failures and retryable-coded
    /// answers (`Deadline`/`Capacity`/`Backpressure`) become `Err` so the
    /// ladder moves on; everything else is final.
    fn attempt(
        &self,
        idx: usize,
        call: &ReadCall,
        trace: Option<TraceContext>,
    ) -> Result<Vec<Response>, CoordError> {
        let endpoint = &self.endpoints[idx];
        match self.run_endpoint(idx, call, trace) {
            Ok(responses) => {
                let retryable = responses.iter().find_map(|r| match r {
                    Response::Error { code, message } if code.is_retryable() => {
                        Some(format!("{code:?}: {message}"))
                    }
                    _ => None,
                });
                match retryable {
                    // The endpoint answered — it is alive — but refused or
                    // timed out; a replica may accept.
                    Some(detail) => {
                        self.errors.inc();
                        Err(self.named(&endpoint.addr, detail))
                    }
                    None => Ok(responses),
                }
            }
            Err(e) => {
                self.errors.inc();
                endpoint.alive.store(false, Ordering::Relaxed);
                Err(self.named(&endpoint.addr, e.to_string()))
            }
        }
    }

    /// The raw exchange on one endpoint, with byte/latency accounting.
    fn run_endpoint(
        &self,
        idx: usize,
        call: &ReadCall,
        trace: Option<TraceContext>,
    ) -> Result<Vec<Response>, ClientError> {
        let endpoint = &self.endpoints[idx];
        let mut conn = endpoint.check_out(&self.opts)?;
        conn.set_trace(trace);
        let (out0, in0) = (conn.bytes_out(), conn.bytes_in());
        let started = Instant::now();
        let result = match call {
            ReadCall::Pipeline(requests) => conn.pipeline(requests),
            ReadCall::Prepared { sql, params } => {
                match conn.exchange(&Request::Prepare { sql: sql.clone() })? {
                    Response::Prepared { handle } => conn
                        .exchange(&Request::ExecutePrepared {
                            handle,
                            params: params.clone(),
                        })
                        .map(|r| vec![r]),
                    error @ Response::Error { .. } => Ok(vec![error]),
                    other => Err(ClientError::Protocol(format!(
                        "expected a Prepared response, got {other:?}"
                    ))),
                }
            }
        };
        conn.set_trace(None);
        self.latency_us.add(started.elapsed().as_micros() as u64);
        self.bytes_out.add(conn.bytes_out() - out0);
        self.bytes_in.add(conn.bytes_in() - in0);
        match result {
            Ok(responses) => {
                self.queries.inc();
                endpoint.alive.store(true, Ordering::Relaxed);
                endpoint.check_in(conn);
                Ok(responses)
            }
            Err(e) => Err(e),
        }
    }

    /// Races the primary attempt against a delayed duplicate on `b`. The
    /// first non-retryable answer wins; the loser's thread finishes in the
    /// background (cancel-by-ignore). `Err` means both endpoints were
    /// exhausted — the caller continues the ladder from the third endpoint.
    fn hedged_pair(
        self: &Arc<Self>,
        call: &Arc<ReadCall>,
        trace: Option<TraceContext>,
        a: usize,
        b: usize,
        hedge: Duration,
    ) -> Result<Vec<Response>, CoordError> {
        let (tx, rx) = mpsc::channel();
        self.spawn_attempt(a, call, trace, tx.clone());
        match rx.recv_timeout(hedge) {
            Ok((_, Ok(responses))) => Ok(responses),
            Ok((_, Err(_e))) => {
                // The primary failed outright within the window: a classic
                // failover, not a hedge.
                self.failovers.inc();
                std::thread::sleep(self.jittered_backoff(1));
                self.attempt(b, call, trace)
            }
            Err(_) => {
                // The primary is slow. Duplicate the call at `b` and take
                // whichever answers first.
                self.hedges_fired.inc();
                self.spawn_attempt(b, call, trace, tx);
                let mut last_err = None;
                for _ in 0..2 {
                    match rx.recv() {
                        Ok((winner, Ok(responses))) => {
                            if winner == b {
                                self.hedges_won.inc();
                            }
                            return Ok(responses);
                        }
                        Ok((_, Err(e))) => last_err = Some(e),
                        Err(_) => break,
                    }
                }
                Err(last_err
                    .unwrap_or_else(|| self.named(&self.endpoints[a].addr, "hedge lost".into())))
            }
        }
    }

    /// Fires one attempt on a detached thread; the result (or the loss) is
    /// reported through `tx`. Detachment is what makes cancel-by-ignore
    /// work: a loser blocked on a slow endpoint cannot stall the winner.
    fn spawn_attempt(
        self: &Arc<Self>,
        idx: usize,
        call: &Arc<ReadCall>,
        trace: Option<TraceContext>,
        tx: mpsc::Sender<(usize, Result<Vec<Response>, CoordError>)>,
    ) {
        let shard = Arc::clone(self);
        let call = Arc::clone(call);
        std::thread::spawn(move || {
            let result = shard.attempt(idx, &call, trace);
            let _ = tx.send((idx, result));
        });
    }

    /// Endpoint indices in attempt order: live endpoints first, primary
    /// first within each class (the sort is stable). Dead endpoints stay in
    /// the ladder — liveness is a hint, not a ban — but are tried last.
    fn endpoint_order(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.endpoints.len()).collect();
        order.sort_by_key(|&i| !self.endpoints[i].is_alive());
        order
    }

    /// Exponential backoff for the `attempt`-th try, jittered to 50–150% via
    /// a per-shard xorshift so replicas are not retried in lockstep.
    fn jittered_backoff(&self, attempt: usize) -> Duration {
        let doubled = self
            .policy
            .backoff
            .saturating_mul(1u32 << (attempt.clamp(1, 5) as u32 - 1));
        let capped = doubled.min(self.policy.max_backoff);
        let mut seed = self.rng.load(Ordering::Relaxed);
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        self.rng.store(seed, Ordering::Relaxed);
        capped.mul_f64(0.5 + (seed % 1024) as f64 / 1024.0)
    }

    /// The shard's `SHOW STATS` rows (scope is added by the caller):
    /// shard-level counters plus one `endpoint.<i>.*` group per replica.
    pub fn stat_rows(&self) -> Vec<(String, i64)> {
        let mut rows = vec![
            ("alive".to_string(), self.is_alive() as i64),
            ("endpoints".to_string(), self.endpoints.len() as i64),
            ("queries".to_string(), self.queries.get() as i64),
            ("errors".to_string(), self.errors.get() as i64),
            ("failovers".to_string(), self.failovers.get() as i64),
            ("hedges_fired".to_string(), self.hedges_fired.get() as i64),
            ("hedges_won".to_string(), self.hedges_won.get() as i64),
            ("latency_us_total".to_string(), self.latency_us.get() as i64),
            ("bytes_in".to_string(), self.bytes_in.get() as i64),
            ("bytes_out".to_string(), self.bytes_out.get() as i64),
            (
                "pooled_connections".to_string(),
                self.endpoints.iter().map(Endpoint::pooled).sum::<usize>() as i64,
            ),
        ];
        for (i, endpoint) in self.endpoints.iter().enumerate() {
            rows.push((format!("endpoint.{i}.alive"), endpoint.is_alive() as i64));
            rows.push((
                format!("endpoint.{i}.pooled_connections"),
                endpoint.pooled() as i64,
            ));
        }
        rows
    }

    /// Appends this shard's Prometheus samples (`hermes_shard_*` labelled by
    /// shard name; per-endpoint gauges also labelled by endpoint address) —
    /// the coordinator registers one collector calling this for every shard
    /// at scrape time.
    pub fn collect_samples(&self, out: &mut Vec<Sample>) {
        let labels = || vec![("shard", self.spec.name.clone())];
        let counter = |name, help, v: u64| Sample {
            name,
            help,
            labels: labels(),
            value: SampleValue::Counter(v),
        };
        out.push(Sample {
            name: "hermes_shard_alive",
            help: "Last observed shard liveness (1 = at least one endpoint alive)",
            labels: labels(),
            value: SampleValue::Gauge(self.is_alive() as u64),
        });
        for endpoint in &self.endpoints {
            out.push(Sample {
                name: "hermes_shard_endpoint_alive",
                help: "Last observed endpoint liveness (1 = alive)",
                labels: vec![
                    ("shard", self.spec.name.clone()),
                    ("endpoint", endpoint.addr.clone()),
                ],
                value: SampleValue::Gauge(endpoint.is_alive() as u64),
            });
            out.push(Sample {
                name: "hermes_shard_endpoint_pooled_connections",
                help: "Idle pooled connections to the endpoint",
                labels: vec![
                    ("shard", self.spec.name.clone()),
                    ("endpoint", endpoint.addr.clone()),
                ],
                value: SampleValue::Gauge(endpoint.pooled() as u64),
            });
        }
        out.push(counter(
            "hermes_shard_queries_total",
            "Successful exchanges with the shard",
            self.queries.get(),
        ));
        out.push(counter(
            "hermes_shard_errors_total",
            "Failed exchanges with the shard (answered or broken)",
            self.errors.get(),
        ));
        out.push(counter(
            "hermes_shard_failovers_total",
            "Reads retried on another endpoint of the replica set",
            self.failovers.get(),
        ));
        out.push(counter(
            "hermes_shard_hedges_fired_total",
            "Hedged duplicate reads fired at a replica",
            self.hedges_fired.get(),
        ));
        out.push(counter(
            "hermes_shard_hedges_won_total",
            "Hedged duplicates that answered before the primary",
            self.hedges_won.get(),
        ));
        out.push(counter(
            "hermes_shard_latency_us_total",
            "Cumulative downstream exchange latency in microseconds",
            self.latency_us.get(),
        ));
        out.push(counter(
            "hermes_shard_bytes_in_total",
            "Bytes read from the shard",
            self.bytes_in.get(),
        ));
        out.push(counter(
            "hermes_shard_bytes_out_total",
            "Bytes written to the shard",
            self.bytes_out.get(),
        ));
        out.push(Sample {
            name: "hermes_shard_pooled_connections",
            help: "Idle pooled connections to the shard (all endpoints)",
            labels: labels(),
            value: SampleValue::Gauge(
                self.endpoints.iter().map(Endpoint::pooled).sum::<usize>() as u64
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ShardSpec {
        ShardSpec {
            name: "lonely".into(),
            addr: "127.0.0.1:1".into(), // reserved port: connections fail fast
            replicas: vec!["127.0.0.1:2".into()],
            start_ms: i64::MIN,
            end_ms: i64::MAX,
        }
    }

    fn opts() -> ConnectOptions {
        ConnectOptions {
            retries: 0,
            connect_timeout: std::time::Duration::from_millis(200),
            ..ConnectOptions::default()
        }
    }

    fn fast_policy() -> FailoverPolicy {
        FailoverPolicy {
            backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(2),
            ..FailoverPolicy::default()
        }
    }

    #[test]
    fn unreachable_shard_yields_a_named_error_and_goes_dead() {
        let shard = Shard::with_policy(spec(), opts(), FailoverPolicy::default());
        let err = shard
            .on_endpoint(0, |c| c.query("SHOW THREADS;"))
            .unwrap_err();
        match &err {
            CoordError::Shard { name, addr, .. } => {
                assert_eq!(name, "lonely");
                assert_eq!(addr, "127.0.0.1:1");
            }
            other => panic!("expected a named shard error, got {other:?}"),
        }
        assert!(err.to_string().starts_with("shard 'lonely' (127.0.0.1:1):"));
        assert!(!shard.is_alive());
        // Probing the replica too (as `Coordinator::probe_all` does) leaves
        // the shard dead.
        assert!(shard
            .on_endpoint(1, |c| c.query("SHOW THREADS;").map(|_| ()))
            .is_err());
        assert!(!shard.is_alive());
        let rows = shard.stat_rows();
        assert!(rows.contains(&("alive".to_string(), 0)));
        assert!(rows.contains(&("endpoints".to_string(), 2)));
        assert!(rows.iter().any(|(m, v)| m == "errors" && *v >= 2));
    }

    #[test]
    fn read_ladder_walks_every_endpoint_and_counts_failovers() {
        let shard = Arc::new(Shard::with_policy(spec(), opts(), fast_policy()));
        let err = shard
            .call(
                ReadCall::Pipeline(vec![Request::Query {
                    sql: "SHOW THREADS;".into(),
                }]),
                None,
            )
            .unwrap_err();
        // Both (unreachable) endpoints were tried; the error names the last.
        match err {
            CoordError::Shard { addr, .. } => assert_eq!(addr, "127.0.0.1:2"),
            other => panic!("expected a named shard error, got {other:?}"),
        }
        assert_eq!(shard.failovers(), 1);
        assert_eq!(shard.hedge_counts(), (0, 0));
        assert!(!shard.endpoints()[0].is_alive());
        assert!(!shard.endpoints()[1].is_alive());
    }

    #[test]
    fn backoff_is_jittered_and_bounded() {
        let shard = Shard::with_policy(spec(), opts(), FailoverPolicy::default());
        for attempt in 1..6 {
            let d = shard.jittered_backoff(attempt);
            assert!(d >= Duration::from_millis(5), "{d:?} too small");
            assert!(d <= Duration::from_millis(300), "{d:?} too large");
        }
        // Distinct draws: the xorshift state advances.
        let (a, b) = (shard.jittered_backoff(1), shard.jittered_backoff(1));
        assert!(a != b || shard.jittered_backoff(1) != b);
    }
}
