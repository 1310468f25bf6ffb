//! The serving core of both binaries: one poller thread multiplexing every
//! socket, a bounded worker pool answering requests through a [`Service`].
//!
//! ## Shape
//!
//! The loop thread owns all sockets and never executes a statement. It
//! accepts connections, reads whatever bytes are ready, slices them into
//! frames, and queues parsed requests per connection. Statements run on a
//! small worker pool; finished responses come back over a completion channel
//! (a `UnixStream` pair doubling as the wakeup byte) and are flushed as the
//! sockets drain. A blocked worker therefore stalls *queries*, never the
//! loop: ten thousand idle connections cost file descriptors and buffers,
//! not OS threads.
//!
//! ## Connection state travels with jobs
//!
//! A connection's [`Service::Conn`] (the engine's session and prepared
//! table, or the coordinator's statement table) moves into the worker with
//! each dispatched job and comes back with the completion, so at most one
//! statement per connection executes at a time — exactly the ordering the
//! protocol promises — while different connections execute on different
//! workers freely. A panic inside [`Service::answer`] is caught at this
//! boundary: the state still comes back, the client gets an
//! [`ErrorCode::Query`] error, and the worker lives on.
//!
//! ## Admission control
//!
//! Three bounds keep a flood from turning into unbounded memory:
//!
//! - per-connection pipeline depth (`max_conn_pending`): past it the loop
//!   stops reading that socket, pushing backpressure into TCP;
//! - global pending work (`max_pending`): past it newly parsed requests are
//!   answered immediately with a typed [`ErrorCode::Backpressure`] error,
//!   in pipeline order, without executing;
//! - the connection cap (`max_connections`): over-cap clients complete the
//!   handshake, get a typed [`ErrorCode::Capacity`] error to their first
//!   request, and are disconnected.
//!
//! Per-request deadlines are enforced in [`answer_job`]: a request that
//! waited out its deadline in the queue is answered with a typed
//! [`ErrorCode::Deadline`] error without running, and one that finished too
//! late has its result replaced by the same error — unless it is a command
//! tag: a write that committed is answered as committed, late or not, so a
//! retrying client (or coordinator) never applies it twice.
//!
//! [`ErrorCode::Backpressure`]: crate::protocol::ErrorCode::Backpressure
//! [`ErrorCode::Capacity`]: crate::protocol::ErrorCode::Capacity
//! [`ErrorCode::Deadline`]: crate::protocol::ErrorCode::Deadline
//! [`ErrorCode::Query`]: crate::protocol::ErrorCode::Query

use crate::metrics::ServerMetrics;
use crate::poll::{Interest, PollEvent, Poller};
use crate::protocol::{
    decode_request_body, read_handshake, write_handshake, write_response, ErrorCode, Request,
    Response, MAX_MESSAGE_BYTES,
};
use crate::server::{Server, ServerConfig, Service};
use hermes_obs::{slow_query_line, SpanStore, TraceContext};
use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Poll token of the listening socket.
const LISTENER: usize = 0;
/// Poll token of the completion-wakeup stream.
const WAKER: usize = 1;
/// First token handed to a connection; tokens are never reused, so a stale
/// completion can never be delivered to a different connection.
const FIRST_CONN: usize = 2;

/// Most bytes read from one socket per readiness event, so one firehose
/// client cannot starve the rest of the loop (level-triggered polling
/// re-reports whatever is left).
const READ_QUANTUM: usize = 256 * 1024;

/// One statement dispatched to the worker pool.
struct Job<C> {
    token: usize,
    state: Box<C>,
    request: Request,
    trace: Option<TraceContext>,
    received: Instant,
}

/// One finished statement on its way back to the loop: the returned
/// connection state and the fully encoded response frame.
struct Completion<C> {
    token: usize,
    state: Box<C>,
    bytes: Vec<u8>,
}

/// State shared between the loop thread and the workers.
struct WorkerShared<C> {
    /// Pending jobs plus the closed flag workers exit on.
    queue: Mutex<(VecDeque<Job<C>>, bool)>,
    available: Condvar,
    completions: Mutex<Vec<Completion<C>>>,
    /// Write half of the wakeup pair; one byte per completion batch.
    waker: Mutex<UnixStream>,
}

impl<C> WorkerShared<C> {
    fn complete(&self, completion: Completion<C>) {
        self.completions.lock().unwrap().push(completion);
        // A full pipe means wakeup bytes are already pending — that is all
        // the signal the loop needs, so the error is safely ignored.
        let _ = self.waker.lock().unwrap().write(&[1]);
    }
}

/// A parsed request (or a pre-decided rejection) waiting in a connection's
/// pipeline queue. Rejections ride the same queue so error frames go out in
/// pipeline order.
enum Parsed {
    Execute {
        request: Request,
        trace: Option<TraceContext>,
        received: Instant,
    },
    Reject {
        response: Response,
        close: bool,
    },
}

/// Per-connection state owned by the loop thread.
struct Conn<C> {
    stream: TcpStream,
    conn_id: u64,
    /// Raw inbound bytes not yet sliced into frames.
    read_buf: Vec<u8>,
    /// Parse cursor into `read_buf`; consumed bytes are compacted away
    /// after each parse pass.
    read_pos: usize,
    /// Encoded outbound frames not yet accepted by the socket.
    write_buf: Vec<u8>,
    write_pos: usize,
    /// Whether the client's preamble has been verified.
    handshaken: bool,
    /// Present while no job is in flight; travels with the job otherwise.
    state: Option<Box<C>>,
    /// Parsed requests not yet dispatched.
    queue: VecDeque<Parsed>,
    /// Over the connection cap: first request is answered with a capacity
    /// error, then the connection closes.
    rejected: bool,
    /// Reads paused by per-connection backpressure.
    read_paused: bool,
    /// Close once `write_buf` fully drains.
    close_after_flush: bool,
    /// Interest currently registered with the poller.
    interest: Interest,
}

impl<C> Conn<C> {
    fn desired_interest(&self) -> Interest {
        Interest {
            readable: !self.read_paused && !self.close_after_flush,
            writable: self.write_pos < self.write_buf.len(),
        }
    }

    /// Appends a loop-side error frame (handshake, framing, admission) to
    /// the write buffer, accounting the outbound frame bytes.
    fn push_response(&mut self, response: &Response, metrics: &ServerMetrics) {
        let before = self.write_buf.len();
        encode(response, &mut self.write_buf);
        metrics
            .bytes_out
            .add((self.write_buf.len() - before) as u64);
    }
}

/// Appends one encoded response frame to `out`. Only a frame over the wire
/// cap can fail against a `Vec`; it is replaced by a protocol error, so the
/// stream stays in sync and the client learns why. Returns whether the frame
/// that went out is an error.
fn encode(response: &Response, out: &mut Vec<u8>) -> bool {
    let before = out.len();
    match write_response(out, response) {
        Ok(_) => matches!(response, Response::Error { .. }),
        Err(e) => {
            out.truncate(before);
            write_response(out, &oversize_error(&e)).expect("error frames fit the wire cap");
            true
        }
    }
}

/// Loop-wide bookkeeping shared by the handler functions.
struct Ctx<S: Service> {
    service: Arc<S>,
    config: ServerConfig,
    metrics: Arc<ServerMetrics>,
    conn_registry: Arc<Mutex<Vec<(u64, TcpStream)>>>,
    shared: Arc<WorkerShared<S::Conn>>,
    /// Admitted (non-rejected) live connections.
    admitted: usize,
    /// Parsed requests sitting in connection queues.
    queued: usize,
    /// Jobs dispatched to workers and not yet completed.
    inflight: usize,
}

impl<S: Service> Ctx<S> {
    fn sync_gauges(&self) {
        self.metrics.pending_requests.set(self.queued as u64);
        self.metrics.inflight_queries.set(self.inflight as u64);
    }
}

/// Builds the typed error frame for a connection turned away at the cap.
fn capacity_error(max_connections: usize) -> Response {
    Response::Error {
        code: ErrorCode::Capacity,
        message: format!("server at connection capacity ({max_connections} active)"),
    }
}

/// Builds the typed error frame for a request that overran its deadline.
fn deadline_error(deadline_ms: u64) -> Response {
    Response::Error {
        code: ErrorCode::Deadline,
        message: format!("deadline exceeded: request not answered within {deadline_ms}ms"),
    }
}

/// Builds the typed error frame for an unparseable or incompatible peer.
fn protocol_error(e: &io::Error) -> Response {
    Response::Error {
        code: ErrorCode::Protocol,
        message: e.to_string(),
    }
}

/// Builds the typed error frame for a result frame over the wire cap.
fn oversize_error(e: &io::Error) -> Response {
    Response::Error {
        code: ErrorCode::Protocol,
        message: format!("result too large for the wire protocol: {e}"),
    }
}

/// Builds the typed error frame for a request refused by global admission
/// control.
fn backpressure_error(max_pending: usize) -> Response {
    Response::Error {
        code: ErrorCode::Backpressure,
        message: format!("server overloaded: {max_pending} requests already pending"),
    }
}

/// Runs the serving core over a bound [`Server`] until shut down.
pub(crate) fn run<S: Service>(server: Server<S>) -> io::Result<()> {
    let Server {
        listener,
        service,
        config,
        metrics,
        spans,
        shutdown,
        conns: conn_registry,
        ..
    } = server;

    listener.set_nonblocking(true)?;
    let (wake_rx, wake_tx) = UnixStream::pair()?;
    wake_rx.set_nonblocking(true)?;
    wake_tx.set_nonblocking(true)?;

    let mut poller = Poller::new()?;
    poller.register(listener.as_raw_fd(), LISTENER, Interest::READABLE)?;
    poller.register(wake_rx.as_raw_fd(), WAKER, Interest::READABLE)?;

    let shared = Arc::new(WorkerShared {
        queue: Mutex::new((VecDeque::new(), false)),
        available: Condvar::new(),
        completions: Mutex::new(Vec::new()),
        waker: Mutex::new(wake_tx),
    });

    let worker_count = match config.workers {
        0 => service.default_workers(&config),
        n => n,
    };
    for _ in 0..worker_count {
        let shared = Arc::clone(&shared);
        let env = WorkerEnv {
            service: Arc::clone(&service),
            metrics: Arc::clone(&metrics),
            spans: Arc::clone(&spans),
            slow_query_ms: config.slow_query_ms,
            deadline_ms: config.deadline_ms,
        };
        thread::spawn(move || worker_loop(&shared, &env));
    }

    let mut ctx = Ctx {
        service,
        config,
        metrics,
        conn_registry,
        shared,
        admitted: 0,
        queued: 0,
        inflight: 0,
    };
    let mut conns: HashMap<usize, Conn<S::Conn>> = HashMap::new();
    let mut next_token = FIRST_CONN;
    let mut next_conn_id: u64 = 0;
    let mut events: Vec<PollEvent> = Vec::new();

    loop {
        poller.wait(&mut events)?;
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        for ev in std::mem::take(&mut events) {
            match ev.token {
                LISTENER => accept_ready(
                    &listener,
                    &mut conns,
                    &mut next_token,
                    &mut next_conn_id,
                    &mut ctx,
                    &mut poller,
                ),
                WAKER => {
                    drain_waker(&wake_rx);
                    handle_completions(&mut conns, &mut ctx, &mut poller);
                }
                token => {
                    if ev.readable || ev.hangup {
                        handle_readable(token, &mut conns, &mut ctx, &mut poller);
                    }
                    if ev.writable {
                        handle_writable(token, &mut conns, &mut ctx, &mut poller);
                    }
                }
            }
        }
    }

    // Stop the workers: whoever is mid-statement finishes it and exits; the
    // loop does not wait for them.
    ctx.shared.queue.lock().unwrap().1 = true;
    ctx.shared.available.notify_all();
    Ok(())
}

/// What every worker needs besides the job itself.
struct WorkerEnv<S> {
    service: Arc<S>,
    metrics: Arc<ServerMetrics>,
    spans: Arc<SpanStore>,
    slow_query_ms: Option<u64>,
    deadline_ms: Option<u64>,
}

/// Worker thread: pull a job, answer it through the travelling connection
/// state, hand the state and the encoded frame back to the loop.
fn worker_loop<S: Service>(shared: &WorkerShared<S::Conn>, env: &WorkerEnv<S>) {
    loop {
        let job = {
            let mut guard = shared.queue.lock().unwrap();
            loop {
                if let Some(job) = guard.0.pop_front() {
                    break Some(job);
                }
                if guard.1 {
                    break None;
                }
                guard = shared.available.wait(guard).unwrap();
            }
        };
        let Some(mut job) = job else { return };
        let bytes = answer_job(env, &mut job.state, job.request, job.trace, job.received);
        shared.complete(Completion {
            token: job.token,
            state: job.state,
            bytes,
        });
    }
}

/// Fully answers one request and encodes its frame: deadline admission,
/// the service's answer with panics contained, latency accounting, deadline
/// enforcement on the way out, the slow-query log, and one served-or-error
/// count taken after encoding. `received` is when the request was parsed
/// off the socket — possibly well before execution starts, which is exactly
/// what the deadline must measure.
fn answer_job<S: Service>(
    env: &WorkerEnv<S>,
    state: &mut S::Conn,
    request: Request,
    trace: Option<TraceContext>,
    received: Instant,
) -> Vec<u8> {
    let metrics = &*env.metrics;
    let deadline = env.deadline_ms.map(|ms| (ms, Duration::from_millis(ms)));
    let response = match deadline {
        // Already late before executing: don't burn a worker on a result
        // the client has been told not to wait for.
        Some((ms, limit)) if received.elapsed() > limit => {
            metrics.deadline_misses.inc();
            deadline_error(ms)
        }
        _ => {
            let started = Instant::now();
            let answered = panic::catch_unwind(AssertUnwindSafe(|| {
                env.service
                    .answer(state, request, trace, metrics, &env.spans)
            }));
            let (mut response, traced) =
                answered.unwrap_or_else(|payload| (internal_error(&*payload, metrics), None));
            let elapsed = started.elapsed();
            metrics.latency.record(elapsed);
            if let Some((ms, limit)) = deadline {
                if received.elapsed() > limit {
                    metrics.deadline_misses.inc();
                    // A late command tag reports a write that already
                    // committed (and was journaled): answering it as a
                    // retryable Deadline would invite a second apply.
                    if !matches!(response, Response::Command(_)) {
                        response = deadline_error(ms);
                    }
                }
            }
            if let (Some(threshold), Some((trace_id, statement))) = (env.slow_query_ms, traced) {
                let ms = elapsed.as_secs_f64() * 1e3;
                if ms >= threshold as f64 {
                    metrics.slow_queries.inc();
                    eprintln!("{}", slow_query_line(ms, trace_id, &statement));
                }
            }
            response
        }
    };
    let mut bytes = Vec::new();
    if encode(&response, &mut bytes) {
        metrics.query_errors.inc();
    } else {
        metrics.queries_served.inc();
    }
    bytes
}

/// The error frame answering a request whose service call panicked, and
/// one count on `hermes_server_panics_total`. [`ErrorCode::Internal`] is not
/// retryable: the statement may have had effects before it failed.
///
/// [`ErrorCode::Internal`]: crate::protocol::ErrorCode::Internal
fn internal_error(payload: &(dyn Any + Send), metrics: &ServerMetrics) -> Response {
    metrics.panics.inc();
    let message = payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("panic");
    Response::Error {
        code: ErrorCode::Internal,
        message: format!("internal error: {message}"),
    }
}

/// Accepts every connection the listener has ready.
fn accept_ready<S: Service>(
    listener: &TcpListener,
    conns: &mut HashMap<usize, Conn<S::Conn>>,
    next_token: &mut usize,
    next_conn_id: &mut u64,
    ctx: &mut Ctx<S>,
    poller: &mut Poller,
) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            // Transient accept failures (EMFILE, aborted handshakes) must
            // not take the server down.
            Err(_) => break,
        };
        if stream.set_nonblocking(true).is_err() {
            continue;
        }
        stream.set_nodelay(true).ok();

        let rejected = ctx.admitted >= ctx.config.max_connections;
        let conn_id = *next_conn_id;
        *next_conn_id += 1;
        if rejected {
            ctx.metrics.connections_rejected.inc();
        } else {
            ctx.metrics.connections_accepted.inc();
            ctx.metrics.connections_active.inc();
            ctx.admitted += 1;
            if let Ok(clone) = stream.try_clone() {
                ctx.conn_registry.lock().unwrap().push((conn_id, clone));
            }
        }

        let token = *next_token;
        *next_token += 1;
        let mut conn = Conn {
            stream,
            conn_id,
            read_buf: Vec::new(),
            read_pos: 0,
            write_buf: Vec::new(),
            write_pos: 0,
            handshaken: false,
            state: Some(Box::new(ctx.service.connect())),
            queue: VecDeque::new(),
            rejected,
            read_paused: false,
            close_after_flush: false,
            interest: Interest::NONE,
        };
        // The server speaks first: queue the preamble and try to push it out
        // before registering, so most handshakes finish without a writable
        // wakeup.
        write_handshake(&mut conn.write_buf).expect("infallible write to Vec");
        if flush(&mut conn).is_err() {
            finish_conn(conn, ctx);
            continue;
        }
        let interest = conn.desired_interest();
        conn.interest = interest;
        if poller
            .register(conn.stream.as_raw_fd(), token, interest)
            .is_ok()
        {
            conns.insert(token, conn);
        } else {
            finish_conn(conn, ctx);
        }
    }
}

/// Empties the wakeup stream so level-triggered polling goes quiet until
/// the next completion.
fn drain_waker(wake_rx: &UnixStream) {
    let mut buf = [0u8; 64];
    while matches!((&*wake_rx).read(&mut buf), Ok(n) if n > 0) {}
}

/// Folds finished jobs back into their connections and flushes.
fn handle_completions<S: Service>(
    conns: &mut HashMap<usize, Conn<S::Conn>>,
    ctx: &mut Ctx<S>,
    poller: &mut Poller,
) {
    let done = std::mem::take(&mut *ctx.shared.completions.lock().unwrap());
    for completion in done {
        ctx.inflight -= 1;
        let token = completion.token;
        let Some(conn) = conns.get_mut(&token) else {
            // The connection died while its statement ran; its state and
            // the encoded frame are simply dropped.
            continue;
        };
        conn.state = Some(completion.state);
        let before = conn.write_buf.len();
        conn.write_buf.extend_from_slice(&completion.bytes);
        ctx.metrics
            .bytes_out
            .add((conn.write_buf.len() - before) as u64);
        service_conn(token, conns, ctx, poller);
    }
    ctx.sync_gauges();
}

/// Reads, parses and dispatches whatever one socket has ready.
fn handle_readable<S: Service>(
    token: usize,
    conns: &mut HashMap<usize, Conn<S::Conn>>,
    ctx: &mut Ctx<S>,
    poller: &mut Poller,
) {
    let Some(conn) = conns.get_mut(&token) else {
        return;
    };
    let mut tmp = [0u8; 16 * 1024];
    let mut total = 0;
    let eof = loop {
        if conn.read_paused || conn.close_after_flush || total >= READ_QUANTUM {
            break false;
        }
        match conn.stream.read(&mut tmp) {
            Ok(0) => break true,
            Ok(n) => {
                conn.read_buf.extend_from_slice(&tmp[..n]);
                total += n;
                if n < tmp.len() {
                    break false;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break false,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break true,
        }
    };
    parse_frames(token, conns, ctx);
    if eof {
        close_conn(token, conns, ctx, poller);
    } else {
        service_conn(token, conns, ctx, poller);
    }
    ctx.sync_gauges();
}

/// Flushes a socket that reported writable.
fn handle_writable<S: Service>(
    token: usize,
    conns: &mut HashMap<usize, Conn<S::Conn>>,
    ctx: &mut Ctx<S>,
    poller: &mut Poller,
) {
    if conns.contains_key(&token) {
        service_conn(token, conns, ctx, poller);
    }
}

/// Slices the connection's read buffer into frames: the handshake first,
/// then length-prefixed requests, each admitted (or rejected) into the
/// pipeline queue.
fn parse_frames<S: Service>(
    token: usize,
    conns: &mut HashMap<usize, Conn<S::Conn>>,
    ctx: &mut Ctx<S>,
) {
    let Some(conn) = conns.get_mut(&token) else {
        return;
    };
    if !conn.handshaken {
        if conn.read_buf.len() < 7 {
            return;
        }
        match read_handshake(&mut &conn.read_buf[..7]) {
            Ok(_) => {
                conn.read_pos = 7;
                conn.handshaken = true;
            }
            Err(e) => {
                ctx.metrics.query_errors.inc();
                let resp = protocol_error(&e);
                conn.push_response(&resp, &ctx.metrics);
                conn.close_after_flush = true;
                return;
            }
        }
    }
    while !conn.close_after_flush {
        let avail = &conn.read_buf[conn.read_pos..];
        if avail.len() < 4 {
            break;
        }
        let length = u32::from_be_bytes([avail[0], avail[1], avail[2], avail[3]]);
        if length == 0 || length > MAX_MESSAGE_BYTES {
            ctx.metrics.query_errors.inc();
            let e = io::Error::new(
                io::ErrorKind::InvalidData,
                format!("invalid message length {length}"),
            );
            let resp = protocol_error(&e);
            conn.push_response(&resp, &ctx.metrics);
            conn.close_after_flush = true;
            break;
        }
        let frame_len = 4 + length as usize;
        if avail.len() < frame_len {
            break;
        }
        // Decoded straight out of the read buffer: a multi-megabyte ingest
        // frame is never copied a second time.
        match decode_request_body(&avail[4..frame_len]) {
            Ok((request, trace)) => {
                conn.read_pos += frame_len;
                ctx.metrics.bytes_in.add(frame_len as u64);
                let received = Instant::now();
                if conn.rejected {
                    conn.queue.push_back(Parsed::Reject {
                        response: capacity_error(ctx.config.max_connections),
                        close: true,
                    });
                } else if ctx.queued + ctx.inflight >= ctx.config.max_pending {
                    ctx.metrics.backpressure_rejections.inc();
                    conn.queue.push_back(Parsed::Reject {
                        response: backpressure_error(ctx.config.max_pending),
                        close: false,
                    });
                } else {
                    ctx.queued += 1;
                    conn.queue.push_back(Parsed::Execute {
                        request,
                        trace,
                        received,
                    });
                }
                if conn.queue.len() >= ctx.config.max_conn_pending {
                    // The pipeline is deep enough: stop reading and let TCP
                    // push back on the sender until the queue drains.
                    conn.read_paused = true;
                    break;
                }
            }
            Err(e) => {
                // A malformed frame leaves the stream unparseable: report
                // and drop the connection rather than guessing at a resync
                // point.
                ctx.metrics.query_errors.inc();
                let resp = protocol_error(&e.into());
                conn.push_response(&resp, &ctx.metrics);
                conn.close_after_flush = true;
                break;
            }
        }
    }
    if conn.read_pos > 0 {
        conn.read_buf.drain(..conn.read_pos);
        conn.read_pos = 0;
        // A multi-megabyte frame must not pin its buffer for the life of
        // the connection (or during the statement it carries).
        conn.read_buf.shrink_to(READ_QUANTUM);
    }
}

/// Dispatches queued work, flushes outbound bytes, resumes paused reads and
/// reconciles poller interest — the common tail of every connection event.
fn service_conn<S: Service>(
    token: usize,
    conns: &mut HashMap<usize, Conn<S::Conn>>,
    ctx: &mut Ctx<S>,
    poller: &mut Poller,
) {
    let Some(conn) = conns.get_mut(&token) else {
        return;
    };
    // Dispatch at most one job (the connection state travels with it); emit any
    // rejections ahead of it in pipeline order.
    while conn.state.is_some() && !conn.close_after_flush {
        match conn.queue.pop_front() {
            Some(Parsed::Execute {
                request,
                trace,
                received,
            }) => {
                let state = conn.state.take().expect("checked above");
                ctx.queued -= 1;
                ctx.inflight += 1;
                ctx.shared.queue.lock().unwrap().0.push_back(Job {
                    token,
                    state,
                    request,
                    trace,
                    received,
                });
                ctx.shared.available.notify_one();
            }
            Some(Parsed::Reject { response, close }) => {
                conn.push_response(&response, &ctx.metrics);
                if close {
                    conn.close_after_flush = true;
                }
            }
            None => break,
        }
    }
    if conn.read_paused && conn.queue.len() < ctx.config.max_conn_pending / 2 {
        conn.read_paused = false;
    }
    if flush(conn).is_err() {
        close_conn(token, conns, ctx, poller);
        return;
    }
    let flushed = conn.write_pos >= conn.write_buf.len();
    if flushed && conn.close_after_flush {
        close_conn(token, conns, ctx, poller);
        return;
    }
    let want = conn.desired_interest();
    if want != conn.interest {
        conn.interest = want;
        let fd = conn.stream.as_raw_fd();
        if poller.modify(fd, token, want).is_err() {
            close_conn(token, conns, ctx, poller);
        }
    }
}

/// Writes as much buffered output as the socket accepts right now.
fn flush<C>(conn: &mut Conn<C>) -> io::Result<()> {
    while conn.write_pos < conn.write_buf.len() {
        match conn.stream.write(&conn.write_buf[conn.write_pos..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => conn.write_pos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    if conn.write_pos >= conn.write_buf.len() {
        conn.write_buf.clear();
        conn.write_buf.shrink_to(READ_QUANTUM);
        conn.write_pos = 0;
    }
    Ok(())
}

/// Removes a connection from the poller and the map, then settles its
/// bookkeeping.
fn close_conn<S: Service>(
    token: usize,
    conns: &mut HashMap<usize, Conn<S::Conn>>,
    ctx: &mut Ctx<S>,
    poller: &mut Poller,
) {
    let Some(conn) = conns.remove(&token) else {
        return;
    };
    let _ = poller.deregister(conn.stream.as_raw_fd());
    finish_conn(conn, ctx);
}

/// Settles a closed connection's bookkeeping: live-connection accounting
/// and the pending requests that will now never run. An in-flight job is
/// left to finish — its completion finds no connection and is dropped.
fn finish_conn<S: Service>(conn: Conn<S::Conn>, ctx: &mut Ctx<S>) {
    if !conn.rejected {
        ctx.metrics.connections_active.dec();
        ctx.admitted -= 1;
        ctx.conn_registry
            .lock()
            .unwrap()
            .retain(|(id, _)| *id != conn.conn_id);
    }
    let abandoned = conn
        .queue
        .iter()
        .filter(|p| matches!(p, Parsed::Execute { .. }))
        .count();
    ctx.queued -= abandoned;
    ctx.sync_gauges();
}
