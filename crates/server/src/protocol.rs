//! The Hermes wire protocol: length-prefixed binary messages carrying the
//! typed [`Value`]/[`Frame`] results across a TCP connection.
//!
//! Every message is one *wire frame*:
//!
//! ```text
//! +-----------------+-----------+------------------+
//! | length: u32 BE  | kind: u8  | payload bytes    |
//! +-----------------+-----------+------------------+
//! ```
//!
//! `length` counts the kind byte plus the payload, so an empty message has
//! length 1. All integers are big-endian; floats travel as their IEEE-754
//! bit pattern; strings as `u32` byte length + UTF-8 bytes. The full message
//! catalogue and payload layouts are documented in `docs/PROTOCOL.md`.
//!
//! The encoding is deliberately symmetric: [`Request`]s flow client → server,
//! [`Response`]s flow back, and both sides use the same
//! [`read_request`]/[`write_response`] (and [`read_response`]/
//! [`write_request`]) pairs, which also report the byte counts feeding the
//! server's `bytes_in`/`bytes_out` metrics.

use hermes_obs::TraceContext;
use hermes_retratree::{QutPartial, QutStats};
use hermes_s2t::{Cluster, KernelCounters, S2TPhaseTimings};
use hermes_sql::{ColumnDef, CommandStatus, CommandTag, Frame, QueryOutcome, Value, ValueType};
use hermes_trajectory::{Point, SubTrajectory, SubTrajectoryId, Timestamp, Trajectory};
use std::fmt;
use std::io::{self, Read, Write};

/// Upper bound on one wire frame (kind byte + payload). Large enough for a
/// bulk trajectory ingest, small enough to stop a corrupt length prefix from
/// asking the peer to allocate gigabytes.
pub const MAX_MESSAGE_BYTES: u32 = 64 * 1024 * 1024;

/// Version of the wire protocol spoken by this build. Bumped whenever the
/// message catalogue or a payload layout changes incompatibly; peers with a
/// different version are rejected during the handshake.
///
/// v3 prefixed every request payload with an optional trace-context field
/// (`u8` flag, then `trace_id`/`parent_span_id` as `u64` when set) so the
/// coordinator can propagate distributed per-query traces to shards.
///
/// v4 appended the voting-kernel counters (`kernel_evaluated` /
/// `kernel_pruned`, two `u64`s after the phase timings) to the shard-partial
/// stats block, so the coordinator's merged `QutStats` carries the pruning
/// ladder's work counters across the wire.
///
/// v5 prefixed the error-response payload with a one-byte [`ErrorCode`]
/// (query / protocol / capacity / backpressure / deadline) so clients can
/// distinguish admission-control rejections from statement failures.
pub const PROTOCOL_VERSION: u16 = 5;

/// Magic bytes opening the connection preamble.
pub const HANDSHAKE_MAGIC: [u8; 4] = *b"HRMS";

/// Writes this side's 7-byte connection preamble:
/// `"HRMS"` + version `u16` BE + flags `u8` (reserved, zero).
///
/// The server speaks first on accept; the client answers with its own
/// preamble after verifying the server's. Only after both preambles are
/// exchanged do length-prefixed messages flow.
pub fn write_handshake(w: &mut impl Write) -> io::Result<()> {
    w.write_all(&HANDSHAKE_MAGIC)?;
    w.write_all(&PROTOCOL_VERSION.to_be_bytes())?;
    w.write_all(&[0u8])?;
    w.flush()
}

/// Reads and verifies the peer's preamble, returning the peer's version.
/// A wrong magic (not a Hermes endpoint) or a version mismatch comes back as
/// `ErrorKind::InvalidData` so callers can surface a clean, typed error
/// instead of a decode failure further in.
pub fn read_handshake(r: &mut impl Read) -> io::Result<u16> {
    let mut buf = [0u8; 7];
    r.read_exact(&mut buf)?;
    if buf[..4] != HANDSHAKE_MAGIC {
        return Err(
            DecodeError("bad handshake magic: peer is not a Hermes endpoint".into()).into(),
        );
    }
    let version = u16::from_be_bytes([buf[4], buf[5]]);
    if version != PROTOCOL_VERSION {
        return Err(DecodeError(format!(
            "protocol version mismatch: peer speaks v{version}, this build speaks v{PROTOCOL_VERSION}"
        ))
        .into());
    }
    Ok(version)
}

/// A malformed message (bad tag, truncated payload, non-UTF-8 string, …).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub String);

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wire protocol decode error: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

impl From<DecodeError> for io::Error {
    fn from(e: DecodeError) -> Self {
        io::Error::new(io::ErrorKind::InvalidData, e.to_string())
    }
}

/// Client → server messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Parse and execute one statement.
    Query {
        /// Statement text in the Hermes SQL dialect.
        sql: String,
    },
    /// Parse a statement (placeholders allowed) into a server-side prepared
    /// statement; answered by [`Response::Prepared`].
    Prepare {
        /// Statement text, may contain `$n` placeholders.
        sql: String,
    },
    /// Execute a prepared statement with parameters bound to its
    /// placeholders. Handles are per connection.
    ExecutePrepared {
        /// Handle from [`Response::Prepared`].
        handle: u32,
        /// Values for `$1..$n`.
        params: Vec<Value>,
    },
    /// Bulk-load trajectories into a dataset (created on first ingest).
    Ingest {
        /// Target dataset.
        dataset: String,
        /// The trajectories to append.
        trajectories: Vec<Trajectory>,
    },
    /// Shard-scope: answer the owned share of `QUT(W)` without the final
    /// cross-boundary merge (coordinator → shard; see `docs/SHARDING.md`).
    QutPartial {
        /// Target dataset.
        dataset: String,
        /// Inclusive start of the half-open ownership slice, ms.
        owned_start_ms: i64,
        /// Exclusive end of the ownership slice, ms (`i64::MAX` = unbounded).
        owned_end_ms: i64,
        /// Window start `Wi`, ms.
        wi: i64,
        /// Window end `We`, ms.
        we: i64,
        /// `(τ, δ, t)` query overrides; `None` keeps the values the shard's
        /// tree was indexed with (the `HISTOGRAM` path).
        overrides: Option<(f64, f64, i64)>,
    },
    /// Shard-scope: count stored pieces intersecting `[wi, we]` in owned
    /// sub-chunks only.
    RangePartial {
        /// Target dataset.
        dataset: String,
        /// Inclusive start of the ownership slice, ms.
        owned_start_ms: i64,
        /// Exclusive end of the ownership slice, ms.
        owned_end_ms: i64,
        /// Window start `Wi`, ms.
        wi: i64,
        /// Window end `We`, ms.
        we: i64,
    },
    /// Shard-scope: return the raw trajectories whose first sample falls in
    /// the ownership slice (the coordinator reassembles the full dataset for
    /// non-decomposable whole-dataset runs such as S2T).
    GatherTrajectories {
        /// Target dataset.
        dataset: String,
        /// Inclusive start of the ownership slice, ms.
        owned_start_ms: i64,
        /// Exclusive end of the ownership slice, ms.
        owned_end_ms: i64,
    },
    /// Shard-scope: the owned share of `INFO(dataset)`.
    InfoPartial {
        /// Target dataset.
        dataset: String,
        /// Inclusive start of the ownership slice, ms.
        owned_start_ms: i64,
        /// Exclusive end of the ownership slice, ms.
        owned_end_ms: i64,
    },
}

/// A shard's share of `INFO(dataset)`, counted over the trajectories whose
/// first sample falls inside the shard's ownership slice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartialInfo {
    /// Owned trajectories.
    pub trajectories: u64,
    /// Points of the owned trajectories.
    pub points: u64,
    /// Temporal extent of the owned trajectories, as `(start_ms, end_ms)`.
    pub lifespan: Option<(i64, i64)>,
    /// Whether the shard has a ReTraTree for the dataset.
    pub indexed: bool,
    /// Level-3 cluster entries in owned sub-chunks.
    pub cluster_entries: u64,
}

/// Server → client messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A query produced rows (and possibly a statistics frame).
    Rows {
        /// The result rows.
        frame: Frame,
        /// The `\timing` statistics frame, when the statement measured any.
        stats: Option<Frame>,
    },
    /// A command completed without rows.
    Command(CommandStatus),
    /// A statement was prepared under this connection-scoped handle.
    Prepared {
        /// Handle to pass to [`Request::ExecutePrepared`].
        handle: u32,
    },
    /// The request failed; the connection stays usable (except after a
    /// [`ErrorCode::Capacity`] rejection, which the server closes behind).
    Error {
        /// Machine-readable failure class.
        code: ErrorCode,
        /// Human-readable reason.
        message: String,
    },
    /// Answer to [`Request::QutPartial`]: the shard's un-merged clusters and
    /// outliers in temporal order, plus its counters.
    QutPartial(QutPartial),
    /// Answer to [`Request::RangePartial`].
    Count(u64),
    /// Answer to [`Request::GatherTrajectories`].
    Trajectories(Vec<Trajectory>),
    /// Answer to [`Request::InfoPartial`].
    InfoPartial(PartialInfo),
}

/// Failure class carried by every [`Response::Error`] frame (wire byte, v5).
///
/// Unknown bytes from a future peer decode as [`ErrorCode::Query`]; encoding
/// is exactly the discriminant, so frames re-encoded by the coordinator keep
/// their class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(u8)]
pub enum ErrorCode {
    /// Statement-level failure (unknown dataset, bad parameters, …); the
    /// default class.
    #[default]
    Query = 0,
    /// Protocol-level failure (malformed frame, oversized result, …).
    Protocol = 1,
    /// Admission refused: the server is at its connection cap. The server
    /// closes the connection after this frame.
    Capacity = 2,
    /// Admission refused: the in-flight request budget is exhausted; the
    /// request was never executed and can be retried.
    Backpressure = 3,
    /// The per-query deadline expired before (or while) the query ran; no
    /// result is returned past a deadline, except a committed write's
    /// command tag (a write is never reported as failed once it took
    /// effect).
    Deadline = 4,
    /// The server failed internally while answering (a contained panic).
    /// Not retryable: the statement may have had effects before it failed.
    Internal = 5,
}

impl ErrorCode {
    /// Decodes a wire byte; unknown values from a future peer decode as
    /// [`ErrorCode::Query`] (the conservative class: relay, do not retry).
    pub fn from_u8(v: u8) -> ErrorCode {
        match v {
            1 => ErrorCode::Protocol,
            2 => ErrorCode::Capacity,
            3 => ErrorCode::Backpressure,
            4 => ErrorCode::Deadline,
            5 => ErrorCode::Internal,
            _ => ErrorCode::Query,
        }
    }

    /// True for the admission/deadline classes (`Capacity`, `Backpressure`,
    /// `Deadline`): the statement was refused or timed out rather than
    /// answered, so a retry — on this node or a replica holding the same
    /// data — is safe and may succeed. `Query`-class errors are *answers*
    /// (a replica would say exactly the same) and must be relayed verbatim.
    pub fn is_retryable(self) -> bool {
        matches!(
            self,
            ErrorCode::Capacity | ErrorCode::Backpressure | ErrorCode::Deadline
        )
    }
}

impl Response {
    /// A [`Response::Error`] of the default [`ErrorCode::Query`] class.
    pub fn error(message: impl Into<String>) -> Response {
        Response::Error {
            code: ErrorCode::Query,
            message: message.into(),
        }
    }

    /// Converts a row/command response into the typed [`QueryOutcome`] the
    /// local execution path produces, so remote and local callers handle one
    /// result type.
    pub fn into_outcome(self) -> Result<QueryOutcome, DecodeError> {
        match self {
            Response::Rows { frame, stats } => Ok(QueryOutcome::Rows { frame, stats }),
            Response::Command(status) => Ok(QueryOutcome::Command(status)),
            other => Err(DecodeError(format!(
                "expected a rows/command response, got {other:?}"
            ))),
        }
    }
}

// ---------------------------------------------------------------------------
// Primitive encoding
// ---------------------------------------------------------------------------

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new() -> Self {
        Writer { buf: Vec::new() }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_be_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| DecodeError(format!("message truncated (wanted {n} more bytes)")))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_be_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> Result<i64, DecodeError> {
        Ok(i64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn str(&mut self) -> Result<String, DecodeError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| DecodeError("string is not valid UTF-8".into()))
    }

    fn finish(&self) -> Result<(), DecodeError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(DecodeError(format!(
                "{} trailing bytes after message",
                self.buf.len() - self.pos
            )))
        }
    }
}

// ---------------------------------------------------------------------------
// Value / Frame / CommandStatus encoding
// ---------------------------------------------------------------------------

const VALUE_NULL: u8 = 0;
const VALUE_BOOL: u8 = 1;
const VALUE_INT: u8 = 2;
const VALUE_FLOAT: u8 = 3;
const VALUE_TEXT: u8 = 4;
const VALUE_TIMESTAMP: u8 = 5;
const VALUE_INTERVAL: u8 = 6;

fn write_value(w: &mut Writer, v: &Value) {
    match v {
        Value::Null => w.u8(VALUE_NULL),
        Value::Bool(b) => {
            w.u8(VALUE_BOOL);
            w.u8(*b as u8);
        }
        Value::Int(i) => {
            w.u8(VALUE_INT);
            w.i64(*i);
        }
        Value::Float(f) => {
            w.u8(VALUE_FLOAT);
            w.f64(*f);
        }
        Value::Text(s) => {
            w.u8(VALUE_TEXT);
            w.str(s);
        }
        Value::Timestamp(t) => {
            w.u8(VALUE_TIMESTAMP);
            w.i64(t.millis());
        }
        Value::Interval(d) => {
            w.u8(VALUE_INTERVAL);
            w.i64(d.millis());
        }
    }
}

fn read_value(r: &mut Reader<'_>) -> Result<Value, DecodeError> {
    Ok(match r.u8()? {
        VALUE_NULL => Value::Null,
        VALUE_BOOL => Value::Bool(r.u8()? != 0),
        VALUE_INT => Value::Int(r.i64()?),
        VALUE_FLOAT => Value::Float(r.f64()?),
        VALUE_TEXT => Value::Text(r.str()?),
        VALUE_TIMESTAMP => Value::Timestamp(Timestamp(r.i64()?)),
        VALUE_INTERVAL => Value::Interval(hermes_trajectory::Duration::from_millis(r.i64()?)),
        tag => return Err(DecodeError(format!("unknown value tag {tag}"))),
    })
}

fn type_code(ty: ValueType) -> u8 {
    match ty {
        ValueType::Bool => VALUE_BOOL,
        ValueType::Int => VALUE_INT,
        ValueType::Float => VALUE_FLOAT,
        ValueType::Text => VALUE_TEXT,
        ValueType::Timestamp => VALUE_TIMESTAMP,
        ValueType::Interval => VALUE_INTERVAL,
    }
}

fn type_of_code(code: u8) -> Result<ValueType, DecodeError> {
    Ok(match code {
        VALUE_BOOL => ValueType::Bool,
        VALUE_INT => ValueType::Int,
        VALUE_FLOAT => ValueType::Float,
        VALUE_TEXT => ValueType::Text,
        VALUE_TIMESTAMP => ValueType::Timestamp,
        VALUE_INTERVAL => ValueType::Interval,
        tag => return Err(DecodeError(format!("unknown column type code {tag}"))),
    })
}

fn write_frame_payload(w: &mut Writer, frame: &Frame) {
    w.u16(frame.num_columns() as u16);
    for col in frame.schema() {
        w.str(&col.name);
        w.u8(type_code(col.ty));
    }
    w.u32(frame.num_rows() as u32);
    for row in frame.rows() {
        for cell in row {
            write_value(w, cell);
        }
    }
}

fn read_frame_payload(r: &mut Reader<'_>) -> Result<Frame, DecodeError> {
    let ncols = r.u16()? as usize;
    let mut schema = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        let name = r.str()?;
        let ty = type_of_code(r.u8()?)?;
        schema.push(ColumnDef::new(name, ty));
    }
    let mut frame = Frame::new(schema);
    let nrows = r.u32()? as usize;
    for _ in 0..nrows {
        let mut row = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            row.push(read_value(r)?);
        }
        frame.push_row(row).map_err(DecodeError)?;
    }
    Ok(frame)
}

fn command_tag_code(tag: CommandTag) -> u8 {
    match tag {
        CommandTag::CreateDataset => 1,
        CommandTag::DropDataset => 2,
        CommandTag::BuildIndex => 3,
        CommandTag::Ingest => 4,
        CommandTag::Set => 5,
        CommandTag::Checkpoint => 6,
    }
}

fn command_tag_of_code(code: u8) -> Result<CommandTag, DecodeError> {
    Ok(match code {
        1 => CommandTag::CreateDataset,
        2 => CommandTag::DropDataset,
        3 => CommandTag::BuildIndex,
        4 => CommandTag::Ingest,
        5 => CommandTag::Set,
        6 => CommandTag::Checkpoint,
        tag => return Err(DecodeError(format!("unknown command tag code {tag}"))),
    })
}

fn write_trajectory(w: &mut Writer, t: &Trajectory) {
    w.u64(t.id);
    w.u64(t.object_id);
    w.u32(t.points().len() as u32);
    for p in t.points() {
        w.f64(p.x);
        w.f64(p.y);
        w.i64(p.t.millis());
    }
}

fn read_trajectory(r: &mut Reader<'_>) -> Result<Trajectory, DecodeError> {
    let id = r.u64()?;
    let object_id = r.u64()?;
    let n = r.u32()? as usize;
    let mut points = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        let x = r.f64()?;
        let y = r.f64()?;
        let t = Timestamp(r.i64()?);
        points.push(Point::new(x, y, t));
    }
    Trajectory::new(id, object_id, points)
        .map_err(|e| DecodeError(format!("invalid trajectory {id}: {e}")))
}

fn write_sub_trajectory(w: &mut Writer, s: &SubTrajectory) {
    w.u64(s.id.trajectory_id);
    w.u32(s.id.offset);
    w.u64(s.trajectory_id);
    w.u64(s.object_id);
    w.u32(s.points().len() as u32);
    for p in s.points() {
        w.f64(p.x);
        w.f64(p.y);
        w.i64(p.t.millis());
    }
}

fn read_sub_trajectory(r: &mut Reader<'_>) -> Result<SubTrajectory, DecodeError> {
    let id_trajectory = r.u64()?;
    let id_offset = r.u32()?;
    let trajectory_id = r.u64()?;
    let object_id = r.u64()?;
    let n = r.u32()? as usize;
    if n < 2 {
        return Err(DecodeError(format!(
            "sub-trajectory {id_trajectory}@{id_offset} has {n} points (minimum is 2)"
        )));
    }
    let mut points = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        let x = r.f64()?;
        let y = r.f64()?;
        let t = Timestamp(r.i64()?);
        points.push(Point::new(x, y, t));
    }
    Ok(SubTrajectory::from_points(
        SubTrajectoryId::new(id_trajectory, id_offset),
        trajectory_id,
        object_id,
        points,
    ))
}

fn write_cluster(w: &mut Writer, c: &Cluster) {
    w.u64(c.id as u64);
    write_sub_trajectory(w, &c.representative);
    w.f64(c.representative_vote);
    w.u32(c.members.len() as u32);
    for m in &c.members {
        write_sub_trajectory(w, m);
    }
    for d in &c.member_distances {
        w.f64(*d);
    }
}

fn read_cluster(r: &mut Reader<'_>) -> Result<Cluster, DecodeError> {
    let id = r.u64()? as usize;
    let representative = read_sub_trajectory(r)?;
    let representative_vote = r.f64()?;
    let n = r.u32()? as usize;
    let mut members = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        members.push(read_sub_trajectory(r)?);
    }
    let mut member_distances = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        member_distances.push(r.f64()?);
    }
    Ok(Cluster {
        id,
        representative,
        representative_vote,
        members,
        member_distances,
    })
}

fn write_qut_partial(w: &mut Writer, p: &QutPartial) {
    w.u32(p.clusters.len() as u32);
    for c in &p.clusters {
        write_cluster(w, c);
    }
    w.u32(p.outliers.len() as u32);
    for o in &p.outliers {
        write_sub_trajectory(w, o);
    }
    w.u64(p.stats.reused_subchunks as u64);
    w.u64(p.stats.reclustered_subchunks as u64);
    w.u64(p.stats.loaded_sub_trajectories as u64);
    w.u64(p.stats.merges as u64);
    w.f64(p.stats.elapsed_ms);
    w.f64(p.stats.phases.index_build_ms);
    w.f64(p.stats.phases.voting_ms);
    w.f64(p.stats.phases.segmentation_ms);
    w.f64(p.stats.phases.sampling_ms);
    w.f64(p.stats.phases.clustering_ms);
    w.u64(p.stats.kernel.evaluated);
    w.u64(p.stats.kernel.pruned);
}

fn read_qut_partial(r: &mut Reader<'_>) -> Result<QutPartial, DecodeError> {
    let nclusters = r.u32()? as usize;
    let mut clusters = Vec::with_capacity(nclusters.min(1 << 16));
    for _ in 0..nclusters {
        clusters.push(read_cluster(r)?);
    }
    let noutliers = r.u32()? as usize;
    let mut outliers = Vec::with_capacity(noutliers.min(1 << 16));
    for _ in 0..noutliers {
        outliers.push(read_sub_trajectory(r)?);
    }
    let stats = QutStats {
        reused_subchunks: r.u64()? as usize,
        reclustered_subchunks: r.u64()? as usize,
        loaded_sub_trajectories: r.u64()? as usize,
        merges: r.u64()? as usize,
        elapsed_ms: r.f64()?,
        phases: S2TPhaseTimings {
            index_build_ms: r.f64()?,
            voting_ms: r.f64()?,
            segmentation_ms: r.f64()?,
            sampling_ms: r.f64()?,
            clustering_ms: r.f64()?,
        },
        kernel: KernelCounters {
            evaluated: r.u64()?,
            pruned: r.u64()?,
        },
    };
    Ok(QutPartial {
        clusters,
        outliers,
        stats,
    })
}

// ---------------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------------

const REQ_QUERY: u8 = 1;
const REQ_PREPARE: u8 = 2;
const REQ_EXECUTE_PREPARED: u8 = 3;
const REQ_INGEST: u8 = 4;
const REQ_QUT_PARTIAL: u8 = 5;
const REQ_RANGE_PARTIAL: u8 = 6;
const REQ_GATHER_TRAJECTORIES: u8 = 7;
const REQ_INFO_PARTIAL: u8 = 8;

const RESP_ROWS: u8 = 101;
const RESP_COMMAND: u8 = 102;
const RESP_PREPARED: u8 = 103;
const RESP_ERROR: u8 = 104;
const RESP_QUT_PARTIAL: u8 = 105;
const RESP_COUNT: u8 = 106;
const RESP_TRAJECTORIES: u8 = 107;
const RESP_INFO_PARTIAL: u8 = 108;

/// Writes the optional leading trace-context field every v3 request payload
/// starts with: flag `0` (absent) or flag `1` + `trace_id` + `parent_span_id`.
fn write_trace_field(w: &mut Writer, trace: Option<TraceContext>) {
    match trace {
        Some(ctx) => {
            w.u8(1);
            w.u64(ctx.trace_id);
            w.u64(ctx.parent_span_id);
        }
        None => w.u8(0),
    }
}

fn read_trace_field(r: &mut Reader<'_>) -> Result<Option<TraceContext>, DecodeError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(TraceContext {
            trace_id: r.u64()?,
            parent_span_id: r.u64()?,
        })),
        tag => Err(DecodeError(format!("unknown trace flag {tag}"))),
    }
}

fn encode_request(req: &Request, trace: Option<TraceContext>) -> (u8, Vec<u8>) {
    let mut w = Writer::new();
    write_trace_field(&mut w, trace);
    let kind = match req {
        Request::Query { sql } => {
            w.str(sql);
            REQ_QUERY
        }
        Request::Prepare { sql } => {
            w.str(sql);
            REQ_PREPARE
        }
        Request::ExecutePrepared { handle, params } => {
            w.u32(*handle);
            w.u16(params.len() as u16);
            for p in params {
                write_value(&mut w, p);
            }
            REQ_EXECUTE_PREPARED
        }
        Request::Ingest {
            dataset,
            trajectories,
        } => {
            w.str(dataset);
            w.u32(trajectories.len() as u32);
            for t in trajectories {
                write_trajectory(&mut w, t);
            }
            REQ_INGEST
        }
        Request::QutPartial {
            dataset,
            owned_start_ms,
            owned_end_ms,
            wi,
            we,
            overrides,
        } => {
            w.str(dataset);
            w.i64(*owned_start_ms);
            w.i64(*owned_end_ms);
            w.i64(*wi);
            w.i64(*we);
            match overrides {
                Some((tau, delta, min_duration_ms)) => {
                    w.u8(1);
                    w.f64(*tau);
                    w.f64(*delta);
                    w.i64(*min_duration_ms);
                }
                None => w.u8(0),
            }
            REQ_QUT_PARTIAL
        }
        Request::RangePartial {
            dataset,
            owned_start_ms,
            owned_end_ms,
            wi,
            we,
        } => {
            w.str(dataset);
            w.i64(*owned_start_ms);
            w.i64(*owned_end_ms);
            w.i64(*wi);
            w.i64(*we);
            REQ_RANGE_PARTIAL
        }
        Request::GatherTrajectories {
            dataset,
            owned_start_ms,
            owned_end_ms,
        } => {
            w.str(dataset);
            w.i64(*owned_start_ms);
            w.i64(*owned_end_ms);
            REQ_GATHER_TRAJECTORIES
        }
        Request::InfoPartial {
            dataset,
            owned_start_ms,
            owned_end_ms,
        } => {
            w.str(dataset);
            w.i64(*owned_start_ms);
            w.i64(*owned_end_ms);
            REQ_INFO_PARTIAL
        }
    };
    (kind, w.buf)
}

fn decode_request(
    kind: u8,
    payload: &[u8],
) -> Result<(Request, Option<TraceContext>), DecodeError> {
    let mut r = Reader::new(payload);
    let trace = read_trace_field(&mut r)?;
    let req = match kind {
        REQ_QUERY => Request::Query { sql: r.str()? },
        REQ_PREPARE => Request::Prepare { sql: r.str()? },
        REQ_EXECUTE_PREPARED => {
            let handle = r.u32()?;
            let n = r.u16()? as usize;
            let mut params = Vec::with_capacity(n);
            for _ in 0..n {
                params.push(read_value(&mut r)?);
            }
            Request::ExecutePrepared { handle, params }
        }
        REQ_INGEST => {
            let dataset = r.str()?;
            let n = r.u32()? as usize;
            let mut trajectories = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                trajectories.push(read_trajectory(&mut r)?);
            }
            Request::Ingest {
                dataset,
                trajectories,
            }
        }
        REQ_QUT_PARTIAL => {
            let dataset = r.str()?;
            let owned_start_ms = r.i64()?;
            let owned_end_ms = r.i64()?;
            let wi = r.i64()?;
            let we = r.i64()?;
            let overrides = match r.u8()? {
                0 => None,
                1 => Some((r.f64()?, r.f64()?, r.i64()?)),
                tag => return Err(DecodeError(format!("unknown overrides flag {tag}"))),
            };
            Request::QutPartial {
                dataset,
                owned_start_ms,
                owned_end_ms,
                wi,
                we,
                overrides,
            }
        }
        REQ_RANGE_PARTIAL => Request::RangePartial {
            dataset: r.str()?,
            owned_start_ms: r.i64()?,
            owned_end_ms: r.i64()?,
            wi: r.i64()?,
            we: r.i64()?,
        },
        REQ_GATHER_TRAJECTORIES => Request::GatherTrajectories {
            dataset: r.str()?,
            owned_start_ms: r.i64()?,
            owned_end_ms: r.i64()?,
        },
        REQ_INFO_PARTIAL => Request::InfoPartial {
            dataset: r.str()?,
            owned_start_ms: r.i64()?,
            owned_end_ms: r.i64()?,
        },
        tag => return Err(DecodeError(format!("unknown request kind {tag}"))),
    };
    r.finish()?;
    Ok((req, trace))
}

fn encode_response(resp: &Response) -> (u8, Vec<u8>) {
    let mut w = Writer::new();
    let kind = match resp {
        Response::Rows { frame, stats } => {
            w.u8(stats.is_some() as u8);
            write_frame_payload(&mut w, frame);
            if let Some(stats) = stats {
                write_frame_payload(&mut w, stats);
            }
            RESP_ROWS
        }
        Response::Command(status) => {
            w.u8(command_tag_code(status.tag));
            w.u64(status.affected);
            RESP_COMMAND
        }
        Response::Prepared { handle } => {
            w.u32(*handle);
            RESP_PREPARED
        }
        Response::Error { code, message } => {
            w.u8(*code as u8);
            w.str(message);
            RESP_ERROR
        }
        Response::QutPartial(partial) => {
            write_qut_partial(&mut w, partial);
            RESP_QUT_PARTIAL
        }
        Response::Count(n) => {
            w.u64(*n);
            RESP_COUNT
        }
        Response::Trajectories(trajectories) => {
            w.u32(trajectories.len() as u32);
            for t in trajectories {
                write_trajectory(&mut w, t);
            }
            RESP_TRAJECTORIES
        }
        Response::InfoPartial(info) => {
            w.u64(info.trajectories);
            w.u64(info.points);
            match info.lifespan {
                Some((start, end)) => {
                    w.u8(1);
                    w.i64(start);
                    w.i64(end);
                }
                None => w.u8(0),
            }
            w.u8(info.indexed as u8);
            w.u64(info.cluster_entries);
            RESP_INFO_PARTIAL
        }
    };
    (kind, w.buf)
}

fn decode_response(kind: u8, payload: &[u8]) -> Result<Response, DecodeError> {
    let mut r = Reader::new(payload);
    let resp = match kind {
        RESP_ROWS => {
            let has_stats = r.u8()? != 0;
            let frame = read_frame_payload(&mut r)?;
            let stats = if has_stats {
                Some(read_frame_payload(&mut r)?)
            } else {
                None
            };
            Response::Rows { frame, stats }
        }
        RESP_COMMAND => Response::Command(CommandStatus {
            tag: command_tag_of_code(r.u8()?)?,
            affected: r.u64()?,
        }),
        RESP_PREPARED => Response::Prepared { handle: r.u32()? },
        RESP_ERROR => Response::Error {
            code: ErrorCode::from_u8(r.u8()?),
            message: r.str()?,
        },
        RESP_QUT_PARTIAL => Response::QutPartial(read_qut_partial(&mut r)?),
        RESP_COUNT => Response::Count(r.u64()?),
        RESP_TRAJECTORIES => {
            let n = r.u32()? as usize;
            let mut trajectories = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                trajectories.push(read_trajectory(&mut r)?);
            }
            Response::Trajectories(trajectories)
        }
        RESP_INFO_PARTIAL => {
            let trajectories = r.u64()?;
            let points = r.u64()?;
            let lifespan = match r.u8()? {
                0 => None,
                1 => Some((r.i64()?, r.i64()?)),
                tag => return Err(DecodeError(format!("unknown lifespan flag {tag}"))),
            };
            let indexed = r.u8()? != 0;
            let cluster_entries = r.u64()?;
            Response::InfoPartial(PartialInfo {
                trajectories,
                points,
                lifespan,
                indexed,
                cluster_entries,
            })
        }
        tag => return Err(DecodeError(format!("unknown response kind {tag}"))),
    };
    r.finish()?;
    Ok(resp)
}

// ---------------------------------------------------------------------------
// Wire framing
// ---------------------------------------------------------------------------

fn write_wire_frame(w: &mut impl Write, kind: u8, payload: &[u8]) -> io::Result<u64> {
    let length = 1 + payload.len();
    if length > MAX_MESSAGE_BYTES as usize {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("message of {length} bytes exceeds the {MAX_MESSAGE_BYTES} byte cap"),
        ));
    }
    let length = length as u32;
    w.write_all(&length.to_be_bytes())?;
    w.write_all(&[kind])?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(4 + length as u64)
}

fn read_wire_frame(r: &mut impl Read) -> io::Result<(u8, Vec<u8>, u64)> {
    let mut len_bytes = [0u8; 4];
    r.read_exact(&mut len_bytes)?;
    let length = u32::from_be_bytes(len_bytes);
    if length == 0 || length > MAX_MESSAGE_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("invalid message length {length}"),
        ));
    }
    let mut body = vec![0u8; length as usize];
    r.read_exact(&mut body)?;
    let kind = body[0];
    let payload = body.split_off(1);
    Ok((kind, payload, 4 + length as u64))
}

/// Writes one request without a trace context, returning the bytes put on
/// the wire.
pub fn write_request(w: &mut impl Write, req: &Request) -> io::Result<u64> {
    write_request_traced(w, req, None)
}

/// Writes one request carrying an optional [`TraceContext`] (the protocol v3
/// trace field), returning the bytes put on the wire.
pub fn write_request_traced(
    w: &mut impl Write,
    req: &Request,
    trace: Option<TraceContext>,
) -> io::Result<u64> {
    let (kind, payload) = encode_request(req, trace);
    write_wire_frame(w, kind, &payload)
}

/// Reads one request, returning it with its optional trace context and the
/// bytes taken off the wire. `ErrorKind::UnexpectedEof` means the peer closed
/// the connection.
pub fn read_request(r: &mut impl Read) -> io::Result<(Request, Option<TraceContext>, u64)> {
    let (kind, payload, n) = read_wire_frame(r)?;
    let (req, trace) = decode_request(kind, &payload)?;
    Ok((req, trace, n))
}

/// Decodes one request from a complete frame body — the kind byte plus the
/// payload, length prefix stripped — in place, without the copy
/// [`read_request`] makes. `body` must not be empty.
pub(crate) fn decode_request_body(
    body: &[u8],
) -> Result<(Request, Option<TraceContext>), DecodeError> {
    decode_request(body[0], &body[1..])
}

/// Writes one response, returning the bytes put on the wire.
pub fn write_response(w: &mut impl Write, resp: &Response) -> io::Result<u64> {
    let (kind, payload) = encode_response(resp);
    write_wire_frame(w, kind, &payload)
}

/// Reads one response, returning it with the bytes taken off the wire.
pub fn read_response(r: &mut impl Read) -> io::Result<(Response, u64)> {
    let (kind, payload, n) = read_wire_frame(r)?;
    Ok((decode_response(kind, &payload)?, n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_trajectory::Duration;

    fn round_trip_request(req: Request) -> Request {
        let mut buf = Vec::new();
        let written = write_request(&mut buf, &req).unwrap();
        assert_eq!(written as usize, buf.len());
        let (back, trace, read) = read_request(&mut buf.as_slice()).unwrap();
        assert_eq!(read, written);
        assert_eq!(trace, None, "untraced requests carry no context");
        back
    }

    fn round_trip_response(resp: Response) -> Response {
        let mut buf = Vec::new();
        write_response(&mut buf, &resp).unwrap();
        read_response(&mut buf.as_slice()).unwrap().0
    }

    fn sample_frame() -> Frame {
        let mut f = Frame::with_columns(&[
            ("name", ValueType::Text),
            ("n", ValueType::Int),
            ("score", ValueType::Float),
            ("at", ValueType::Timestamp),
            ("gap", ValueType::Interval),
            ("ok", ValueType::Bool),
        ]);
        f.push_row(vec![
            Value::from("ships"),
            Value::Int(-3),
            Value::Float(0.5),
            Value::Timestamp(Timestamp(42)),
            Value::Interval(Duration::from_secs(9)),
            Value::Bool(true),
        ])
        .unwrap();
        f.push_row(vec![
            Value::Null,
            Value::Null,
            Value::Null,
            Value::Null,
            Value::Null,
            Value::Null,
        ])
        .unwrap();
        f
    }

    fn traj(id: u64) -> Trajectory {
        Trajectory::new(
            id,
            id * 10,
            (0..5)
                .map(|i| Point::new(i as f64, -1.5 * i as f64, Timestamp(i * 1000)))
                .collect(),
        )
        .unwrap()
    }

    fn sub(id: u64, offset: u32) -> SubTrajectory {
        SubTrajectory::from_points(
            SubTrajectoryId::new(id, offset),
            id,
            id * 2,
            (0..4)
                .map(|i| Point::new(i as f64 * 3.5, 0.25 * i as f64, Timestamp(i * 500)))
                .collect(),
        )
    }

    fn sample_partial() -> QutPartial {
        QutPartial {
            clusters: vec![
                Cluster {
                    id: 0,
                    representative: sub(1, 0),
                    representative_vote: 4.25,
                    members: vec![sub(2, 3), sub(3, 0)],
                    member_distances: vec![12.5, f64::MAX],
                },
                Cluster {
                    id: 1,
                    representative: sub(4, 7),
                    representative_vote: 1.0,
                    members: Vec::new(),
                    member_distances: Vec::new(),
                },
            ],
            outliers: vec![sub(9, 2)],
            stats: QutStats {
                reused_subchunks: 3,
                reclustered_subchunks: 1,
                loaded_sub_trajectories: 44,
                merges: 2,
                elapsed_ms: 1.5,
                phases: S2TPhaseTimings {
                    index_build_ms: 0.25,
                    voting_ms: 0.5,
                    segmentation_ms: 0.125,
                    sampling_ms: 0.0,
                    clustering_ms: 0.375,
                },
                kernel: KernelCounters {
                    evaluated: 123,
                    pruned: 4_567,
                },
            },
        }
    }

    #[test]
    fn requests_round_trip() {
        for req in [
            Request::Query {
                sql: "SHOW DATASETS;".into(),
            },
            Request::Prepare {
                sql: "SELECT RANGE(d, $1, $2);".into(),
            },
            Request::ExecutePrepared {
                handle: 7,
                params: vec![
                    Value::Int(0),
                    Value::Timestamp(Timestamp(99)),
                    Value::Float(1.5),
                    Value::Null,
                ],
            },
            Request::Ingest {
                dataset: "flights".into(),
                trajectories: vec![traj(1), traj(2)],
            },
            Request::QutPartial {
                dataset: "urban".into(),
                owned_start_ms: i64::MIN,
                owned_end_ms: 7_200_000,
                wi: 0,
                we: 3_600_000,
                overrides: Some((0.35, 0.05, 300_000)),
            },
            Request::QutPartial {
                dataset: "urban".into(),
                owned_start_ms: 7_200_000,
                owned_end_ms: i64::MAX,
                wi: 0,
                we: 3_600_000,
                overrides: None,
            },
            Request::RangePartial {
                dataset: "urban".into(),
                owned_start_ms: 0,
                owned_end_ms: 100,
                wi: -5,
                we: 50,
            },
            Request::GatherTrajectories {
                dataset: "sea".into(),
                owned_start_ms: i64::MIN,
                owned_end_ms: i64::MAX,
            },
            Request::InfoPartial {
                dataset: "sea".into(),
                owned_start_ms: 0,
                owned_end_ms: i64::MAX,
            },
        ] {
            assert_eq!(round_trip_request(req.clone()), req);
        }
    }

    #[test]
    fn trace_context_rides_along_with_any_request() {
        let ctx = TraceContext {
            trace_id: 0x1234_5678_9ABC_DEF0 & (i64::MAX as u64),
            parent_span_id: 42,
        };
        let req = Request::QutPartial {
            dataset: "urban".into(),
            owned_start_ms: 0,
            owned_end_ms: 7_200_000,
            wi: 0,
            we: 3_600_000,
            overrides: None,
        };
        let mut buf = Vec::new();
        let written = write_request_traced(&mut buf, &req, Some(ctx)).unwrap();
        // The trace field costs exactly 16 bytes over the flag-only form.
        let mut untraced = Vec::new();
        let base = write_request(&mut untraced, &req).unwrap();
        assert_eq!(written, base + 16);
        let (back, trace, read) = read_request(&mut buf.as_slice()).unwrap();
        assert_eq!(read, written);
        assert_eq!(back, req);
        assert_eq!(trace, Some(ctx));
    }

    #[test]
    fn responses_round_trip() {
        for resp in [
            Response::Rows {
                frame: sample_frame(),
                stats: None,
            },
            Response::Rows {
                frame: sample_frame(),
                stats: Some(sample_frame()),
            },
            Response::Command(CommandStatus {
                tag: CommandTag::BuildIndex,
                affected: 12,
            }),
            Response::Command(CommandStatus {
                tag: CommandTag::Ingest,
                affected: 640,
            }),
            Response::Command(CommandStatus {
                tag: CommandTag::Checkpoint,
                affected: 123_456,
            }),
            Response::Prepared { handle: 3 },
            Response::Error {
                code: ErrorCode::Query,
                message: "unknown dataset 'x'".into(),
            },
            Response::Error {
                code: ErrorCode::Backpressure,
                message: "server overloaded: 1024 requests already pending".into(),
            },
            Response::Error {
                code: ErrorCode::Deadline,
                message: "deadline exceeded: request not answered within 5ms".into(),
            },
            Response::QutPartial(sample_partial()),
            Response::QutPartial(QutPartial::default()),
            Response::Count(0),
            Response::Count(u64::MAX),
            Response::Trajectories(vec![traj(5), traj(6)]),
            Response::Trajectories(Vec::new()),
            Response::InfoPartial(PartialInfo {
                trajectories: 40,
                points: 1600,
                lifespan: Some((-1, 86_400_000)),
                indexed: true,
                cluster_entries: 7,
            }),
            Response::InfoPartial(PartialInfo {
                trajectories: 0,
                points: 0,
                lifespan: None,
                indexed: false,
                cluster_entries: 0,
            }),
        ] {
            assert_eq!(round_trip_response(resp.clone()), resp);
        }
    }

    #[test]
    fn into_outcome_maps_rows_and_commands() {
        let rows = Response::Rows {
            frame: sample_frame(),
            stats: None,
        };
        assert_eq!(rows.into_outcome().unwrap().num_rows(), 2);
        let cmd = Response::Command(CommandStatus {
            tag: CommandTag::CreateDataset,
            affected: 1,
        });
        assert!(cmd.into_outcome().unwrap().command().is_some());
        assert!(Response::Prepared { handle: 0 }.into_outcome().is_err());
    }

    #[test]
    fn corrupt_input_is_rejected_not_panicked() {
        // Unknown kind.
        let mut buf = Vec::new();
        write_wire_frame(&mut buf, 250, &[]).unwrap();
        assert!(read_request(&mut buf.as_slice()).is_err());
        // Truncated payload.
        let mut buf = Vec::new();
        write_request(
            &mut buf,
            &Request::Query {
                sql: "SHOW DATASETS;".into(),
            },
        )
        .unwrap();
        buf.truncate(buf.len() - 3);
        assert!(read_request(&mut buf.as_slice()).is_err());
        // Oversized / zero length prefixes.
        let huge = (MAX_MESSAGE_BYTES + 1).to_be_bytes();
        assert!(read_wire_frame(&mut huge.as_slice()).is_err());
        let zero = 0u32.to_be_bytes();
        assert!(read_wire_frame(&mut zero.as_slice()).is_err());
        // Trailing garbage after a valid message body.
        let mut w = Writer::new();
        w.u8(0); // trace field: absent
        w.str("SHOW DATASETS;");
        w.u8(99);
        assert!(decode_request(REQ_QUERY, &w.buf).is_err());
        // Unknown trace flag.
        let mut w = Writer::new();
        w.u8(7);
        w.str("SHOW DATASETS;");
        assert!(decode_request(REQ_QUERY, &w.buf).is_err());
        // Unknown response kind.
        let mut buf = Vec::new();
        write_wire_frame(&mut buf, 222, &[]).unwrap();
        let err = read_response(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // A sub-trajectory with fewer than two points must be a decode error,
        // not a constructor panic.
        let mut w = Writer::new();
        w.u64(1);
        w.u32(0);
        w.u64(1);
        w.u64(1);
        w.u32(1); // one point only
        w.f64(0.0);
        w.f64(0.0);
        w.i64(0);
        assert!(read_sub_trajectory(&mut Reader::new(&w.buf)).is_err());
    }

    #[test]
    fn truncated_length_prefix_is_an_error_not_a_hang() {
        // Only 2 of the 4 length-prefix bytes arrive before EOF.
        let partial: &[u8] = &[0x00, 0x00];
        let err = read_request(&mut &*partial).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        // Length announces more payload than the stream holds.
        let mut buf = Vec::new();
        write_request(
            &mut buf,
            &Request::Query {
                sql: "SHOW DATASETS;".into(),
            },
        )
        .unwrap();
        let declared = u32::from_be_bytes(buf[..4].try_into().unwrap());
        buf[..4].copy_from_slice(&(declared + 10).to_be_bytes());
        let err = read_request(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn eof_reads_as_unexpected_eof() {
        let empty: &[u8] = &[];
        let err = read_request(&mut &*empty).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn handshake_round_trips_and_rejects_mismatches() {
        let mut buf = Vec::new();
        write_handshake(&mut buf).unwrap();
        assert_eq!(buf.len(), 7);
        assert_eq!(
            read_handshake(&mut buf.as_slice()).unwrap(),
            PROTOCOL_VERSION
        );

        // Wrong magic: not a Hermes endpoint.
        let mut bad = buf.clone();
        bad[0] = b'X';
        let err = read_handshake(&mut bad.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("magic"));

        // Wrong version: named in the error.
        let mut old = buf.clone();
        old[4..6].copy_from_slice(&1u16.to_be_bytes());
        let err = read_handshake(&mut old.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("version mismatch"));

        // Truncated preamble.
        let err = read_handshake(&mut &buf[..3]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }
}
