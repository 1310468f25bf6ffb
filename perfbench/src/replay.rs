//! The reference engine and the traced replay.
//!
//! [`Mirror`] is an in-process engine built from the same inputs as the
//! server. Untraced runs use it only as the reference the sampled answers
//! are byte-compared against. Traced runs also replay every statement
//! through it right after the statement's wire round trip, timing one call
//! into each layer's public functions per span: parse, epoch pin, the
//! ReTraTree / S2T entry points, frame building and the wire codec. For the
//! `sharded` workload an in-process [`Coordinator`] over the live shards is
//! replayed too, plus the per-shard partial requests and the merge.

use crate::trace::Tracer;
use crate::workload::{Op, CHUNK_MS, QUT_PREPARED_SQL};
use hermes_coord::{Coordinator, ForwardSpec, ShardSpec};
use hermes_core::{HermesEngine, SharedEngine};
use hermes_exec::ExecPolicy;
use hermes_retratree::{merge_qut_partials, QutParams, QutPartial, ReTraTreeParams};
use hermes_s2t::{
    arena_voting_counted_with, cluster_around_representatives_with, segment_all_with,
    select_representatives_with, PackedSegmentIndex, S2TParams, SegmentArena,
};
use hermes_server::protocol::{read_response, write_response};
use hermes_server::{ConnectOptions, HermesClient, Response, ServerMetrics};
use hermes_sql::{
    clusters_frame, histogram_frame, parse, range_frame, Prepared, QueryOutcome, Session, Statement,
};
use hermes_trajectory::{Duration, TimeInterval, Timestamp, Trajectory};
use std::collections::BTreeMap;
use std::time::Instant;

/// The answer frame as the wire encodes it, statistics stripped: the form
/// answers are byte-compared in. `None` for non-row outcomes.
pub fn frame_bytes(outcome: &QueryOutcome) -> Option<Vec<u8>> {
    let QueryOutcome::Rows { frame, .. } = outcome else {
        return None;
    };
    let mut buf = Vec::new();
    write_response(
        &mut buf,
        &Response::Rows {
            frame: frame.clone(),
            stats: None,
        },
    )
    .expect("encoding into memory cannot fail");
    Some(buf)
}

/// S2T parameters of [`crate::workload::S2T_SQL`].
pub fn s2t_params() -> S2TParams {
    S2TParams::builder()
        .sigma(2_000.0)
        .tau(0.35)
        .delta(0.05)
        .min_duration_ms(300_000)
        .epsilon(6_000.0)
        .build()
        .expect("valid S2T parameters")
}

/// Index parameters of [`BUILD_SQL`].
pub fn tree_params() -> ReTraTreeParams {
    let s2t = S2TParams::builder()
        .sigma(2_000.0)
        .epsilon(6_000.0)
        .build()
        .expect("valid S2T parameters");
    ReTraTreeParams::builder()
        .chunk_duration(Duration::from_millis(CHUNK_MS))
        .s2t(s2t)
        .build()
        .expect("valid tree parameters")
}

fn ms(from: Instant) -> f64 {
    from.elapsed().as_secs_f64() * 1_000.0
}

fn interval(a: i64, b: i64) -> TimeInterval {
    TimeInterval::new(Timestamp(a), Timestamp(b.max(a)))
}

/// The coordinator side of the sharded replay.
pub struct CoordMirror {
    coordinator: Coordinator,
    metrics: ServerMetrics,
    shards: Vec<(HermesClient, (i64, i64))>,
}

impl CoordMirror {
    /// An in-process coordinator plus one direct client per shard, over the
    /// live shards `(name, addr, start_ms, end_ms)`.
    pub fn connect(shards: &[(String, String, i64, i64)]) -> std::io::Result<CoordMirror> {
        let specs: Vec<ShardSpec> = shards
            .iter()
            .map(|(name, addr, start_ms, end_ms)| ShardSpec {
                name: name.clone(),
                addr: addr.clone(),
                replicas: Vec::new(),
                start_ms: *start_ms,
                end_ms: *end_ms,
            })
            .collect();
        let direct = shards
            .iter()
            .map(|(_, addr, a, b)| Ok((HermesClient::connect(addr.as_str())?, (*a, *b))))
            .collect::<std::io::Result<Vec<_>>>()?;
        Ok(CoordMirror {
            coordinator: Coordinator::new(specs, ConnectOptions::default(), ExecPolicy::from_env()),
            metrics: ServerMetrics::default(),
            shards: direct,
        })
    }
}

/// Reference engine plus, in traced runs, the span store and per-layer sums.
pub struct Mirror {
    /// The engine, shared so the replay can pin epochs and commit.
    pub shared: SharedEngine,
    session: Session<SharedEngine>,
    /// Spans of the traced replay.
    pub tracer: Tracer,
    /// Per-layer totals over every replayed statement.
    pub sums: BTreeMap<&'static str, f64>,
    /// Read statements replayed.
    pub replayed: u64,
    /// Statement id for the next replayed statement, read or write.
    next_stmt: u64,
    /// Coordinator replay, for `sharded`.
    pub coord: Option<CoordMirror>,
    /// The prepared QUT: its session handle and parsed statement.
    prepared: Option<(Prepared, Statement)>,
    epoch0: u64,
}

impl Mirror {
    /// Loads `base` and builds the index (timed as a `retratree.build` span)
    /// on an engine computing with `threads` threads, as the server does.
    pub fn new(base: &[Trajectory], threads: usize) -> Mirror {
        let policy = ExecPolicy::new(threads).unwrap_or_else(|_| ExecPolicy::from_env());
        let shared = SharedEngine::new(HermesEngine::with_exec_policy(policy));
        shared
            .with_write(|e| {
                e.create_dataset("data")?;
                e.load_trajectories("data", base.to_vec())
            })
            .expect("reference load");
        let mut m = Mirror {
            session: Session::new(shared.clone()),
            shared,
            tracer: Tracer::default(),
            sums: BTreeMap::new(),
            replayed: 0,
            next_stmt: 0,
            coord: None,
            prepared: None,
            epoch0: 0,
        };
        m.build();
        m.epoch0 = m.shared.epoch();
        m
    }

    fn next_id(&mut self) -> u64 {
        self.next_stmt += 1;
        self.next_stmt - 1
    }

    fn add(&mut self, key: &'static str, v: f64) {
        *self.sums.entry(key).or_insert(0.0) += v;
    }

    /// Rebuilds the index, as `BUILD INDEX` does; returns its duration, ms.
    pub fn build(&mut self) -> f64 {
        let shared = self.shared.clone();
        let id = self.next_id();
        self.tracer.time("retratree.build", None, id, || {
            shared
                .with_write(|e| e.build_index("data", tree_params()))
                .expect("reference build")
        });
        self.tracer.spans.last().map_or(0.0, |s| s.ms())
    }

    /// Appends a batch, as `INGEST` does (the copy-on-write clone of the
    /// tree included); returns its duration, ms.
    pub fn commit(&mut self, batch: &[Trajectory]) -> f64 {
        let shared = self.shared.clone();
        let batch = batch.to_vec();
        let id = self.next_id();
        self.tracer.time("core.commit", None, id, || {
            shared
                .with_write(|e| e.load_trajectories("data", batch))
                .expect("reference ingest")
        });
        self.tracer.spans.last().map_or(0.0, |s| s.ms())
    }

    /// Executes `sql` through a session on the reference engine and returns
    /// the answer in byte-compare form.
    pub fn answer(&mut self, sql: &str) -> Result<Vec<u8>, String> {
        let outcome = self.session.execute(sql).map_err(|e| e.to_string())?;
        frame_bytes(&outcome).ok_or_else(|| format!("no rows for {sql}"))
    }

    /// Replays a write statement acknowledged over the wire in `wire_ms`.
    pub fn replay_write(&mut self, batch: Option<&[Trajectory]>, wire_ms: f64) {
        let d = match batch {
            Some(b) => self.commit(b),
            None => self.build(),
        };
        self.add("server.transport_ms", wire_ms - d);
        self.add("writes", 1.0);
    }

    /// Replays a read statement answered over the wire: `sql` is its
    /// literal text, `op` its parsed shape (`None` for S2T), `wire_ms` the
    /// round trip, `bytes_in` the response size and `answer` the response.
    pub fn replay_read(
        &mut self,
        sql: &str,
        op: Option<Op>,
        wire_ms: f64,
        bytes_in: u64,
        answer: &QueryOutcome,
    ) {
        let id = self.next_id();
        self.replayed += 1;

        // The whole in-process path through the session, uncontended, first:
        // the mirror's buffer pool then holds what the server's held, so
        // this is the in-process cost the wire round trip is compared with.
        let cold_ms = self.session_execute(sql, op);

        // The same statement again, one public call per span.
        let shared = self.shared.clone();
        let prepared = self.prepared.as_ref().map(|p| p.1.clone());
        let tracer = &mut self.tracer;
        let root = tracer.open("replay", None, id);
        match (op, prepared) {
            (Some(op @ Op::QutPrepared(..)), Some(stmt)) => {
                tracer.time("sql.bind", Some(root), id, || {
                    stmt.bind(&op.params()).is_ok()
                });
            }
            _ => {
                tracer.time("sql.parse", Some(root), id, || parse(sql).is_ok());
            }
        }
        let engine = tracer.time("core.pin", Some(root), id, || shared.pin());
        let mut extra: Vec<(&'static str, f64)> = Vec::new();
        match op {
            Some(Op::Range(a, b)) => {
                let subs = tracer.time("retratree.window_load", Some(root), id, || {
                    engine
                        .tree("data")
                        .map(|t| t.window_sub_trajectories(&interval(a, b)))
                        .unwrap_or_default()
                });
                tracer.time("sql.frame", Some(root), id, || range_frame(subs.len()));
            }
            Some(op) => {
                let (a, b) = op.window();
                let base = engine
                    .tree("data")
                    .map(|t| t.params().s2t.clone())
                    .unwrap_or_default();
                let params = if matches!(op, Op::Histogram(..)) {
                    QutParams {
                        s2t: base,
                        ..QutParams::default()
                    }
                } else {
                    QutParams {
                        s2t: S2TParams {
                            tau: 0.35,
                            delta: 0.05,
                            min_duration_ms: 300_000,
                            ..base
                        },
                        merge_distance: 6_000.0,
                        merge_gap: Duration::from_millis(1_800_000),
                    }
                };
                let answered = tracer.time("retratree.qut", Some(root), id, || {
                    engine.run_qut("data", &interval(a, b), &params)
                });
                if let Ok((result, stats)) = answered {
                    tracer.time("sql.frame", Some(root), id, || match op {
                        Op::Histogram(..) => histogram_frame(&result, crate::workload::BUCKET_MS),
                        _ => clusters_frame(&result),
                    });
                    let p = stats.phases;
                    extra.extend([
                        ("retratree.reused_subchunks", stats.reused_subchunks as f64),
                        (
                            "retratree.reclustered_subchunks",
                            stats.reclustered_subchunks as f64,
                        ),
                        (
                            "retratree.loaded_subtrajectories",
                            stats.loaded_sub_trajectories as f64,
                        ),
                        ("s2t.index_build_ms", p.index_build_ms),
                        ("s2t.voting_ms", p.voting_ms),
                        ("s2t.segmentation_ms", p.segmentation_ms),
                        ("s2t.sampling_ms", p.sampling_ms),
                        ("s2t.clustering_ms", p.clustering_ms),
                        ("s2t.kernel_evaluated", stats.kernel.evaluated as f64),
                        ("s2t.kernel_pruned", stats.kernel.pruned as f64),
                    ]);
                }
            }
            None => {
                let trajectories = engine.trajectories("data").unwrap_or(&[]);
                let exec = engine.executor();
                let params = s2t_params();
                let (arena, packed) = tracer.time("s2t.index_build", Some(root), id, || {
                    let arena = SegmentArena::build(trajectories);
                    let packed = PackedSegmentIndex::build(&arena);
                    (arena, packed)
                });
                let (profiles, kernel) = tracer.time("s2t.voting", Some(root), id, || {
                    arena_voting_counted_with(&arena, &packed, &params, exec)
                });
                let subs = tracer.time("s2t.segmentation", Some(root), id, || {
                    segment_all_with(trajectories, &profiles, &params, exec)
                });
                let reps = tracer.time("s2t.sampling", Some(root), id, || {
                    select_representatives_with(&subs, &params, exec)
                });
                let result = tracer.time("s2t.clustering", Some(root), id, || {
                    cluster_around_representatives_with(&subs, &reps, &params, exec)
                });
                tracer.time("sql.frame", Some(root), id, || clusters_frame(&result));
                let span_ms = |name: &str| {
                    tracer.spans[root..]
                        .iter()
                        .filter(|s| s.name == name)
                        .map(|s| s.ms())
                        .sum::<f64>()
                };
                let phases = [
                    "s2t.index_build",
                    "s2t.voting",
                    "s2t.segmentation",
                    "s2t.sampling",
                    "s2t.clustering",
                ];
                let spans_ms: f64 = phases.iter().map(|p| span_ms(p)).sum();
                extra.extend([
                    ("s2t.index_build_ms", span_ms("s2t.index_build")),
                    ("s2t.voting_ms", span_ms("s2t.voting")),
                    ("s2t.segmentation_ms", span_ms("s2t.segmentation")),
                    ("s2t.sampling_ms", span_ms("s2t.sampling")),
                    ("s2t.clustering_ms", span_ms("s2t.clustering")),
                    ("s2t.kernel_evaluated", kernel.evaluated as f64),
                    ("s2t.kernel_pruned", kernel.pruned as f64),
                    ("s2t.subtrajectories", subs.len() as f64),
                    ("s2t.representatives", reps.len() as f64),
                    ("s2t.spans_ms", spans_ms),
                ]);
            }
        }
        tracer.close(root);
        drop(engine);

        // And once more through the session, now as warm as the span
        // replay: the denominator of the span coverage.
        let session_ms = self.session_execute(sql, op);
        if op.is_none() {
            self.add("s2t.session_ms", session_ms);
        }

        // Children of the replay root: what the layers account for.
        let children: f64 = self.tracer.spans[root + 1..]
            .iter()
            .filter(|s| s.parent == Some(root))
            .map(|s| s.ms())
            .sum();

        // The wire codec on the answer actually received.
        let response = match answer {
            QueryOutcome::Rows { frame, stats } => Response::Rows {
                frame: frame.clone(),
                stats: stats.clone(),
            },
            QueryOutcome::Command(status) => Response::Command(status.clone()),
        };
        let mut buf = Vec::new();
        let tracer = &mut self.tracer;
        let enc = tracer.open("protocol.encode", None, id);
        write_response(&mut buf, &response).expect("encode");
        tracer.close(enc);
        let dec = tracer.open("protocol.decode", None, id);
        let _ = read_response(&mut buf.as_slice()).expect("decode");
        tracer.close(dec);
        let (enc_ms, dec_ms) = (tracer.spans[enc].ms(), tracer.spans[dec].ms());

        for (k, v) in extra {
            self.add(k, v);
        }
        self.add("sql.session_ms", session_ms);
        self.add("replay.children_ms", children);
        self.add("sql.session_self_ms", session_ms - children);
        self.add("storage.cold_penalty_ms", cold_ms - session_ms);
        self.add("server.transport_ms", wire_ms - cold_ms);
        self.add("server.response_bytes", bytes_in as f64);
        self.add("protocol.encode_ms", enc_ms);
        self.add("protocol.decode_ms", dec_ms);

        if let (Some(coord), Some(op)) = (self.coord.as_mut(), op) {
            let (shards, partial_ms, merge_ms, exec_ms) =
                coord_replay(coord, sql, op, &mut self.tracer, id);
            self.add("coord.execute_ms", exec_ms);
            self.add("coord.shard_partial_ms", partial_ms);
            self.add("coord.merge_self_ms", merge_ms);
            self.add("coord.shards_per_stmt", shards as f64);
        }
    }

    /// One uncontended `Session::execute` (or `execute_prepared` for the
    /// prepared QUT), ms.
    fn session_execute(&mut self, sql: &str, op: Option<Op>) -> f64 {
        if matches!(op, Some(Op::QutPrepared(..))) && self.prepared.is_none() {
            if let Ok(handle) = self.session.prepare(QUT_PREPARED_SQL) {
                let stmt = parse(QUT_PREPARED_SQL).expect("the prepared QUT parses");
                self.prepared = Some((handle, stmt));
            }
        }
        let t = Instant::now();
        match (op, self.prepared.as_ref()) {
            (Some(op @ Op::QutPrepared(..)), Some((handle, _))) => {
                let _ = self.session.execute_prepared(*handle, &op.params());
            }
            _ => {
                let _ = self.session.execute(sql);
            }
        }
        ms(t)
    }

    /// Session parse-cache hit ratio of the replay session.
    pub fn cache_hit_ratio(&self) -> f64 {
        let s = self.session.stats();
        let total = s.cache_hits + s.parses;
        if total == 0 {
            0.0
        } else {
            s.cache_hits as f64 / total as f64
        }
    }

    /// Epochs published by the replay's commits and builds.
    pub fn epochs(&self) -> u64 {
        self.shared.epoch() - self.epoch0
    }
}

/// Replays one read through the in-process coordinator, then sends the
/// owned partial straight to every shard the window touches and merges the
/// partials locally. Returns `(shards touched, slowest partial ms, merge ms,
/// Coordinator::execute ms)`.
fn coord_replay(
    coord: &mut CoordMirror,
    sql: &str,
    op: Op,
    tracer: &mut Tracer,
    id: u64,
) -> (usize, f64, f64, f64) {
    let stmt: Statement = match parse(sql).and_then(|s| s.bind(&[])) {
        Ok(s) => s,
        Err(_) => return (0, 0.0, 0.0, 0.0),
    };
    let root = tracer.open("coord.execute", None, id);
    let _ = coord
        .coordinator
        .execute(&stmt, &ForwardSpec::Query(sql), &coord.metrics, None);
    tracer.close(root);
    let exec_ms = tracer.spans[root].ms();

    let (wi, we) = op.window();
    let overrides = match op {
        Op::Histogram(..) | Op::Range(..) => None,
        _ => Some((0.35, 0.05, 300_000)),
    };
    let mut slowest = 0.0f64;
    let mut touched = 0usize;
    let mut partials: Vec<QutPartial> = Vec::new();
    for (client, slice) in coord.shards.iter_mut() {
        if !(slice.0 <= we && wi < slice.1) {
            continue;
        }
        touched += 1;
        let span = tracer.open("coord.shard_partial", None, id);
        match op {
            Op::Range(..) => {
                let _ = client.range_partial("data", *slice, (wi, we));
            }
            _ => {
                if let Ok(p) = client.qut_partial("data", *slice, (wi, we), overrides) {
                    partials.push(p);
                }
            }
        }
        tracer.close(span);
        slowest = slowest.max(tracer.spans[span].ms());
    }
    let mut merge_ms = 0.0;
    if touched > 1 && !matches!(op, Op::Range(..)) {
        let params = match op {
            Op::Histogram(..) => QutParams::default(),
            _ => QutParams {
                s2t: S2TParams::default(),
                merge_distance: 6_000.0,
                merge_gap: Duration::from_millis(1_800_000),
            },
        };
        let span = tracer.open("coord.merge", None, id);
        let _ = merge_qut_partials(partials, &params);
        tracer.close(span);
        merge_ms = tracer.spans[span].ms();
    }
    (touched, slowest, merge_ms, exec_ms)
}
