//! End-to-end benchmark: aircraft workloads through the release
//! `hermes-serve` and `hermes-coord` binaries, driven over the wire protocol
//! by this one load-generator process (at most two connections, two
//! driving threads).
//!
//! ```text
//! bash perfbench/run.sh --workload explore --seed 1 --seconds 20 --trace 0
//! bash perfbench/run.sh --workload all --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last stdout line is one JSON object (`correct`, `attempted`,
//! `failed`, `metrics`); the lines before it are the full report: run
//! metadata and every metric by name with its unit. `--trace 1` runs the
//! same seed and schedule but replays each statement in-process after its
//! round trip and reports the per-layer breakdown instead. See
//! `perfbench/README.md` for the workloads and the metric definitions.

mod openloop;
mod procs;
mod replay;
mod stats;
mod trace;
mod workload;

use hermes_server::HermesClient;
use hermes_sql::{QueryOutcome, Value};
use hermes_trajectory::Trajectory;
use openloop::{judge, rate_at_slo, run_feed, schedule, Rung};
use procs::{Bins, Proc};
use replay::{frame_bytes, CoordMirror, Mirror};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Mutex;
use std::time::{Duration, Instant};
use workload::{
    Kind, Mix, Op, Workload, BUILD_SQL, CHUNK_MS, INGEST_BATCH, QUT_PREPARED_SQL, S2T_SQL,
};

/// A panicked connection thread fails the run; nothing reads its state after.
const POISONED: &str = "a connection thread panicked while holding the lock";
/// Independent set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Every n-th closed-loop answer is kept for the reference comparison.
const SAMPLE_EVERY: u64 = 40;
/// At most this many answers are kept per connection.
const MAX_SAMPLES: usize = 60;
/// `ingest_rate_at_slo` limit on a rung's tail latency, ms.
const INGEST_SLO_MS: f64 = 50.0;
/// Thin ingest stream of `sharded`: one batch every this many statements.
const THIN_INGEST_EVERY: u64 = 20;
/// Prefix of the `s2t-batch` data the naive S2T oracle runs on.
const ORACLE_PREFIX: usize = 150;

#[derive(Clone)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    bin_dir: PathBuf,
}

/// The parsed flags, once per workload: `--workload all` runs every
/// workload in turn.
fn parse_args() -> Result<Vec<Args>, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut bin_dir = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => workload = Some(Workload::ALL.to_vec()),
            "--workload" => {
                workload =
                    Some(vec![Workload::parse(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?])
            }
            "--seed" => seed = value.parse().map_err(|_| "bad --seed".to_string())?,
            "--seconds" => seconds = value.parse().map_err(|_| "bad --seconds".to_string())?,
            "--trace" => trace = value == "1",
            "--bin-dir" => bin_dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let bin_dir = bin_dir.ok_or("--bin-dir is required")?;
    Ok(workload
        .ok_or("--workload is required")?
        .into_iter()
        .map(|workload| Args {
            workload,
            seed,
            seconds,
            trace,
            bin_dir: bin_dir.clone(),
        })
        .collect())
}

fn ms(from: Instant) -> f64 {
    from.elapsed().as_secs_f64() * 1_000.0
}

/// What the load generator observed.
#[derive(Default)]
struct Rec {
    lat: BTreeMap<Kind, Vec<f64>>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    /// `(literal sql, answer bytes)` kept for the reference comparison.
    samples: Vec<(String, Vec<u8>)>,
    /// Closed-loop statements completed.
    completed: u64,
}

impl Rec {
    fn ok(&mut self, kind: Kind, ms: f64) {
        self.attempted += 1;
        self.lat.entry(kind).or_default().push(ms);
    }

    fn fail(&mut self, what: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.errors.len() < 10 {
            self.errors.push(what);
        }
    }

    /// A check that is not a timed statement: counts as attempted, and as
    /// failed when wrong.
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if ok {
            self.attempted += 1;
        } else {
            self.fail(what());
        }
    }

    fn absorb(&mut self, other: Rec) {
        for (k, mut v) in other.lat {
            self.lat.entry(k).or_default().append(&mut v);
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
        self.samples.extend(other.samples);
        self.completed += other.completed;
    }

    fn lat(&self, kind: Kind) -> &[f64] {
        self.lat.get(&kind).map(Vec::as_slice).unwrap_or(&[])
    }
}

/// The processes of one set-up.
struct Topo {
    /// Servers first, then the coordinator when there is one.
    procs: Vec<Proc>,
    /// Where clients connect.
    addr: String,
    /// `(name, addr, start_ms, end_ms)` of the shards (`sharded` only).
    shards: Vec<(String, String, i64, i64)>,
    /// The durable data directory (`live-ingest` only).
    data_dir: Option<PathBuf>,
}

impl Topo {
    /// Peak RSS summed over every process, MB.
    fn rss_mb(&self) -> f64 {
        self.procs
            .iter()
            .map(|p| p.peak_rss_kb().unwrap_or(0) as f64 / 1024.0)
            .sum()
    }

    /// `hermes-serve` addresses (the shards behind a coordinator).
    fn server_addrs(&self) -> Vec<String> {
        if self.shards.is_empty() {
            vec![self.addr.clone()]
        } else {
            self.shards.iter().map(|s| s.1.clone()).collect()
        }
    }
}

fn launch(
    w: Workload,
    bins: &Bins,
    work: &Path,
    rep: usize,
    span: (i64, i64),
) -> Result<Topo, String> {
    let err = |e: std::io::Error| e.to_string();
    let threads = w.server_threads();
    Ok(match w {
        Workload::Explore | Workload::S2tBatch => {
            let p = bins.serve(threads).map_err(err)?;
            Topo {
                addr: p.addr.clone(),
                procs: vec![p],
                shards: Vec::new(),
                data_dir: None,
            }
        }
        Workload::LiveIngest => {
            let dir = work.join(format!("data-{rep}"));
            std::fs::create_dir_all(&dir).map_err(err)?;
            let p = bins.serve_durable(threads, &dir).map_err(err)?;
            Topo {
                addr: p.addr.clone(),
                procs: vec![p],
                shards: Vec::new(),
                data_dir: Some(dir),
            }
        }
        Workload::Sharded => {
            // Two shards split at the chunk boundary nearest the middle.
            let cut = ((span.0 + span.1) / 2 + CHUNK_MS / 2).div_euclid(CHUNK_MS) * CHUNK_MS;
            let a = bins.serve(threads).map_err(err)?;
            let b = bins.serve(threads).map_err(err)?;
            let shards = vec![
                ("early".to_string(), a.addr.clone(), i64::MIN, cut),
                ("late".to_string(), b.addr.clone(), cut, i64::MAX),
            ];
            let c = bins.coord(&shards).map_err(err)?;
            Topo {
                addr: c.addr.clone(),
                procs: vec![a, b, c],
                shards,
                data_dir: None,
            }
        }
    })
}

/// Launch, ingest the base data, BUILD INDEX, warm up. Returns the topology,
/// the set-up seconds, the BUILD INDEX latency in ms and the processes'
/// peak resident memory so far in MB.
fn setup(
    w: Workload,
    bins: &Bins,
    work: &Path,
    rep: usize,
    inputs: &workload::Inputs,
    seed: u64,
) -> Result<(Topo, f64, f64, f64), String> {
    let t0 = Instant::now();
    let topo = launch(w, bins, work, rep, inputs.span)?;
    let mut c = HermesClient::connect(topo.addr.as_str()).map_err(|e| e.to_string())?;
    let n = c
        .ingest("data", &inputs.base)
        .map_err(|e| format!("base ingest: {e}"))?;
    if n != inputs.base.len() as u64 {
        return Err(format!("base ingest accepted {n} of {}", inputs.base.len()));
    }
    let tb = Instant::now();
    let built = c
        .query(BUILD_SQL)
        .map_err(|e| format!("BUILD INDEX: {e}"))?;
    let build_ms = ms(tb);
    let indexed = built.command().map(|s| s.affected).unwrap_or(0);
    if indexed < inputs.base.len() as u64 {
        return Err(format!(
            "BUILD INDEX indexed {indexed} of {}",
            inputs.base.len()
        ));
    }
    if w == Workload::S2tBatch {
        c.query("SELECT INFO(data);").map_err(|e| e.to_string())?;
    } else {
        let mut warm = Mix::new(seed, 99, inputs.span);
        for _ in 0..8 {
            c.query(&warm.next_op().sql())
                .map_err(|e| format!("warm-up: {e}"))?;
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    let rss = topo.rss_mb();
    Ok((topo, secs, build_ms, rss))
}

/// Runs `f` with the mirror locked when the run is traced, so a statement's
/// round trip and its replay are both uncontended.
fn guarded<R>(mirror: Option<&Mutex<Mirror>>, f: impl FnOnce(Option<&mut Mirror>) -> R) -> R {
    match mirror {
        Some(m) => {
            let mut g = m.lock().expect(POISONED);
            f(Some(&mut g))
        }
        None => f(None),
    }
}

/// Where and for how long the closed-loop connections of a run send.
struct Target<'a> {
    addr: &'a str,
    seed: u64,
    span: (i64, i64),
    deadline: Instant,
    /// The mirror, locked across each round trip and its replay, when the
    /// run is traced.
    mirror: Option<&'a Mutex<Mirror>>,
}

/// Connection `conn` sending the read mix until the deadline. `sample`
/// keeps answers for the reference comparison; `between` runs after every
/// statement (thin ingest, checkpoints).
fn closed_loop(
    target: &Target<'_>,
    conn: u64,
    sample: bool,
    mut between: impl FnMut(&mut HermesClient, &mut Rec, Option<&mut Mirror>),
) -> Rec {
    let Target {
        addr,
        seed,
        span,
        deadline,
        mirror,
    } = *target;
    let mut rec = Rec::default();
    let mut client = match HermesClient::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            rec.fail(format!("connect: {e}"));
            return rec;
        }
    };
    let prepared = match client.prepare(QUT_PREPARED_SQL) {
        Ok(p) => p,
        Err(e) => {
            rec.fail(format!("prepare: {e}"));
            return rec;
        }
    };
    let mut mix = Mix::new(seed, conn, span);
    let mut n = 0u64;
    while Instant::now() < deadline {
        let op = mix.next_op();
        guarded(mirror, |mut m| {
            let before = client.bytes_in();
            let t = Instant::now();
            let result = match op {
                Op::QutPrepared(..) => client.execute_prepared(prepared, &op.params()),
                _ => client.query(&op.sql()),
            };
            let wire_ms = ms(t);
            match result {
                Ok(outcome) => {
                    rec.ok(op.kind(), wire_ms);
                    rec.completed += 1;
                    if sample && n.is_multiple_of(SAMPLE_EVERY) && rec.samples.len() < MAX_SAMPLES {
                        if let Some(bytes) = frame_bytes(&outcome) {
                            rec.samples.push((op.sql(), bytes));
                        }
                    }
                    if let Some(m) = m.as_deref_mut() {
                        m.replay_read(
                            &op.sql(),
                            Some(op),
                            wire_ms,
                            client.bytes_in() - before,
                            &outcome,
                        );
                    }
                }
                Err(e) => rec.fail(format!("{}: {e}", op.sql())),
            }
            between(&mut client, &mut rec, m);
        });
        n += 1;
    }
    rec
}

/// `(scope.metric → value)` engine counters summed over servers.
fn engine_stats(addrs: &[String]) -> BTreeMap<String, i64> {
    let mut out = BTreeMap::new();
    for addr in addrs {
        let Ok(mut c) = HermesClient::connect(addr.as_str()) else {
            continue;
        };
        let Ok(QueryOutcome::Rows { frame, .. }) = c.query("SHOW STATS;") else {
            continue;
        };
        for row in frame.rows() {
            if let [Value::Text(scope), Value::Text(metric), Value::Int(v)] = row.as_slice() {
                if scope == "engine" {
                    *out.entry(metric.clone()).or_insert(0) += *v;
                }
            }
        }
    }
    out
}

fn info_count(c: &mut HermesClient) -> Result<i64, String> {
    let outcome = c.query("SELECT INFO(data);").map_err(|e| e.to_string())?;
    outcome
        .frame()
        .and_then(|f| f.get(0, "trajectories"))
        .and_then(Value::as_i64)
        .ok_or_else(|| "INFO answered without a trajectory count".to_string())
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .map(|e| match e.metadata() {
                    Ok(m) if m.is_dir() => dir_bytes(&e.path()),
                    Ok(m) => m.len(),
                    Err(_) => 0,
                })
                .sum()
        })
        .unwrap_or(0)
}

/// Everything a run reports.
#[derive(Default)]
struct Outcome {
    rec: Rec,
    /// The metrics BENCHMARK.json gates, `(name, value, unit)`: end-to-end
    /// untraced, per-layer traced.
    gated: Vec<(String, f64, &'static str)>,
    /// Every other metric, reported only.
    metrics: Vec<(String, f64, &'static str)>,
    /// Extra report lines.
    notes: Vec<String>,
    /// Engine counters read just before a SIGKILL.
    stats_before_kill: Option<BTreeMap<String, i64>>,
    /// Peak RSS read just before a SIGKILL, MB.
    rss_before_kill: Option<f64>,
    /// `/proc/stat` ticks when the measured phase ended.
    ticks_after: (u64, u64),
}

impl Outcome {
    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    fn latency(&mut self, name: &str, samples: &[f64]) {
        if samples.is_empty() {
            self.notes.push(format!("{name}_p50_ms n/a (no samples)"));
            return;
        }
        let tail = stats::tail(samples).expect("non-empty");
        let p50 = stats::median(samples);
        self.metric(&format!("{name}_p50_ms"), p50, "ms");
        self.metric(&format!("{name}_tail_ms"), tail.value, "ms");
        self.notes.push(format!(
            "{name}_tail_ms is p{} of {} samples",
            tail.percentile, tail.samples
        ));
    }
}

/// The explore / sharded mix over two connections, plus the reference
/// comparison of the sampled answers.
fn run_mix(
    args: &Args,
    inputs: &workload::Inputs,
    topo: &Topo,
    mirror: &Mutex<Mirror>,
    out: &mut Outcome,
) -> f64 {
    let traced = args.trace.then_some(mirror);
    let batches: Vec<&[Trajectory]> = inputs.stream.chunks(INGEST_BATCH).collect();
    let mut next_batch = 0usize;
    let mut ingested = 0u64;
    let start = Instant::now();
    let target = Target {
        addr: &topo.addr,
        seed: args.seed,
        span: inputs.span,
        deadline: start + Duration::from_secs_f64(args.seconds),
        mirror: traced,
    };
    let recs: Vec<Rec> = std::thread::scope(|s| {
        let a = s.spawn(|| {
            let mut k = 0u64;
            closed_loop(&target, 0, true, |c, rec, m| {
                k += 1;
                if !k.is_multiple_of(THIN_INGEST_EVERY) || next_batch >= batches.len() {
                    return;
                }
                let batch = batches[next_batch];
                next_batch += 1;
                let t = Instant::now();
                match c.ingest("data", batch) {
                    Ok(n) if n == batch.len() as u64 => {
                        let wire = ms(t);
                        rec.ok(Kind::Ingest, wire);
                        ingested += n;
                        if let Some(m) = m {
                            m.replay_write(Some(batch), wire);
                        }
                    }
                    Ok(n) => rec.fail(format!("thin ingest accepted {n} of {}", batch.len())),
                    Err(e) => rec.fail(format!("thin ingest: {e}")),
                }
            })
        });
        let b = s.spawn(|| closed_loop(&target, 1, true, |_, _, _| {}));
        vec![
            a.join().expect("connection 0"),
            b.join().expect("connection 1"),
        ]
    });
    let elapsed = start.elapsed().as_secs_f64();
    out.ticks_after = cpu_ticks();
    for r in recs {
        out.rec.absorb(r);
    }
    let stmt_per_s = out.rec.completed as f64 / elapsed;

    // Answer checks: every sampled answer against the single-node reference.
    let samples = std::mem::take(&mut out.rec.samples);
    let mut m = mirror.lock().expect(POISONED);
    let mut checked = 0;
    for (sql, got) in &samples {
        let want = m.answer(sql);
        let ok = want.as_ref() == Ok(got);
        out.rec
            .check(ok, || format!("answer mismatch vs reference: {sql}"));
        checked += 1;
    }
    out.notes.push(format!(
        "answers byte-compared against the reference: {checked}"
    ));
    if !inputs.stream.is_empty() {
        let expected = inputs.base.len() as u64 + ingested;
        let counted = HermesClient::connect(topo.addr.as_str())
            .map_err(|e| e.to_string())
            .and_then(|mut c| info_count(&mut c));
        out.rec.check(counted == Ok(expected as i64), || {
            format!("INFO after thin ingest: {counted:?}, expected {expected}")
        });
        out.notes.push(format!(
            "thin ingest: {ingested} trajectories in {} batches",
            out.rec.lat(Kind::Ingest).len()
        ));
    }
    stmt_per_s
}

/// `s2t-batch`: whole-dataset S2T alternating with BUILD INDEX, in whole
/// cycles, on one connection.
fn run_s2t_batch(
    args: &Args,
    inputs: &workload::Inputs,
    topo: &Topo,
    mirror: &Mutex<Mirror>,
    out: &mut Outcome,
) -> Result<f64, String> {
    let traced = args.trace.then_some(mirror);
    // The reference answer, computed before the loop so the mirror's
    // allocator is as warm for the replays as the server's is.
    let want = mirror.lock().expect(POISONED).answer(S2T_SQL);
    let mut c = HermesClient::connect(topo.addr.as_str()).map_err(|e| e.to_string())?;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(args.seconds);
    let mut answers: Vec<Vec<u8>> = Vec::new();
    let mut cycles = 0u64;
    let rec = &mut out.rec;
    while cycles == 0 || Instant::now() < deadline {
        guarded(traced, |m| {
            let before = c.bytes_in();
            let t = Instant::now();
            match c.query(S2T_SQL) {
                Ok(outcome) => {
                    let wire = ms(t);
                    rec.ok(Kind::S2t, wire);
                    rec.completed += 1;
                    answers.extend(frame_bytes(&outcome));
                    if let Some(m) = m {
                        m.replay_read(S2T_SQL, None, wire, c.bytes_in() - before, &outcome);
                    }
                }
                Err(e) => rec.fail(format!("S2T: {e}")),
            }
        });
        guarded(traced, |m| {
            let t = Instant::now();
            match c.query(BUILD_SQL) {
                Ok(outcome) => {
                    let wire = ms(t);
                    let affected = outcome.command().map(|s| s.affected).unwrap_or(0);
                    if affected == inputs.base.len() as u64 {
                        rec.ok(Kind::Build, wire);
                        rec.completed += 1;
                    } else {
                        rec.fail(format!(
                            "BUILD INDEX indexed {affected} of {}",
                            inputs.base.len()
                        ));
                    }
                    if let Some(m) = m {
                        m.replay_write(None, wire);
                    }
                }
                Err(e) => rec.fail(format!("BUILD INDEX: {e}")),
            }
        });
        cycles += 1;
    }
    let stmt_per_s = (2 * cycles) as f64 / start.elapsed().as_secs_f64();
    out.ticks_after = cpu_ticks();

    // Every S2T answer must equal the reference engine's run_s2t, and on a
    // prefix the indexed pipeline must equal the naive oracle.
    for got in &answers {
        out.rec.check(want.as_ref() == Ok(got), || {
            "S2T answer differs from the reference run_s2t".into()
        });
    }
    let prefix = &inputs.base[..ORACLE_PREFIX.min(inputs.base.len())];
    let params = replay::s2t_params();
    let fast = hermes_sql::clusters_frame(&hermes_s2t::run_s2t(prefix, &params).result);
    let naive = hermes_sql::clusters_frame(&hermes_s2t::run_s2t_naive(prefix, &params).result);
    out.rec.check(fast == naive, || {
        "run_s2t differs from the run_s2t_naive oracle".into()
    });
    out.notes.push(format!(
        "S2T answers compared with the reference: {}; naive oracle on {} trajectories",
        answers.len(),
        prefix.len()
    ));
    Ok(stmt_per_s)
}

/// The offered-rate ladder: four equal rungs over the run.
fn ladder(seconds: f64) -> Vec<Rung> {
    [10.0, 20.0, 40.0, 80.0]
        .into_iter()
        .map(|rate| Rung {
            rate,
            secs: seconds / 4.0,
        })
        .collect()
}

/// `live-ingest`: the open-loop feed and a closed-loop reader with periodic
/// checkpoints, then SIGKILL, restart and verification.
fn run_live(
    args: &Args,
    bins: &Bins,
    inputs: &workload::Inputs,
    topo: &mut Topo,
    mirror: &Mutex<Mirror>,
    out: &mut Outcome,
) -> Result<f64, String> {
    let traced = args.trace.then_some(mirror);
    let rungs = ladder(args.seconds);
    let sched = schedule(&rungs);
    let batches: Vec<Vec<Trajectory>> = inputs
        .stream
        .chunks(INGEST_BATCH)
        .map(<[Trajectory]>::to_vec)
        .collect();
    let n = sched.len().min(batches.len());
    let due: Vec<u64> = sched[..n].iter().map(|s| s.0).collect();
    let rungs_of: Vec<usize> = sched[..n].iter().map(|s| s.1).collect();
    let rung_secs = args.seconds / rungs.len() as f64;

    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(args.seconds);
    let mut checkpoints =
        (0..rungs.len()).map(|r| start + Duration::from_secs_f64((r as f64 + 0.5) * rung_secs));
    let mut next_ckpt = checkpoints.next();
    // Acknowledged batches travel to the reader thread, which replays their
    // commits between its statements: the feed never waits on the mirror.
    let (acks, acked_rx) = std::sync::mpsc::channel::<(usize, f64)>();
    let acked_rx = Mutex::new(acked_rx);
    let replay_acks = |m: &mut Mirror| {
        let rx = acked_rx.lock().expect(POISONED);
        for (i, wire_ms) in rx.try_iter() {
            m.replay_write(Some(&batches[i]), wire_ms);
        }
    };
    let (addr, feed_batches, due) = (topo.addr.as_str(), batches.as_slice(), due.as_slice());
    let target = Target {
        addr,
        seed: args.seed,
        span: inputs.span,
        deadline,
        mirror: traced,
    };
    let (feed, reader) = std::thread::scope(|s| {
        let feed = s.spawn(move || {
            run_feed(addr, feed_batches, due, start, |i, ok, wire_ms| {
                if ok && traced.is_some() {
                    let _ = acks.send((i, wire_ms));
                }
            })
        });
        let reader = s.spawn(|| {
            closed_loop(&target, 0, false, |c, rec, m| {
                if let Some(m) = m {
                    replay_acks(m);
                }
                if next_ckpt.is_some_and(|t| Instant::now() >= t) {
                    next_ckpt = checkpoints.next();
                    let t = Instant::now();
                    match c.query("CHECKPOINT;") {
                        Ok(_) => rec.ok(Kind::Checkpoint, ms(t)),
                        Err(e) => rec.fail(format!("CHECKPOINT: {e}")),
                    }
                }
            })
        });
        (
            feed.join().expect("feed thread"),
            reader.join().expect("reader thread"),
        )
    });
    guarded(traced, |m| m.map(replay_acks));
    let reader_secs = start.elapsed().as_secs_f64();
    out.ticks_after = cpu_ticks();
    out.rec.absorb(reader);
    let stmt_per_s = out.rec.completed as f64 / reader_secs;
    let log = feed.map_err(|e| format!("ingest feed: {e}"))?;

    let mut acked: Vec<&[Trajectory]> = Vec::new();
    let latency = log.latency_ms();
    for (i, ok) in log.ok.iter().enumerate() {
        if *ok {
            out.rec.ok(Kind::Ingest, latency[i]);
            acked.push(&batches[i]);
        } else {
            out.rec
                .fail(format!("ingest batch {i} not acknowledged as applied"));
        }
    }
    let lateness = log.lateness_ms();
    let late_tail = stats::tail(&lateness).map(|t| t.value).unwrap_or(0.0);
    out.notes.push(format!(
        "generator lateness: p50 {:.4} ms, tail {:.4} ms, max {:.4} ms",
        stats::median(&lateness),
        late_tail,
        lateness.iter().copied().fold(0.0, f64::max)
    ));
    let verdicts = judge(&log, &rungs_of, &rungs, INGEST_SLO_MS);
    for v in &verdicts {
        out.notes.push(format!(
            "ladder rung {} batches/s: tail {:.3} ms, {}",
            v.rate,
            v.tail_ms,
            if v.sustained {
                "sustained"
            } else {
                "not sustained"
            }
        ));
    }
    out.metric("ingest_rate_at_slo", rate_at_slo(&verdicts), "batches/s");

    // State before the kill.
    let expected = (inputs.base.len() + acked.iter().map(|b| b.len()).sum::<usize>()) as i64;
    let mut check_sql: Vec<String> = Vec::new();
    let mut probe = Mix::new(args.seed, 77, inputs.span);
    while check_sql.len() < 6 {
        let op = probe.next_op();
        if op.kind() != Kind::Histogram {
            check_sql.push(op.sql());
        }
    }
    let mut c = HermesClient::connect(topo.addr.as_str()).map_err(|e| e.to_string())?;
    let before: Vec<Result<Vec<u8>, String>> = check_sql
        .iter()
        .map(|sql| {
            c.query(sql)
                .map_err(|e| e.to_string())
                .and_then(|o| frame_bytes(&o).ok_or_else(|| "no rows".into()))
        })
        .collect();
    let counted = info_count(&mut c);
    out.rec.check(counted == Ok(expected), || {
        format!("INFO before the kill: {counted:?}, expected {expected}")
    });
    drop(c);
    let dir = topo.data_dir.clone().expect("durable topology");
    let user = workload::user_bytes(&inputs.base)
        + acked.iter().map(|b| workload::user_bytes(b)).sum::<u64>();
    out.metric(
        "disk_bytes_per_user_byte",
        dir_bytes(&dir) as f64 / user as f64,
        "ratio",
    );
    out.rss_before_kill = Some(topo.rss_mb());
    out.stats_before_kill = Some(engine_stats(&topo.server_addrs()));

    // SIGKILL, restart over the same directory, wait for a correct answer.
    let killed = Instant::now();
    topo.procs[0].kill();
    let restarted = bins
        .serve_durable(args.workload.server_threads(), &dir)
        .map_err(|e| format!("restart: {e}"))?;
    let mut recovered = None;
    while killed.elapsed() < Duration::from_secs(60) {
        if let Ok(mut c) = HermesClient::connect(restarted.addr.as_str()) {
            if info_count(&mut c) == Ok(expected) {
                recovered = Some(killed.elapsed().as_secs_f64());
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    out.rec.check(recovered.is_some(), || {
        format!("restarted server never counted the {expected} acknowledged trajectories")
    });
    out.metric("recovery_s", recovered.unwrap_or(0.0), "s");
    let mut c = HermesClient::connect(restarted.addr.as_str()).map_err(|e| e.to_string())?;
    let mut m = mirror.lock().expect(POISONED);
    if !args.trace {
        for b in &acked {
            m.commit(b);
        }
    }
    for (sql, pre) in check_sql.iter().zip(&before) {
        let post = c
            .query(sql)
            .map_err(|e| e.to_string())
            .and_then(|o| frame_bytes(&o).ok_or_else(|| "no rows".into()));
        out.rec.check(pre.is_ok() && post == *pre, || {
            format!("answer changed across SIGKILL + restart: {sql}")
        });
        let want = m.answer(sql);
        out.rec.check(want == post, || {
            format!("recovered answer differs from the reference: {sql}")
        });
    }
    topo.procs.push(restarted);
    out.notes.push(format!(
        "durability: WAL group commit every {} B (the default), recovery checked after SIGKILL (page cache survives, so this tests WAL replay, not fsync)",
        hermes_storage::wal::DEFAULT_SYNC_INTERVAL_BYTES
    ));
    Ok(stmt_per_s)
}

fn git_rev() -> String {
    // Never look above the current directory for a repository.
    let cwd = std::env::current_dir().unwrap_or_default();
    let ceiling = cwd
        .parent()
        .map(|p| p.display().to_string())
        .unwrap_or_default();
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".into())
}

/// `(busy, steal)` CPU ticks of the whole machine from `/proc/stat`; steal
/// is time the hypervisor gave to other guests.
fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    let get = |i: usize| fields.get(i).copied().unwrap_or(0);
    // user nice system idle iowait irq softirq steal
    (get(0) + get(1) + get(2) + get(5) + get(6), get(7))
}

fn metadata(args: &Args, inputs: &workload::Inputs) -> String {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unset".into());
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    // hermes-serve's default event-loop worker count.
    let workers = nproc.clamp(2, 8);
    let threads = args.workload.server_threads();
    let points: usize = inputs.base.iter().map(|t| t.len()).sum();
    let wal = if args.workload == Workload::LiveIngest {
        format!(
            "group-commit-{}B",
            hermes_storage::wal::DEFAULT_SYNC_INTERVAL_BYTES
        )
    } else {
        "none(in-memory)".into()
    };
    format!(
        "meta workload={} seed={} trace={} seconds={} git_rev={} nproc={nproc} simd={:?} HERMES_SIMD={} HERMES_THREADS={} server_workers={workers} server_threads={threads} trajectories={} points={points} stream_trajectories={} wal_flush={wal} connections={}",
        args.workload.name(),
        args.seed,
        args.trace as u8,
        args.seconds,
        git_rev(),
        hermes_trajectory::simd_level(),
        env("HERMES_SIMD"),
        env("HERMES_THREADS"),
        inputs.base.len(),
        inputs.stream.len(),
        if args.workload == Workload::S2tBatch { 1 } else { 2 },
    )
}

/// The per-layer metrics of a traced run, `(name, value, unit)`.
fn layer_metrics(
    m: &Mirror,
    storage: &BTreeMap<String, i64>,
    before: &BTreeMap<String, i64>,
    checkpoints: &[f64],
) -> Vec<(String, f64, &'static str)> {
    let sum = |k: &str| m.sums.get(k).copied().unwrap_or(0.0);
    let totals = m.tracer.total_ms();
    let per_call = |name: &str| {
        let n = m.tracer.count(name);
        if n == 0 {
            0.0
        } else {
            totals.get(name).copied().unwrap_or(0.0) / n as f64
        }
    };
    let div = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let reads = m.replayed as f64;
    let writes = sum("writes");
    let quts = m.tracer.count("retratree.qut") as f64;
    let s2ts = m.tracer.count("s2t.voting") as f64;
    let clustering_calls = quts + s2ts;
    let delta = |k: &str| {
        (storage.get(k).copied().unwrap_or(0) - before.get(k).copied().unwrap_or(0)) as f64
    };
    let hits = delta("buffer_hits");
    let misses = delta("buffer_misses");
    let evaluated = sum("s2t.kernel_evaluated");
    let pruned = sum("s2t.kernel_pruned");
    let coord_reads = if m.coord.is_some() { reads } else { 0.0 };
    let span_cost_ms = span_cost_ms();
    vec![
        // Differences of two timings: clipped at zero only after averaging,
        // so per-statement noise cancels instead of biasing upwards.
        (
            "server.transport_ms",
            div(sum("server.transport_ms"), reads + writes).max(0.0),
            "ms",
        ),
        (
            "server.response_bytes",
            div(sum("server.response_bytes"), reads),
            "B",
        ),
        (
            "protocol.encode_ms",
            div(sum("protocol.encode_ms"), reads),
            "ms",
        ),
        (
            "protocol.decode_ms",
            div(sum("protocol.decode_ms"), reads),
            "ms",
        ),
        ("sql.parse_ms", per_call("sql.parse"), "ms"),
        (
            "sql.session_self_ms",
            div(sum("sql.session_self_ms"), reads).max(0.0),
            "ms",
        ),
        ("sql.cache_hit_ratio", m.cache_hit_ratio(), "ratio"),
        ("core.pin_ms", per_call("core.pin"), "ms"),
        ("core.commit_ms", per_call("core.commit"), "ms"),
        ("core.epochs", m.epochs() as f64, "count"),
        ("retratree.qut_ms", per_call("retratree.qut"), "ms"),
        (
            "retratree.window_load_ms",
            per_call("retratree.window_load"),
            "ms",
        ),
        (
            "retratree.reused_subchunks",
            div(sum("retratree.reused_subchunks"), quts),
            "count",
        ),
        (
            "retratree.reclustered_subchunks",
            div(sum("retratree.reclustered_subchunks"), quts),
            "count",
        ),
        (
            "retratree.loaded_subtrajectories",
            div(sum("retratree.loaded_subtrajectories"), quts),
            "count",
        ),
        ("retratree.build_ms", per_call("retratree.build"), "ms"),
        (
            "s2t.index_build_ms",
            div(sum("s2t.index_build_ms"), clustering_calls),
            "ms",
        ),
        (
            "s2t.voting_ms",
            div(sum("s2t.voting_ms"), clustering_calls),
            "ms",
        ),
        (
            "s2t.segmentation_ms",
            div(sum("s2t.segmentation_ms"), clustering_calls),
            "ms",
        ),
        (
            "s2t.sampling_ms",
            div(sum("s2t.sampling_ms"), clustering_calls),
            "ms",
        ),
        (
            "s2t.clustering_ms",
            div(sum("s2t.clustering_ms"), clustering_calls),
            "ms",
        ),
        (
            "s2t.kernel_evaluated",
            div(evaluated, clustering_calls),
            "count",
        ),
        ("s2t.kernel_pruned", div(pruned, clustering_calls), "count"),
        ("s2t.prune_ratio", div(pruned, pruned + evaluated), "ratio"),
        (
            "s2t.subtrajectories",
            div(sum("s2t.subtrajectories"), s2ts),
            "count",
        ),
        (
            "s2t.representatives",
            div(sum("s2t.representatives"), s2ts),
            "count",
        ),
        (
            "s2t.span_coverage",
            div(sum("s2t.spans_ms"), sum("s2t.session_ms")),
            "ratio",
        ),
        (
            "storage.buffer_hit_ratio",
            div(hits, hits + misses),
            "ratio",
        ),
        (
            "storage.buffer_evictions",
            delta("buffer_evictions"),
            "count",
        ),
        (
            "storage.wal_bytes",
            storage.get("wal_bytes").copied().unwrap_or(0) as f64,
            "B",
        ),
        (
            "storage.snapshot_bytes",
            storage.get("snapshot_bytes").copied().unwrap_or(0) as f64,
            "B",
        ),
        ("storage.checkpoint_ms", stats::mean(checkpoints), "ms"),
        (
            "storage.cold_penalty_ms",
            div(sum("storage.cold_penalty_ms"), reads).max(0.0),
            "ms",
        ),
        (
            "coord.execute_ms",
            div(sum("coord.execute_ms"), coord_reads),
            "ms",
        ),
        (
            "coord.shard_partial_ms",
            div(sum("coord.shard_partial_ms"), coord_reads),
            "ms",
        ),
        (
            "coord.merge_self_ms",
            div(sum("coord.merge_self_ms"), coord_reads),
            "ms",
        ),
        (
            "coord.shards_per_stmt",
            div(sum("coord.shards_per_stmt"), coord_reads),
            "count",
        ),
        (
            "trace.span_coverage",
            div(sum("replay.children_ms"), sum("sql.session_ms")),
            "ratio",
        ),
        (
            "trace.overhead_share",
            div(
                m.tracer.spans.len() as f64 * span_cost_ms,
                totals.values().sum::<f64>(),
            ),
            "ratio",
        ),
        ("trace.spans", m.tracer.spans.len() as f64, "count"),
    ]
    .into_iter()
    .map(|(k, v, u)| (k.to_string(), v, u))
    .collect()
}

/// Cost of recording one span, ms: the tracer's own overhead, measured.
fn span_cost_ms() -> f64 {
    let mut t = trace::Tracer::default();
    let n = 20_000;
    let start = Instant::now();
    for i in 0..n {
        let id = t.open("calibrate", None, i);
        t.close(id);
    }
    ms(start) / n as f64
}

fn run(args: &Args) -> Result<Outcome, String> {
    let bins = Bins::in_dir(&args.bin_dir).map_err(|e| e.to_string())?;
    let work = PathBuf::from(".perfbench-work").join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("work dir: {e}"))?;
    let _cleanup = RemoveOnDrop(work.clone());

    let w = args.workload;
    let inputs = workload::inputs(w, args.seed);
    let mut out = Outcome::default();
    out.notes.push(metadata(args, &inputs));

    // Reference / mirror engine from the same inputs.
    let mirror = Mutex::new(Mirror::new(&inputs.base, w.server_threads()));

    // Set-up, several times; keep the last topology.
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::new();
    let mut build_ms = Vec::new();
    let mut setup_rss = Vec::new();
    let mut topo = None;
    for rep in 0..reps {
        drop(topo.take());
        let (t, s, b, r) = setup(w, &bins, &work, rep, &inputs, args.seed)?;
        setup_s.push(s);
        build_ms.push(b);
        setup_rss.push(r);
        topo = Some(t);
    }
    let mut topo = topo.expect("at least one set-up");
    if w == Workload::Sharded && args.trace {
        let coord = CoordMirror::connect(&topo.shards).map_err(|e| e.to_string())?;
        mirror.lock().expect(POISONED).coord = Some(coord);
    }

    let stats_before = engine_stats(&topo.server_addrs());
    let ticks_before = cpu_ticks();
    let stmt_per_s = match w {
        Workload::Explore | Workload::Sharded => run_mix(args, &inputs, &topo, &mirror, &mut out),
        Workload::S2tBatch => run_s2t_batch(args, &inputs, &topo, &mirror, &mut out)?,
        Workload::LiveIngest => run_live(args, &bins, &inputs, &mut topo, &mirror, &mut out)?,
    };
    // live-ingest reads its counters and RSS before the kill.
    let stats_after = out
        .stats_before_kill
        .take()
        .unwrap_or_else(|| engine_stats(&topo.server_addrs()));
    let rss = out.rss_before_kill.unwrap_or_else(|| topo.rss_mb());
    drop(topo);
    let (busy, stolen) = (
        out.ticks_after.0.saturating_sub(ticks_before.0),
        out.ticks_after.1.saturating_sub(ticks_before.1),
    );
    // The share of the CPU time the run asked for that the hypervisor gave
    // to other guests instead. Throughput and latency scale with the share
    // granted, so the gated figures are scaled back to an unstolen machine.
    let steal = stolen as f64 / (busy + stolen).max(1) as f64;
    out.notes.push(format!(
        "cpu steal during the measured phase: {steal:.4} of busy+steal ticks ({stolen} of {})",
        busy + stolen
    ));

    // The headline statement: QUT, or S2T where no QUT runs. On
    // `live-ingest` that is the reader's QUT beside the feed; the feed's own
    // latency wakes several threads per batch, swings with CPU steal far
    // more than the steal share explains, and is reported beside it.
    let head = match w {
        Workload::S2tBatch => Kind::S2t,
        _ => Kind::Qut,
    };
    build_ms.extend_from_slice(out.rec.lat(Kind::Build));
    let head_samples = out.rec.lat(head).to_vec();
    let head_tail = stats::tail(&head_samples);
    let head_p50 = stats::median(&head_samples);
    // What BENCHMARK.json gates: present and non-zero on every workload.
    let mut gated = vec![
        ("setup_s".to_string(), stats::median(&setup_s), "s"),
        (
            "stmt_per_s_adj".to_string(),
            stmt_per_s / (1.0 - steal),
            "1/s",
        ),
        (
            "head_p50_ms_adj".to_string(),
            head_p50 * (1.0 - steal),
            "ms",
        ),
        ("setup_rss_mb".to_string(), stats::median(&setup_rss), "MB"),
    ];
    out.metric("server_rss_mb", rss, "MB");
    out.metric("stmt_per_s", stmt_per_s, "1/s");
    out.metric("head_p50_ms", head_p50, "ms");
    out.metric("head_tail_ms", head_tail.map_or(0.0, |t| t.value), "ms");
    out.metric("build_p50_ms", stats::median(&build_ms), "ms");
    out.notes.push(format!(
        "head statement: {head:?}; head_tail_ms is p{} of {} samples; setup_s is the median of {} set-ups: {:?}",
        head_tail.map(|t| t.percentile).unwrap_or(0.0),
        head_samples.len(),
        setup_s.len(),
        setup_s
    ));
    for (kind, name) in [
        (Kind::Qut, "qut"),
        (Kind::Range, "range"),
        (Kind::Histogram, "histogram"),
        (Kind::S2t, "s2t"),
        (Kind::Ingest, "ingest"),
        (Kind::Checkpoint, "checkpoint"),
    ] {
        let v = out.rec.lat(kind).to_vec();
        if !v.is_empty() {
            out.latency(name, &v);
        }
    }
    let failed_share = out.rec.failed as f64 / out.rec.attempted.max(1) as f64;
    out.metric("failed_share", failed_share, "ratio");
    let hits = (stats_after.get("buffer_hits").copied().unwrap_or(0)
        - stats_before.get("buffer_hits").copied().unwrap_or(0)) as f64;
    let misses = (stats_after.get("buffer_misses").copied().unwrap_or(0)
        - stats_before.get("buffer_misses").copied().unwrap_or(0)) as f64;
    if hits + misses > 0.0 {
        out.notes.push(format!(
            "buffer pool during the measured phase: {:.4} of page requests missed ({} of {})",
            misses / (hits + misses),
            misses,
            hits + misses
        ));
    }

    if args.trace {
        let m = mirror.lock().expect(POISONED);
        let layers = layer_metrics(
            &m,
            &stats_after,
            &stats_before,
            out.rec.lat(Kind::Checkpoint),
        );
        let spans_path =
            PathBuf::from(".perfbench-out").join(format!("spans-{}-{}.tsv", w.name(), args.seed));
        let written = std::fs::create_dir_all(".perfbench-out")
            .and_then(|_| std::fs::File::create(&spans_path))
            .and_then(|f| m.tracer.write_tsv(std::io::BufWriter::new(f)));
        out.notes.push(match written {
            Ok(()) => format!("spans written to {}", spans_path.display()),
            Err(e) => format!("spans not written: {e}"),
        });
        let own = m.tracer.self_ms();
        let total: f64 = own.values().sum();
        for (name, v) in &own {
            out.notes.push(format!(
                "self time {name}: {v:.3} ms ({:.4} of traced time)",
                v / total.max(1e-9)
            ));
        }
        out.notes.extend(
            gated
                .iter()
                .map(|(k, v, u)| format!("untraced-shape {k} {v} {u} (traced run)")),
        );
        gated = layers;
    }
    out.gated = gated;
    Ok(out)
}

struct RemoveOnDrop(PathBuf);

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Only removes the parent when no other run is using it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() -> ExitCode {
    let runs = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut all_correct = true;
    for args in &runs {
        match run(args) {
            Ok(out) => all_correct &= report(&out),
            Err(e) => {
                eprintln!("perfbench: {}: {e}", args.workload.name());
                return ExitCode::FAILURE;
            }
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Prints one run's report and, last, its JSON line; true when every
/// statement and check succeeded.
fn report(out: &Outcome) -> bool {
    for note in &out.notes {
        println!("# {note}");
    }
    for (name, value, unit) in out.gated.iter().chain(&out.metrics) {
        println!("metric {name} {value} {unit}");
    }
    for e in &out.rec.errors {
        eprintln!("perfbench: FAILED {e}");
    }
    let correct = out.rec.failed == 0;
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.rec.attempted.max(1),
        out.rec.failed
    );
    for (i, (name, value, unit)) in out.gated.iter().enumerate() {
        if i > 0 {
            json.push_str(", ");
        }
        let _ = write!(
            json,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        );
    }
    json.push_str("}}");
    println!("{json}");
    correct
}
