//! Seeded inputs: the aircraft datasets of every workload and the statement
//! streams the closed-loop connections send.
//!
//! Everything here is a pure function of the seed, so a traced run and an
//! untraced run of the same seed see the same data and the same statements.

use hermes_datagen::AircraftScenarioBuilder;
use hermes_sql::Value;
use hermes_trajectory::{Timestamp, Trajectory};

/// BUILD INDEX statement used by every workload: 2 h chunks, 30 min
/// sub-chunks, σ = 2 km, ε = 6 km.
pub const BUILD_SQL: &str = "BUILD INDEX ON data WITH CHUNK 2 HOURS SIGMA 2000 EPSILON 6000;";
/// Whole-dataset S2T with the same σ/ε as the index.
pub const S2T_SQL: &str = "SELECT S2T(data, 2000, 0.35, 0.05, 300000, 6000);";
/// The prepared QUT text; `$1`/`$2` bind the window.
pub const QUT_PREPARED_SQL: &str = "SELECT QUT(data, $1, $2, 0.35, 0.05, 300000, 6000, 1800000);";
/// Index chunk duration (ms), matching [`BUILD_SQL`].
pub const CHUNK_MS: i64 = 2 * 3_600_000;
/// Sub-chunk duration (ms): the default four sub-chunks per chunk.
pub const SUBCHUNK_MS: i64 = CHUNK_MS / 4;
/// Histogram bucket width (ms).
pub const BUCKET_MS: i64 = 15 * 60_000;
/// Trajectories per open-loop INGEST batch.
pub const INGEST_BATCH: usize = 2;

const MINUTE: i64 = 60_000;
const HOUR: i64 = 60 * MINUTE;

/// SplitMix64: a tiny, well-mixed deterministic generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        debug_assert!(lo <= hi);
        lo + (self.next_u64() % (hi - lo + 1) as u64) as i64
    }
}

/// One aircraft scenario: `3 × waves × per_wave` stream flights plus 10%
/// stragglers, 30% of flights holding, waves 45 min apart.
pub fn aircraft(seed: u64, waves: usize, per_wave: usize) -> Vec<Trajectory> {
    AircraftScenarioBuilder {
        seed,
        num_streams: 3,
        waves_per_stream: waves,
        flights_per_wave: per_wave,
        num_stragglers: (3 * waves * per_wave / 10).max(1),
        holding_probability: 0.3,
        ..AircraftScenarioBuilder::default()
    }
    .build()
    .trajectories
}

/// Shifts ids (and object ids) by `offset` so a second scenario can join a
/// dataset without colliding, and its samples in time by `shift_ms`.
pub fn relabel(trajectories: Vec<Trajectory>, offset: u64, shift_ms: i64) -> Vec<Trajectory> {
    trajectories
        .into_iter()
        .map(|t| {
            let points = t
                .points()
                .iter()
                .map(|p| {
                    let mut p = *p;
                    p.t = Timestamp(p.t.millis() + shift_ms);
                    p
                })
                .collect();
            Trajectory::new(t.id + offset, t.object_id + offset, points)
                .expect("a time-shifted valid trajectory stays valid")
        })
        .collect()
}

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Interactive analyst mix on one server, data larger than the pool.
    Explore,
    /// Whole-dataset S2T alternating with index rebuilds.
    S2tBatch,
    /// Open-loop ingest ladder beside a reader on a durable server.
    LiveIngest,
    /// The explore mix through a coordinator over two shards.
    Sharded,
}

impl Workload {
    /// Every workload, in BENCHMARK.json order.
    pub const ALL: [Workload; 4] = [
        Workload::Explore,
        Workload::S2tBatch,
        Workload::LiveIngest,
        Workload::Sharded,
    ];

    /// Parses a workload name as BENCHMARK.json spells it.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "explore" => Some(Workload::Explore),
            "s2t-batch" => Some(Workload::S2tBatch),
            "live-ingest" => Some(Workload::LiveIngest),
            "sharded" => Some(Workload::Sharded),
            _ => None,
        }
    }

    /// Intra-query compute threads per server. Where two connections share
    /// one server (`explore`, `live-ingest`) it computes serially: fanning
    /// out as well oversubscribes the cores and makes runs markedly less
    /// repeatable. `s2t-batch` sends one statement at a time and a
    /// `sharded` window mostly lands on one shard, so those fan out over
    /// every core, the deployment default.
    pub fn server_threads(self) -> usize {
        match self {
            Workload::Explore | Workload::LiveIngest => 1,
            _ => std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }

    /// The BENCHMARK.json name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Explore => "explore",
            Workload::S2tBatch => "s2t-batch",
            Workload::LiveIngest => "live-ingest",
            Workload::Sharded => "sharded",
        }
    }
}

/// Every input of one run, derived from the seed.
pub struct Inputs {
    /// Base dataset, ingested during set-up.
    pub base: Vec<Trajectory>,
    /// Trajectories streamed in during the measured phase (live-ingest's
    /// feed, sharded's thin stream), in send order.
    pub stream: Vec<Trajectory>,
    /// Temporal extent of the base data, ms.
    pub span: (i64, i64),
}

/// Builds the inputs of `workload` for `seed`.
pub fn inputs(workload: Workload, seed: u64) -> Inputs {
    let (base, stream) = match workload {
        // 3 × 32 × 20 + stragglers ≈ 2.1k flights over 24 h.
        Workload::Explore => (aircraft(seed, 32, 20), Vec::new()),
        // 3 × 64 × 20 + stragglers ≈ 4.2k flights over 48 h.
        Workload::S2tBatch => (aircraft(seed, 64, 20), Vec::new()),
        // ≈ 530 flights over 12 h; the feed is four more scenarios over the
        // same 12 h from derived seeds, with fresh ids.
        Workload::LiveIngest => {
            let feed = (0..4u64)
                .flat_map(|k| {
                    let s = aircraft(derive(seed, 0x11 + k), 16, 10);
                    relabel(s, 1_000_000 * (k + 1), 0)
                })
                .collect();
            (aircraft(seed, 16, 10), feed)
        }
        // The explore data, plus a thin stream of flights placed after the
        // base span so the sampled read answers stay fixed.
        Workload::Sharded => {
            let base = aircraft(seed, 32, 20);
            let end = span_of(&base).1;
            let after = (end / CHUNK_MS + 1) * CHUNK_MS;
            let stream = relabel(aircraft(derive(seed, 0x5A), 8, 5), 5_000_000, after);
            (base, stream)
        }
    };
    let span = span_of(&base);
    Inputs { base, stream, span }
}

/// A seed derived from `seed` for a secondary input.
pub fn derive(seed: u64, salt: u64) -> u64 {
    Rng::new(seed, salt).next_u64()
}

/// `(first sample, last sample)` over a collection, ms.
pub fn span_of(trajectories: &[Trajectory]) -> (i64, i64) {
    let lo = trajectories
        .iter()
        .map(|t| t.start_time().millis())
        .min()
        .unwrap_or(0);
    let hi = trajectories
        .iter()
        .map(|t| t.lifespan().end.millis())
        .max()
        .unwrap_or(0);
    (lo, hi)
}

/// Encoded size of trajectories on the wire (20-byte header + 24 bytes per
/// point): the "user bytes" disk usage is compared against.
pub fn user_bytes(trajectories: &[Trajectory]) -> u64 {
    trajectories
        .iter()
        .map(|t| 20 + 24 * t.points().len() as u64)
        .sum()
}

/// Statement classes, as latencies are reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kind {
    /// `SELECT RANGE`.
    Range,
    /// `SELECT QUT` (literal or prepared, straddling or aligned).
    Qut,
    /// `SELECT HISTOGRAM`.
    Histogram,
    /// `SELECT S2T`.
    S2t,
    /// `BUILD INDEX`.
    Build,
    /// `INGEST` (open-loop or thin stream).
    Ingest,
    /// `CHECKPOINT`.
    Checkpoint,
}

/// One read statement of the closed-loop mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// RANGE over a 30 min – 2 h window.
    Range(i64, i64),
    /// QUT over a window straddling the sub-chunk grid (border re-clustering).
    Qut(i64, i64),
    /// The same, through Prepare/ExecutePrepared.
    QutPrepared(i64, i64),
    /// QUT over a sub-chunk-aligned window (the reuse path).
    QutAligned(i64, i64),
    /// HISTOGRAM with 15 min buckets over a 2 h window.
    Histogram(i64, i64),
}

impl Op {
    /// The statement class.
    pub fn kind(&self) -> Kind {
        match self {
            Op::Range(..) => Kind::Range,
            Op::Qut(..) | Op::QutPrepared(..) | Op::QutAligned(..) => Kind::Qut,
            Op::Histogram(..) => Kind::Histogram,
        }
    }

    /// The window.
    pub fn window(&self) -> (i64, i64) {
        match *self {
            Op::Range(a, b)
            | Op::Qut(a, b)
            | Op::QutPrepared(a, b)
            | Op::QutAligned(a, b)
            | Op::Histogram(a, b) => (a, b),
        }
    }

    /// The literal statement text (prepared statements render the text they
    /// are equivalent to; the reference engine answers that).
    pub fn sql(&self) -> String {
        let (a, b) = self.window();
        match self {
            Op::Range(..) => format!("SELECT RANGE(data, {a}, {b});"),
            Op::Qut(..) | Op::QutPrepared(..) | Op::QutAligned(..) => {
                format!("SELECT QUT(data, {a}, {b}, 0.35, 0.05, 300000, 6000, 1800000);")
            }
            Op::Histogram(..) => format!("SELECT HISTOGRAM(data, {a}, {b}, {BUCKET_MS});"),
        }
    }

    /// Bind parameters for [`QUT_PREPARED_SQL`].
    pub fn params(&self) -> Vec<Value> {
        let (a, b) = self.window();
        vec![Value::Int(a), Value::Int(b)]
    }
}

/// The closed-loop read mix over a data span: per 20 statements, 10 RANGE,
/// 4 straddling QUT, 2 prepared straddling QUT, 2 aligned QUT and 2
/// HISTOGRAM. Straddling QUTs are three quarters of all QUTs, so the QUT
/// median sits inside the border-re-clustering mode.
pub struct Mix {
    rng: Rng,
    lo: i64,
    hi: i64,
}

impl Mix {
    /// The mix of connection `conn` for `seed` over `span`.
    pub fn new(seed: u64, conn: u64, span: (i64, i64)) -> Mix {
        Mix {
            rng: Rng::new(seed, 0xC0 + conn),
            lo: span.0.max(0),
            hi: span.1,
        }
    }

    fn window(&mut self, min: i64, max: i64) -> (i64, i64) {
        let len = self.rng.range(min / MINUTE, max / MINUTE) * MINUTE;
        let last = (self.hi - len).max(self.lo);
        let start = self.rng.range(self.lo / MINUTE, last / MINUTE) * MINUTE;
        (start, start + len)
    }

    fn straddling(&mut self) -> (i64, i64) {
        let (mut a, mut b) = self.window(30 * MINUTE, 2 * HOUR);
        // Off the grid on both ends: the border sub-chunks re-cluster.
        if a % SUBCHUNK_MS == 0 {
            a += 7 * MINUTE;
        }
        if b % SUBCHUNK_MS == 0 {
            b -= 7 * MINUTE;
        }
        (a, b)
    }

    fn aligned(&mut self) -> (i64, i64) {
        let subs = self.rng.range(1, 4);
        let first = self.lo.div_euclid(SUBCHUNK_MS);
        let last = (self.hi.div_euclid(SUBCHUNK_MS) - subs).max(first);
        let a = self.rng.range(first, last) * SUBCHUNK_MS;
        // QUT windows are closed; end one millisecond before the next
        // sub-chunk so the window covers whole sub-chunks only.
        (a, a + subs * SUBCHUNK_MS - 1)
    }

    /// The next statement.
    pub fn next_op(&mut self) -> Op {
        match self.rng.range(0, 19) {
            0..=9 => {
                let (a, b) = self.window(30 * MINUTE, 2 * HOUR);
                Op::Range(a, b)
            }
            10..=13 => {
                let (a, b) = self.straddling();
                Op::Qut(a, b)
            }
            14..=15 => {
                let (a, b) = self.straddling();
                Op::QutPrepared(a, b)
            }
            16..=17 => {
                let (a, b) = self.aligned();
                Op::QutAligned(a, b)
            }
            _ => {
                let (a, b) = self.window(2 * HOUR, 2 * HOUR);
                Op::Histogram(a, b)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_deterministic_in_the_seed() {
        for w in [Workload::LiveIngest, Workload::Sharded] {
            let a = inputs(w, 7);
            let b = inputs(w, 7);
            assert_eq!(a.base.len(), b.base.len());
            assert_eq!(a.span, b.span);
            assert!(a
                .base
                .iter()
                .zip(&b.base)
                .all(|(x, y)| x.points() == y.points()));
            assert!(a
                .stream
                .iter()
                .zip(&b.stream)
                .all(|(x, y)| x.id == y.id && x.points() == y.points()));
            let c = inputs(w, 8);
            assert!(a
                .base
                .iter()
                .zip(&c.base)
                .any(|(x, y)| x.points() != y.points()));
        }
        let mut m1 = Mix::new(3, 0, (0, 86_400_000));
        let mut m2 = Mix::new(3, 0, (0, 86_400_000));
        for _ in 0..200 {
            assert_eq!(m1.next_op(), m2.next_op());
        }
    }

    #[test]
    fn generation_never_panics_over_a_range_of_seeds() {
        for seed in 0..40u64 {
            let live = inputs(Workload::LiveIngest, seed);
            assert!(live.base.len() >= 480, "seed {seed}: {}", live.base.len());
            assert!(live.stream.len() >= 4 * 480);
            let mut ids: Vec<u64> = live.base.iter().chain(&live.stream).map(|t| t.id).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(
                ids.len(),
                live.base.len() + live.stream.len(),
                "seed {seed}: id clash"
            );

            let sharded = inputs(Workload::Sharded, seed);
            let first_stream = span_of(&sharded.stream).0;
            assert!(
                first_stream > sharded.span.1,
                "seed {seed}: stream overlaps the base"
            );

            let mut mix = Mix::new(seed, 1, sharded.span);
            for _ in 0..500 {
                let op = mix.next_op();
                let (a, b) = op.window();
                assert!(a >= 0 && a < b && b <= sharded.span.1.max(a + 1), "{op:?}");
                match op {
                    Op::QutAligned(a, b) => {
                        assert_eq!(a % SUBCHUNK_MS, 0);
                        assert_eq!((b + 1) % SUBCHUNK_MS, 0);
                    }
                    Op::Qut(a, b) | Op::QutPrepared(a, b) => {
                        assert_ne!(a % SUBCHUNK_MS, 0);
                        assert_ne!(b % SUBCHUNK_MS, 0);
                    }
                    _ => {}
                }
            }
        }
        for seed in 0..4u64 {
            let batch = inputs(Workload::S2tBatch, seed);
            assert!(batch.base.len() > 4_000);
            assert!(batch.span.1 - batch.span.0 > 47 * HOUR);
        }
    }

    #[test]
    fn mix_proportions_follow_the_documented_shares() {
        let mut mix = Mix::new(1, 0, (0, 86_400_000));
        let mut counts = std::collections::HashMap::new();
        for _ in 0..20_000 {
            *counts.entry(mix.next_op().kind()).or_insert(0usize) += 1;
        }
        let share = |k| counts[&k] as f64 / 20_000.0;
        assert!((share(Kind::Range) - 0.5).abs() < 0.02);
        assert!((share(Kind::Qut) - 0.4).abs() < 0.02);
        assert!((share(Kind::Histogram) - 0.1).abs() < 0.02);
    }
}
