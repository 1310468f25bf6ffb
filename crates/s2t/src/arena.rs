//! Structure-of-arrays storage for the voting hot path.
//!
//! Voting evaluates the exact segment distance for every nearby pair of
//! segments. (It no longer dominates S2T query time: on the whole-dataset
//! S2T of the benchmark's `s2t-batch` workload, sampling takes longer.)
//! Its per-candidate work in the object-graph formulation is pointer
//! chasing: every R-tree hit materializes a
//! [`Segment`](hermes_trajectory::Segment) out of
//! `trajectories[ti].segment(si)` before any arithmetic happens. The
//! [`SegmentArena`] flattens the whole collection once — one pass storing
//! per-segment endpoint lanes (`x0/y0/x1/y1/t0/t1`), precomputed MBB lanes
//! and `(trajectory, segment)` back-references in parallel arrays — so the
//! voting inner loop streams cache-linear `f64`/`i64` lanes instead.
//!
//! The candidate index over the arena is a [`PackedRTree`]: STR-packed flat
//! node arrays queried with zero per-query allocation, with the Euclidean
//! ball test ([`PackedRTree::for_each_ball_candidate_idx`]) pruning corner
//! candidates a per-axis inflate would admit.
//!
//! Candidates that survive the index probe walk a **pruning ladder** of
//! distance lower bounds, cheapest first — the probe's free window-ball gap,
//! then the per-segment box gap — and only survivors reach the exact kernel
//! ([`hermes_trajectory::kernel::mean_sync_distance`]), whose distance is
//! folded into the voter's minimum at once. How many candidates each side
//! of the ladder saw is reported as [`KernelCounters`];
//! `docs/KERNELS.md` walks the whole ladder.
//!
//! **Exactness contract.** [`arena_voting`] is bit-identical to its oracle
//! [`naive_voting`](crate::voting::naive_voting):
//!
//! * the distance kernel is [`hermes_trajectory::kernel::mean_sync_distance`]
//!   — the same function `Segment::mean_synchronized_distance` delegates to
//!   and [`naive_voting`](crate::voting::naive_voting) calls;
//! * per-voter minima are order-independent (`min` is a lattice operation);
//! * per-segment votes are summed in **ascending voter order** in every
//!   implementation, so traversal order cannot perturb the floating sum;
//! * every pruning stage only ever removes candidates whose exact distance
//!   provably cannot change the result: either it exceeds the kernel cutoff
//!   (kernel value exactly `0.0`, additively neutral) or it cannot strictly
//!   improve the voter's best-so-far minimum.
//!
//! One caveat to the pruning argument: it relies on the *computed* mean
//! distance dominating the *computed* box gap. That inequality is exact in
//! real arithmetic and holds through IEEE rounding for the aligned
//! (axis-parallel, gap-equals-distance) configurations trajectory data
//! produces — squaring and `sqrt(x·x)` are monotone under correct rounding
//! — but it is not formally proven for adversarial near-degenerate
//! coordinates where the true margin is below the kernel's few-ulp rounding
//! envelope. The bit-identity tests and the e1 correctness gate verify the
//! claim on every shipped dataset, which are deterministic; a counterexample
//! would fail them loudly rather than corrupt results silently.

use crate::params::S2TParams;
use crate::voting::{kernel, VotingProfile};
use hermes_exec::Executor;
use hermes_gist::{axis_gap, PackedRTree};
use hermes_trajectory::{
    kernel::mean_sync_distance, Mbb, SegLanes, Timestamp, Trajectory, TrajectoryId,
};

/// How many candidate pairs reached the exact distance kernel versus how
/// many a lower bound rejected first. Purely observational — the pruning
/// ladder never changes results (see the module docs) — but the ratio is the
/// direct measure of how much exact-kernel work the bounds are saving, so it
/// is threaded from the voting loop all the way to `SHOW STATS` and the
/// Prometheus registry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelCounters {
    /// Candidate pairs evaluated by the exact mean-sync-distance kernel.
    pub evaluated: u64,
    /// Candidate pairs rejected by a lower bound before the kernel.
    pub pruned: u64,
}

impl KernelCounters {
    /// Accumulates `other` into `self` (both fields are monotone sums).
    pub fn accumulate(&mut self, other: &KernelCounters) {
        self.evaluated += other.evaluated;
        self.pruned += other.pruned;
    }
}

/// Flat, cache-linear storage of every segment of a trajectory collection.
pub struct SegmentArena {
    // Endpoint lanes.
    x0: Vec<f64>,
    y0: Vec<f64>,
    x1: Vec<f64>,
    y1: Vec<f64>,
    t0: Vec<i64>,
    t1: Vec<i64>,
    // Precomputed spatial MBB lanes (the temporal bounds are `t0`/`t1`:
    // segment time is strictly increasing).
    mbb_x_min: Vec<f64>,
    mbb_x_max: Vec<f64>,
    mbb_y_min: Vec<f64>,
    mbb_y_max: Vec<f64>,
    /// Back-reference: owning trajectory index per segment.
    traj_of: Vec<u32>,
    /// Back-reference: local segment index within the owning trajectory.
    seg_of: Vec<u32>,
    /// Prefix offsets: trajectory `ti` owns global segments
    /// `seg_start[ti]..seg_start[ti + 1]`.
    seg_start: Vec<usize>,
    /// Trajectory ids, indexed by trajectory index.
    traj_ids: Vec<TrajectoryId>,
}

impl SegmentArena {
    /// Flattens `trajectories` into the arena in one pass.
    pub fn build(trajectories: &[Trajectory]) -> Self {
        let total: usize = trajectories.iter().map(|t| t.num_segments()).sum();
        let mut arena = SegmentArena {
            x0: Vec::with_capacity(total),
            y0: Vec::with_capacity(total),
            x1: Vec::with_capacity(total),
            y1: Vec::with_capacity(total),
            t0: Vec::with_capacity(total),
            t1: Vec::with_capacity(total),
            mbb_x_min: Vec::with_capacity(total),
            mbb_x_max: Vec::with_capacity(total),
            mbb_y_min: Vec::with_capacity(total),
            mbb_y_max: Vec::with_capacity(total),
            traj_of: Vec::with_capacity(total),
            seg_of: Vec::with_capacity(total),
            seg_start: Vec::with_capacity(trajectories.len() + 1),
            traj_ids: Vec::with_capacity(trajectories.len()),
        };
        for (ti, traj) in trajectories.iter().enumerate() {
            arena.seg_start.push(arena.x0.len());
            arena.traj_ids.push(traj.id);
            let pts = traj.points();
            for si in 0..traj.num_segments() {
                let a = &pts[si];
                let b = &pts[si + 1];
                arena.x0.push(a.x);
                arena.y0.push(a.y);
                arena.x1.push(b.x);
                arena.y1.push(b.y);
                arena.t0.push(a.t.millis());
                arena.t1.push(b.t.millis());
                arena.mbb_x_min.push(a.x.min(b.x));
                arena.mbb_x_max.push(a.x.max(b.x));
                arena.mbb_y_min.push(a.y.min(b.y));
                arena.mbb_y_max.push(a.y.max(b.y));
                arena.traj_of.push(ti as u32);
                arena.seg_of.push(si as u32);
            }
        }
        arena.seg_start.push(arena.x0.len());
        arena
    }

    /// Number of trajectories flattened into the arena.
    pub fn num_trajectories(&self) -> usize {
        self.traj_ids.len()
    }

    /// Total number of segments across every trajectory.
    pub fn num_segments(&self) -> usize {
        self.x0.len()
    }

    /// The global segment range owned by trajectory `ti`.
    pub fn segments_of(&self, ti: usize) -> std::ops::Range<usize> {
        self.seg_start[ti]..self.seg_start[ti + 1]
    }

    /// The id of trajectory `ti`.
    pub fn trajectory_id(&self, ti: usize) -> TrajectoryId {
        self.traj_ids[ti]
    }

    /// The owning trajectory index of global segment `gs`.
    #[inline]
    pub fn trajectory_of(&self, gs: usize) -> usize {
        self.traj_of[gs] as usize
    }

    /// The local segment index of global segment `gs` within its trajectory.
    #[inline]
    pub fn segment_of(&self, gs: usize) -> usize {
        self.seg_of[gs] as usize
    }

    /// Global segment `gs` as flat kernel lanes.
    #[inline]
    pub fn lanes(&self, gs: usize) -> SegLanes {
        SegLanes {
            x0: self.x0[gs],
            y0: self.y0[gs],
            x1: self.x1[gs],
            y1: self.y1[gs],
            t0: self.t0[gs],
            t1: self.t1[gs],
        }
    }

    /// The precomputed MBB of global segment `gs`.
    #[inline]
    pub fn segment_mbb(&self, gs: usize) -> Mbb {
        Mbb::new(
            self.mbb_x_min[gs],
            self.mbb_x_max[gs],
            self.mbb_y_min[gs],
            self.mbb_y_max[gs],
            Timestamp(self.t0[gs]),
            Timestamp(self.t1[gs]),
        )
    }
}

/// The packed candidate index over a [`SegmentArena`]: a [`PackedRTree`]
/// whose values are global segment ids, plus the candidate data the voting
/// loop needs — kernel lanes, spatial bounds and voter index — **permuted
/// into the tree's item order**. STR tiles put spatially/temporally close
/// segments at adjacent item indices, so the hot loop's candidate reads are
/// memory-local instead of chasing back into trajectory order.
/// Everything the voting loop reads about one indexed segment, packed into
/// a single row so the hot loop does one bounds-checked load per candidate
/// instead of chasing a second parallel array: the filter half first
/// (temporal bounds — checked first — then the spatial MBB block and owning
/// trajectory), the kernel endpoint lanes after (read only by candidates
/// that survive every filter).
#[derive(Clone, Copy)]
struct CandidateRow {
    t0: i64,
    t1: i64,
    xy: [f64; 4],
    x0: f64,
    y0: f64,
    x1: f64,
    y1: f64,
    voter: u32,
}

impl CandidateRow {
    /// The row's endpoints as kernel lanes.
    #[inline]
    fn lanes(&self) -> SegLanes {
        SegLanes {
            x0: self.x0,
            y0: self.y0,
            x1: self.x1,
            y1: self.y1,
            t0: self.t0,
            t1: self.t1,
        }
    }
}

pub struct PackedSegmentIndex {
    tree: PackedRTree<u32>,
    /// Candidate rows per tree item (tree item order).
    item_rows: Vec<CandidateRow>,
}

impl PackedSegmentIndex {
    /// STR bulk load over every segment MBB of the arena.
    pub fn build(arena: &SegmentArena) -> Self {
        let items: Vec<(Mbb, u32)> = (0..arena.num_segments())
            .map(|gs| (arena.segment_mbb(gs), gs as u32))
            .collect();
        let tree = PackedRTree::bulk_load(items);
        let n = tree.len();
        let mut index = PackedSegmentIndex {
            item_rows: Vec::with_capacity(n),
            tree,
        };
        for i in 0..n {
            let gs = *index.tree.value(i) as usize;
            index.item_rows.push(CandidateRow {
                t0: arena.t0[gs],
                t1: arena.t1[gs],
                xy: [
                    arena.mbb_x_min[gs],
                    arena.mbb_x_max[gs],
                    arena.mbb_y_min[gs],
                    arena.mbb_y_max[gs],
                ],
                x0: arena.x0[gs],
                y0: arena.y0[gs],
                x1: arena.x1[gs],
                y1: arena.y1[gs],
                voter: arena.traj_of[gs],
            });
        }
        index
    }

    /// Number of indexed segments.
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// True when no segment is indexed.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// The underlying packed tree (for structural inspection).
    pub fn tree(&self) -> &PackedRTree<u32> {
        &self.tree
    }
}

/// Consecutive segments of one trajectory batched into a single index
/// probe. Neighbouring segments share most of their candidate
/// neighbourhood, so one descent with the run's union window serves the
/// whole run; candidates are then partitioned into per-segment lists in one
/// pass (segments of a run tile time contiguously, so each candidate lands
/// in a contiguous sub-range of the run) and only the overlapping pairs pay
/// the spatial filter and kernel.
const QUERY_RUN: usize = 4;

/// Reusable per-worker scratch for [`vote_trajectory_into`]. Between calls
/// every best-distance entry is `f64::INFINITY` and the lists are empty, so
/// a pre-sized scratch makes the voting inner loop allocation-free.
pub struct ArenaVoteScratch {
    /// Best (minimum) kernel distance per voter, one array per run slot:
    /// the fused probe accumulates all `QUERY_RUN` segments of a run in a
    /// single traversal, and slot k's minima must never observe another
    /// slot's folds (each segment's per-voter min is independent state).
    /// Invariant between runs: every entry is `f64::INFINITY` — each vote
    /// fold resets exactly the entries it touched.
    best: [Vec<f64>; QUERY_RUN],
    /// Per-run-slot list of voters holding a finite best.
    touched: [Vec<usize>; QUERY_RUN],
}

impl Default for ArenaVoteScratch {
    fn default() -> Self {
        ArenaVoteScratch {
            best: std::array::from_fn(|_| Vec::new()),
            touched: std::array::from_fn(|_| Vec::new()),
        }
    }
}

impl ArenaVoteScratch {
    /// A scratch pre-sized for `arena`: every slot's best/touched arrays
    /// cover every trajectory, so voting over this arena never reallocates
    /// the scratch. Use this constructor where the zero-allocation
    /// *guarantee* matters (the counting-allocator test, latency-critical
    /// embedders); the thread-local scratch behind [`arena_voting`] instead
    /// starts empty and grows to the observed working set, which is also
    /// allocation-free once warm.
    pub fn for_arena(arena: &SegmentArena) -> Self {
        ArenaVoteScratch {
            best: std::array::from_fn(|_| vec![f64::INFINITY; arena.num_trajectories()]),
            touched: std::array::from_fn(|_| Vec::with_capacity(arena.num_trajectories())),
        }
    }

    fn ensure(&mut self, num_trajectories: usize) {
        for b in self.best.iter_mut() {
            if b.len() < num_trajectories {
                b.resize(num_trajectories, f64::INFINITY);
            }
        }
    }
}

/// Computes the votes of trajectory `ti` into `votes` (cleared first) and
/// returns the pruned-vs-evaluated kernel counters for this trajectory. With
/// a scratch pre-sized via [`ArenaVoteScratch::for_arena`] and a `votes`
/// buffer whose capacity covers the trajectory's segment count, this
/// performs **zero heap allocations** — the property the counting-allocator
/// test in `crates/s2t/tests` pins down.
///
/// One traversal does everything: the probe descends once per `QUERY_RUN`
/// consecutive query segments with the run's union window, and the pruning
/// ladder runs **inside the emission callback**, on the candidate row the
/// partition just loaded — no intermediate candidate lists, no second pass
/// re-reading rows. Per (candidate, slot) pair, cheapest bound first; each
/// stage lower-bounds the exact mean synchronized distance, so a reject
/// provably cannot change the per-voter min or the vote (module docs):
///
/// 1. the probe's free squared **window-ball gap** vs the voter's best²
///    (the window contains every slot's box, so its gap lower-bounds each
///    slot's),
/// 2. the per-segment **box gap** vs the cutoff ball (beyond it the kernel
///    value is exactly 0.0) and the voter's best²,
/// 3. survivors run the exact kernel, and a distance within the cutoff that
///    beats the voter's best is folded at once, so the slot's minima and the
///    best² rejects stay as sharp as the scan order allows.
///
/// The fold order cannot change results: `min` over a fixed candidate set is
/// order-independent, and a pruned candidate's distance would have lost the
/// `d < best` comparison exactly because the bound that pruned it
/// lower-bounds `d`.
pub fn vote_trajectory_into(
    arena: &SegmentArena,
    index: &PackedSegmentIndex,
    params: &S2TParams,
    cutoff: f64,
    ti: usize,
    scratch: &mut ArenaVoteScratch,
    votes: &mut Vec<f64>,
) -> KernelCounters {
    scratch.ensure(arena.num_trajectories());
    votes.clear();
    let ArenaVoteScratch { best, touched } = scratch;
    let mut counters = KernelCounters::default();
    let r2 = cutoff * cutoff;
    let range = arena.segments_of(ti);
    let mut run_start = range.start;
    while run_start < range.end {
        let run_end = (run_start + QUERY_RUN).min(range.end);
        let run_len = run_end - run_start;
        // Hoisted per-slot geometry: kernel lanes and MBB bounds (tail runs
        // repeat the last segment in the unused slots; `run_len` guards
        // every access).
        let segs: [SegLanes; QUERY_RUN] =
            std::array::from_fn(|k| arena.lanes(run_start + k.min(run_len - 1)));
        let sxy: [[f64; 4]; QUERY_RUN] = std::array::from_fn(|k| {
            let gs = run_start + k.min(run_len - 1);
            [
                arena.mbb_x_min[gs],
                arena.mbb_x_max[gs],
                arena.mbb_y_min[gs],
                arena.mbb_y_max[gs],
            ]
        });
        // Union window over the run (times are increasing within a
        // trajectory, so the temporal union is first-start..last-end).
        let mut wx0 = f64::INFINITY;
        let mut wx1 = f64::NEG_INFINITY;
        let mut wy0 = f64::INFINITY;
        let mut wy1 = f64::NEG_INFINITY;
        for xy in sxy[..run_len].iter() {
            wx0 = wx0.min(xy[0]);
            wx1 = wx1.max(xy[1]);
            wy0 = wy0.min(xy[2]);
            wy1 = wy1.max(xy[3]);
        }
        let window = Mbb::new(
            wx0,
            wx1,
            wy0,
            wy1,
            Timestamp(arena.t0[run_start]),
            Timestamp(arena.t1[run_end - 1]),
        );
        index
            .tree
            .for_each_ball_candidate_idx(&window, cutoff, |item, window_gap2| {
                let row = &index.item_rows[item];
                let voter = row.voter as usize;
                if voter == ti {
                    return;
                }
                // The slots a candidate temporally overlaps form a
                // contiguous range of the run (segments of a run tile time
                // contiguously): two short forward scans find it.
                let mut k = 0usize;
                while k < run_len && arena.t1[run_start + k] < row.t0 {
                    k += 1;
                }
                while k < run_len && arena.t0[run_start + k] <= row.t1 {
                    let best_k = &mut best[k];
                    let b = best_k[voter];
                    let b2 = b * b;
                    // Stage 1: window-ball gap vs best². (`d < best` is
                    // strict, so equality skips safely; an untouched voter
                    // has best = ∞, never skipped.)
                    if window_gap2 >= b2 {
                        counters.pruned += 1;
                        k += 1;
                        continue;
                    }
                    // Stage 2: this slot's box gap vs the cutoff ball and
                    // best².
                    let xy = &sxy[k];
                    let gx = axis_gap(row.xy[0], row.xy[1], xy[0], xy[1]);
                    let gy = axis_gap(row.xy[2], row.xy[3], xy[2], xy[3]);
                    let gap2 = gx * gx + gy * gy;
                    if gap2 > r2 || gap2 >= b2 {
                        counters.pruned += 1;
                        k += 1;
                        continue;
                    }
                    // Survivor: the exact kernel, folded at once so the
                    // best² rejects above stay sharp. Distances past the
                    // cutoff (and disjoint lifespans) are not folded: the
                    // Gaussian kernel hard-cuts them to exactly 0.0, which
                    // is additively neutral, so skipping them changes no
                    // vote bit and keeps `touched` short.
                    counters.evaluated += 1;
                    if let Some(d) = mean_sync_distance(&segs[k], &row.lanes()) {
                        if d <= cutoff && d < b {
                            if b.is_infinite() {
                                touched[k].push(voter);
                            }
                            best_k[voter] = d;
                        }
                    }
                    k += 1;
                }
            });
        // Per-slot epilogue, in segment order: the vote.
        for k in 0..run_len {
            let touched_k = &mut touched[k];
            let best_k = &mut best[k];
            // Canonical summation order (ascending voter index): the
            // floating sum must not depend on index traversal order.
            // `sort_unstable` on primitives is in-place — no allocation.
            touched_k.sort_unstable();
            let mut vote = 0.0;
            for &voter in touched_k.iter() {
                vote += kernel(best_k[voter], params.sigma, cutoff);
                best_k[voter] = f64::INFINITY;
            }
            touched_k.clear();
            votes.push(vote);
        }
        run_start = run_end;
    }
    counters
}

thread_local! {
    /// Per-worker arena-voting scratch, reused across trajectories. The
    /// invariant (all-∞ between uses) is restored by `vote_trajectory_into`
    /// itself; the guard below covers the unwind path.
    static ARENA_SCRATCH: std::cell::RefCell<ArenaVoteScratch> =
        std::cell::RefCell::new(ArenaVoteScratch::default());
}

/// Restores the scratch invariant if voting unwinds mid-segment (the exec
/// pool keeps worker threads alive across panics, so a half-reset scratch
/// would corrupt later queries on that thread).
struct ScratchGuard<'a> {
    scratch: &'a mut ArenaVoteScratch,
    completed: bool,
}

impl Drop for ScratchGuard<'_> {
    fn drop(&mut self) {
        if !self.completed {
            for b in self.scratch.best.iter_mut() {
                b.fill(f64::INFINITY);
            }
            for t in self.scratch.touched.iter_mut() {
                t.clear();
            }
        }
    }
}

fn vote_trajectory_arena(
    arena: &SegmentArena,
    index: &PackedSegmentIndex,
    params: &S2TParams,
    cutoff: f64,
    ti: usize,
) -> (VotingProfile, KernelCounters) {
    ARENA_SCRATCH.with(|cell| {
        let mut scratch = cell.borrow_mut();
        let mut guard = ScratchGuard {
            scratch: &mut scratch,
            completed: false,
        };
        let mut votes = Vec::with_capacity(arena.segments_of(ti).len());
        let counters =
            vote_trajectory_into(arena, index, params, cutoff, ti, guard.scratch, &mut votes);
        guard.completed = true;
        (
            VotingProfile {
                trajectory_id: arena.trajectory_id(ti),
                trajectory_index: ti,
                votes,
            },
            counters,
        )
    })
}

/// Index-accelerated voting over the flat arena — the S2T hot path. Serial
/// shorthand for [`arena_voting_with`].
pub fn arena_voting(
    arena: &SegmentArena,
    index: &PackedSegmentIndex,
    params: &S2TParams,
) -> Vec<VotingProfile> {
    arena_voting_with(arena, index, params, &Executor::serial())
}

/// [`arena_voting`] fanned out over trajectories on `exec`. Profiles come
/// back in input order and every vote is computed by exactly one task, so
/// the result is bit-identical to the serial path — and to
/// [`naive_voting`](crate::voting::naive_voting) (see the module docs for
/// why).
pub fn arena_voting_with(
    arena: &SegmentArena,
    index: &PackedSegmentIndex,
    params: &S2TParams,
    exec: &Executor,
) -> Vec<VotingProfile> {
    arena_voting_counted_with(arena, index, params, exec).0
}

/// [`arena_voting_with`] plus the summed pruned-vs-evaluated kernel
/// counters. Counter totals are deterministic: pruning decisions depend only
/// on the per-trajectory scan, never on thread interleaving.
pub fn arena_voting_counted_with(
    arena: &SegmentArena,
    index: &PackedSegmentIndex,
    params: &S2TParams,
    exec: &Executor,
) -> (Vec<VotingProfile>, KernelCounters) {
    let cutoff = params.voting_cutoff_radius();
    let per_traj = exec.map_indices(arena.num_trajectories(), |ti| {
        vote_trajectory_arena(arena, index, params, cutoff, ti)
    });
    let mut totals = KernelCounters::default();
    let mut profiles = Vec::with_capacity(per_traj.len());
    for (profile, counters) in per_traj {
        totals.accumulate(&counters);
        profiles.push(profile);
    }
    (profiles, totals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::voting::{naive_voting, naive_voting_with};
    use hermes_trajectory::Point;

    fn line(id: u64, y0: f64, t0: i64, n: usize) -> Trajectory {
        Trajectory::new(
            id,
            id,
            (0..n)
                .map(|i| Point::new(i as f64 * 10.0, y0, Timestamp(t0 + i as i64 * 10_000)))
                .collect(),
        )
        .unwrap()
    }

    fn params(sigma: f64) -> S2TParams {
        S2TParams {
            sigma,
            ..S2TParams::default()
        }
    }

    fn mixed_mod() -> Vec<Trajectory> {
        let mut trajs = Vec::new();
        for i in 0..4 {
            trajs.push(line(i, i as f64 * 8.0, 0, 12));
        }
        for i in 4..7 {
            trajs.push(line(i, 500.0 + i as f64 * 8.0, 30_000, 12));
        }
        trajs.push(line(7, 10_000.0, 0, 12));
        trajs
    }

    #[test]
    fn arena_flattens_the_collection_faithfully() {
        let trajs = mixed_mod();
        let arena = SegmentArena::build(&trajs);
        assert_eq!(arena.num_trajectories(), trajs.len());
        assert_eq!(arena.num_segments(), 8 * 11);
        for (ti, traj) in trajs.iter().enumerate() {
            let range = arena.segments_of(ti);
            assert_eq!(range.len(), traj.num_segments());
            assert_eq!(arena.trajectory_id(ti), traj.id);
            for (si, gs) in range.enumerate() {
                assert_eq!(arena.trajectory_of(gs), ti);
                assert_eq!(arena.segment_of(gs), si);
                let seg = traj.segment(si);
                assert_eq!(arena.lanes(gs), seg.lanes());
                assert_eq!(arena.segment_mbb(gs), seg.mbb());
            }
        }
    }

    #[test]
    fn arena_voting_is_bit_identical_to_the_naive_oracle() {
        let trajs = mixed_mod();
        let p = params(25.0);
        let arena = SegmentArena::build(&trajs);
        let packed = PackedSegmentIndex::build(&arena);
        assert_eq!(packed.len(), arena.num_segments());

        let via_arena = arena_voting(&arena, &packed, &p);
        let via_naive = naive_voting(&trajs, &p);
        // Exact, not approximate: both paths share the kernel and the
        // canonical summation order.
        assert_eq!(via_arena, via_naive);
    }

    #[test]
    fn kernel_counters_account_for_every_candidate() {
        let trajs = mixed_mod();
        let p = params(25.0);
        let arena = SegmentArena::build(&trajs);
        let packed = PackedSegmentIndex::build(&arena);
        let (profiles, counters) =
            arena_voting_counted_with(&arena, &packed, &p, &Executor::serial());
        assert_eq!(profiles, arena_voting(&arena, &packed, &p));
        // The clustered lines vote for each other, so the exact kernel must
        // have run; the far-away outlier line guarantees pruned candidates.
        assert!(counters.evaluated > 0, "{counters:?}");
        assert!(counters.pruned > 0, "{counters:?}");
        // Counter totals are deterministic and thread-independent.
        for threads in [2usize, 4] {
            let exec = Executor::new(hermes_exec::ExecPolicy { threads });
            let (_, parallel) = arena_voting_counted_with(&arena, &packed, &p, &exec);
            assert_eq!(parallel, counters);
        }
    }

    #[test]
    fn parallel_arena_voting_matches_serial_exactly() {
        let trajs: Vec<Trajectory> = (0..12).map(|i| line(i, i as f64 * 6.0, 0, 10)).collect();
        let p = params(25.0);
        let arena = SegmentArena::build(&trajs);
        let packed = PackedSegmentIndex::build(&arena);
        let serial = arena_voting(&arena, &packed, &p);
        assert_eq!(serial, naive_voting(&trajs, &p));
        for threads in [2usize, 4, 8] {
            let exec = Executor::new(hermes_exec::ExecPolicy { threads });
            assert_eq!(arena_voting_with(&arena, &packed, &p, &exec), serial);
            assert_eq!(naive_voting_with(&trajs, &p, &exec), serial);
        }
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        let p = params(10.0);
        let arena = SegmentArena::build(&[]);
        let packed = PackedSegmentIndex::build(&arena);
        assert!(packed.is_empty());
        assert!(arena_voting(&arena, &packed, &p).is_empty());

        let single = vec![line(0, 0.0, 0, 5)];
        let arena = SegmentArena::build(&single);
        let packed = PackedSegmentIndex::build(&arena);
        let profiles = arena_voting(&arena, &packed, &p);
        assert_eq!(profiles.len(), 1);
        assert!(profiles[0].votes.iter().all(|&v| v == 0.0));
        assert_eq!(profiles, naive_voting(&single, &p));
    }

    #[test]
    fn scratch_reuse_keeps_results_stable() {
        let trajs = mixed_mod();
        let p = params(25.0);
        let cutoff = p.voting_cutoff_radius();
        let arena = SegmentArena::build(&trajs);
        let packed = PackedSegmentIndex::build(&arena);
        let mut scratch = ArenaVoteScratch::for_arena(&arena);
        let mut votes = Vec::with_capacity(16);
        let reference = arena_voting(&arena, &packed, &p);
        // Voting the same trajectories repeatedly through one scratch must
        // reproduce the reference bit for bit (the all-∞ invariant holds).
        for _round in 0..3 {
            for (ti, expected) in reference.iter().enumerate() {
                vote_trajectory_into(&arena, &packed, &p, cutoff, ti, &mut scratch, &mut votes);
                assert_eq!(votes, expected.votes, "trajectory {ti}");
            }
        }
    }
}
