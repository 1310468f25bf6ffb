//! The end-to-end S2T-Clustering pipeline.
//!
//! Wires the four steps together (voting → segmentation → sampling →
//! clustering) and reports per-phase wall-clock timings, which the benchmark
//! harness uses to regenerate the paper's speedup claims (experiments E1 and
//! E3).

use crate::arena::{arena_voting_counted_with, KernelCounters, PackedSegmentIndex, SegmentArena};
use crate::clustering::{
    cluster_around_representatives_naive, cluster_around_representatives_with, ClusteringResult,
};
use crate::params::S2TParams;
use crate::sampling::{select_representatives_naive, select_representatives_with};
use crate::segmentation::{segment_all_with, VotedSubTrajectory};
use crate::voting::{naive_voting_with, VotingProfile};
use hermes_exec::Executor;
use hermes_trajectory::{SubTrajectory, Trajectory};
use std::time::Instant;

/// Wall-clock timings of the pipeline phases, in milliseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct S2TPhaseTimings {
    /// Building the segment index (0 for the naive variant).
    pub index_build_ms: f64,
    /// Voting phase.
    pub voting_ms: f64,
    /// Segmentation phase.
    pub segmentation_ms: f64,
    /// Sampling (representative selection) phase.
    pub sampling_ms: f64,
    /// Greedy clustering / outlier detection phase.
    pub clustering_ms: f64,
}

impl S2TPhaseTimings {
    /// Total pipeline time.
    pub fn total_ms(&self) -> f64 {
        self.index_build_ms
            + self.voting_ms
            + self.segmentation_ms
            + self.sampling_ms
            + self.clustering_ms
    }

    /// Adds another run's timings phase by phase — how QuT aggregates the
    /// pipelines of its border sub-chunks and how the engine accumulates its
    /// `SHOW STATS` phase counters.
    pub fn accumulate(&mut self, other: &S2TPhaseTimings) {
        self.index_build_ms += other.index_build_ms;
        self.voting_ms += other.voting_ms;
        self.segmentation_ms += other.segmentation_ms;
        self.sampling_ms += other.sampling_ms;
        self.clustering_ms += other.clustering_ms;
    }
}

/// Everything a pipeline run produces.
#[derive(Debug, Clone)]
pub struct S2TOutcome {
    /// The clusters and outliers.
    pub result: ClusteringResult,
    /// The per-trajectory voting profiles (kept for VA exports and for the
    /// incremental-maintenance path of the ReTraTree).
    pub profiles: Vec<VotingProfile>,
    /// All sub-trajectories produced by segmentation, in input order.
    pub sub_trajectories: Vec<VotedSubTrajectory>,
    /// Per-phase timings.
    pub timings: S2TPhaseTimings,
    /// Pruned-vs-evaluated counters from the voting kernel. Zero for the
    /// naive pipeline, which has no pruning ladder (every pair pays the
    /// exact kernel by design — that is what makes it the baseline).
    pub kernel: KernelCounters,
}

fn ms(from: Instant) -> f64 {
    from.elapsed().as_secs_f64() * 1_000.0
}

fn run_pipeline(
    trajectories: &[Trajectory],
    params: &S2TParams,
    use_index: bool,
    exec: &Executor,
) -> S2TOutcome {
    let mut timings = S2TPhaseTimings::default();

    // Indexed voting runs on the flat hot path: the collection is flattened
    // into a SoA `SegmentArena` and STR-packed into a `PackedSegmentIndex`
    // (both timed as index build), then voted over cache-linear lanes. The
    // votes are bit-identical to `naive_voting` (see `crate::arena` for the
    // exactness argument).
    let t0 = Instant::now();
    let index = if use_index {
        let arena = SegmentArena::build(trajectories);
        let packed = PackedSegmentIndex::build(&arena);
        Some((arena, packed))
    } else {
        None
    };
    timings.index_build_ms = if use_index { ms(t0) } else { 0.0 };

    let t0 = Instant::now();
    let (profiles, kernel) = match &index {
        Some((arena, packed)) => arena_voting_counted_with(arena, packed, params, exec),
        None => (
            naive_voting_with(trajectories, params, exec),
            KernelCounters::default(),
        ),
    };
    timings.voting_ms = ms(t0);

    let t0 = Instant::now();
    let subs = segment_all_with(trajectories, &profiles, params, exec);
    timings.segmentation_ms = ms(t0);

    // SaCO: the probe-driven production loops, or their index-free oracles
    // (bit-identical, see `crate::sampling` and `crate::clustering`).
    let t0 = Instant::now();
    let representatives = if use_index {
        select_representatives_with(&subs, params, exec)
    } else {
        select_representatives_naive(&subs, params)
    };
    timings.sampling_ms = ms(t0);

    let t0 = Instant::now();
    let result = if use_index {
        cluster_around_representatives_with(&subs, &representatives, params, exec)
    } else {
        cluster_around_representatives_naive(&subs, &representatives, params)
    };
    timings.clustering_ms = ms(t0);

    S2TOutcome {
        result,
        profiles,
        sub_trajectories: subs,
        timings,
        kernel,
    }
}

/// Runs the full S2T-Clustering pipeline with index-accelerated voting — the
/// in-DBMS fast path of the paper.
pub fn run_s2t(trajectories: &[Trajectory], params: &S2TParams) -> S2TOutcome {
    run_pipeline(trajectories, params, true, &Executor::serial())
}

/// [`run_s2t`] with every data-parallel phase (voting, segmentation,
/// clustering) fanned out on `exec`; sampling is a sequential greedy loop.
/// The result is bit-identical to [`run_s2t`] for any thread count.
pub fn run_s2t_with(
    trajectories: &[Trajectory],
    params: &S2TParams,
    exec: &Executor,
) -> S2TOutcome {
    run_pipeline(trajectories, params, true, exec)
}

/// Runs the same pipeline index-free end to end — quadratic voting and the
/// quadratic SaCO oracles — the baseline standing in for "corresponding
/// PostgreSQL functions" in experiment E1. Its result equals [`run_s2t`]'s.
pub fn run_s2t_naive(trajectories: &[Trajectory], params: &S2TParams) -> S2TOutcome {
    run_pipeline(trajectories, params, false, &Executor::serial())
}

/// [`run_s2t_naive`] with voting and segmentation fanned out on `exec`
/// (the SaCO oracles are serial).
pub fn run_s2t_naive_with(
    trajectories: &[Trajectory],
    params: &S2TParams,
    exec: &Executor,
) -> S2TOutcome {
    run_pipeline(trajectories, params, false, exec)
}

/// Re-wraps sub-trajectories as standalone trajectories so the pipeline can
/// be re-applied to the content of a single ReTraTree partition (the
/// maintenance path of Fig. 2). Identifiers are preserved through
/// `trajectory_id`/`object_id`; the offset survives in the sub-trajectory id.
pub fn trajectories_from_subs(subs: &[SubTrajectory]) -> Vec<Trajectory> {
    subs.iter()
        .filter_map(|s| Trajectory::new(s.trajectory_id, s.object_id, s.points().to_vec()).ok())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_trajectory::{Point, Timestamp};

    /// Builds a small MOD with two co-moving groups and a pair of loners.
    fn small_mod() -> Vec<Trajectory> {
        let mut trajs = Vec::new();
        let mut id = 0u64;
        // Group 1: 4 objects flying east together.
        for k in 0..4 {
            let pts: Vec<Point> = (0..20)
                .map(|i| {
                    Point::new(
                        i as f64 * 100.0,
                        k as f64 * 20.0,
                        Timestamp(i as i64 * 60_000),
                    )
                })
                .collect();
            trajs.push(Trajectory::new(id, id, pts).unwrap());
            id += 1;
        }
        // Group 2: 3 objects flying north together, elsewhere.
        for k in 0..3 {
            let pts: Vec<Point> = (0..20)
                .map(|i| {
                    Point::new(
                        50_000.0 + k as f64 * 20.0,
                        i as f64 * 100.0,
                        Timestamp(i as i64 * 60_000),
                    )
                })
                .collect();
            trajs.push(Trajectory::new(id, id, pts).unwrap());
            id += 1;
        }
        // Two loners far from everything.
        for k in 0..2 {
            let pts: Vec<Point> = (0..20)
                .map(|i| {
                    Point::new(
                        -30_000.0 - k as f64 * 10_000.0,
                        -30_000.0,
                        Timestamp(i as i64 * 60_000),
                    )
                })
                .collect();
            trajs.push(Trajectory::new(id, id, pts).unwrap());
            id += 1;
        }
        trajs
    }

    fn params() -> S2TParams {
        S2TParams {
            sigma: 60.0,
            epsilon: 300.0,
            min_duration_ms: 120_000,
            ..S2TParams::default()
        }
    }

    #[test]
    fn pipeline_discovers_the_two_groups_and_the_loners() {
        let trajs = small_mod();
        let outcome = run_s2t(&trajs, &params());
        let result = &outcome.result;
        assert_eq!(
            result.num_clusters(),
            2,
            "expected exactly the two co-moving groups"
        );
        let mut sizes: Vec<usize> = result.clusters.iter().map(|c| c.size()).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![3, 4]);
        assert_eq!(result.num_outliers(), 2);
        // Every input trajectory is accounted for exactly once.
        assert_eq!(
            result.total_sub_trajectories(),
            outcome.sub_trajectories.len()
        );
    }

    #[test]
    fn indexed_and_naive_pipelines_agree() {
        let trajs = small_mod();
        let fast = run_s2t(&trajs, &params());
        let slow = run_s2t_naive(&trajs, &params());
        assert_eq!(fast.result, slow.result);
        assert_eq!(fast.result.num_clusters(), slow.result.num_clusters());
        assert_eq!(fast.result.num_outliers(), slow.result.num_outliers());
        let sizes = |r: &ClusteringResult| {
            let mut v: Vec<usize> = r.clusters.iter().map(|c| c.size()).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(sizes(&fast.result), sizes(&slow.result));
        assert!(slow.timings.index_build_ms == 0.0);
    }

    #[test]
    fn timings_are_populated() {
        let trajs = small_mod();
        let outcome = run_s2t(&trajs, &params());
        let t = outcome.timings;
        assert!(t.total_ms() > 0.0);
        assert!(t.voting_ms >= 0.0 && t.clustering_ms >= 0.0);
    }

    #[test]
    fn empty_input_is_handled() {
        let outcome = run_s2t(&[], &params());
        assert_eq!(outcome.result.num_clusters(), 0);
        assert_eq!(outcome.result.num_outliers(), 0);
        assert!(outcome.sub_trajectories.is_empty());
    }

    #[test]
    fn trajectories_from_subs_round_trips_points() {
        let trajs = small_mod();
        let outcome = run_s2t(&trajs, &params());
        let subs: Vec<_> = outcome
            .sub_trajectories
            .iter()
            .map(|v| v.sub.clone())
            .collect();
        let back = trajectories_from_subs(&subs);
        assert_eq!(back.len(), subs.len());
        for (t, s) in back.iter().zip(subs.iter()) {
            assert_eq!(t.points(), s.points());
            assert_eq!(t.id, s.trajectory_id);
        }
    }
}
