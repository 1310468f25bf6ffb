//! The flat hot path must not change a single bit of any answer.
//!
//! Voting has one production path and one oracle: the SoA `arena_voting`
//! (`SegmentArena` + `PackedSegmentIndex`) the pipeline runs on, and the
//! quadratic `naive_voting` the paper compares against. On seeded urban,
//! maritime and aircraft datasets, at 1, 4 and 8 compute threads, both must
//! agree **exactly** — same `f64` bits in every vote — and the arena-backed
//! pipeline must reproduce the oracle's voting verbatim end to end.

use hermes::exec::{ExecPolicy, Executor};
use hermes::prelude::*;
use hermes::s2t::{
    arena_voting_with, naive_voting_with, run_s2t, PackedSegmentIndex, SegmentArena, VotingProfile,
};

fn urban_trajectories() -> Vec<Trajectory> {
    UrbanScenarioBuilder {
        seed: 0x407_ACE,
        grid_size: 12,
        num_corridors: 3,
        vehicles_per_corridor: 5,
        num_random_vehicles: 7,
        ..UrbanScenarioBuilder::default()
    }
    .build()
    .trajectories
}

fn maritime_trajectories() -> Vec<Trajectory> {
    MaritimeScenarioBuilder {
        seed: 0x5EA_F00D,
        num_lanes: 3,
        vessels_per_lane: 6,
        num_rogues: 4,
        departure_spread_ms: 30 * 60_000,
        ..MaritimeScenarioBuilder::default()
    }
    .build()
    .trajectories
}

fn aircraft_trajectories() -> Vec<Trajectory> {
    AircraftScenarioBuilder {
        seed: 0xA1_4C4A,
        num_streams: 3,
        waves_per_stream: 2,
        flights_per_wave: 4,
        num_stragglers: 3,
        holding_probability: 0.3,
        ..AircraftScenarioBuilder::default()
    }
    .build()
    .trajectories
}

fn workloads() -> Vec<(&'static str, Vec<Trajectory>, S2TParams)> {
    let p = |sigma: f64, epsilon: f64, min_ms: i64| {
        S2TParams::builder()
            .sigma(sigma)
            .epsilon(epsilon)
            .min_duration_ms(min_ms)
            .build()
            .unwrap()
    };
    vec![
        ("urban", urban_trajectories(), p(60.0, 250.0, 3 * 60_000)),
        (
            "maritime",
            maritime_trajectories(),
            p(800.0, 2_500.0, 10 * 60_000),
        ),
        (
            "aircraft",
            aircraft_trajectories(),
            p(2_000.0, 6_000.0, 5 * 60_000),
        ),
    ]
}

/// The thread counts of the satellite task: serial plus two pool sizes.
const THREAD_COUNTS: [usize; 3] = [1, 4, 8];

fn assert_profiles_bit_identical(a: &[VotingProfile], b: &[VotingProfile], label: &str) {
    assert_eq!(a.len(), b.len(), "{label}: profile count");
    for (pa, pb) in a.iter().zip(b.iter()) {
        assert_eq!(pa.trajectory_id, pb.trajectory_id, "{label}: ids");
        assert_eq!(pa.trajectory_index, pb.trajectory_index, "{label}: order");
        // Exact f64 equality — one flipped bit fails the suite.
        assert_eq!(pa.votes, pb.votes, "{label}: votes of {}", pa.trajectory_id);
    }
}

#[test]
fn arena_voting_is_bit_identical_to_the_naive_oracle() {
    for (name, trajs, params) in workloads() {
        assert!(
            trajs.len() >= 10,
            "{name}: workload too small to be meaningful"
        );
        let arena = SegmentArena::build(&trajs);
        let packed = PackedSegmentIndex::build(&arena);
        let segments: usize = trajs.iter().map(|t| t.num_segments()).sum();
        assert_eq!(packed.len(), segments, "{name}: index cardinality");

        let serial = Executor::serial();
        let reference = arena_voting_with(&arena, &packed, &params, &serial);
        for threads in THREAD_COUNTS {
            let exec = Executor::new(ExecPolicy { threads });
            let label = format!("{name}@{threads}");
            assert_profiles_bit_identical(
                &arena_voting_with(&arena, &packed, &params, &exec),
                &reference,
                &format!("{label}/arena"),
            );
            assert_profiles_bit_identical(
                &naive_voting_with(&trajs, &params, &exec),
                &reference,
                &format!("{label}/naive"),
            );
        }
    }
}

#[test]
fn pipeline_runs_on_the_arena_and_reproduces_naive_voting_verbatim() {
    for (name, trajs, params) in workloads() {
        let outcome = run_s2t(&trajs, &params);
        let via_oracle = naive_voting_with(&trajs, &params, &Executor::serial());
        assert_profiles_bit_identical(&outcome.profiles, &via_oracle, name);
        // The timing surface knows about the new index build phase.
        assert!(outcome.timings.index_build_ms >= 0.0);
        assert!(outcome.timings.total_ms() > 0.0);
    }
}

#[test]
fn packed_segment_index_matches_legacy_cardinality_and_geometry() {
    for (name, trajs, _params) in workloads() {
        let arena = SegmentArena::build(&trajs);
        let packed = PackedSegmentIndex::build(&arena);
        let expected: usize = trajs.iter().map(|t| t.num_segments()).sum();
        assert_eq!(arena.num_segments(), expected, "{name}");
        assert_eq!(packed.len(), expected, "{name}");
        // Every tree item maps back to the arena segment it was keyed by.
        for i in 0..packed.len() {
            let gs = *packed.tree().value(i) as usize;
            assert_eq!(
                packed.tree().item_mbb(i),
                arena.segment_mbb(gs),
                "{name}/{i}"
            );
        }
    }
}

/// Admissibility of the pruning ladder's distance lower bound: for seeded
/// segment pairs from every workload, the per-segment box gap must never
/// exceed the exact mean synchronized distance — in the squared form the
/// ladder actually compares (`gap² ≤ d²`), so a bound that fired where the
/// kernel would have won fails here.
#[test]
fn lower_bounds_never_exceed_exact_distance() {
    use hermes::gist::axis_gap;
    use hermes::trajectory::{mean_sync_distance, SegLanes};

    for (name, trajs, _params) in workloads() {
        let arena = SegmentArena::build(&trajs);
        let all: Vec<SegLanes> = (0..arena.num_segments())
            .map(|gs| arena.lanes(gs))
            .collect();

        let mut state = 0xB0_0B5_u64 ^ (all.len() as u64).rotate_left(17);
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };

        let mut overlapping = 0usize;
        for draw in 0..20_000usize {
            let qi = next() % all.len();
            let q = all[qi];
            // Alternate uniform pairs with near-index pairs: neighbours in
            // arena order are the same or an adjacent trajectory, where
            // temporal overlap — the case the bound actually guards — is
            // common even on wide-departure-spread workloads.
            let ci = if draw % 2 == 0 {
                next() % all.len()
            } else {
                (qi + next() % 129 + all.len() - 64) % all.len()
            };
            let c = all[ci];
            let Some(d) = mean_sync_distance(&q, &c) else {
                continue;
            };
            overlapping += 1;
            // The box gap the ladder's stage 2 uses: candidate box against
            // the query's full-lifespan box.
            let gx = axis_gap(
                c.x0.min(c.x1),
                c.x0.max(c.x1),
                q.x0.min(q.x1),
                q.x0.max(q.x1),
            );
            let gy = axis_gap(
                c.y0.min(c.y1),
                c.y0.max(c.y1),
                q.y0.min(q.y1),
                q.y0.max(q.y1),
            );
            let box2 = gx * gx + gy * gy;
            assert!(
                box2 <= d * d,
                "{name}: box gap {box2} exceeds exact distance² {}",
                d * d
            );
        }
        // Uniform pair sampling finds fewer temporal overlaps on workloads
        // with a wide departure spread (maritime); a couple of hundred live
        // pairs per dataset still exercises every branch of the bound.
        assert!(
            overlapping > 100,
            "{name}: too few overlapping pairs ({overlapping}) for the sweep to mean anything"
        );
    }
}
