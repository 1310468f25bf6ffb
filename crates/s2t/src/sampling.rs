//! The sampling step of SaCO: selecting cluster representatives.
//!
//! "The sampling set should contain highly voted trajectories of the MOD
//! which, at the same time, would cover the 3D space occupied by the entire
//! dataset as much as possible." (ICDE 2018, §II.A)
//!
//! The selection is a greedy maximum-coverage procedure: candidates are
//! scored by their voting-based representativeness, discounted by how much of
//! their spatio-temporal neighbourhood is already covered by previously
//! selected representatives. Selection stops when the marginal gain falls
//! below `δ` times the best gain, or when `max_representatives` is reached.

use crate::params::S2TParams;
use crate::segmentation::VotedSubTrajectory;
use hermes_exec::Executor;
use hermes_gist::PackedRTree;
use hermes_trajectory::spatiotemporal_distance;

/// Relative margin on every SaCO probe radius. The skip argument compares
/// the *computed* distance with the *computed* box gap; the margin absorbs
/// the few-ulp rounding envelope described in `crate::arena`'s module docs.
pub(crate) const PROBE_MARGIN: f64 = 1.0 + 1e-9;

/// Similarity in [0, 1] describing how much of a candidate's neighbourhood
/// an already-selected representative at spatio-temporal distance `d`
/// covers: 1 when they coincide, 0 when they are at least `2ε` apart (or
/// never co-exist, `d = ∞`).
fn coverage_overlap(d: f64, epsilon: f64) -> f64 {
    if !d.is_finite() {
        return 0.0;
    }
    (1.0 - d / (2.0 * epsilon)).max(0.0)
}

/// Whether the greedy loop takes the candidate it just found (gain `gain`):
/// the first pick sets the reference gain, later picks must keep `δ` of it.
fn admit(vote: f64, gain: f64, first_gain: &mut Option<f64>, delta: f64) -> bool {
    // Never select a zero-vote seed: a dataset where nothing co-moves has
    // no clusters, only outliers.
    if vote <= 0.0 || first_gain.is_some_and(|fg| gain < delta * fg) {
        return false;
    }
    first_gain.get_or_insert(gain);
    true
}

/// The open candidate with the highest residual gain (lowest index on ties).
fn best_open(gain: &[f64], open: &[bool]) -> Option<(usize, f64)> {
    let mut best = None;
    let mut best_gain = 0.0f64;
    for (i, &g) in gain.iter().enumerate() {
        if open[i] && g > best_gain {
            best_gain = g;
            best = Some(i);
        }
    }
    best.map(|i| (i, best_gain))
}

/// Greedily selects the indices of the sub-trajectories that will seed the
/// clusters, in selection order.
pub fn select_representatives(subs: &[VotedSubTrajectory], params: &S2TParams) -> Vec<usize> {
    select_representatives_with(subs, params, &Executor::serial())
}

/// [`select_representatives`], the production path. After each pick it
/// discounts only the candidates a packed R-tree over the sub-trajectory
/// boxes returns within `2ε` of the pick, and evaluates each of their
/// distances once.
///
/// The pairs the probe skips cannot change the result (for `ε > 0`, which
/// [`S2TParams::validate`] enforces): with disjoint lifespans the distance
/// is `∞`, and with a spatial box gap above the radius every synchronized
/// position pair is at least that gap apart, so the distance — a mean of
/// those gaps divided by an overlap fraction `≤ 1` — exceeds `2ε`. Either
/// way `coverage_overlap` is exactly `0.0`, the gain is multiplied by
/// exactly `1.0`, and the candidate is not within `ε`. Every update touches
/// one candidate's own gain, so the visit order does not matter either: the
/// selection is bit-identical to [`select_representatives_naive`].
///
/// The greedy loop is sequential — each pick depends on all previous
/// discounts — and a probe touches a handful of candidates, so `exec` is
/// not used; it is accepted so every S2T phase has the same `_with` shape.
pub fn select_representatives_with(
    subs: &[VotedSubTrajectory],
    params: &S2TParams,
    _exec: &Executor,
) -> Vec<usize> {
    let tree = PackedRTree::bulk_load(
        subs.iter()
            .enumerate()
            .map(|(i, s)| (s.sub.mbb(), i as u32))
            .collect(),
    );
    let radius = 2.0 * params.epsilon * PROBE_MARGIN;
    greedy(subs, params, |pick, visit| {
        tree.for_each_ball_candidate_idx(&subs[pick].sub.mbb(), radius, |j, _| {
            visit(*tree.value(j) as usize)
        })
    })
}

/// The oracle of [`select_representatives_with`]: the same greedy selection
/// with every candidate considered after every pick — the quadratic,
/// index-free loop the naive pipeline runs.
pub fn select_representatives_naive(subs: &[VotedSubTrajectory], params: &S2TParams) -> Vec<usize> {
    greedy(subs, params, |_, visit| (0..subs.len()).for_each(visit))
}

/// The greedy maximum-coverage loop. `near(pick, visit)` calls `visit` on
/// (at least) every candidate whose gain or eligibility the new pick can
/// change.
fn greedy(
    subs: &[VotedSubTrajectory],
    params: &S2TParams,
    mut near: impl FnMut(usize, &mut dyn FnMut(usize)),
) -> Vec<usize> {
    let limit = if params.max_representatives == 0 {
        usize::MAX
    } else {
        params.max_representatives
    };
    // Residual gain of each candidate, updated as representatives are picked.
    let mut gain: Vec<f64> = subs.iter().map(|s| s.representativeness()).collect();
    // Neither taken nor within ε of a taken representative (such a
    // candidate would be a member of its cluster anyway, so it can never
    // become a seed itself).
    let mut open = vec![true; subs.len()];
    let mut first_gain = None;
    let mut selected = Vec::new();

    while selected.len() < limit {
        let Some((idx, g)) = best_open(&gain, &open) else {
            break;
        };
        if !admit(subs[idx].mean_vote, g, &mut first_gain, params.delta) {
            break;
        }
        selected.push(idx);
        open[idx] = false;
        // Discount the open candidates by their overlap with the new pick,
        // and retire those it already covers.
        let pick = &subs[idx].sub;
        near(idx, &mut |i| {
            if !open[i] {
                return;
            }
            let d = spatiotemporal_distance(&subs[i].sub, pick);
            if d <= params.epsilon {
                open[i] = false;
            } else {
                gain[i] *= 1.0 - coverage_overlap(d, params.epsilon);
            }
        });
    }
    selected
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_trajectory::{Point, SubTrajectory, SubTrajectoryId, Timestamp};

    fn voted(id: u64, y: f64, t0: i64, n: usize, mean_vote: f64) -> VotedSubTrajectory {
        let sub = SubTrajectory::from_points(
            SubTrajectoryId::new(id, 0),
            id,
            id,
            (0..n)
                .map(|i| Point::new(i as f64 * 10.0, y, Timestamp(t0 + i as i64 * 60_000)))
                .collect(),
        );
        VotedSubTrajectory {
            sub,
            mean_vote,
            max_vote: mean_vote,
        }
    }

    fn params(epsilon: f64, delta: f64, max: usize) -> S2TParams {
        S2TParams {
            epsilon,
            delta,
            max_representatives: max,
            ..S2TParams::default()
        }
    }

    /// Runs the production path and the oracle, checks they agree, and
    /// returns the selection.
    fn select(subs: &[VotedSubTrajectory], params: &S2TParams) -> Vec<usize> {
        let fast = select_representatives(subs, params);
        assert_eq!(fast, select_representatives_naive(subs, params));
        fast
    }

    #[test]
    fn picks_the_highest_voted_first() {
        let subs = vec![
            voted(1, 0.0, 0, 10, 1.0),
            voted(2, 1_000.0, 0, 10, 5.0),
            voted(3, 2_000.0, 0, 10, 3.0),
        ];
        let sel = select(&subs, &params(100.0, 0.05, 0));
        assert_eq!(sel[0], 1, "highest voted candidate must be selected first");
        assert_eq!(sel.len(), 3, "well separated candidates are all selected");
    }

    #[test]
    fn nearby_candidates_are_redundant() {
        // Two co-located, highly voted candidates and one distant, lower one.
        let subs = vec![
            voted(1, 0.0, 0, 10, 5.0),
            voted(2, 1.0, 0, 10, 4.9),
            voted(3, 10_000.0, 0, 10, 2.0),
        ];
        let sel = select(&subs, &params(100.0, 0.2, 0));
        assert!(sel.contains(&0));
        assert!(sel.contains(&2));
        assert!(
            !sel.contains(&1),
            "the near-duplicate of an already selected seed must be suppressed: {sel:?}"
        );
    }

    #[test]
    fn zero_votes_produce_no_representatives() {
        let subs = vec![voted(1, 0.0, 0, 10, 0.0), voted(2, 50.0, 0, 10, 0.0)];
        assert!(select(&subs, &params(100.0, 0.05, 0)).is_empty());
    }

    #[test]
    fn max_representatives_caps_the_selection() {
        let subs: Vec<VotedSubTrajectory> = (0..10)
            .map(|i| voted(i, i as f64 * 5_000.0, 0, 10, 3.0))
            .collect();
        let sel = select(&subs, &params(100.0, 0.0, 4));
        assert_eq!(sel.len(), 4);
    }

    #[test]
    fn delta_stops_selection_when_gain_collapses() {
        // One dominant seed; everything else is close to it, so residual
        // gains collapse below delta quickly.
        let mut subs = vec![voted(0, 0.0, 0, 20, 10.0)];
        for i in 1..6 {
            subs.push(voted(i, i as f64, 0, 20, 9.0));
        }
        let sel = select(&subs, &params(500.0, 0.5, 0));
        assert_eq!(
            sel.len(),
            1,
            "redundant candidates must not pass the δ bar: {sel:?}"
        );
    }

    #[test]
    fn empty_input_is_fine() {
        assert!(select(&[], &params(100.0, 0.05, 0)).is_empty());
    }

    #[test]
    fn temporally_disjoint_candidates_are_not_redundant() {
        // Same place, different days: both deserve to be representatives.
        let subs = vec![
            voted(1, 0.0, 0, 10, 3.0),
            voted(2, 0.0, 86_400_000, 10, 3.0),
        ];
        let sel = select(&subs, &params(100.0, 0.05, 0));
        assert_eq!(sel.len(), 2);
    }

    #[test]
    fn a_box_gap_of_exactly_two_epsilon_is_evaluated_and_discounts_nothing() {
        // B sits exactly 2ε from A for its whole life: the probe visits it
        // (gap² = (2ε)²), its overlap is exactly 0, and its gain stays its
        // own — so it outranks the higher-voted C, which A partly covers.
        // D, exactly ε from A, is retired outright.
        let subs = vec![
            voted(1, 0.0, 0, 10, 5.0),
            voted(2, 200.0, 0, 10, 3.0),
            voted(3, 150.0, 0, 10, 3.5),
            voted(4, -100.0, 0, 10, 4.9),
        ];
        let sel = select(&subs, &params(100.0, 0.0, 0));
        assert_eq!(sel[..2], [0, 1], "{sel:?}");
        assert!(!sel.contains(&3), "{sel:?}");
    }

    #[test]
    fn lifespans_touching_at_one_instant_never_cover_each_other() {
        // Same place, the second starts the instant the first ends: the
        // common lifespan is empty, the distance is ∞.
        let subs = vec![
            voted(1, 0.0, 0, 10, 3.0),
            voted(2, 0.0, 9 * 60_000, 10, 3.0),
        ];
        assert_eq!(select(&subs, &params(100.0, 0.05, 0)), vec![0, 1]);
    }

    #[test]
    fn a_single_candidate_is_its_own_representative() {
        let subs = vec![voted(1, 0.0, 0, 10, 1.0)];
        assert_eq!(select(&subs, &params(100.0, 0.05, 0)), vec![0]);
        assert_eq!(select(&subs, &params(100.0, 0.05, 1)), vec![0]);
    }

    #[test]
    fn caps_apply_on_both_paths() {
        let subs: Vec<VotedSubTrajectory> = (0..10)
            .map(|i| voted(i, i as f64 * 150.0, 0, 10, 3.0 + i as f64 * 0.1))
            .collect();
        for cap in 1..=10 {
            let sel = select(&subs, &params(100.0, 0.0, cap));
            assert!(sel.len() <= cap, "{cap}: {sel:?}");
        }
    }
}
