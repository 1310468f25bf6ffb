//! E1 — the "orders of magnitude speedup in comparison to corresponding
//! PostgreSQL functions" claim (§III, preparatory phase), extended with the
//! flat-hot-path comparison.
//!
//! Two voting implementations are measured on the seeded urban workload:
//!
//! * `arena` — SoA `SegmentArena` + `PackedSegmentIndex` with the
//!   lower-bound pruning ladder in front of the exact kernel (the production
//!   path),
//! * `naive` — the quadratic enumeration (the paper's baseline and the
//!   oracle).
//!
//! The whole pipelines compare the same way: `s2t` runs the production
//! SaCO (sampling and clustering probing packed R-trees of sub-trajectory
//! boxes), `s2t-naive` the index-free oracles end to end.
//!
//! The correctness gate asserts both produce **bit-identical votes** and
//! that the full pipelines return the **same `ClusteringResult`** (every
//! cluster, member and distance bit); the bench aborts on any mismatch.
//! Timings (including the arena-vs-naive voting speedup and both pipelines'
//! per-phase breakdowns) are informational and land in
//! `BENCH_e1_s2t_vs_naive.json`.
//!
//! Env knobs: `HERMES_BENCH_QUICK=1` shrinks the sweep for CI smoke runs;
//! `HERMES_BENCH_DIR` redirects the JSON output.

use hermes_bench::harness::{bench, report, JsonReport};
use hermes_bench::{urban_s2t_params, urban_with};
use hermes_exec::Executor;
use hermes_s2t::{
    arena_voting, arena_voting_counted_with, naive_voting, run_s2t, run_s2t_naive,
    PackedSegmentIndex, SegmentArena,
};

fn main() {
    let quick = std::env::var("HERMES_BENCH_QUICK").is_ok_and(|v| v == "1");
    let params = urban_s2t_params();
    // The first size is THE seeded urban dataset of the headline claim; the
    // larger sizes chart how the advantage over the quadratic baseline
    // grows with the collection.
    let sizes: &[usize] = if quick { &[24] } else { &[24, 48, 96, 192] };
    let iters: u32 = if quick { 5 } else { 10 };

    let mut samples = Vec::new();
    let mut json = JsonReport::new("e1_s2t_vs_naive");

    for &n in sizes {
        let scenario = urban_with(n, 0xE1);
        let trajs = &scenario.trajectories;
        let label = |kind: &str| format!("{kind}/{}", trajs.len());

        // --- Correctness gate: the voting path and its oracle must agree
        // bit for bit before any timing is trusted.
        let arena = SegmentArena::build(trajs);
        let packed = PackedSegmentIndex::build(&arena);
        let (via_arena, kernel) =
            arena_voting_counted_with(&arena, &packed, &params, &Executor::serial());
        let via_naive = naive_voting(trajs, &params);
        assert_eq!(
            via_arena, via_naive,
            "arena voting diverged from the naive reference"
        );
        let fast = run_s2t(trajs, &params);
        let slow = run_s2t_naive(trajs, &params);
        assert_eq!(fast.profiles, slow.profiles, "pipeline votes diverged");
        assert_eq!(
            fast.result, slow.result,
            "production SaCO diverged from the oracle"
        );
        eprintln!(
            "gate ok: {} trajectories, {} segments, bit-identical votes and clusters",
            trajs.len(),
            arena.num_segments()
        );

        // --- Voting phase only: the production path against its oracle.
        let s_arena_vote = bench(label("vote-arena"), iters, || {
            arena_voting(&arena, &packed, &params)
        });
        let s_naive_vote = bench(label("vote-naive"), iters.min(3), || {
            naive_voting(trajs, &params)
        });
        let voting_speedup = s_naive_vote.median_ms / s_arena_vote.median_ms.max(1e-9);

        // --- Index construction.
        let s_arena_build = bench(label("build-arena"), iters, || {
            let a = SegmentArena::build(trajs);
            let p = PackedSegmentIndex::build(&a);
            (a.num_segments(), p.len())
        });

        // --- Whole pipelines with phase breakdowns (the original E1 table).
        let s_pipeline = bench(label("s2t"), iters, || run_s2t(trajs, &params));
        let s_pipeline_naive = bench(label("s2t-naive"), iters.min(3), || {
            run_s2t_naive(trajs, &params)
        });
        let t = run_s2t(trajs, &params).timings;
        let t_naive = run_s2t_naive(trajs, &params).timings;

        json.push_with(
            s_arena_vote.clone(),
            vec![
                ("segments".into(), arena.num_segments() as f64),
                ("threads".into(), 1.0),
                ("speedup_vs_naive".into(), voting_speedup),
                ("kernel_evaluated".into(), kernel.evaluated as f64),
                ("kernel_pruned".into(), kernel.pruned as f64),
                ("gate_bit_identical".into(), 1.0),
                ("headline".into(), if n == sizes[0] { 1.0 } else { 0.0 }),
            ],
        );
        json.push(s_naive_vote.clone());
        json.push(s_arena_build.clone());
        json.push_with(
            s_pipeline.clone(),
            vec![
                ("index_build_ms".into(), t.index_build_ms),
                ("voting_ms".into(), t.voting_ms),
                ("segmentation_ms".into(), t.segmentation_ms),
                ("sampling_ms".into(), t.sampling_ms),
                ("clustering_ms".into(), t.clustering_ms),
            ],
        );
        json.push_with(
            s_pipeline_naive.clone(),
            vec![
                ("voting_ms".into(), t_naive.voting_ms),
                ("sampling_ms".into(), t_naive.sampling_ms),
                ("clustering_ms".into(), t_naive.clustering_ms),
            ],
        );

        eprintln!(
            "voting speedup (arena vs naive, 1 thread, {} trajs): {:.2}x \
             (evaluated {}, pruned {})",
            trajs.len(),
            voting_speedup,
            kernel.evaluated,
            kernel.pruned
        );
        eprintln!(
            "SaCO (production vs oracle): sampling {:.2} vs {:.2} ms, \
             clustering {:.2} vs {:.2} ms",
            t.sampling_ms, t_naive.sampling_ms, t.clustering_ms, t_naive.clustering_ms
        );

        samples.extend([
            s_arena_vote,
            s_naive_vote,
            s_arena_build,
            s_pipeline,
            s_pipeline_naive,
        ]);
    }
    report("e1_s2t_vs_naive", &samples);
    json.write().expect("write BENCH_e1_s2t_vs_naive.json");

    // Summary series (the numbers recorded in EXPERIMENTS.md).
    eprintln!("\n# E1 summary: indexed (arena) vs naive S2T");
    eprintln!(
        "{:>8} {:>12} {:>12} {:>9}",
        "vehicles", "indexed_ms", "naive_ms", "speedup"
    );
    for &n in sizes {
        let scenario = urban_with(n, 0xE1);
        let fast = bench("indexed", 3, || run_s2t(&scenario.trajectories, &params));
        let slow = bench("naive", 3, || {
            run_s2t_naive(&scenario.trajectories, &params)
        });
        eprintln!(
            "{:>8} {:>12.1} {:>12.1} {:>8.1}x",
            scenario.trajectories.len(),
            fast.median_ms,
            slow.median_ms,
            slow.median_ms / fast.median_ms.max(1e-9)
        );
    }
}
