//! Micro-benchmarks of the kernels behind the runtime columns, plus two
//! engine ablations:
//!
//! * `dp_kernel` — segment DP vs discretization size (uniform cap vs
//!   per-position upper-bound profile),
//! * `ura_shrink` — one max-height query vs obstacle count, scratch
//!   reused,
//! * `batch_distance` — `distance_sq_to_segment_batch` vs the scalar
//!   `distance_to_segment` loop at candidate counts {4, 16, 64, 256},
//! * `batch_profile` — batched vs scalar stage-1 table sweep
//!   (`build_stage1_table`),
//! * `shrink_probe` — the DP's height probes with stage 1 read from the
//!   pop's table vs computed per probe by the scalar predicate,
//! * `context_build` — both side contexts of one pop
//!   (`ShrinkContext::build_sides`) on the `cli-boards` stress board,
//! * `dtw` — node matching vs node count,
//! * `simplex` — assignment LP vs grid size,
//! * `priority_ablation` — connected-pattern priority on/off (Fig. 5),
//! * `requeue_ablation` — meander-on-meander on/off,
//! * `io_save` / `io_load` — board text out and in for the `cli-boards`
//!   stress board (`stress_board(12, 30, 200, 1)`, ~750 KB),
//! * `drc_check` — `Board::check` on one routed duplicate-fleet board and
//!   on the routed mixed stress board (`stress_mixed_board(12, 30, 200,
//!   1)`, planes and vias).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use meander_core::baseline::FixedTrackOptions;
use meander_core::context::{ShrinkContext, WorldContext};
use meander_core::dp::{extend_segment_dp, DpInput, HeightBounds, UbProfile};
use meander_core::extend::{ExtendInput, SidesFixture};
use meander_core::shrink::{
    build_stage1_table, build_stage1_table_batched, max_pattern_height, max_pattern_height_fed,
    ShrinkScratch,
};
use meander_core::{extend_trace, match_all_groups, ExtendConfig};
use meander_geom::batch::{distance_sq_to_segment_batch, SegBatch};
use meander_geom::{Frame, Point, Polygon, Polyline, Segment};
use meander_layout::gen::{dup_fleet_boards, stress_board, stress_mixed_board};
use meander_layout::io::{load_board, save_board};
use meander_layout::Board;
use meander_msdtw::dtw_match;
use meander_region::{solve_lp_for_bench, LpOutcome};

/// A bumpy per-position height field: realistic position dependence so the
/// profile bounds have something to prune.
fn bumpy_field(m: usize) -> Vec<f64> {
    (0..=m)
        .map(|i| {
            let x = i as f64;
            let h = 6.0 + 5.0 * (x * 0.37).sin() + 3.0 * (x * 0.11).cos();
            if h < 2.0 {
                0.0
            } else {
                h
            }
        })
        .collect()
}

fn bench_dp_kernel(c: &mut Criterion) {
    let config = ExtendConfig::default();
    let mut group = c.benchmark_group("dp_kernel");
    for m in [32usize, 64, 128, 256] {
        let field = bumpy_field(m);
        let height = |lo: usize, hi: usize, _: i8| -> f64 {
            field[lo..=hi].iter().fold(f64::INFINITY, |a, &b| a.min(b))
        };
        let mk = |bounds| DpInput {
            m,
            ldisc: 1.0,
            gap_steps: 8,
            protect_steps: 4,
            min_width_steps: 8,
            max_width_steps: 48,
            height: &height,
            bounds,
            config: &config,
        };
        group.bench_with_input(BenchmarkId::new("uniform", m), &m, |b, _| {
            b.iter(|| extend_segment_dp(&mk(HeightBounds::Uniform(f64::INFINITY))))
        });
        let profile = UbProfile {
            cap: 14.0,
            left: [field.clone(), field.clone()],
            right: [field.clone(), field.clone()],
        };
        group.bench_with_input(BenchmarkId::new("profile", m), &m, |b, _| {
            b.iter(|| extend_segment_dp(&mk(HeightBounds::Profile(&profile))))
        });
    }
    group.finish();
}

fn bench_ura_shrink(c: &mut Criterion) {
    let mut group = c.benchmark_group("ura_shrink");
    for n_obstacles in [4usize, 16, 64, 256] {
        let seg = Segment::new(Point::new(0.0, 0.0), Point::new(200.0, 0.0));
        let frame = Frame::from_segment(&seg).unwrap();
        let obstacles: Vec<Polygon> = (0..n_obstacles)
            .map(|i| {
                let x = 10.0 + (i % 16) as f64 * 12.0;
                let y = 8.0 + (i / 16) as f64 * 12.0;
                Polygon::regular(Point::new(x, y), 1.5, 8, 0.0)
            })
            .collect();
        let world = WorldContext {
            area: vec![Polygon::rectangle(
                Point::new(-20.0, -80.0),
                Point::new(220.0, 80.0),
            )],
            obstacles,
            other_uras: vec![],
        };
        let ctx = ShrinkContext::build(&world, &frame, 200.0, 1);
        group.bench_with_input(
            BenchmarkId::new("scratch", n_obstacles),
            &n_obstacles,
            |b, _| {
                let mut scratch = ShrinkScratch::new();
                b.iter(|| max_pattern_height(&ctx, 80.0, 110.0, 8.0, 60.0, 2.0, &mut scratch))
            },
        );
    }
    group.finish();
}

/// `distance_sq_to_segment_batch` vs the scalar `distance_to_segment`
/// candidate loop — the DRC scan's pair kernel shape.
fn bench_batch_distance(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_distance");
    let probe = Segment::new(Point::new(0.0, 0.0), Point::new(40.0, 9.0));
    for n in [4usize, 16, 64, 256] {
        // Deterministic pseudo-random candidate cloud: short segments
        // scattered around the probe, the shape trace segments actually
        // have in a DRC window (few bbox overlaps with the probe).
        let mut batch = SegBatch::new();
        let mut segs = Vec::with_capacity(n);
        let mut state = 88172645463325252u64;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for _ in 0..n {
            let a = Point::new(rnd() * 120.0 - 40.0, rnd() * 120.0 - 40.0);
            let s = Segment::new(
                a,
                Point::new(a.x + rnd() * 12.0 - 6.0, a.y + rnd() * 12.0 - 6.0),
            );
            batch.push(&s);
            segs.push(s);
        }
        group.bench_with_input(BenchmarkId::new("scalar", n), &n, |b, _| {
            b.iter(|| {
                let mut best = f64::INFINITY;
                for s in &segs {
                    let d = probe.distance_to_segment(s);
                    if d < best {
                        best = d;
                    }
                }
                best
            })
        });
        let mut dsq = Vec::new();
        group.bench_with_input(BenchmarkId::new("batched", n), &n, |b, _| {
            b.iter(|| {
                distance_sq_to_segment_batch(&probe, &batch, &mut dsq);
                let mut best = f64::INFINITY;
                for &d in &dsq {
                    if d < best {
                        best = d;
                    }
                }
                best.sqrt()
            })
        });
    }
    group.finish();
}

/// The 64-via field behind `batch_profile` and `shrink_probe`: both side
/// contexts of a 200-long segment.
fn via_field_contexts() -> (ShrinkContext, ShrinkContext, f64) {
    let seg_len = 200.0;
    let seg = Segment::new(Point::new(0.0, 0.0), Point::new(seg_len, 0.0));
    let frame = Frame::from_segment(&seg).unwrap();
    let obstacles: Vec<Polygon> = (0..64)
        .map(|i| {
            let x = 6.0 + (i % 16) as f64 * 12.0;
            let y = 9.0 + (i / 16) as f64 * 11.0;
            Polygon::regular(Point::new(x, y), 1.5, 8, 0.0)
        })
        .collect();
    let world = WorldContext {
        area: vec![Polygon::rectangle(
            Point::new(-20.0, -80.0),
            Point::new(seg_len + 20.0, 80.0),
        )],
        obstacles,
        other_uras: vec![],
    };
    let ctx_up = ShrinkContext::build(&world, &frame, seg_len, 1);
    let ctx_dn = ShrinkContext::build(&world, &frame, seg_len, -1);
    (ctx_up, ctx_dn, seg_len)
}

/// Batched vs scalar stage-1 table sweep — the per-pop cost that feeds
/// every DP probe its side caps and the DP prune its profile.
fn bench_batch_profile(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_profile");
    let (ctx_up, ctx_dn, seg_len) = via_field_contexts();
    for m in [64usize, 160] {
        let ldisc = seg_len / m as f64;
        let (gap, h_init) = (8.0, 40.0);
        let mut scratch = ShrinkScratch::new();
        group.bench_with_input(BenchmarkId::new("scalar", m), &m, |b, _| {
            b.iter(|| build_stage1_table(&ctx_up, &ctx_dn, m, ldisc, gap, h_init, &mut scratch))
        });
        group.bench_with_input(BenchmarkId::new("batched", m), &m, |b, _| {
            b.iter(|| {
                build_stage1_table_batched(&ctx_up, &ctx_dn, m, ldisc, gap, h_init, &mut scratch)
            })
        });
    }
    group.finish();
}

/// The DP's height probes over one pop (every foot pair of widths 8–24
/// steps, both sides), with stage 1 read from the pop's table (`fed`) vs
/// computed by each probe with the scalar predicate (`self`).
fn bench_shrink_probe(c: &mut Criterion) {
    let mut group = c.benchmark_group("shrink_probe");
    let (ctx_up, ctx_dn, seg_len) = via_field_contexts();
    let m = 160usize;
    let ldisc = seg_len / m as f64;
    let (gap, h_init, h_min) = (8.0, 40.0, 2.0);
    let mut scratch = ShrinkScratch::new();
    let table = build_stage1_table_batched(&ctx_up, &ctx_dn, m, ldisc, gap, h_init, &mut scratch);
    let feet: Vec<(usize, usize)> = (0..m)
        .flat_map(|lo| (8..=24).step_by(8).map(move |w| (lo, lo + w)))
        .filter(|&(_, hi)| hi <= m)
        .collect();
    let x = |p: usize| p as f64 * ldisc;
    group.bench_function("self", |b| {
        b.iter(|| {
            let mut sum = 0.0;
            for ctx in [&ctx_dn, &ctx_up] {
                for &(lo, hi) in &feet {
                    sum += max_pattern_height(ctx, x(lo), x(hi), gap, h_init, h_min, &mut scratch)
                        .height;
                }
            }
            sum
        })
    });
    group.bench_function("fed", |b| {
        b.iter(|| {
            let mut sum = 0.0;
            for (d, ctx) in [(0, &ctx_dn), (1, &ctx_up)] {
                for &(lo, hi) in &feet {
                    let hob = table.hob(lo, hi, d);
                    sum += max_pattern_height_fed(
                        ctx,
                        x(lo),
                        x(hi),
                        gap,
                        h_init,
                        h_min,
                        hob,
                        &mut scratch,
                    )
                    .height;
                }
            }
            sum
        })
    });
    group.finish();
}

/// Both side contexts of the first pop of the stress board's first trace
/// (`stress_board(12, 30, 200, 1)`, the `cli-boards` stress board): its
/// first run, with the start height of a 60 % extension.
fn bench_context_build(c: &mut Criterion) {
    let board = stress_board(12, 30, 200, 1).board;
    let (id, trace) = board.traces().next().expect("stress board has traces");
    let area = board.area(id).expect("stress traces have areas").polygons();
    let obstacles: Vec<Polygon> = board
        .obstacles()
        .iter()
        .map(|o| o.polygon().clone())
        .collect();
    let centerline = trace.centerline();
    let h_init = centerline.length() * 0.6 / 2.0;
    let fixture = SidesFixture::new(centerline, 0, area, &obstacles, trace.rules(), h_init)
        .expect("first run is not degenerate");
    let mut group = c.benchmark_group("context_build");
    group.bench_function("stress", |b| b.iter(|| fixture.build()));
    group.finish();
}

fn bench_dtw(c: &mut Criterion) {
    let mut group = c.benchmark_group("dtw");
    for n in [16usize, 64, 256] {
        let p: Vec<Point> = (0..n).map(|i| Point::new(i as f64, 3.0)).collect();
        let q: Vec<Point> = (0..n + 7)
            .map(|i| Point::new(i as f64 * 0.97, -3.0))
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| dtw_match(&p, &q))
        });
    }
    group.finish();
}

fn bench_simplex(c: &mut Criterion) {
    let mut group = c.benchmark_group("simplex");
    for size in [4usize, 8, 16] {
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, &size| {
            b.iter(|| {
                let out = solve_lp_for_bench(size);
                assert!(matches!(out, LpOutcome::Optimal { .. }));
                out
            })
        });
    }
    group.finish();
}

fn extend_input_fixture() -> (Polyline, Vec<Polygon>, meander_drc::DesignRules) {
    let trace = Polyline::new(vec![Point::new(0.0, 0.0), Point::new(200.0, 0.0)]);
    let area = vec![Polygon::rectangle(
        Point::new(-20.0, -60.0),
        Point::new(220.0, 60.0),
    )];
    let rules = meander_drc::DesignRules {
        gap: 8.0,
        obstacle: 8.0,
        protect: 4.0,
        miter: 2.0,
        width: 4.0,
    };
    (trace, area, rules)
}

fn bench_ablations(c: &mut Criterion) {
    let (trace, area, rules) = extend_input_fixture();
    let mut group = c.benchmark_group("ablations");
    group.sample_size(10);

    for (name, config) in [
        ("priority_on", ExtendConfig::default()),
        (
            "priority_off",
            ExtendConfig {
                connect_priority: false,
                ..Default::default()
            },
        ),
        (
            "requeue_off",
            ExtendConfig {
                requeue: false,
                ..Default::default()
            },
        ),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                extend_trace(
                    &ExtendInput {
                        trace: &trace,
                        target: 500.0,
                        rules: &rules,
                        area: &area,
                        obstacles: &[],
                    },
                    &config,
                )
            })
        });
    }
    // Report achieved lengths once so ablation quality is visible in logs.
    for (name, config) in [
        ("priority_on", ExtendConfig::default()),
        (
            "priority_off",
            ExtendConfig {
                connect_priority: false,
                ..Default::default()
            },
        ),
        (
            "requeue_off",
            ExtendConfig {
                requeue: false,
                ..Default::default()
            },
        ),
    ] {
        let out = extend_trace(
            &ExtendInput {
                trace: &trace,
                target: 500.0,
                rules: &rules,
                area: &area,
                obstacles: &[],
            },
            &config,
        );
        println!("ablation {name}: achieved {:.2} / 500", out.achieved);
    }
    let _ = FixedTrackOptions::default(); // keep baseline types exercised
    group.finish();
}

fn bench_io(c: &mut Criterion) {
    let board = stress_board(12, 30, 200, 1).board;
    let text = save_board(&board).expect("generated names are valid");
    c.bench_function("io_save", |b| b.iter(|| save_board(&board)));
    c.bench_function("io_load", |b| b.iter(|| load_board(&text)));
}

fn bench_drc_check(c: &mut Criterion) {
    let routed = |mut board: Board| {
        match_all_groups(&mut board, &ExtendConfig::default());
        board
    };
    let dup = routed(dup_fleet_boards(1, 0.0, 1).boards[0].to_board());
    let mixed = routed(stress_mixed_board(12, 30, 200, 1).board);
    let mut group = c.benchmark_group("drc_check");
    group.bench_function("dup_fleet", |b| b.iter(|| dup.check()));
    group.bench_function("stress_mixed", |b| b.iter(|| mixed.check()));
    group.finish();
}

criterion_group!(
    benches,
    bench_dp_kernel,
    bench_ura_shrink,
    bench_batch_distance,
    bench_batch_profile,
    bench_shrink_probe,
    bench_context_build,
    bench_dtw,
    bench_simplex,
    bench_ablations,
    bench_io,
    bench_drc_check
);
criterion_main!(benches);
