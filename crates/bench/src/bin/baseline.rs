//! Performance baseline: times the matching flow, single-trace extension,
//! the DRC scan, and the **multi-board fleet engine** on the paper's cases
//! plus the stress boards, for each engine configuration, and emits
//! `BENCH_PR10.json` (schema v10) — the tenth point of the repo's
//! performance trajectory. The `fleet` section times a serving-size fleet
//! routed per-board sequentially, batched without library sharing, and
//! batched **with** the shared obstacle-library world
//! (`meander_fleet::route_fleet` — bit-identical outputs, asserted here).
//! The `hardening` section records the cancellation drain latency plus,
//! with `--features fault`, an injected-panic smoke proving a crashing
//! board costs one board; the `resilience` section measures the retry
//! ladder's happy-path overhead and injected-fault recovery; the
//! `session` section measures incremental re-routing through
//! `FleetSession` on a 1000-board fleet at 1% churn; the `cache` section
//! measures the content-addressed result cache on a 1000-board
//! duplicate-heavy fleet (warm-pass hit rate asserted ≥ 90%, warm
//! throughput ≥ 3× uncached, one library edit invalidating < 20% of the
//! entries — all counter-asserted, every pass bit-identical to uncached
//! routing). Schema v10 adds the **sched** section: the typed-priority
//! scheduler's serving tiers on one shared single-worker `Scheduler` —
//! interactive re-route p50/p99 latency with and without a concurrent
//! 1000-board batch fleet (loaded p99 asserted ≤ 2× unloaded), and the
//! speculative warm-up pass's cold-start hit-rate lift on the dup-rate-0.9
//! fleet (asserted positive). Printed deltas compare against the recorded
//! `BENCH_PR9.json`.
//!
//! ```text
//! cargo run --release -p meander-bench --bin baseline [--smoke] [out.json]
//! ```
//!
//! Configurations:
//!
//! * `naive`       — rebuild-per-iteration engine, serial driver
//! * `pr1path`     — indexed incremental engine with the upper-bound
//!   profile off (`dp_profile: false`): the PR 1 code path, re-measured on
//!   the current tree so the extension speedups compare like with like
//! * `incremental` — indexed engine + DP upper-bound profile, scalar
//!   geometry kernels (the PR 2 code path)
//! * `batched`     — `incremental` with `batch_kernels: true`: stage-1 and
//!   profile sweeps on the SoA lane-parallel kernels (the PR 3 code path,
//!   uniform-grid indexes throughout)
//! * `rtree`       — `batched` with `index: IndexKind::RTree`: the world
//!   edge index, per-pop shrink contexts, and DRC scan index are STR
//!   R-trees (and the batched DRC obstacle pass may take its edge-indexed
//!   candidate-outer path)
//! * `parallel`    — indexed engine, parallel driver
//!
//! The fleet rows are measured on this container honestly: at 1 CPU the
//! scheduler runs on one worker (steal counters ≈ 0) and the shrink
//! side-context worker pair stays inactive — the shared-vs-unshared delta
//! isolates the library-index amortization alone. Re-measure on multicore
//! hardware for scheduler scaling.
//!
//! `--smoke` runs the table1:5 matching + DRC slice plus a 4-board mini
//! fleet, a duplicate-heavy 4-board fleet routed twice through the result
//! cache (the warm pass must hit at least once), a mixed-tier mini run
//! (interactive re-routes preempting a concurrent batch fleet while a
//! speculative warm-up queues behind both, all on one shared scheduler),
//! and the cancellation-drain case (seconds, debug or release) so CI
//! keeps both binaries' paths from rotting between perf PRs; with
//! `--features fault` it also exercises the injected-panic fleet.

use meander_core::dp::{extend_segment_dp, DpInput, DpSession, HeightBounds};
use meander_core::extend::{extend_trace, ExtendInput};
use meander_core::match_all_groups;
use meander_core::pattern::placements_window;
#[cfg(feature = "fault")]
use meander_core::plan_board_units;
use meander_core::{match_board_group, DpStats, ExtendConfig, IndexKind};
use meander_drc::{
    check_layout_batched_stats_with, check_layout_brute, check_layout_indexed, CheckInput,
    TraceGeometry,
};
#[cfg(feature = "fault")]
use meander_fleet::FaultPlan;
use meander_fleet::{
    route_fleet, route_fleet_resilient, warm_fleet_cache, BoardSet, CancelToken, Edit, EditScope,
    FleetConfig, FleetSession, ResultCache, RetryPolicy, Scheduler, Tier,
};
use meander_geom::batch::BatchStats;
use meander_geom::Vector;
use meander_layout::gen::{
    dup_fleet_boards, dup_fleet_boards_small, edit_stream, fleet_boards, fleet_boards_small,
    stress_board, stress_mixed_board, table1_case, table2_case, FleetCase,
};
use meander_layout::Board;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

// Every measured config pins `index` explicitly so building the bench with
// the `rtree` feature cannot silently flip a comparison column.
fn naive_config() -> ExtendConfig {
    ExtendConfig {
        incremental: false,
        parallel: false,
        batch_kernels: false,
        index: IndexKind::Grid,
        ..ExtendConfig::default()
    }
}

fn pr1path_config() -> ExtendConfig {
    ExtendConfig {
        parallel: false,
        dp_profile: false,
        batch_kernels: false,
        index: IndexKind::Grid,
        ..ExtendConfig::default()
    }
}

fn incremental_config() -> ExtendConfig {
    ExtendConfig {
        parallel: false,
        batch_kernels: false,
        index: IndexKind::Grid,
        ..ExtendConfig::default()
    }
}

fn batched_config() -> ExtendConfig {
    ExtendConfig {
        parallel: false,
        batch_kernels: true,
        index: IndexKind::Grid,
        ..ExtendConfig::default()
    }
}

fn rtree_config() -> ExtendConfig {
    ExtendConfig {
        parallel: false,
        batch_kernels: true,
        index: IndexKind::RTree,
        ..ExtendConfig::default()
    }
}

fn parallel_config() -> ExtendConfig {
    ExtendConfig {
        index: IndexKind::Grid,
        ..ExtendConfig::default()
    }
}

struct CaseRow {
    name: String,
    naive_s: f64,
    incremental_s: f64,
    batched_s: f64,
    rtree_s: f64,
    parallel_s: f64,
    max_err_pct: f64,
    patterns: usize,
}

/// Median of `reps` timings of `f` (single-shot wall clocks on a shared
/// container swing by tens of percent; medians make the recorded ratios
/// reproducible). Returns the median seconds and the first run's value.
fn median_secs<T>(reps: usize, mut f: impl FnMut() -> (f64, T)) -> (f64, T) {
    let (s0, out) = f();
    let mut times = vec![s0];
    for _ in 1..reps {
        times.push(f().0);
    }
    times.sort_by(f64::total_cmp);
    (times[times.len() / 2], out)
}

fn time_match<F: Fn() -> Board>(make: F, config: &ExtendConfig, reps: usize) -> (f64, f64, usize) {
    let (secs, (err, patterns)) = median_secs(reps, || {
        let mut board = make();
        let t0 = Instant::now();
        let report = match_board_group(&mut board, 0, config);
        let secs = t0.elapsed().as_secs_f64();
        let patterns = report.traces.iter().map(|t| t.patterns).sum();
        (secs, (report.max_error() * 100.0, patterns))
    });
    (secs, err, patterns)
}

fn run_case<F: Fn() -> Board>(name: &str, make: F) -> CaseRow {
    let (naive_s, _, _) = time_match(&make, &naive_config(), 1);
    let (incremental_s, max_err_pct, patterns) = time_match(&make, &incremental_config(), 3);
    let (batched_s, batched_err, batched_patterns) = time_match(&make, &batched_config(), 3);
    assert_eq!(
        patterns, batched_patterns,
        "{name}: batch kernels must not change the outcome"
    );
    assert_eq!(max_err_pct.to_bits(), batched_err.to_bits());
    let (rtree_s, rtree_err, rtree_patterns) = time_match(&make, &rtree_config(), 3);
    assert_eq!(
        patterns, rtree_patterns,
        "{name}: the R-tree index must not change the outcome"
    );
    assert_eq!(max_err_pct.to_bits(), rtree_err.to_bits());
    let (parallel_s, _, _) = time_match(&make, &parallel_config(), 1);
    let row = CaseRow {
        name: name.to_string(),
        naive_s,
        incremental_s,
        batched_s,
        rtree_s,
        parallel_s,
        max_err_pct,
        patterns,
    };
    println!(
        "{:<18} naive {:>9.4}s  incremental {:>9.4}s  batched {:>9.4}s  rtree {:>9.4}s  parallel {:>9.4}s  (x{:.1} naive, x{:.2} batch, x{:.2} rtree)  maxerr {:.2}%",
        row.name,
        row.naive_s,
        row.incremental_s,
        row.batched_s,
        row.rtree_s,
        row.parallel_s,
        row.naive_s / row.incremental_s.max(1e-12),
        row.incremental_s / row.batched_s.max(1e-12),
        row.batched_s / row.rtree_s.max(1e-12),
        row.max_err_pct
    );
    row
}

struct ExtendRow {
    name: String,
    naive_s: f64,
    pr1path_s: f64,
    incremental_s: f64,
    batched_s: f64,
    iterations: usize,
    patterns: usize,
    stats: DpStats,
    batch: BatchStats,
}

fn run_extend_case(name: &str, case_no: usize) -> ExtendRow {
    let case = table2_case(case_no);
    let trace = case.board.trace(case.trace).expect("trace").clone();
    let area = case
        .board
        .area(case.trace)
        .expect("area")
        .polygons()
        .to_vec();
    let obstacles: Vec<meander_geom::Polygon> = case
        .board
        .obstacles()
        .iter()
        .map(|o| o.polygon().clone())
        .collect();
    let rules = *trace.rules();
    let target = trace.length() * 50.0;
    let input = ExtendInput {
        trace: trace.centerline(),
        target,
        rules: &rules,
        area: &area,
        obstacles: &obstacles,
    };
    let long_run = |mut c: ExtendConfig| {
        c.max_iterations = 2000;
        c
    };

    let timed = |config: ExtendConfig| {
        median_secs(3, || {
            let t0 = Instant::now();
            let out = extend_trace(&input, &long_run(config.clone()));
            (t0.elapsed().as_secs_f64(), out)
        })
    };
    let (naive_s, slow) = timed(naive_config());
    let (pr1path_s, pr1) = timed(pr1path_config());
    let (incremental_s, fast) = timed(incremental_config());
    let (batched_s, batched) = timed(batched_config());
    assert_eq!(
        slow.patterns, fast.patterns,
        "{name}: engines must agree on pattern count"
    );
    assert_eq!(
        pr1.patterns, fast.patterns,
        "{name}: profile must not change the outcome"
    );
    assert!((pr1.achieved - fast.achieved).abs() < 1e-9);
    // The batch kernels are bit-identical, not merely equivalent.
    assert_eq!(batched.patterns, fast.patterns);
    assert_eq!(
        batched.achieved.to_bits(),
        fast.achieved.to_bits(),
        "{name}: batch kernels must be bit-identical"
    );
    assert_eq!(batched.trace.points(), fast.trace.points());
    let s = fast.stats;
    println!(
        "{:<18} naive {:>8.4}s  pr1path {:>8.4}s  profile {:>8.4}s  batched {:>8.4}s  (x{:.2} vs naive, x{:.2} vs scalar)  {} iters, {} patterns, hq {}→{} exec (skip {:.2})",
        name,
        naive_s,
        pr1path_s,
        incremental_s,
        batched_s,
        naive_s / batched_s.max(1e-12),
        incremental_s / batched_s.max(1e-12),
        fast.iterations,
        fast.patterns,
        s.hq_requested,
        s.hq_executed,
        s.skip_rate(),
    );
    ExtendRow {
        name: name.to_string(),
        naive_s,
        pr1path_s,
        incremental_s,
        batched_s,
        iterations: fast.iterations,
        patterns: fast.patterns,
        stats: s,
        batch: batched.stats.batch,
    }
}

struct DrcRow {
    name: String,
    brute_s: f64,
    indexed_s: f64,
    batched_s: f64,
    rtree_s: f64,
    violations: usize,
    segments: usize,
    batch: BatchStats,
}

fn run_drc_case(name: &str, board: &Board) -> DrcRow {
    let input = CheckInput {
        traces: board
            .traces()
            .map(|(id, t)| TraceGeometry {
                id: id.0,
                centerline: t.centerline().clone(),
                width: t.width(),
                rules: *t.rules(),
                area: board
                    .area(id)
                    .map(|a| a.polygons().to_vec())
                    .unwrap_or_default(),
                coupled_with: vec![],
            })
            .collect(),
        obstacles: board
            .obstacles()
            .iter()
            .map(|o| o.polygon().clone())
            .collect(),
    };
    let segments: usize = input
        .traces
        .iter()
        .map(|t| t.centerline.segment_count())
        .sum();

    let t0 = Instant::now();
    let brute = check_layout_brute(&input);
    let brute_s = t0.elapsed().as_secs_f64();
    let (indexed_s, indexed) = median_secs(5, || {
        let t0 = Instant::now();
        let v = check_layout_indexed(&input);
        (t0.elapsed().as_secs_f64(), v)
    });
    let (batched_s, (batched, batch)) = median_secs(5, || {
        let t0 = Instant::now();
        let v = check_layout_batched_stats_with(&input, IndexKind::Grid);
        (t0.elapsed().as_secs_f64(), v)
    });
    let (rtree_s, (rtreed, _)) = median_secs(5, || {
        let t0 = Instant::now();
        let v = check_layout_batched_stats_with(&input, IndexKind::RTree);
        (t0.elapsed().as_secs_f64(), v)
    });
    assert_eq!(brute, indexed, "{name}: DRC paths must agree exactly");
    assert_eq!(brute, batched, "{name}: batched DRC must agree exactly");
    assert_eq!(brute, rtreed, "{name}: R-tree DRC must agree exactly");
    println!(
        "{:<18} brute {:>9.4}s  indexed {:>9.4}s  batched {:>9.4}s  rtree {:>9.4}s  (x{:.1} brute, x{:.2} batch, x{:.2} rtree)  {} segments, {} violations",
        name,
        brute_s,
        indexed_s,
        batched_s,
        rtree_s,
        brute_s / indexed_s.max(1e-12),
        indexed_s / batched_s.max(1e-12),
        batched_s / rtree_s.max(1e-12),
        segments,
        brute.len()
    );
    DrcRow {
        name: name.to_string(),
        brute_s,
        indexed_s,
        batched_s,
        rtree_s,
        violations: brute.len(),
        segments,
        batch,
    }
}

struct ResolveRow {
    m: usize,
    scratch_s: f64,
    resolve_s: f64,
    points_per_resolve: f64,
    memo_hit_rate: f64,
}

/// Times the [`DpSession`] prefix-reuse path directly: a from-scratch solve
/// vs invalidate-a-mid-window + resolve, with the height closure running
/// real URA-shrink queries against an obstacle field (the engine's actual
/// per-probe cost) plus a mutable per-position overlay standing in for the
/// geometry a splice changes.
fn run_dp_resolve_case(m: usize) -> ResolveRow {
    use meander_core::context::{ShrinkContext, WorldContext};
    use meander_core::shrink::{max_pattern_height_scratch, ShrinkScratch};
    use meander_geom::{Frame, Point, Polygon, Segment};

    let config = ExtendConfig::default();
    let seg_len = 200.0;
    let ldisc = seg_len / m as f64;
    let seg = Segment::new(Point::new(0.0, 0.0), Point::new(seg_len, 0.0));
    let frame = Frame::from_segment(&seg).expect("non-degenerate");
    let obstacles: Vec<Polygon> = (0..48)
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
    let ctx = ShrinkContext::build(&world, &frame, seg_len, 1);
    let scratch = std::cell::RefCell::new(ShrinkScratch::new());
    let (gap, h_init, h_min) = (8.0, 40.0, 2.0);
    let field = std::cell::RefCell::new(vec![h_init; m + 1]);
    let height = |lo: usize, hi: usize, _: i8| -> f64 {
        let cap = {
            let f = field.borrow();
            f[lo..=hi].iter().fold(f64::INFINITY, |a, &b| a.min(b))
        };
        if cap <= 0.0 {
            return 0.0;
        }
        max_pattern_height_scratch(
            &ctx,
            lo as f64 * ldisc,
            hi as f64 * ldisc,
            gap,
            cap.min(h_init),
            h_min,
            &mut scratch.borrow_mut(),
        )
        .height
    };
    let input = DpInput {
        m,
        ldisc,
        gap_steps: 8,
        protect_steps: 4,
        min_width_steps: 8,
        max_width_steps: 48,
        height: &height,
        bounds: HeightBounds::Uniform(f64::INFINITY),
        config: &config,
    };
    let reps = 300;

    let t0 = Instant::now();
    let mut out = extend_segment_dp(&input);
    for _ in 1..reps {
        out = extend_segment_dp(&input);
    }
    let scratch_s = t0.elapsed().as_secs_f64() / reps as f64;

    // Invalidation window: where a mid-segment restored pattern actually
    // sits (the splice window of one engine pop — narrow relative to the
    // segment, with untouched state on both sides: the prefix is reused
    // verbatim, suffix probes answer from the memo).
    let (a, b) = out
        .placements
        .iter()
        .min_by_key(|p| (p.lo + p.hi).abs_diff(m))
        .map(|p| placements_window(std::slice::from_ref(p)).expect("one placement"))
        .unwrap_or((m / 2, m / 2 + 8));
    let mut session = DpSession::new(&input, true);
    let _ = session.solve(&input);
    let before = *session.stats();
    let t0 = Instant::now();
    for _ in 0..reps {
        {
            let mut f = field.borrow_mut();
            for x in a..=b.min(m) {
                f[x] = if f[x] == 0.0 { 4.0 } else { 0.0 };
            }
        }
        session.invalidate_window(a, b);
        let _ = session.solve(&input);
    }
    let resolve_s = t0.elapsed().as_secs_f64() / reps as f64;
    let s = session.stats();
    let points_per_resolve = (s.points_evaluated - before.points_evaluated) as f64 / reps as f64;
    let memo_hit_rate = (s.hq_memo_hits - before.hq_memo_hits) as f64
        / ((s.hq_requested - before.hq_requested) as f64).max(1.0);
    println!(
        "dp_resolve m={m:<4} scratch {:>9.1}µs  resolve {:>9.1}µs  (x{:.1})  {:.0}/{} rows, memo hit {:.2}",
        scratch_s * 1e6,
        resolve_s * 1e6,
        scratch_s / resolve_s.max(1e-12),
        points_per_resolve,
        m,
        memo_hit_rate
    );
    ResolveRow {
        m,
        scratch_s,
        resolve_s,
        points_per_resolve,
        memo_hit_rate,
    }
}

struct FleetRow {
    name: String,
    boards: usize,
    jobs: usize,
    units: usize,
    /// Per-board sequential `match_all_groups` over materialized twins.
    sequential_s: f64,
    /// Fleet engine, library materialized per board (no sharing).
    unshared_s: f64,
    /// Fleet engine, shared library world.
    shared_s: f64,
    /// Shared run with `validate: false` — `shared_s` minus the
    /// validation gate, isolating its cost from `catch_unwind`'s.
    validate_off_s: f64,
    /// The validation gate's wall clock inside the shared run.
    validation_s: f64,
    /// One-time shared-world build inside the shared run (already included
    /// in `shared_s` — reported separately to show the amortization).
    base_build_s: f64,
    library_polygons: usize,
    workers: usize,
    steals: u64,
    steal_attempts: u64,
    stolen_jobs: u64,
    busy_s: f64,
}

impl FleetRow {
    fn boards_per_sec(&self, secs: f64) -> f64 {
        self.boards as f64 / secs.max(1e-12)
    }
}

/// Times one fleet three ways — per-board sequential, fleet without
/// library sharing, fleet with it — asserting bit-identical outcomes
/// across all three (achieved lengths and pattern counts per trace).
fn run_fleet_case(name: &str, make: impl Fn() -> FleetCase, reps: usize) -> FleetRow {
    // Fleet rows pin the engine like `batched_config` (serial per-unit
    // driver; the fleet scheduler owns the fan-out).
    let extend = batched_config();

    // Reference: sequential per-board matching on materialized twins.
    let fingerprint = |reports: &[Vec<meander_core::GroupReport>]| -> Vec<u64> {
        reports
            .iter()
            .flatten()
            .flat_map(|g| {
                g.traces
                    .iter()
                    .map(|t| t.achieved.to_bits() ^ (t.patterns as u64) << 1)
            })
            .collect()
    };
    let (sequential_s, want) = median_secs(reps, || {
        let fleet = make();
        let t0 = Instant::now();
        let reports: Vec<Vec<meander_core::GroupReport>> = fleet
            .boards
            .iter()
            .map(|lb| {
                let mut board = lb.to_board();
                match_all_groups(&mut board, &extend)
            })
            .collect();
        (t0.elapsed().as_secs_f64(), fingerprint(&reports))
    });

    let fleet_run = |share: bool, validate: bool| {
        let fleet = make();
        let mut set = BoardSet::new(fleet.boards);
        let t0 = Instant::now();
        let report = route_fleet(
            &mut set,
            &FleetConfig {
                extend: extend.clone(),
                workers: None,
                share_library: share,
                validate,
                ..Default::default()
            },
        );
        let secs = t0.elapsed().as_secs_f64();
        assert!(report.all_routed(), "{name}: bench fleets are valid");
        let got = fingerprint(&report.reports);
        (secs, (report, got))
    };
    let (unshared_s, (_, got_unshared)) = median_secs(reps, || fleet_run(false, true));
    assert_eq!(
        want, got_unshared,
        "{name}: unshared fleet must be bit-identical to sequential"
    );
    let (shared_s, (shared_report, got_shared)) = median_secs(reps, || fleet_run(true, true));
    assert_eq!(
        want, got_shared,
        "{name}: shared fleet must be bit-identical to sequential"
    );
    // Validation off: same routing, no gate — isolates the scan's cost
    // (still bit-identical; these fleets are valid by construction).
    let (validate_off_s, (_, got_novalidate)) = median_secs(reps, || fleet_run(true, false));
    assert_eq!(
        want, got_novalidate,
        "{name}: validation must not change routed output"
    );

    let s = shared_report.stats;
    let row = FleetRow {
        name: name.to_string(),
        boards: s.boards,
        jobs: s.jobs,
        units: s.units,
        sequential_s,
        unshared_s,
        shared_s,
        validate_off_s,
        validation_s: s.validation_wall.as_secs_f64(),
        base_build_s: s.base_build.as_secs_f64(),
        library_polygons: s.library_polygons,
        workers: s.scheduler.workers,
        steals: s.sched.steals,
        steal_attempts: s.sched.steal_attempts,
        stolen_jobs: s.sched.stolen_jobs,
        busy_s: s.scheduler.total_busy().as_secs_f64(),
    };
    println!(
        "{:<18} sequential {:>8.4}s  unshared {:>8.4}s  shared {:>8.4}s  (x{:.2} sharing, x{:.2} vs sequential)  {:.2} boards/s shared, base build {:>8.5}s ({} lib polys), {} workers, {} steals",
        row.name,
        row.sequential_s,
        row.unshared_s,
        row.shared_s,
        row.unshared_s / row.shared_s.max(1e-12),
        row.sequential_s / row.shared_s.max(1e-12),
        row.boards_per_sec(row.shared_s),
        row.base_build_s,
        row.library_polygons,
        row.workers,
        row.steals,
    );
    row
}

struct CacheInvalRow {
    /// Library obstacle index moved (corridor-major: the top corridor's
    /// vias, so only the boards routing that corridor are damaged).
    edited_index: usize,
    /// Entries in the cache when the edit landed.
    entries: usize,
    /// Entries whose recorded touches intersected the damage — evicted.
    invalidated: u64,
    /// Entries outside the damage — moved under the new Merkle root.
    rekeyed: u64,
}

impl CacheInvalRow {
    fn invalidated_pct(&self) -> f64 {
        if self.entries == 0 {
            return 0.0;
        }
        100.0 * self.invalidated as f64 / self.entries as f64
    }
}

struct CacheRow {
    name: String,
    boards: usize,
    dup_rate: f64,
    jobs: usize,
    /// No cache attached — the from-scratch reference and denominator.
    uncached_s: f64,
    /// Fresh cache: every distinct (board, group) routes once and inserts.
    cold_s: f64,
    /// Same cache, fresh copy of the fleet: the serving regime.
    warm_s: f64,
    cold_hits: u64,
    cold_misses: u64,
    warm_hits: u64,
    warm_misses: u64,
    /// Cache occupancy after the warm pass (before the invalidation run).
    entries: usize,
    bytes: usize,
    invalidation: Option<CacheInvalRow>,
}

impl CacheRow {
    fn boards_per_sec(&self, secs: f64) -> f64 {
        self.boards as f64 / secs.max(1e-12)
    }

    fn warm_hit_rate(&self) -> f64 {
        let total = self.warm_hits + self.warm_misses;
        if total == 0 {
            return 0.0;
        }
        self.warm_hits as f64 / total as f64
    }
}

/// Times the duplicate-heavy fleet three ways — uncached, cold cache
/// (populating), warm cache (serving a fresh copy of the same content) —
/// asserting all three routings bit-identical, then (full mode) lands one
/// library via move through a [`FleetSession`] and reads the invalidation
/// split off the cache counters.
fn run_cache_case(
    name: &str,
    make: impl Fn() -> FleetCase,
    dup_rate: f64,
    invalidate_index: Option<usize>,
) -> CacheRow {
    let extend = batched_config();
    let plain_cfg = FleetConfig {
        extend: extend.clone(),
        workers: None,
        share_library: true,
        ..Default::default()
    };
    let fingerprint = |reports: &[Vec<meander_core::GroupReport>]| -> Vec<u64> {
        reports
            .iter()
            .flatten()
            .flat_map(|g| {
                g.traces
                    .iter()
                    .map(|t| t.achieved.to_bits() ^ (t.patterns as u64) << 1)
            })
            .collect()
    };

    let fleet = make();
    let mut plain = BoardSet::new(fleet.boards.clone());
    let t0 = Instant::now();
    let plain_report = route_fleet(&mut plain, &plain_cfg);
    let uncached_s = t0.elapsed().as_secs_f64();
    assert!(plain_report.all_routed(), "{name}: bench fleets are valid");
    let want = fingerprint(&plain_report.reports);

    let cache = Arc::new(ResultCache::default());
    let cached_cfg = FleetConfig {
        extend: extend.clone(),
        workers: None,
        share_library: true,
        cache: Some(Arc::clone(&cache)),
        ..Default::default()
    };
    let mut cold = BoardSet::new(fleet.boards.clone());
    let t0 = Instant::now();
    let cold_report = route_fleet(&mut cold, &cached_cfg);
    let cold_s = t0.elapsed().as_secs_f64();
    assert_eq!(
        want,
        fingerprint(&cold_report.reports),
        "{name}: cache-on must be bit-identical to cache-off"
    );

    let mut warm = BoardSet::new(fleet.boards.clone());
    let t0 = Instant::now();
    let warm_report = route_fleet(&mut warm, &cached_cfg);
    let warm_s = t0.elapsed().as_secs_f64();
    assert_eq!(
        want,
        fingerprint(&warm_report.reports),
        "{name}: the warm pass must replay the routing exactly"
    );
    for (a, b) in cold.boards().iter().zip(warm.boards()) {
        for (id, t) in a.board().traces() {
            assert_eq!(
                t.centerline(),
                b.board().trace(id).expect("same traces").centerline(),
                "{name}: warm geometry must equal cold bit for bit"
            );
        }
    }
    assert!(
        warm_report.stats.cache_hits >= 1,
        "{name}: a duplicate-heavy second pass must hit the cache"
    );
    let entries = cache.len();
    let bytes = cache.bytes();

    let invalidation = invalidate_index.map(|index| {
        let mut session = FleetSession::new(BoardSet::new(fleet.boards.clone()), &cached_cfg);
        assert!(session.report().all_routed(), "{name}: session init routes");
        let entries = cache.len();
        let before = cache.stats();
        let _ = session.apply_edit(Edit::MoveObstacle {
            scope: EditScope::Library(0),
            index,
            by: Vector::new(1.5, 1.0),
        });
        let report = session.reroute_dirty(&cached_cfg);
        assert!(report.all_routed(), "{name}: fleet stays routed post-edit");
        let after = cache.stats();
        let row = CacheInvalRow {
            edited_index: index,
            entries,
            invalidated: after.invalidated - before.invalidated,
            rekeyed: after.rekeyed - before.rekeyed,
        };
        assert_eq!(
            (row.invalidated + row.rekeyed) as usize,
            entries,
            "{name}: the root transition classifies every entry"
        );
        row
    });

    let row = CacheRow {
        name: name.to_string(),
        boards: fleet.boards.len(),
        dup_rate,
        jobs: warm_report.stats.jobs,
        uncached_s,
        cold_s,
        warm_s,
        cold_hits: cold_report.stats.cache_hits,
        cold_misses: cold_report.stats.cache_misses,
        warm_hits: warm_report.stats.cache_hits,
        warm_misses: warm_report.stats.cache_misses,
        entries,
        bytes,
        invalidation,
    };
    println!(
        "{:<18} uncached {:>8.4}s  cold {:>8.4}s  warm {:>8.4}s  ({:.1} / {:.1} / {:.1} boards/s)  warm hits {}/{} ({:.1}%)  {} entries, {:.1} KiB",
        row.name,
        row.uncached_s,
        row.cold_s,
        row.warm_s,
        row.boards_per_sec(row.uncached_s),
        row.boards_per_sec(row.cold_s),
        row.boards_per_sec(row.warm_s),
        row.warm_hits,
        row.jobs,
        100.0 * row.warm_hit_rate(),
        row.entries,
        row.bytes as f64 / 1024.0,
    );
    if let Some(i) = &row.invalidation {
        println!(
            "{:<18} library move @{}: {} invalidated + {} rekeyed of {} entries ({:.1}% invalidated)",
            row.name,
            i.edited_index,
            i.invalidated,
            i.rekeyed,
            i.entries,
            i.invalidated_pct(),
        );
    }
    row
}

struct SessionRow {
    name: String,
    boards: usize,
    units: usize,
    /// Plain `route_fleet` of the same fleet — the from-scratch server
    /// and the denominator of the tracking-overhead ratio.
    plain_s: f64,
    /// `FleetSession::new` — the same route with touched-cell recording.
    init_s: f64,
    cycles: usize,
    edits_total: usize,
    /// Mean wall clock of one `reroute_dirty` (one cycle's edits).
    reroute_mean_s: f64,
    edits_per_sec: f64,
    /// What a from-scratch server manages: one full route per edit cycle.
    edits_per_sec_scratch: f64,
    units_dirty_total: usize,
    units_skipped_total: usize,
    cells_dirty_total: u64,
}

impl SessionRow {
    fn tracking_overhead_pct(&self) -> f64 {
        (self.init_s / self.plain_s.max(1e-12) - 1.0) * 100.0
    }

    fn speedup_vs_scratch(&self) -> f64 {
        self.edits_per_sec / self.edits_per_sec_scratch.max(1e-12)
    }

    fn skip_rate_pct(&self) -> f64 {
        let considered = self.units_dirty_total + self.units_skipped_total;
        if considered == 0 {
            return 0.0;
        }
        100.0 * self.units_skipped_total as f64 / considered as f64
    }
}

/// Serves `cycles` batches of edits through a [`FleetSession`], timing
/// each incremental re-route against the from-scratch full route, and
/// asserts the final served state is bit-identical to from-scratch
/// routing of the edited fleet.
fn run_session_case(
    name: &str,
    make: impl Fn() -> FleetCase,
    cycles: usize,
    edits_for: impl Fn(&FleetCase, usize) -> Vec<Edit>,
) -> SessionRow {
    let config = FleetConfig {
        extend: batched_config(),
        workers: None,
        share_library: true,
        ..Default::default()
    };
    let fingerprint = |reports: &[Vec<meander_core::GroupReport>]| -> Vec<u64> {
        reports
            .iter()
            .flatten()
            .flat_map(|g| {
                g.traces
                    .iter()
                    .map(|t| t.achieved.to_bits() ^ (t.patterns as u64) << 1)
            })
            .collect()
    };

    // From-scratch baseline: plain route, no touched-cell recording.
    let case = make();
    let t0 = Instant::now();
    let mut plain_set = BoardSet::new(case.boards.clone());
    let plain_report = route_fleet(&mut plain_set, &config);
    let plain_s = t0.elapsed().as_secs_f64();
    assert!(plain_report.all_routed(), "{name}: bench fleets are valid");

    // Session init: the same route, recording each unit's touched cells.
    let t0 = Instant::now();
    let mut session = FleetSession::new(BoardSet::new(case.boards.clone()), &config);
    let init_s = t0.elapsed().as_secs_f64();
    let init_report = session.report();
    assert!(init_report.all_routed(), "{name}: session init routes all");
    let units = init_report.stats.units;

    let mut reroute_total = 0.0f64;
    let mut edits_total = 0usize;
    let (mut dirty, mut skipped, mut cells) = (0usize, 0usize, 0u64);
    for cycle in 0..cycles {
        let edits = edits_for(&case, cycle);
        edits_total += edits.len();
        for e in edits {
            let _ = session.apply_edit(e);
        }
        let t0 = Instant::now();
        let report = session.reroute_dirty(&config);
        reroute_total += t0.elapsed().as_secs_f64();
        assert!(report.all_routed(), "{name}: serving fleet stays routed");
        dirty += report.stats.units_dirty;
        skipped += report.stats.units_skipped;
        cells = cells.saturating_add(report.stats.cells_dirty);
    }

    // The whole point: the served state equals from-scratch, bit for bit.
    let mut reference = BoardSet::new(session.pristine_boards());
    let want = route_fleet(&mut reference, &config);
    assert_eq!(
        fingerprint(&want.reports),
        fingerprint(&session.report().reports),
        "{name}: incremental re-route must equal from-scratch routing"
    );

    let reroute_mean_s = reroute_total / cycles.max(1) as f64;
    let edits_per_cycle = edits_total as f64 / cycles.max(1) as f64;
    let row = SessionRow {
        name: name.to_string(),
        boards: case.boards.len(),
        units,
        plain_s,
        init_s,
        cycles,
        edits_total,
        reroute_mean_s,
        edits_per_sec: edits_total as f64 / reroute_total.max(1e-12),
        edits_per_sec_scratch: edits_per_cycle / plain_s.max(1e-12),
        units_dirty_total: dirty,
        units_skipped_total: skipped,
        cells_dirty_total: cells,
    };
    println!(
        "{:<18} full route {:>8.4}s  recorded init {:>8.4}s ({:+.2}% tracking)  reroute {:>8.5}s/cycle  \
         {:>9.1} edits/s vs {:>7.2} from-scratch (x{:.1})  skip {:.1}% ({} dirty / {} skipped units)",
        row.name,
        row.plain_s,
        row.init_s,
        row.tracking_overhead_pct(),
        row.reroute_mean_s,
        row.edits_per_sec,
        row.edits_per_sec_scratch,
        row.speedup_vs_scratch(),
        row.skip_rate_pct(),
        row.units_dirty_total,
        row.units_skipped_total,
    );
    row
}

/// Index-nearest percentile of a sorted latency vector.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// The speculative warm-up economics of the sched row.
struct WarmupEconRow {
    case: String,
    distinct: usize,
    warmed: usize,
    warmup_s: f64,
    /// Hit rate of a cold route against a fresh, unwarmed cache — the
    /// intra-fleet dup hits the engine finds on its own.
    cold_hit_rate_unwarmed: f64,
    /// Hit rate of the same route against the pre-warmed cache.
    cold_hit_rate_warmed: f64,
}

impl WarmupEconRow {
    fn hit_rate_delta(&self) -> f64 {
        self.cold_hit_rate_warmed - self.cold_hit_rate_unwarmed
    }
}

struct SchedRow {
    scheduler_workers: usize,
    serve_boards: usize,
    batch_boards: usize,
    /// Interactive re-routes timed per phase (unloaded and loaded).
    reroutes: usize,
    unloaded_p50_s: f64,
    unloaded_p99_s: f64,
    loaded_p50_s: f64,
    loaded_p99_s: f64,
    /// Loaded re-routes that actually overlapped the in-flight batch
    /// fleet (0 would mean the batch finished before the phase started —
    /// an honest miss that voids the loaded numbers).
    loaded_overlapped: usize,
    /// Wall clock of the concurrent batch fleet, submission to report.
    batch_s: f64,
    packets_interactive: u64,
    packets_batch: u64,
    packets_speculative: u64,
    preemptions: u64,
    parks: u64,
    unparks: u64,
    warmup: WarmupEconRow,
}

impl SchedRow {
    fn loaded_over_unloaded_p99(&self) -> f64 {
        self.loaded_p99_s / self.unloaded_p99_s.max(1e-12)
    }
}

/// The mixed-tier serving scenario on **one shared scheduler**: an
/// interactive [`FleetSession`] measures re-route latency twice — on an
/// idle scheduler, then with a batch fleet in flight on the same worker
/// pool and a speculative cache warm-up queued behind both — and the
/// warm-up's hit-rate lift is measured against an unwarmed cold route.
/// Every routing is asserted bit-identical to its sequential reference;
/// the bucket counters come off [`Scheduler::counters`] deltas.
fn run_sched_case(smoke: bool) -> SchedRow {
    let shared = Arc::new(Scheduler::new(1));
    let sched_cfg = || FleetConfig {
        extend: batched_config(),
        workers: None,
        share_library: true,
        sched: Some(Arc::clone(&shared)),
        ..Default::default()
    };
    let serial_cfg = FleetConfig {
        extend: batched_config(),
        workers: None,
        share_library: true,
        ..Default::default()
    };
    let fingerprint = |reports: &[Vec<meander_core::GroupReport>]| -> Vec<u64> {
        reports
            .iter()
            .flatten()
            .flat_map(|g| {
                g.traces
                    .iter()
                    .map(|t| t.achieved.to_bits() ^ (t.patterns as u64) << 1)
            })
            .collect()
    };

    let serve_fleet = if smoke {
        fleet_boards_small(3, 7, 11)
    } else {
        fleet_boards(16, 7, 11)
    };
    let batch_fleet = if smoke {
        fleet_boards_small(4, 21, 42)
    } else {
        fleet_boards(1000, 21, 42)
    };
    let (warm_name, warm_fleet) = if smoke {
        ("dup:small:4", dup_fleet_boards_small(4, 0.5, 19))
    } else {
        ("dup:1000@0.9", dup_fleet_boards(1000, 0.9, 33))
    };
    let reroutes_per_phase = if smoke { 4 } else { 100 };
    let serve_boards = serve_fleet.boards.len();
    let batch_boards = batch_fleet.boards.len();

    // The batch reference is routed sequentially up front (no scheduler)
    // so the loaded phase's batch output can be bit-compared.
    let mut batch_ref = BoardSet::new(batch_fleet.boards.clone());
    let batch_want = fingerprint(&route_fleet(&mut batch_ref, &serial_cfg).reports);

    let cfg = sched_cfg();
    let mut session = FleetSession::new(BoardSet::new(serve_fleet.boards.clone()), &cfg);
    assert!(session.report().all_routed(), "sched: serve fleet routes");
    let counters_start = shared.counters();

    // Obstacle 0 of board `k % n` oscillates +v / -v on alternating
    // visits, so a long edit stream never drifts geometry off the board:
    // every second visit returns the obstacle home.
    let edit_for = |k: usize| {
        let board = k % serve_boards;
        let sign = if (k / serve_boards).is_multiple_of(2) {
            1.0
        } else {
            -1.0
        };
        Edit::MoveObstacle {
            scope: EditScope::Board(board),
            index: 0,
            by: Vector::new(sign * 1.5, -sign),
        }
    };
    let reroute_once = |session: &mut FleetSession, k: usize| -> f64 {
        let _ = session.apply_edit(edit_for(k));
        let t0 = Instant::now();
        let report = session.reroute_dirty(&cfg);
        let secs = t0.elapsed().as_secs_f64();
        assert!(report.all_routed(), "sched: serving fleet stays routed");
        secs
    };

    // Phase 1: interactive latency on an otherwise idle scheduler.
    let mut unloaded: Vec<f64> = (0..reroutes_per_phase)
        .map(|k| reroute_once(&mut session, k))
        .collect();

    // Phase 2: the same edits with a batch fleet in flight on the same
    // worker and a speculative warm-up queued behind both tiers.
    let batch_in_flight = Arc::new(std::sync::atomic::AtomicBool::new(true));
    let batch_cfg = sched_cfg();
    let batch_flag = Arc::clone(&batch_in_flight);
    let batch_boards_owned = batch_fleet.boards;
    let batch_thread = std::thread::spawn(move || {
        let mut set = BoardSet::new(batch_boards_owned);
        let t0 = Instant::now();
        let report = route_fleet(&mut set, &batch_cfg);
        let secs = t0.elapsed().as_secs_f64();
        batch_flag.store(false, std::sync::atomic::Ordering::Release);
        (secs, report)
    });
    let warm_cache = Arc::new(ResultCache::default());
    let warm_cfg = sched_cfg();
    let warm_cache_remote = Arc::clone(&warm_cache);
    let warm_boards = warm_fleet.boards.clone();
    let warm_thread = std::thread::spawn(move || {
        warm_fleet_cache(&BoardSet::new(warm_boards), &warm_cfg, &warm_cache_remote)
    });
    // Give the batch fleet a head start so the loaded phase measures
    // what it claims to.
    std::thread::sleep(std::time::Duration::from_millis(10));
    let mut loaded: Vec<f64> = Vec::with_capacity(reroutes_per_phase);
    let mut loaded_overlapped = 0usize;
    for k in reroutes_per_phase..2 * reroutes_per_phase {
        loaded.push(reroute_once(&mut session, k));
        if batch_in_flight.load(std::sync::atomic::Ordering::Acquire) {
            loaded_overlapped += 1;
        }
    }
    let (batch_s, batch_report) = batch_thread.join().expect("batch thread");
    let warm = warm_thread.join().expect("warm thread");
    assert!(batch_report.all_routed(), "sched: batch fleet routes");
    assert_eq!(
        batch_want,
        fingerprint(&batch_report.reports),
        "sched: batch output under a contended shared scheduler must be \
         bit-identical to sequential"
    );
    assert_eq!(warm.failed, 0, "sched: clean warm-up never fails a group");
    assert_eq!(warm.skipped, 0, "sched: nothing cancelled the warm-up");
    assert_eq!(
        warm.already_cached + warm.warmed,
        warm.distinct,
        "sched: the warm-up covers every distinct key"
    );

    // The served session must still equal from-scratch routing of its
    // edited fleet after both phases.
    let mut reference = BoardSet::new(session.pristine_boards());
    let want = route_fleet(&mut reference, &serial_cfg);
    assert_eq!(
        fingerprint(&want.reports),
        fingerprint(&session.report().reports),
        "sched: interactive serving must equal from-scratch routing"
    );

    let counters = shared.counters().delta_since(&counters_start);

    // Warm-up economics: the same fleet content routed cold against a
    // fresh cache (the engine's own intra-fleet dup hits) vs against the
    // pre-warmed cache — the delta is what speculative warm-up buys a
    // cold start.
    let fresh = Arc::new(ResultCache::default());
    let unwarmed_cfg = FleetConfig {
        cache: Some(Arc::clone(&fresh)),
        ..serial_cfg.clone()
    };
    let mut unwarmed_set = BoardSet::new(warm_fleet.boards.clone());
    let unwarmed = route_fleet(&mut unwarmed_set, &unwarmed_cfg);
    let warmed_cfg = FleetConfig {
        cache: Some(Arc::clone(&warm_cache)),
        ..serial_cfg.clone()
    };
    let mut warmed_set = BoardSet::new(warm_fleet.boards.clone());
    let warmed = route_fleet(&mut warmed_set, &warmed_cfg);
    assert_eq!(
        fingerprint(&unwarmed.reports),
        fingerprint(&warmed.reports),
        "sched: warmed serving must replay the unwarmed routing exactly"
    );
    let hit_rate = |stats: &meander_fleet::FleetStats| -> f64 {
        let total = stats.cache_hits + stats.cache_misses;
        if total == 0 {
            return 0.0;
        }
        stats.cache_hits as f64 / total as f64
    };
    let warmup = WarmupEconRow {
        case: warm_name.to_string(),
        distinct: warm.distinct,
        warmed: warm.warmed,
        warmup_s: warm.elapsed.as_secs_f64(),
        cold_hit_rate_unwarmed: hit_rate(&unwarmed.stats),
        cold_hit_rate_warmed: hit_rate(&warmed.stats),
    };

    unloaded.sort_by(f64::total_cmp);
    loaded.sort_by(f64::total_cmp);
    let row = SchedRow {
        scheduler_workers: shared.workers(),
        serve_boards,
        batch_boards,
        reroutes: reroutes_per_phase,
        unloaded_p50_s: percentile(&unloaded, 0.50),
        unloaded_p99_s: percentile(&unloaded, 0.99),
        loaded_p50_s: percentile(&loaded, 0.50),
        loaded_p99_s: percentile(&loaded, 0.99),
        loaded_overlapped,
        batch_s,
        packets_interactive: counters.packets[Tier::Interactive.index()],
        packets_batch: counters.packets[Tier::Batch.index()],
        packets_speculative: counters.packets[Tier::Speculative.index()],
        preemptions: counters.preemptions,
        parks: counters.parks,
        unparks: counters.unparks,
        warmup,
    };
    println!(
        "interactive ({} boards, {} reroutes/phase): unloaded p50 {:>8.5}s p99 {:>8.5}s  \
         loaded p50 {:>8.5}s p99 {:>8.5}s (x{:.2} p99, {} of {} overlapped the batch)",
        row.serve_boards,
        row.reroutes,
        row.unloaded_p50_s,
        row.unloaded_p99_s,
        row.loaded_p50_s,
        row.loaded_p99_s,
        row.loaded_over_unloaded_p99(),
        row.loaded_overlapped,
        row.reroutes,
    );
    println!(
        "batch ({} boards) {:>8.4}s under interactive preemption  packets I/B/S {}/{}/{}  \
         preemptions {}  parks {}  unparks {}",
        row.batch_boards,
        row.batch_s,
        row.packets_interactive,
        row.packets_batch,
        row.packets_speculative,
        row.preemptions,
        row.parks,
        row.unparks,
    );
    println!(
        "warm-up {:<12} {} of {} distinct keys in {:>8.4}s  cold hit rate {:.3} unwarmed -> {:.3} warmed ({:+.3})",
        row.warmup.case,
        row.warmup.warmed,
        row.warmup.distinct,
        row.warmup.warmup_s,
        row.warmup.cold_hit_rate_unwarmed,
        row.warmup.cold_hit_rate_warmed,
        row.warmup.hit_rate_delta(),
    );
    row
}

struct CancelRow {
    fleet: String,
    boards: usize,
    /// Median latency from the token firing (on another thread, mid-run)
    /// to `route_fleet` returning — the pool-drain bound the cooperative
    /// checks promise (one unit's work per worker).
    drain_s: f64,
    /// Boards that reported `Cancelled` in the median rep (0 means the
    /// fleet finished before the token fired — an honest miss, not an
    /// error).
    cancelled_boards: usize,
    /// Units that ran in the median rep before the stop took hold.
    units_run: usize,
}

/// Fires a [`CancelToken`] from another thread `fire_after` into a fleet
/// route and measures how long the engine takes to drain afterwards.
fn run_cancel_case(
    name: &str,
    make: impl Fn() -> FleetCase,
    fire_after: std::time::Duration,
    reps: usize,
) -> CancelRow {
    let extend = batched_config();
    let mut samples: Vec<(f64, usize, usize)> = Vec::new();
    for _ in 0..reps.max(1) {
        let fleet = make();
        let boards = fleet.boards.len();
        let mut set = BoardSet::new(fleet.boards);
        let token = CancelToken::new();
        let remote = token.clone();
        let firing = std::thread::spawn(move || {
            std::thread::sleep(fire_after);
            let fired_at = Instant::now();
            remote.cancel();
            fired_at
        });
        let report = route_fleet(
            &mut set,
            &FleetConfig {
                extend: extend.clone(),
                cancel: Some(token),
                ..Default::default()
            },
        );
        let returned_at = Instant::now();
        let fired_at = firing.join().expect("cancel thread");
        let drain = returned_at.saturating_duration_since(fired_at);
        assert_eq!(report.outcomes.len(), boards);
        samples.push((
            drain.as_secs_f64(),
            report.stats.cancelled,
            report.stats.units_run,
        ));
    }
    samples.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (drain_s, cancelled_boards, units_run) = samples[samples.len() / 2];
    let row = CancelRow {
        fleet: name.to_string(),
        boards: make().boards.len(),
        drain_s,
        cancelled_boards,
        units_run,
    };
    println!(
        "{:<18} cancel fired at {:?}: drained in {:>8.5}s  ({} of {} boards cancelled, {} units had run)",
        row.fleet, fire_after, row.drain_s, row.cancelled_boards, row.boards, row.units_run,
    );
    row
}

/// Injected-panic smoke (feature `fault`): one scripted panicking board
/// in a fleet must cost exactly that board, with the process alive and
/// the rest routed. Returns (wall seconds, failed boards, routed boards).
#[cfg(feature = "fault")]
fn run_fault_smoke() -> (f64, usize, usize) {
    // The injected panic would otherwise print a backtrace mid-bench.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .unwrap_or("");
        if !msg.contains("injected fault") {
            prev(info);
        }
    }));
    let fleet = fleet_boards_small(4, 21, 42);
    let boards = fleet.boards.len();
    let mut set = BoardSet::new(fleet.boards);
    let t0 = Instant::now();
    let report = route_fleet(
        &mut set,
        &FleetConfig {
            extend: batched_config(),
            fault: FaultPlan::new().panic_at_unit(0),
            ..Default::default()
        },
    );
    let secs = t0.elapsed().as_secs_f64();
    let _ = std::panic::take_hook();
    assert_eq!(report.stats.failed, 1, "exactly the injected board fails");
    assert_eq!(report.stats.routed, boards - 1, "everyone else routes");
    println!(
        "fault smoke: 1 injected panic -> {} failed, {} routed, pool alive ({:.4}s)",
        report.stats.failed, report.stats.routed, secs
    );
    (secs, report.stats.failed, report.stats.routed)
}

/// The injected-fault slice of a resilience row (feature `fault` only).
struct FaultedResilience {
    /// Wall seconds for the resilient route of the faulted fleet
    /// (first attempt + every retry the ladder ran).
    resilient_s: f64,
    /// Boards scripted with a transient first-attempt panic.
    faulted_boards: usize,
    routed: usize,
    degraded: usize,
    shed: usize,
    retries: u64,
    /// `(routed + degraded) / boards` — 1.0 means full recovery.
    recovered_rate: f64,
}

struct ResilienceRow {
    fleet: String,
    boards: usize,
    /// Bare `route_fleet` on the clean fleet.
    baseline_s: f64,
    /// `route_fleet_resilient` on the same clean fleet — the happy-path
    /// overhead of the policy layer (admission bookkeeping + planning
    /// scan; no retries run).
    resilient_clean_s: f64,
    faulted: Option<FaultedResilience>,
}

/// Times the resilience layer two ways: happy path (clean fleet, the
/// policy overhead must be noise) and — with `--features fault` — an
/// injected-fault fleet where every fourth board panics transiently on
/// its first attempt and must come back `Degraded` via the retry rung.
fn run_resilience_case(name: &str, make: impl Fn() -> FleetCase, reps: usize) -> ResilienceRow {
    let base_config = || FleetConfig {
        extend: batched_config(),
        ..Default::default()
    };
    let policy = RetryPolicy::default();

    let (baseline_s, boards) = median_secs(reps, || {
        let fleet = make();
        let mut set = BoardSet::new(fleet.boards);
        let t0 = Instant::now();
        let report = route_fleet(&mut set, &base_config());
        assert!(report.all_routed(), "{name}: bench fleets are valid");
        (t0.elapsed().as_secs_f64(), report.stats.boards)
    });
    let (resilient_clean_s, _) = median_secs(reps, || {
        let fleet = make();
        let mut set = BoardSet::new(fleet.boards);
        let t0 = Instant::now();
        let r = route_fleet_resilient(&mut set, &base_config(), &policy);
        assert_eq!(r.report.stats.retries, 0, "{name}: clean fleet retries");
        assert!(r.quarantine.is_empty());
        (t0.elapsed().as_secs_f64(), ())
    });

    #[cfg(feature = "fault")]
    let faulted = {
        // Transient panic at the first unit of every fourth board (25%),
        // attempt 0 only — the retry rung must recover all of them.
        let probe = make().boards;
        let mut plan = FaultPlan::new();
        let mut faulted_boards = 0usize;
        let mut unit_base = 0u64;
        for (b, lb) in probe.iter().enumerate() {
            if b % 4 == 0 {
                plan = plan.panic_at_unit_on_attempt(unit_base, 0);
                faulted_boards += 1;
            }
            unit_base += plan_board_units(lb.board())
                .iter()
                .map(|(_, units)| units.len() as u64)
                .sum::<u64>();
        }
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !msg.contains("injected fault") {
                prev(info);
            }
        }));
        let (resilient_s, stats) = median_secs(reps, || {
            let fleet = make();
            let mut set = BoardSet::new(fleet.boards);
            let config = FleetConfig {
                fault: plan.clone(),
                ..base_config()
            };
            let t0 = Instant::now();
            let r = route_fleet_resilient(&mut set, &config, &policy);
            (t0.elapsed().as_secs_f64(), r.report.stats)
        });
        let _ = std::panic::take_hook();
        let recovered_rate = (stats.routed + stats.degraded) as f64 / stats.boards.max(1) as f64;
        assert_eq!(
            stats.degraded, faulted_boards,
            "{name}: every faulted board recovers on the retry rung"
        );
        assert_eq!(stats.shed, 0, "{name}: nothing shed");
        Some(FaultedResilience {
            resilient_s,
            faulted_boards,
            routed: stats.routed,
            degraded: stats.degraded,
            shed: stats.shed,
            retries: stats.retries,
            recovered_rate,
        })
    };
    #[cfg(not(feature = "fault"))]
    let faulted: Option<FaultedResilience> = None;

    let row = ResilienceRow {
        fleet: name.to_string(),
        boards,
        baseline_s,
        resilient_clean_s,
        faulted,
    };
    println!(
        "{:<18} baseline {:>8.4}s  resilient(clean) {:>8.4}s  ({:+.2}% happy-path overhead)",
        row.fleet,
        row.baseline_s,
        row.resilient_clean_s,
        (row.resilient_clean_s / row.baseline_s.max(1e-12) - 1.0) * 100.0,
    );
    if let Some(f) = &row.faulted {
        println!(
            "{:<18} faulted({} of {} boards) {:>8.4}s  routed {} degraded {} shed {} retries {}  recovered {:.0}%",
            row.fleet,
            f.faulted_boards,
            row.boards,
            f.resilient_s,
            f.routed,
            f.degraded,
            f.shed,
            f.retries,
            f.recovered_rate * 100.0,
        );
    }
    row
}

/// Pulls a per-case seconds field out of one array section of a prior
/// `BENCH_PR*.json` (hand-rolled scan; no serde offline). Returns
/// `(case_name, seconds)` for every row of `section` carrying `key`.
fn parse_recorded(path: &str, section: &str, key: &str) -> Vec<(String, f64)> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let needle = format!("\"{section}\"");
    let keyq = format!("\"{key}\"");
    let mut out = Vec::new();
    let mut in_section = false;
    for line in text.lines() {
        if line.contains(&needle) {
            in_section = true;
            continue;
        }
        if in_section && line.trim_start().starts_with(']') {
            break;
        }
        if !in_section {
            continue;
        }
        let field = |key: &str| -> Option<&str> {
            let at = line.find(key)? + key.len();
            let rest = &line[at..];
            let rest = rest.trim_start_matches([':', ' ', '"']);
            let end = rest.find([',', '"', '}']).unwrap_or(rest.len());
            Some(&rest[..end])
        };
        if let (Some(name), Some(secs)) = (field("\"case\""), field(&keyq)) {
            if let Ok(v) = secs.parse::<f64>() {
                out.push((name.to_string(), v));
            }
        }
    }
    out
}

/// Geometric mean; `None` when nothing was measured (e.g. sections skipped
/// under `--smoke`) so absent data is never reported as a speedup of 1.
fn gmean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    Some((xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp())
}

/// `x{value}` for a measured geomean, `n/a` otherwise (console form).
fn fmt_gmean(g: Option<f64>, digits: usize) -> String {
    match g {
        Some(v) => format!("x{v:.digits$}"),
        None => "n/a".to_string(),
    }
}

/// JSON form: the number, or `null` when unmeasured.
fn json_gmean(g: Option<f64>) -> String {
    match g {
        Some(v) => format!("{v:.3}"),
        None => "null".to_string(),
    }
}

fn main() {
    let mut smoke = false;
    let mut out_path: Option<String> = None;
    for arg in std::env::args().skip(1) {
        if arg == "--smoke" {
            smoke = true;
        } else {
            out_path = Some(arg);
        }
    }
    let out_path = out_path.unwrap_or_else(|| {
        if smoke {
            "BENCH_SMOKE.json".to_string()
        } else {
            "BENCH_PR10.json".to_string()
        }
    });

    // Parallel rows depend on the host: say what it offers instead of
    // assuming a CPU count.
    println!(
        "(host parallelism: {} — with one worker, steal counters read 0 and the shrink side \
         pair is inactive)\n",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    println!("== group matching (naive vs incremental vs batched vs rtree vs parallel) ==");
    let mut rows: Vec<CaseRow> = Vec::new();
    if smoke {
        rows.push(run_case("table1:5", || table1_case(5).board));
    } else {
        for case_no in 1..=5usize {
            rows.push(run_case(&format!("table1:{case_no}"), || {
                table1_case(case_no).board
            }));
        }
        rows.push(run_case("stress:small", || {
            stress_board(12, 30, 200, 11).board
        }));
        rows.push(run_case("stress:large", || {
            stress_board(16, 40, 300, 12).board
        }));
        rows.push(run_case("stress:mixed", || {
            stress_mixed_board(12, 30, 200, 11).board
        }));
    }

    let mut extend_rows: Vec<ExtendRow> = Vec::new();
    if !smoke {
        println!("\n== single-trace extension (table2 upper-bound hunts) ==");
        for case_no in 1..=6usize {
            extend_rows.push(run_extend_case(&format!("table2:{case_no}"), case_no));
        }
        // Side-by-side vs the recorded prior baseline, when present (the
        // acceptance gate for this PR compares against these wall clocks).
        let pr9 = parse_recorded("BENCH_PR9.json", "single_trace_extension", "batched_s");
        if !pr9.is_empty() {
            println!("\n-- delta vs BENCH_PR9.json (recorded batched_s) --");
            let mut ratios = Vec::new();
            for r in &extend_rows {
                if let Some((_, old)) = pr9.iter().find(|(n, _)| *n == r.name) {
                    ratios.push(old / r.batched_s.max(1e-12));
                    println!(
                        "{:<18} pr9 recorded {:>8.4}s  batched now {:>8.4}s  (x{:.2})",
                        r.name,
                        old,
                        r.batched_s,
                        old / r.batched_s.max(1e-12)
                    );
                }
            }
            if let Some(g) = gmean(&ratios) {
                println!("{:<18} geomean vs recorded PR9: x{g:.2}", "");
            }
        }
    }

    let mut resolve_rows: Vec<ResolveRow> = Vec::new();
    if !smoke {
        println!("\n== DP session resolve (prefix reuse after a windowed splice) ==");
        for m in [64usize, 160] {
            resolve_rows.push(run_dp_resolve_case(m));
        }
    }

    println!("\n== DRC scan on matched boards (brute vs indexed vs batched) ==");
    let mut drc_rows: Vec<DrcRow> = Vec::new();
    let drc_boards: Vec<(&str, Board)> = if smoke {
        vec![("table1:5", table1_case(5).board)]
    } else {
        vec![
            ("table1:4", table1_case(4).board),
            ("stress:large", stress_board(16, 40, 300, 12).board),
            ("stress:mixed", stress_mixed_board(12, 30, 200, 11).board),
        ]
    };
    for (name, mut board) in drc_boards {
        let _ = match_board_group(&mut board, 0, &parallel_config());
        drc_rows.push(run_drc_case(name, &board));
    }
    if !smoke {
        let pr9 = parse_recorded("BENCH_PR9.json", "drc_scan", "rtree_s");
        if !pr9.is_empty() {
            println!("\n-- delta vs BENCH_PR9.json (recorded rtree_s) --");
            for r in &drc_rows {
                if let Some((_, old)) = pr9.iter().find(|(n, _)| *n == r.name) {
                    println!(
                        "{:<18} pr9 recorded {:>8.4}s  rtree now {:>8.4}s  (x{:.2})",
                        r.name,
                        old,
                        r.rtree_s,
                        old / r.rtree_s.max(1e-12)
                    );
                }
            }
        }
        let pr9m = parse_recorded("BENCH_PR9.json", "group_matching", "rtree_s");
        if !pr9m.is_empty() {
            println!("\n-- matching delta vs BENCH_PR9.json (recorded rtree_s) --");
            for r in &rows {
                if let Some((_, old)) = pr9m.iter().find(|(n, _)| *n == r.name) {
                    println!(
                        "{:<18} pr9 recorded {:>8.4}s  rtree now {:>8.4}s  (x{:.2})",
                        r.name,
                        old,
                        r.rtree_s,
                        old / r.rtree_s.max(1e-12)
                    );
                }
            }
        }
    }

    println!("\n== fleet batch routing (sequential vs unshared vs shared library) ==");
    let mut fleet_rows: Vec<FleetRow> = Vec::new();
    if smoke {
        fleet_rows.push(run_fleet_case(
            "fleet:small:4",
            || fleet_boards_small(4, 21, 42),
            1,
        ));
    } else {
        fleet_rows.push(run_fleet_case("fleet:16", || fleet_boards(16, 21, 42), 3));
        fleet_rows.push(run_fleet_case("fleet:32", || fleet_boards(32, 5, 9), 3));
    }

    // Fleet drift against the recorded PR 9 rows (the per-unit packet
    // model replaces per-group jobs on the same routing kernels, so
    // shared_s should hold).
    if !smoke {
        let pr9f = parse_recorded("BENCH_PR9.json", "fleet", "shared_s");
        if !pr9f.is_empty() {
            println!("\n-- fleet drift vs BENCH_PR9.json (recorded shared_s) --");
            for r in &fleet_rows {
                if let Some((_, old)) = pr9f.iter().find(|(n, _)| *n == r.name) {
                    let overhead = r.shared_s / old.max(1e-12) - 1.0;
                    println!(
                        "{:<18} pr9 recorded {:>8.4}s  shared now {:>8.4}s  ({:+.2}% drift, validation {:>8.5}s of it)",
                        r.name,
                        old,
                        r.shared_s,
                        overhead * 100.0,
                        r.validation_s,
                    );
                }
            }
        }
    }

    println!("\n== session: incremental re-routing with damage tracking ==");
    let session_row = if smoke {
        // Small fleet, a real generated edit stream (structural edits and
        // library-scope damage included) — keeps the serving path honest
        // in CI without the 1000-board wall clock.
        run_session_case(
            "session:small:4",
            || fleet_boards_small(4, 21, 42),
            2,
            |case, cycle| edit_stream(case, 42 + cycle as u64, 2),
        )
    } else {
        // The headline: 1000 boards, 10 board-local obstacle moves per
        // cycle = 1% churn, measured against the from-scratch server.
        run_session_case(
            "session:1000@1%",
            || fleet_boards(1000, 21, 42),
            4,
            |case, cycle| {
                let n = case.boards.len();
                (0..10)
                    .map(|e| {
                        let k = cycle * 10 + e;
                        Edit::MoveObstacle {
                            scope: EditScope::Board((k * 97 + 13) % n),
                            index: k * 31 + 7,
                            by: Vector::new(
                                1.5 + 0.25 * (k % 5) as f64,
                                -1.0 + 0.5 * (k % 3) as f64,
                            ),
                        }
                    })
                    .collect()
            },
        )
    };

    println!("\n== result cache: content-addressed serving (uncached vs cold vs warm) ==");
    let cache_row = if smoke {
        // The CI smoke: a duplicate-heavy 4-board fleet routed twice; the
        // warm pass must hit at least once (asserted inside the case).
        run_cache_case(
            "cache:small:4",
            || dup_fleet_boards_small(4, 0.5, 19),
            0.5,
            None,
        )
    } else {
        // The headline: 1000 boards at dup rate 0.9 (~100 distinct), then
        // one library via move in the top corridor — corridor-major
        // library layout puts corridor 5's vias at indices 20..24, and
        // only 6-trace boards route that corridor, so the invalidation
        // must stay a small slice of the entries.
        run_cache_case(
            "cache:1000@0.9",
            || dup_fleet_boards(1000, 0.9, 33),
            0.9,
            Some(23),
        )
    };
    if !smoke {
        // The PR's acceptance gates, held in-bench so a regression fails
        // the run rather than shipping a quietly slower JSON.
        assert!(
            cache_row.warm_hit_rate() >= 0.9,
            "warm-pass hit rate {:.3} must be >= 0.9",
            cache_row.warm_hit_rate()
        );
        assert!(
            cache_row.uncached_s / cache_row.warm_s.max(1e-12) >= 3.0,
            "warm serving must be >= 3x uncached ({:.4}s vs {:.4}s)",
            cache_row.warm_s,
            cache_row.uncached_s
        );
        let inval = cache_row
            .invalidation
            .as_ref()
            .expect("the full bench measures invalidation precision");
        assert!(
            inval.invalidated_pct() < 20.0,
            "one library edit invalidated {:.1}% of entries (must stay < 20%)",
            inval.invalidated_pct()
        );
    }

    println!("\n== sched: bucketed serving tiers (interactive vs batch vs speculative) ==");
    let sched_row = run_sched_case(smoke);
    if !smoke {
        // The PR's serving-tier gates: a batch fleet in flight must not
        // more than double the interactive tail, and speculative warm-up
        // must lift the cold-start hit rate.
        assert!(
            sched_row.loaded_overlapped > 0,
            "the loaded phase must overlap the batch fleet to mean anything"
        );
        assert!(
            sched_row.loaded_p99_s <= 2.0 * sched_row.unloaded_p99_s,
            "loaded interactive p99 {:.5}s exceeds 2x unloaded {:.5}s",
            sched_row.loaded_p99_s,
            sched_row.unloaded_p99_s
        );
        assert!(
            sched_row.warmup.hit_rate_delta() > 0.0,
            "speculative warm-up must lift the cold-start hit rate \
             ({:.3} unwarmed vs {:.3} warmed)",
            sched_row.warmup.cold_hit_rate_unwarmed,
            sched_row.warmup.cold_hit_rate_warmed
        );
        assert!(
            sched_row.packets_interactive > 0 && sched_row.packets_speculative > 0,
            "both the interactive and speculative buckets must have run"
        );
    }

    println!("\n== resilience: retry ladder happy path + injected-fault recovery ==");
    let resilience_row = if smoke {
        run_resilience_case("fleet:small:8", || fleet_boards_small(8, 21, 42), 1)
    } else {
        run_resilience_case("fleet:16", || fleet_boards(16, 21, 42), 1)
    };

    println!("\n== hardening: cancellation drain + fault smoke ==");
    let cancel_row = if smoke {
        run_cancel_case(
            "fleet:small:4",
            || fleet_boards_small(4, 21, 42),
            std::time::Duration::from_millis(1),
            3,
        )
    } else {
        run_cancel_case(
            "fleet:32",
            || fleet_boards(32, 5, 9),
            std::time::Duration::from_millis(5),
            5,
        )
    };
    #[cfg(feature = "fault")]
    let fault_smoke = Some(run_fault_smoke());
    #[cfg(not(feature = "fault"))]
    let fault_smoke: Option<(f64, usize, usize)> = None;

    // Headline: geometric-mean speedups.
    let match_speedups: Vec<f64> = rows
        .iter()
        .map(|r| r.naive_s / r.incremental_s.max(1e-12))
        .collect();
    let match_batch: Vec<f64> = rows
        .iter()
        .map(|r| r.incremental_s / r.batched_s.max(1e-12))
        .collect();
    let match_rtree: Vec<f64> = rows
        .iter()
        .map(|r| r.batched_s / r.rtree_s.max(1e-12))
        .collect();
    let drc_speedups: Vec<f64> = drc_rows
        .iter()
        .map(|r| r.brute_s / r.indexed_s.max(1e-12))
        .collect();
    let drc_batch: Vec<f64> = drc_rows
        .iter()
        .map(|r| r.indexed_s / r.batched_s.max(1e-12))
        .collect();
    let drc_rtree: Vec<f64> = drc_rows
        .iter()
        .map(|r| r.batched_s / r.rtree_s.max(1e-12))
        .collect();
    let ext_vs_pr1: Vec<f64> = extend_rows
        .iter()
        .map(|r| r.pr1path_s / r.incremental_s.max(1e-12))
        .collect();
    let ext_vs_naive: Vec<f64> = extend_rows
        .iter()
        .map(|r| r.naive_s / r.incremental_s.max(1e-12))
        .collect();
    let ext_batch: Vec<f64> = extend_rows
        .iter()
        .map(|r| r.incremental_s / r.batched_s.max(1e-12))
        .collect();
    let fleet_sharing: Vec<f64> = fleet_rows
        .iter()
        .map(|r| r.unshared_s / r.shared_s.max(1e-12))
        .collect();
    let fleet_vs_sequential: Vec<f64> = fleet_rows
        .iter()
        .map(|r| r.sequential_s / r.shared_s.max(1e-12))
        .collect();
    println!(
        "fleet geomean: {} sharing speedup, {} vs per-board sequential",
        fmt_gmean(gmean(&fleet_sharing), 2),
        fmt_gmean(gmean(&fleet_vs_sequential), 2)
    );
    println!(
        "\ngeomean speedup: matching {} ({} batch, {} rtree), extension {} vs pr1path ({} vs naive, {} batch), drc {} ({} batch, {} rtree)",
        fmt_gmean(gmean(&match_speedups), 1),
        fmt_gmean(gmean(&match_batch), 2),
        fmt_gmean(gmean(&match_rtree), 2),
        fmt_gmean(gmean(&ext_vs_pr1), 2),
        fmt_gmean(gmean(&ext_vs_naive), 2),
        fmt_gmean(gmean(&ext_batch), 2),
        fmt_gmean(gmean(&drc_speedups), 1),
        fmt_gmean(gmean(&drc_batch), 2),
        fmt_gmean(gmean(&drc_rtree), 2)
    );

    // ---- JSON emission (hand-rolled; no serde offline). ------------------
    let mut j = String::new();
    let _ = writeln!(j, "{{");
    let _ = writeln!(j, "  \"schema\": \"meander-bench-baseline/10\",");
    let _ = writeln!(j, "  \"pr\": 10,");
    let _ = writeln!(j, "  \"smoke\": {smoke},");
    let _ = writeln!(
        j,
        "  \"geomean_fleet_sharing_speedup\": {},",
        json_gmean(gmean(&fleet_sharing))
    );
    let _ = writeln!(
        j,
        "  \"geomean_fleet_vs_sequential\": {},",
        json_gmean(gmean(&fleet_vs_sequential))
    );
    let _ = writeln!(
        j,
        "  \"geomean_matching_speedup\": {},",
        json_gmean(gmean(&match_speedups))
    );
    let _ = writeln!(
        j,
        "  \"geomean_matching_batch_speedup\": {},",
        json_gmean(gmean(&match_batch))
    );
    let _ = writeln!(
        j,
        "  \"geomean_matching_rtree_speedup\": {},",
        json_gmean(gmean(&match_rtree))
    );
    let _ = writeln!(
        j,
        "  \"geomean_extension_speedup_vs_pr1path\": {},",
        json_gmean(gmean(&ext_vs_pr1))
    );
    let _ = writeln!(
        j,
        "  \"geomean_extension_speedup_vs_naive\": {},",
        json_gmean(gmean(&ext_vs_naive))
    );
    let _ = writeln!(
        j,
        "  \"geomean_extension_batch_speedup\": {},",
        json_gmean(gmean(&ext_batch))
    );
    let _ = writeln!(
        j,
        "  \"geomean_drc_speedup\": {},",
        json_gmean(gmean(&drc_speedups))
    );
    let _ = writeln!(
        j,
        "  \"geomean_drc_batch_speedup\": {},",
        json_gmean(gmean(&drc_batch))
    );
    let _ = writeln!(
        j,
        "  \"geomean_drc_rtree_speedup\": {},",
        json_gmean(gmean(&drc_rtree))
    );
    let _ = writeln!(j, "  \"group_matching\": [");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            j,
            "    {{\"case\": \"{}\", \"naive_s\": {:.6}, \"incremental_s\": {:.6}, \"batched_s\": {:.6}, \"rtree_s\": {:.6}, \"parallel_s\": {:.6}, \"speedup_incremental\": {:.3}, \"speedup_batch\": {:.3}, \"speedup_rtree\": {:.3}, \"speedup_parallel\": {:.3}, \"max_err_pct\": {:.4}, \"patterns\": {}}}{}",
            r.name,
            r.naive_s,
            r.incremental_s,
            r.batched_s,
            r.rtree_s,
            r.parallel_s,
            r.naive_s / r.incremental_s.max(1e-12),
            r.incremental_s / r.batched_s.max(1e-12),
            r.batched_s / r.rtree_s.max(1e-12),
            r.naive_s / r.parallel_s.max(1e-12),
            r.max_err_pct,
            r.patterns,
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    let _ = writeln!(j, "  ],");
    let _ = writeln!(j, "  \"single_trace_extension\": [");
    for (i, r) in extend_rows.iter().enumerate() {
        let s = &r.stats;
        let b = &r.batch;
        let pops = r.iterations.max(1) as f64;
        let _ = writeln!(
            j,
            "    {{\"case\": \"{}\", \"naive_s\": {:.6}, \"pr1path_s\": {:.6}, \"incremental_s\": {:.6}, \"batched_s\": {:.6}, \"speedup_vs_naive\": {:.3}, \"speedup_vs_pr1path\": {:.3}, \"speedup_batch\": {:.3}, \"iterations\": {}, \"patterns\": {}, \"hq_requested\": {}, \"hq_executed\": {}, \"hq_pruned\": {}, \"hq_memo_hits\": {}, \"hq_skip_rate\": {:.4}, \"dp_points_per_pop\": {:.1}, \"batch_calls\": {}, \"batch_candidates_per_call\": {:.2}, \"batch_wasted_lanes\": {}}}{}",
            r.name,
            r.naive_s,
            r.pr1path_s,
            r.incremental_s,
            r.batched_s,
            r.naive_s / r.incremental_s.max(1e-12),
            r.pr1path_s / r.incremental_s.max(1e-12),
            r.incremental_s / r.batched_s.max(1e-12),
            r.iterations,
            r.patterns,
            s.hq_requested,
            s.hq_executed,
            s.hq_pruned,
            s.hq_memo_hits,
            s.skip_rate(),
            s.points_evaluated as f64 / pops,
            b.calls,
            b.candidates_per_call(),
            b.wasted_lanes(),
            if i + 1 < extend_rows.len() { "," } else { "" }
        );
    }
    let _ = writeln!(j, "  ],");
    let _ = writeln!(j, "  \"dp_resolve\": [");
    for (i, r) in resolve_rows.iter().enumerate() {
        let _ = writeln!(
            j,
            "    {{\"m\": {}, \"scratch_s\": {:.9}, \"resolve_s\": {:.9}, \"speedup\": {:.3}, \"points_per_resolve\": {:.1}, \"memo_hit_rate\": {:.4}}}{}",
            r.m,
            r.scratch_s,
            r.resolve_s,
            r.scratch_s / r.resolve_s.max(1e-12),
            r.points_per_resolve,
            r.memo_hit_rate,
            if i + 1 < resolve_rows.len() { "," } else { "" }
        );
    }
    let _ = writeln!(j, "  ],");
    let _ = writeln!(j, "  \"fleet\": [");
    for (i, r) in fleet_rows.iter().enumerate() {
        let _ = writeln!(
            j,
            "    {{\"case\": \"{}\", \"boards\": {}, \"jobs\": {}, \"units\": {}, \"sequential_s\": {:.6}, \"unshared_s\": {:.6}, \"shared_s\": {:.6}, \"validate_off_s\": {:.6}, \"validation_s\": {:.6}, \"base_build_s\": {:.6}, \"library_polygons\": {}, \"boards_per_sec_shared\": {:.3}, \"boards_per_sec_unshared\": {:.3}, \"speedup_sharing\": {:.3}, \"speedup_vs_sequential\": {:.3}, \"workers\": {}, \"steals\": {}, \"steal_attempts\": {}, \"stolen_jobs\": {}, \"busy_s\": {:.6}}}{}",
            r.name,
            r.boards,
            r.jobs,
            r.units,
            r.sequential_s,
            r.unshared_s,
            r.shared_s,
            r.validate_off_s,
            r.validation_s,
            r.base_build_s,
            r.library_polygons,
            r.boards_per_sec(r.shared_s),
            r.boards_per_sec(r.unshared_s),
            r.unshared_s / r.shared_s.max(1e-12),
            r.sequential_s / r.shared_s.max(1e-12),
            r.workers,
            r.steals,
            r.steal_attempts,
            r.stolen_jobs,
            r.busy_s,
            if i + 1 < fleet_rows.len() { "," } else { "" }
        );
    }
    let _ = writeln!(j, "  ],");
    let _ = writeln!(j, "  \"session\": {{");
    let _ = writeln!(
        j,
        "    \"fleet\": \"{}\", \"boards\": {}, \"units\": {}, \"full_route_s\": {:.6}, \"recorded_init_s\": {:.6}, \"tracking_overhead_pct\": {:.3},",
        session_row.name,
        session_row.boards,
        session_row.units,
        session_row.plain_s,
        session_row.init_s,
        session_row.tracking_overhead_pct(),
    );
    let _ = writeln!(
        j,
        "    \"cycles\": {}, \"edits_total\": {}, \"reroute_mean_s\": {:.6}, \"edits_per_sec\": {:.3}, \"edits_per_sec_scratch\": {:.3}, \"speedup_vs_scratch\": {:.3},",
        session_row.cycles,
        session_row.edits_total,
        session_row.reroute_mean_s,
        session_row.edits_per_sec,
        session_row.edits_per_sec_scratch,
        session_row.speedup_vs_scratch(),
    );
    let _ = writeln!(
        j,
        "    \"units_dirty\": {}, \"units_skipped\": {}, \"skip_rate_pct\": {:.3}, \"cells_dirty\": {}",
        session_row.units_dirty_total,
        session_row.units_skipped_total,
        session_row.skip_rate_pct(),
        session_row.cells_dirty_total,
    );
    let _ = writeln!(j, "  }},");
    let _ = writeln!(j, "  \"cache\": {{");
    let _ = writeln!(
        j,
        "    \"case\": \"{}\", \"boards\": {}, \"dup_rate\": {:.2}, \"jobs\": {},",
        cache_row.name, cache_row.boards, cache_row.dup_rate, cache_row.jobs,
    );
    let _ = writeln!(
        j,
        "    \"uncached_s\": {:.6}, \"cold_s\": {:.6}, \"warm_s\": {:.6},",
        cache_row.uncached_s, cache_row.cold_s, cache_row.warm_s,
    );
    let _ = writeln!(
        j,
        "    \"boards_per_sec_uncached\": {:.3}, \"boards_per_sec_cold\": {:.3}, \"boards_per_sec_warm\": {:.3},",
        cache_row.boards_per_sec(cache_row.uncached_s),
        cache_row.boards_per_sec(cache_row.cold_s),
        cache_row.boards_per_sec(cache_row.warm_s),
    );
    let _ = writeln!(
        j,
        "    \"speedup_warm_vs_uncached\": {:.3}, \"speedup_cold_vs_uncached\": {:.3},",
        cache_row.uncached_s / cache_row.warm_s.max(1e-12),
        cache_row.uncached_s / cache_row.cold_s.max(1e-12),
    );
    let _ = writeln!(
        j,
        "    \"cold_hits\": {}, \"cold_misses\": {}, \"warm_hits\": {}, \"warm_misses\": {}, \"warm_hit_rate\": {:.4},",
        cache_row.cold_hits,
        cache_row.cold_misses,
        cache_row.warm_hits,
        cache_row.warm_misses,
        cache_row.warm_hit_rate(),
    );
    let _ = writeln!(
        j,
        "    \"entries\": {}, \"bytes\": {},",
        cache_row.entries, cache_row.bytes,
    );
    match &cache_row.invalidation {
        Some(i) => {
            let _ = writeln!(
                j,
                "    \"invalidation\": {{\"edited_index\": {}, \"entries\": {}, \"invalidated\": {}, \"rekeyed\": {}, \"invalidated_pct\": {:.3}}}",
                i.edited_index,
                i.entries,
                i.invalidated,
                i.rekeyed,
                i.invalidated_pct(),
            );
        }
        None => {
            let _ = writeln!(j, "    \"invalidation\": null");
        }
    }
    let _ = writeln!(j, "  }},");
    let _ = writeln!(j, "  \"sched\": {{");
    let _ = writeln!(
        j,
        "    \"scheduler_workers\": {}, \"serve_boards\": {}, \"batch_boards\": {}, \"reroutes\": {},",
        sched_row.scheduler_workers,
        sched_row.serve_boards,
        sched_row.batch_boards,
        sched_row.reroutes,
    );
    let _ = writeln!(
        j,
        "    \"interactive_unloaded_p50_s\": {:.6}, \"interactive_unloaded_p99_s\": {:.6}, \"interactive_loaded_p50_s\": {:.6}, \"interactive_loaded_p99_s\": {:.6},",
        sched_row.unloaded_p50_s,
        sched_row.unloaded_p99_s,
        sched_row.loaded_p50_s,
        sched_row.loaded_p99_s,
    );
    let _ = writeln!(
        j,
        "    \"loaded_over_unloaded_p99\": {:.3}, \"loaded_overlapped\": {}, \"batch_s\": {:.6},",
        sched_row.loaded_over_unloaded_p99(),
        sched_row.loaded_overlapped,
        sched_row.batch_s,
    );
    let _ = writeln!(
        j,
        "    \"packets_interactive\": {}, \"packets_batch\": {}, \"packets_speculative\": {}, \"preemptions\": {}, \"parks\": {}, \"unparks\": {},",
        sched_row.packets_interactive,
        sched_row.packets_batch,
        sched_row.packets_speculative,
        sched_row.preemptions,
        sched_row.parks,
        sched_row.unparks,
    );
    let _ = writeln!(
        j,
        "    \"warmup\": {{\"case\": \"{}\", \"distinct\": {}, \"warmed\": {}, \"warmup_s\": {:.6}, \"cold_hit_rate_unwarmed\": {:.4}, \"cold_hit_rate_warmed\": {:.4}, \"hit_rate_delta\": {:.4}}}",
        sched_row.warmup.case,
        sched_row.warmup.distinct,
        sched_row.warmup.warmed,
        sched_row.warmup.warmup_s,
        sched_row.warmup.cold_hit_rate_unwarmed,
        sched_row.warmup.cold_hit_rate_warmed,
        sched_row.warmup.hit_rate_delta(),
    );
    let _ = writeln!(j, "  }},");
    let _ = writeln!(j, "  \"drc_scan\": [");
    for (i, r) in drc_rows.iter().enumerate() {
        let _ = writeln!(
            j,
            "    {{\"case\": \"{}\", \"brute_s\": {:.6}, \"indexed_s\": {:.6}, \"batched_s\": {:.6}, \"rtree_s\": {:.6}, \"speedup\": {:.3}, \"speedup_batch\": {:.3}, \"speedup_rtree\": {:.3}, \"segments\": {}, \"violations\": {}, \"batch_calls\": {}, \"batch_candidates_per_call\": {:.2}, \"batch_wasted_lanes\": {}}}{}",
            r.name,
            r.brute_s,
            r.indexed_s,
            r.batched_s,
            r.rtree_s,
            r.brute_s / r.indexed_s.max(1e-12),
            r.indexed_s / r.batched_s.max(1e-12),
            r.batched_s / r.rtree_s.max(1e-12),
            r.segments,
            r.violations,
            r.batch.calls,
            r.batch.candidates_per_call(),
            r.batch.wasted_lanes(),
            if i + 1 < drc_rows.len() { "," } else { "" }
        );
    }
    let _ = writeln!(j, "  ],");
    let _ = writeln!(j, "  \"resilience\": {{");
    let _ = writeln!(
        j,
        "    \"fleet\": \"{}\", \"boards\": {}, \"baseline_s\": {:.6}, \"resilient_clean_s\": {:.6}, \"happy_path_overhead_pct\": {:.3},",
        resilience_row.fleet,
        resilience_row.boards,
        resilience_row.baseline_s,
        resilience_row.resilient_clean_s,
        (resilience_row.resilient_clean_s / resilience_row.baseline_s.max(1e-12) - 1.0) * 100.0,
    );
    match &resilience_row.faulted {
        Some(f) => {
            let _ = writeln!(
                j,
                "    \"faulted\": {{\"resilient_s\": {:.6}, \"faulted_boards\": {}, \"routed\": {}, \"degraded\": {}, \"shed\": {}, \"retries\": {}, \"recovered_rate\": {:.4}}}",
                f.resilient_s,
                f.faulted_boards,
                f.routed,
                f.degraded,
                f.shed,
                f.retries,
                f.recovered_rate,
            );
        }
        None => {
            let _ = writeln!(j, "    \"faulted\": null");
        }
    }
    let _ = writeln!(j, "  }},");
    let _ = writeln!(j, "  \"hardening\": {{");
    let _ = writeln!(
        j,
        "    \"cancel\": {{\"fleet\": \"{}\", \"boards\": {}, \"drain_s\": {:.6}, \"cancelled_boards\": {}, \"units_run\": {}}},",
        cancel_row.fleet,
        cancel_row.boards,
        cancel_row.drain_s,
        cancel_row.cancelled_boards,
        cancel_row.units_run,
    );
    match fault_smoke {
        Some((secs, failed, routed)) => {
            let _ = writeln!(
                j,
                "    \"fault_smoke\": {{\"wall_s\": {secs:.6}, \"failed_boards\": {failed}, \"routed_boards\": {routed}}}"
            );
        }
        None => {
            let _ = writeln!(j, "    \"fault_smoke\": null");
        }
    }
    let _ = writeln!(j, "  }}");
    let _ = writeln!(j, "}}");

    std::fs::write(&out_path, &j).unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    println!("wrote {out_path}");
}
