//! Release-sized serving gates: the cache and scheduler bounds measured on
//! thousand-board fleets. Debug runs skip them (`#[ignore]`); each
//! `ignore` reason is the release command that runs it.
//!
//! * `cache_gates` — a 1000-board fleet at dup rate 0.9 through the
//!   content-addressed cache: warm hit rate ≥ 0.9, warm throughput ≥ 3×
//!   uncached, and every pass — a cached session's re-route after one
//!   library via move included — is bit-identical to uncached routing.
//! * `sched_gates` — three tiers on one single-worker scheduler: a batch
//!   fleet in flight at most doubles the interactive re-route p99, the
//!   speculative warm-up lifts the cold-start hit rate, and every routing
//!   is bit-identical to its sequential reference. The p99 bound depends
//!   on host load, so this gate runs on demand only.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use meander_core::ExtendConfig;
use meander_fleet::{
    route_fleet, warm_fleet_cache, BoardSet, Edit, EditScope, FleetConfig, FleetReport,
    FleetSession, FleetStats, ResultCache, Scheduler, Tier,
};
use meander_geom::{Polyline, Vector};
use meander_layout::gen::{dup_fleet_boards, fleet_boards};

/// Serial per-unit engine; the fleet pool owns the fan-out.
fn config() -> FleetConfig {
    FleetConfig {
        extend: ExtendConfig {
            parallel: false,
            ..Default::default()
        },
        share_library: true,
        ..Default::default()
    }
}

/// Every report float and pattern count plus every routed centerline:
/// runs with equal fingerprints routed the same bits.
fn fingerprint(set: &BoardSet, report: &FleetReport) -> (Vec<u64>, Vec<Polyline>) {
    let floats = report
        .reports
        .iter()
        .flatten()
        .flat_map(|g| {
            let traces = g.traces.iter();
            std::iter::once(g.target.to_bits())
                .chain(traces.flat_map(|t| [t.achieved.to_bits(), t.patterns as u64]))
        })
        .collect();
    let lines = set
        .boards()
        .iter()
        .flat_map(|lb| lb.board().traces().map(|(_, t)| t.centerline().clone()))
        .collect();
    (floats, lines)
}

fn hit_rate(stats: &FleetStats) -> f64 {
    stats.cache_hits as f64 / ((stats.cache_hits + stats.cache_misses) as f64).max(1.0)
}

#[test]
#[ignore = "cargo test --release -p meander-fleet --test serving_gates -- --ignored cache_gates"]
fn cache_gates() {
    let fleet = dup_fleet_boards(1000, 0.9, 33);
    let cache = Arc::new(ResultCache::default());
    let cached = FleetConfig {
        cache: Some(Arc::clone(&cache)),
        ..config()
    };
    let route = |cfg: &FleetConfig| {
        let mut set = BoardSet::new(fleet.boards.clone());
        let t0 = Instant::now();
        let report = route_fleet(&mut set, cfg);
        let secs = t0.elapsed().as_secs_f64();
        assert!(report.all_routed(), "generated fleets are valid");
        (secs, fingerprint(&set, &report), report.stats)
    };
    let (uncached_s, want, _) = route(&config());
    let (_, cold, _) = route(&cached);
    assert!(cold == want, "cache-on must be bit-identical to cache-off");
    let (warm_s, warm, warm_stats) = route(&cached);
    assert!(warm == want, "the warm pass must replay uncached routing");

    // One library via move in the top corridor (corridor 5's vias sit at
    // library indices 20..24, and only 6-trace boards route it).
    let mut session = FleetSession::new(BoardSet::new(fleet.boards.clone()), &cached);
    assert!(session.report().all_routed());
    let _ = session.apply_edit(Edit::MoveObstacle {
        scope: EditScope::Library(0),
        index: 23,
        by: Vector::new(1.5, 1.0),
    });
    let edited = session.reroute_dirty(&cached);
    assert!(edited.all_routed());
    let mut reference = BoardSet::new(session.pristine_boards());
    let want_edited = route_fleet(&mut reference, &config());
    assert!(
        fingerprint(&reference, &want_edited) == fingerprint(session.boards(), &session.report()),
        "the cached session's re-route must replay uncached routing"
    );

    let (rate, speedup) = (hit_rate(&warm_stats), uncached_s / warm_s.max(1e-12));
    println!(
        "cache_gates: warm hit rate {rate:.3}, warm x{speedup:.1} uncached, \
         library move re-routed {} of {} units ({} hits)",
        edited.stats.units_dirty, edited.stats.units, edited.stats.cache_hits
    );
    assert!(rate >= 0.9, "warm-pass hit rate {rate:.3} must be >= 0.9");
    assert!(speedup >= 3.0, "warm serving x{speedup:.2} must be >= 3x");
}

/// Index-nearest percentile of a sorted sample.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[((sorted.len() - 1) as f64 * p).round() as usize]
}

#[test]
#[ignore = "cargo test --release -p meander-fleet --test serving_gates -- --ignored sched_gates"]
fn sched_gates() {
    const REROUTES: usize = 100;
    let shared = Arc::new(Scheduler::new(1));
    let on_shared = || FleetConfig {
        sched: Some(Arc::clone(&shared)),
        ..config()
    };
    let serve = fleet_boards(16, 7, 11);
    let batch_fleet = fleet_boards(1000, 21, 42);
    let warm_fleet = dup_fleet_boards(1000, 0.9, 33);

    // Sequential reference for the batch fleet routed under load.
    let mut reference = BoardSet::new(batch_fleet.boards.clone());
    let report = route_fleet(&mut reference, &config());
    let batch_want = fingerprint(&reference, &report);

    let cfg = on_shared();
    let mut session = FleetSession::new(BoardSet::new(serve.boards.clone()), &cfg);
    assert!(session.report().all_routed());
    let start = shared.counters();
    // Obstacle 0 of board `k % 16` moves +v then -v on alternate visits,
    // so the edit stream never drifts geometry off the board.
    let mut reroute = |k: usize| {
        let sign = [1.0, -1.0][(k / 16) % 2];
        let _ = session.apply_edit(Edit::MoveObstacle {
            scope: EditScope::Board(k % 16),
            index: 0,
            by: Vector::new(sign * 1.5, -sign),
        });
        let t0 = Instant::now();
        assert!(session.reroute_dirty(&cfg).all_routed());
        t0.elapsed().as_secs_f64()
    };

    let mut unloaded: Vec<f64> = (0..REROUTES).map(&mut reroute).collect();

    // The same edits with a batch fleet in flight on the one worker and a
    // speculative warm-up queued behind both tiers.
    let in_flight = Arc::new(AtomicBool::new(true));
    let (batch_cfg, flag) = (on_shared(), Arc::clone(&in_flight));
    let batch = std::thread::spawn(move || {
        let mut set = BoardSet::new(batch_fleet.boards);
        let report = route_fleet(&mut set, &batch_cfg);
        flag.store(false, Ordering::Release);
        (set, report)
    });
    let warm_cache = Arc::new(ResultCache::default());
    let (warm_cfg, remote) = (on_shared(), Arc::clone(&warm_cache));
    let warm_set = BoardSet::new(warm_fleet.boards.clone());
    let warm = std::thread::spawn(move || warm_fleet_cache(&warm_set, &warm_cfg, &remote));
    std::thread::sleep(Duration::from_millis(10));
    let mut loaded = Vec::with_capacity(REROUTES);
    let mut overlapped = 0usize;
    for k in REROUTES..2 * REROUTES {
        loaded.push(reroute(k));
        overlapped += usize::from(in_flight.load(Ordering::Acquire));
    }
    let (batch_set, batch_report) = batch.join().expect("batch thread");
    let warm = warm.join().expect("warm-up thread");
    assert!(batch_report.all_routed());
    assert!(
        fingerprint(&batch_set, &batch_report) == batch_want,
        "batch output under a contended scheduler must equal sequential"
    );
    assert_eq!((warm.failed, warm.skipped), (0, 0));
    assert_eq!(warm.already_cached + warm.warmed, warm.distinct);
    let mut reference = BoardSet::new(session.pristine_boards());
    let want = route_fleet(&mut reference, &config());
    assert!(
        fingerprint(&reference, &want) == fingerprint(session.boards(), &session.report()),
        "interactive serving must equal from-scratch routing"
    );
    let counters = shared.counters().delta_since(&start);

    // Warm-up lift: the same content routed cold against a fresh cache
    // versus against the pre-warmed one.
    let cold_route = |cache: Arc<ResultCache>| {
        let mut set = BoardSet::new(warm_fleet.boards.clone());
        let cfg = FleetConfig {
            cache: Some(cache),
            ..config()
        };
        let report = route_fleet(&mut set, &cfg);
        (hit_rate(&report.stats), fingerprint(&set, &report))
    };
    let (unwarmed, unwarmed_bits) = cold_route(Arc::default());
    let (warmed, warmed_bits) = cold_route(warm_cache);
    assert!(warmed_bits == unwarmed_bits, "warmed serving must replay");

    unloaded.sort_by(f64::total_cmp);
    loaded.sort_by(f64::total_cmp);
    let (p99_idle, p99_loaded) = (percentile(&unloaded, 0.99), percentile(&loaded, 0.99));
    let (interactive, speculative) = (
        counters.packets[Tier::Interactive.index()],
        counters.packets[Tier::Speculative.index()],
    );
    println!(
        "sched_gates: interactive p99 {p99_idle:.5}s unloaded, {p99_loaded:.5}s loaded \
         (x{:.2}, {overlapped} of {REROUTES} overlapped); warm-up hit rate \
         {unwarmed:.3} -> {warmed:.3}; packets I {interactive} S {speculative}",
        p99_loaded / p99_idle.max(1e-12)
    );
    assert!(overlapped > 0, "the loaded phase must overlap the batch");
    assert!(
        p99_loaded <= 2.0 * p99_idle,
        "loaded p99 must stay <= 2x unloaded"
    );
    assert!(warmed - unwarmed > 0.0, "warm-up must lift the hit rate");
    assert!(interactive > 0 && speculative > 0, "both tiers must run");
}
