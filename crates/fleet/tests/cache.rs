//! Cache-equality property suite: attaching a [`ResultCache`] must never
//! change a routed bit.
//!
//! The exactness claim (see `fleet::cache` module docs) is that a cache
//! hit replays the very bytes routing would produce — determinism plus
//! content-addressed keys, no tolerance anywhere. These properties make
//! the claim executable:
//!
//! * 64 randomized duplicate-heavy fleets, workers 1–4 × sharing on/off:
//!   cache-on output bit-compared to cache-off (outcomes, report floats,
//!   centerlines);
//! * a warm second pass over a fresh copy of the fleet hits on every job
//!   and still matches bit for bit;
//! * content digests are insensitive to re-orderings without semantics
//!   (area map insertion order) and sensitive to ones with (trace order);
//! * a serving session over a cache a batch fleet filled hits on every
//!   unit packet, and counts hits and misses per unit packet as batch
//!   does across an edit stream;
//! * a serving session with a cache replays an edit stream bit-identical
//!   to from-scratch uncached routing, and stale entries never serve;
//! * a library move inside a window's lattice cell but beyond the
//!   candidacy slack, and one within the slack, both match from-scratch
//!   uncached routing;
//! * a session re-route caches every unit it routes fresh, a partially
//!   dirty group's units included, and a batch route of the edited fleet
//!   hits exactly those units;
//! * (under `--features fault`) a panicking unit never inserts a poisoned
//!   entry: its key stays absent, and every entry its completed siblings
//!   inserted replays uncached routing.

mod common;

use std::sync::Arc;

use meander_core::ExtendConfig;
use meander_fleet::{
    board_keys, route_fleet, BoardSet, Edit, EditScope, FleetConfig, FleetReport, FleetSession,
    ResultCache,
};
use meander_geom::{Point, Polyline, Rect, Vector};
use meander_layout::gen::{dup_fleet_boards_small, edit_stream, fleet_boards_small};
use meander_layout::{hash_board_local, Board, Trace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn serial_extend() -> ExtendConfig {
    ExtendConfig {
        parallel: false,
        ..Default::default()
    }
}

fn config(workers: usize, share: bool, cache: Option<Arc<ResultCache>>) -> FleetConfig {
    FleetConfig {
        extend: serial_extend(),
        workers: Some(workers),
        share_library: share,
        cache,
        ..Default::default()
    }
}

/// Two fleet runs over the same input must agree bit for bit: outcomes,
/// targets, every report float, every routed centerline.
fn assert_runs_identical(ctx: &str, a: (&BoardSet, &FleetReport), b: (&BoardSet, &FleetReport)) {
    let ((set_a, rep_a), (set_b, rep_b)) = (a, b);
    assert_eq!(rep_a.outcomes, rep_b.outcomes, "{ctx}: outcomes");
    assert_eq!(rep_a.reports.len(), rep_b.reports.len(), "{ctx}");
    for (bi, (w, g)) in rep_a.reports.iter().zip(&rep_b.reports).enumerate() {
        assert_eq!(w.len(), g.len(), "{ctx}: board {bi} group count");
        for (x, y) in w.iter().zip(g) {
            assert_eq!(x.target.to_bits(), y.target.to_bits(), "{ctx}: board {bi}");
            assert_eq!(x.traces.len(), y.traces.len(), "{ctx}: board {bi}");
            for (p, q) in x.traces.iter().zip(&y.traces) {
                assert_eq!(p.id, q.id, "{ctx}: board {bi}");
                assert_eq!(p.patterns, q.patterns, "{ctx}: board {bi} {:?}", p.id);
                assert_eq!(
                    p.achieved.to_bits(),
                    q.achieved.to_bits(),
                    "{ctx}: board {bi} {:?} achieved",
                    p.id
                );
                assert_eq!(p.initial.to_bits(), q.initial.to_bits(), "{ctx}");
                assert_eq!(p.via_msdtw, q.via_msdtw, "{ctx}");
            }
        }
    }
    for (bi, (la, lb)) in set_a.boards().iter().zip(set_b.boards()).enumerate() {
        for (id, t) in la.board().traces() {
            let other = lb.board().trace(id).expect("same trace set");
            assert_eq!(
                t.centerline(),
                other.centerline(),
                "{ctx}: board {bi} trace {id:?} geometry"
            );
        }
    }
}

/// The 64-case matrix: duplicate-heavy fleets with the cache attached
/// must be bit-identical to the same fleets routed uncached, for every
/// worker count and sharing mode drawn.
#[test]
fn cache_on_is_bit_identical_to_cache_off() {
    let mut rng = StdRng::seed_from_u64(0xCAC4E);
    for case in 0..64 {
        let seed = rng.gen_range(0..1_000_000) as u64;
        let n_boards = rng.gen_range(3..6);
        let dup_rate = [0.5, 0.7, 0.9][rng.gen_range(0..3usize)];
        let workers = rng.gen_range(1..5);
        let share = rng.gen_range(0..2) == 1;
        let ctx = format!(
            "case {case} (seed {seed}, boards {n_boards}, dup {dup_rate}, \
             workers {workers}, share {share})"
        );

        let fleet = dup_fleet_boards_small(n_boards, dup_rate, seed);
        let mut plain = BoardSet::new(fleet.boards.clone());
        let plain_report = route_fleet(&mut plain, &config(workers, share, None));
        assert_eq!(
            plain_report.stats.cache_hits + plain_report.stats.cache_misses,
            0
        );

        let cache = Arc::new(ResultCache::default());
        let mut cached = BoardSet::new(fleet.boards.clone());
        let cached_report = route_fleet(
            &mut cached,
            &config(workers, share, Some(Arc::clone(&cache))),
        );
        assert_runs_identical(&ctx, (&plain, &plain_report), (&cached, &cached_report));
        // Every unit packet consulted the cache exactly once.
        assert_eq!(
            (cached_report.stats.cache_hits + cached_report.stats.cache_misses) as usize,
            cached_report.stats.units_run,
            "{ctx}: hit/miss partition the unit packets"
        );
    }
}

/// A warm second pass over a fresh copy of the same fleet serves every
/// job from the cache — and is still bit-identical.
#[test]
fn warm_pass_hits_everything_and_matches() {
    let fleet = dup_fleet_boards_small(8, 0.7, 41);
    let cache = Arc::new(ResultCache::default());
    let cfg = config(3, true, Some(Arc::clone(&cache)));

    let mut cold = BoardSet::new(fleet.boards.clone());
    let cold_report = route_fleet(&mut cold, &cfg);
    assert!(cold_report.all_routed());
    assert!(cold_report.stats.cache_misses > 0, "cold pass routes");
    // Duplicates within the cold pass already hit (scheduling decides
    // how many, at least the clones of already-inserted boards can).
    let inserted = cache.len();
    assert!(inserted > 0);

    let mut warm = BoardSet::new(fleet.boards.clone());
    let warm_report = route_fleet(&mut warm, &cfg);
    assert_eq!(
        warm_report.stats.cache_hits as usize, warm_report.stats.units,
        "warm pass serves every unit packet from the cache"
    );
    assert_eq!(warm_report.stats.cache_misses, 0);
    assert_eq!(cache.len(), inserted, "warm pass inserts nothing");
    assert_runs_identical("warm vs cold", (&cold, &cold_report), (&warm, &warm_report));
}

fn two_trace_board(flip: bool) -> Board {
    let mut board = Board::new(Rect::new(Point::new(0.0, 0.0), Point::new(100.0, 60.0)));
    let t1 = Trace::new(
        "A",
        Polyline::new(vec![Point::new(0.0, 20.0), Point::new(100.0, 20.0)]),
        2.0,
    );
    let t2 = Trace::new(
        "B",
        Polyline::new(vec![Point::new(0.0, 40.0), Point::new(100.0, 40.0)]),
        2.0,
    );
    if flip {
        board.add_trace(t2);
        board.add_trace(t1);
    } else {
        board.add_trace(t1);
        board.add_trace(t2);
    }
    board
}

/// Digests ignore orderings without routing semantics (the area map's
/// insertion order) and respect ones with (trace insertion order fixes
/// the id space the router sees).
#[test]
fn digest_ordering_semantics() {
    use meander_geom::Polygon;
    use meander_layout::{RoutableArea, TraceId};

    let area = |lo: f64| {
        RoutableArea::from_polygon(Polygon::rectangle(
            Point::new(0.0, lo),
            Point::new(100.0, lo + 25.0),
        ))
    };
    let mut fwd = two_trace_board(false);
    fwd.set_area(TraceId(0), area(5.0));
    fwd.set_area(TraceId(1), area(30.0));
    let mut rev = two_trace_board(false);
    rev.set_area(TraceId(1), area(30.0));
    rev.set_area(TraceId(0), area(5.0));
    assert_eq!(
        hash_board_local(&fwd),
        hash_board_local(&rev),
        "area insertion order has no routing semantics"
    );

    assert_ne!(
        hash_board_local(&two_trace_board(false)),
        hash_board_local(&two_trace_board(true)),
        "trace order assigns ids — it is semantic"
    );
}

/// A serving session with the cache attached replays every prefix of an
/// edit stream bit-identical to from-scratch *uncached* routing: no
/// stale entry ever serves, across content edits, structural edits, and
/// library transitions.
#[test]
fn session_with_cache_replays_edit_stream_exactly() {
    for workers in [1usize, 4] {
        let cache = Arc::new(ResultCache::default());
        let cached_cfg = config(workers, true, Some(Arc::clone(&cache)));
        let plain_cfg = config(workers, true, None);
        let case = dup_fleet_boards_small(4, 0.6, 23 + workers as u64);
        let mut session = FleetSession::new(BoardSet::new(case.boards.clone()), &cached_cfg);
        assert!(session.report().all_routed());
        for (k, edit) in edit_stream(&case, 900 + workers as u64, 9)
            .into_iter()
            .enumerate()
        {
            let ctx = format!("workers={workers} prefix={k} edit={edit}");
            let _ = session.apply_edit(edit);
            let report = session.reroute_dirty(&cached_cfg);
            assert!(!session.pending(), "{ctx}");
            // Reference: from scratch, no cache anywhere.
            let mut reference = BoardSet::new(session.pristine_boards());
            let want = route_fleet(&mut reference, &plain_cfg);
            let got = session.report();
            assert_runs_identical(&ctx, (&reference, &want), (session.boards(), &got));
            let _ = report;
        }
    }
}

/// The session keys its groups exactly as batch does: over a cache that
/// `route_fleet` filled, a session built on a fresh copy of the same fleet
/// serves every unit packet from the cache, bit-identical to the batch
/// run. Each cached re-route over an edit stream then counts one hit or
/// miss per unit packet run, as batch does — and, because hits replay the
/// cached units' touched windows, still matches from-scratch routing.
#[test]
fn session_keys_like_batch_and_counts_unit_packets() {
    let cache = Arc::new(ResultCache::default());
    let cfg = config(2, true, Some(Arc::clone(&cache)));
    let plain = config(2, true, None);
    let case = dup_fleet_boards_small(5, 0.5, 61);
    let mut batch = BoardSet::new(case.boards.clone());
    let batch_report = route_fleet(&mut batch, &cfg);
    assert!(batch_report.all_routed());

    let mut session = FleetSession::new(BoardSet::new(case.boards.clone()), &cfg);
    let first = session.report();
    assert_eq!(first.stats.cache_hits as usize, first.stats.units);
    assert_eq!(first.stats.cache_misses, 0);
    assert_runs_identical(
        "session over a batch-filled cache",
        (&batch, &batch_report),
        (session.boards(), &first),
    );

    for (k, edit) in edit_stream(&case, 4242, 9).into_iter().enumerate() {
        let ctx = format!("prefix={k} edit={edit}");
        let _ = session.apply_edit(edit);
        let stats = session.reroute_dirty(&cfg).stats;
        assert_eq!(
            (stats.cache_hits + stats.cache_misses) as usize,
            stats.units_run,
            "{ctx}: hit/miss partition the unit packets"
        );
        let mut reference = BoardSet::new(session.pristine_boards());
        let want = route_fleet(&mut reference, &plain);
        assert_runs_identical(
            &ctx,
            (&reference, &want),
            (session.boards(), &session.report()),
        );
    }
}

/// A library move inside a touched lattice cell but farther than the
/// slack from every recorded window, then the same obstacle moved to
/// within the slack of a window: with the cache attached, both end states
/// equal from-scratch uncached routing.
#[test]
fn near_miss_and_slack_hit_library_moves_match_uncached() {
    let cache = Arc::new(ResultCache::default());
    let cfg = config(2, true, Some(Arc::clone(&cache)));
    let plain = config(2, true, None);
    let case = dup_fleet_boards_small(4, 0.5, 77);
    let mut session = FleetSession::new(BoardSet::new(case.boards.clone()), &cfg);
    assert!(session.report().all_routed());
    let near = common::near_miss(
        &case.boards,
        &common::recorded_windows(&case.boards, &cfg.extend),
    );
    for (step, by) in [
        ("near miss", near.miss),
        ("slack hit", near.hit - near.miss),
    ] {
        let _ = session.apply_edit(Edit::MoveObstacle {
            scope: EditScope::Library(0),
            index: near.index,
            by,
        });
        let _ = session.reroute_dirty(&cfg);
        let mut reference = BoardSet::new(session.pristine_boards());
        let want = route_fleet(&mut reference, &plain);
        assert_runs_identical(
            step,
            (&reference, &want),
            (session.boards(), &session.report()),
        );
    }
}

/// A board-local edit touches only that board's content digest: twins
/// of *other* content keep their entries and the next warm lookup still
/// hits them.
#[test]
fn board_edit_leaves_other_boards_entries() {
    let cache = Arc::new(ResultCache::default());
    let cfg = config(2, true, Some(Arc::clone(&cache)));
    let case = dup_fleet_boards_small(5, 0.0, 13);
    let mut session = FleetSession::new(BoardSet::new(case.boards.clone()), &cfg);
    let keys_other: Vec<_> = board_keys(&session.pristine_boards()[3], &cfg.extend);
    assert!(keys_other.iter().all(|k| cache.contains(k)));

    let _ = session.apply_edit(Edit::MoveObstacle {
        scope: EditScope::Board(0),
        index: 1,
        by: Vector::new(2.0, 0.0),
    });
    let _ = session.reroute_dirty(&cfg);
    // Board 3 was untouched: its entries survive under unchanged keys.
    assert!(
        keys_other.iter().all(|k| cache.contains(k)),
        "board-local damage must not reach other boards' entries"
    );
}

/// A session re-route plans only a group's dirty units, and each of them
/// that routes fresh inserts its own entry: after a library move that
/// dirties part of the fleet, the cache grows by exactly the re-routed
/// units, and a batch route of the edited fleet over that cache hits
/// exactly those units — bit-identical to uncached routing.
#[test]
fn partial_group_reroute_caches_its_fresh_units() {
    let cache = Arc::new(ResultCache::default());
    let cfg = config(2, true, Some(Arc::clone(&cache)));
    let case = fleet_boards_small(8, 7, 11);
    let mut session = FleetSession::new(BoardSet::new(case.boards.clone()), &cfg);
    assert!(session.report().all_routed());
    let before = cache.len();
    let _ = session.apply_edit(Edit::MoveObstacle {
        scope: EditScope::Library(0),
        index: 0,
        by: Vector::new(1.5, 1.0),
    });
    let edited = session.reroute_dirty(&cfg);
    assert!(edited.all_routed());
    let dirty = edited.stats.units_dirty;
    assert!(
        dirty > 0 && dirty < edited.stats.units,
        "the move dirties part of the fleet: {dirty} of {}",
        edited.stats.units
    );
    assert_eq!(
        cache.len(),
        before + dirty,
        "every re-routed unit inserts its own entry"
    );

    let mut cached = BoardSet::new(session.pristine_boards());
    let got = route_fleet(&mut cached, &cfg);
    assert_eq!(
        got.stats.cache_hits as usize, dirty,
        "batch hits exactly the units the session re-routed"
    );
    let mut plain = BoardSet::new(session.pristine_boards());
    let want = route_fleet(&mut plain, &config(2, true, None));
    assert_runs_identical(
        "batch over a session-filled cache",
        (&plain, &want),
        (&cached, &got),
    );
}

/// Chaos coverage: a unit packet that panics never inserts — its key
/// stays absent, the cache holds one entry per unit packet that
/// completed (the panicked unit's siblings included, which is sound by
/// determinism), and a fault-free re-run over that cache replays
/// uncached routing bit for bit, so every stored entry is exact.
#[cfg(feature = "fault")]
#[test]
fn panicked_job_never_inserts_a_poisoned_entry() {
    use meander_fleet::{BoardOutcome, FaultPlan};

    let fleet = dup_fleet_boards_small(3, 0.0, 9);
    let cache = Arc::new(ResultCache::default());
    let mut cfg = config(2, true, Some(Arc::clone(&cache)));
    // Unit 0 is board 0's first unit (input order), every attempt.
    cfg.fault = FaultPlan::new().panic_at_unit(0);
    let mut set = BoardSet::new(fleet.boards.clone());
    let report = route_fleet(&mut set, &cfg);
    assert!(matches!(report.outcomes[0], BoardOutcome::Failed(_)));
    assert!(report.outcomes[1].is_routed() && report.outcomes[2].is_routed());

    let panicked = board_keys(&fleet.boards[0], &cfg.extend)[0];
    assert!(
        !cache.contains(&panicked),
        "a panicked unit must not leave an entry behind"
    );
    assert_eq!(
        cache.len(),
        report.stats.units_run,
        "one entry per completed unit packet"
    );

    let entries = cache.len();
    let mut cached = BoardSet::new(fleet.boards.clone());
    let rerun = route_fleet(&mut cached, &config(2, true, Some(Arc::clone(&cache))));
    let mut plain = BoardSet::new(fleet.boards.clone());
    let want = route_fleet(&mut plain, &config(2, true, None));
    assert_runs_identical(
        "fault-free re-run over the chaos-filled cache",
        (&plain, &want),
        (&cached, &rerun),
    );
    assert_eq!(
        rerun.stats.cache_hits as usize, entries,
        "every entry served"
    );
}
