//! Scheduler equality property suite: **no scheduling policy may change a
//! routed bit**.
//!
//! The bucketed scheduler (`fleet::sched`) decides only *who computes
//! what when* — the thread that submits a run executes its packets while
//! its tier is open, pool helpers claim whatever is open, and results
//! land in input-order slots and write back in input order. So output
//! must be bit-identical to per-board sequential `match_all_groups` for
//! ANY bucket configuration, worker count, and preemption schedule.
//! These properties make that executable:
//!
//! * 64 randomized fleets × pool configs (ephemeral / private / shared
//!   long-lived scheduler) × workers 1–4 (the caller alone at 1), bit-compared
//!   to the sequential reference;
//! * an interactive serving session preempting a concurrent batch fleet
//!   on one shared scheduler, at timing-randomized preemption points, with
//!   a speculative warm-up queued behind both — both outputs bit-identical
//!   to their unloaded references, the warm-up covering every key;
//! * a speculative warm-up pass that installs only through exact cache
//!   keys: a warmed cold run hits on every unit and still matches the
//!   uncached route bit for bit;
//! * (under `--features fault`) a panicking Speculative packet never
//!   poisons the cache and never stalls bucket opening for later tiers.

use std::sync::Arc;

use meander_core::{match_all_groups, ExtendConfig, GroupReport};
use meander_fleet::{
    route_fleet, warm_fleet_cache, BoardSet, Edit, EditScope, FleetConfig, FleetSession,
    ResultCache, Scheduler, Tier,
};
use meander_geom::Vector;
use meander_layout::gen::{dup_fleet_boards_small, fleet_boards_small, FleetCase};
use meander_layout::Board;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn serial_extend() -> ExtendConfig {
    ExtendConfig {
        parallel: false,
        ..Default::default()
    }
}

fn config(workers: usize, share: bool, sched: Option<Arc<Scheduler>>) -> FleetConfig {
    FleetConfig {
        extend: serial_extend(),
        workers: Some(workers),
        share_library: share,
        sched,
        ..Default::default()
    }
}

/// Routes every board of `fleet` sequentially through `match_all_groups`
/// on its materialized twin, returning the reference reports + boards.
fn sequential_reference(fleet: &FleetCase) -> (Vec<Vec<GroupReport>>, Vec<Board>) {
    let mut reports = Vec::with_capacity(fleet.boards.len());
    let mut boards = Vec::with_capacity(fleet.boards.len());
    for lb in &fleet.boards {
        let mut board = lb.to_board();
        reports.push(match_all_groups(&mut board, &serial_extend()));
        boards.push(board);
    }
    (reports, boards)
}

/// Asserts fleet output == sequential reference, bit for bit.
fn assert_identical(
    label: &str,
    set: &BoardSet,
    got: &[Vec<GroupReport>],
    want_reports: &[Vec<GroupReport>],
    want_boards: &[Board],
) {
    assert_eq!(got.len(), want_reports.len(), "{label}: board count");
    for (b, (g_board, w_board)) in got.iter().zip(want_reports).enumerate() {
        assert_eq!(g_board.len(), w_board.len(), "{label}: board {b} groups");
        for (gi, (g, w)) in g_board.iter().zip(w_board).enumerate() {
            assert_eq!(
                g.target.to_bits(),
                w.target.to_bits(),
                "{label}: board {b} group {gi} target"
            );
            assert_eq!(g.traces.len(), w.traces.len());
            for (x, y) in g.traces.iter().zip(&w.traces) {
                assert_eq!(x.id, y.id, "{label}: board {b} group {gi} order");
                assert_eq!(x.patterns, y.patterns, "{label}: board {b} {:?}", x.id);
                assert_eq!(
                    x.achieved.to_bits(),
                    y.achieved.to_bits(),
                    "{label}: board {b} {:?} achieved",
                    x.id
                );
                assert_eq!(x.initial.to_bits(), y.initial.to_bits());
                assert_eq!(x.via_msdtw, y.via_msdtw);
            }
        }
        for (id, t) in want_boards[b].traces() {
            let routed = set.boards()[b].board().trace(id).expect("routed trace");
            assert_eq!(
                t.centerline(),
                routed.centerline(),
                "{label}: board {b} trace {id:?} geometry"
            );
        }
    }
}

/// The 64-case matrix: fleet, worker count, sharing mode, AND pool
/// configuration all drawn per case — no pool shape may change a bit.
///
/// Pool configurations cycle through: no scheduler attached (the engine's
/// ephemeral per-run pool, the calling thread alone for one worker), a private
/// [`Scheduler`] sized to the drawn worker count, and one shared
/// long-lived scheduler reused across cases.
#[test]
fn randomized_fleets_bit_identical_across_scheduler_configs() {
    let shared = Arc::new(Scheduler::new(3));
    let mut rng = StdRng::seed_from_u64(0x5C4ED);
    for case in 0..64 {
        let library_seed = rng.gen_range(0..1_000_000) as u64;
        let per_board_seed = rng.gen_range(0..1_000_000) as u64;
        let n_boards = rng.gen_range(2..5);
        let workers = rng.gen_range(1..5);
        let share = rng.gen_range(0..2) == 1;
        let pool = case % 3;
        let label = format!(
            "case {case} (lib {library_seed}, boards {per_board_seed}×{n_boards}, \
             workers {workers}, share {share}, pool {pool})"
        );

        let sched = match pool {
            0 => None,
            1 => Some(Arc::new(Scheduler::new(workers))),
            _ => Some(Arc::clone(&shared)),
        };
        let fleet = fleet_boards_small(n_boards, library_seed, per_board_seed);
        let (want_reports, want_boards) = sequential_reference(&fleet);
        let mut set = BoardSet::new(fleet.boards.clone());
        let report = route_fleet(&mut set, &config(workers, share, sched));
        assert_identical(&label, &set, &report.reports, &want_reports, &want_boards);
        assert_eq!(
            report.stats.units_run, report.stats.units,
            "{label}: every unit packet ran"
        );
    }
}

/// Interactive re-routes preempt a concurrent batch fleet on one shared
/// scheduler — at whatever preemption points the thread timing lands on,
/// with a speculative warm-up queued behind both — and BOTH outputs stay
/// bit-identical to their unloaded references.
/// Repeated rounds randomize the interleaving; the outputs may never
/// vary with it.
#[test]
fn interactive_preemption_points_do_not_change_output() {
    let sched = Arc::new(Scheduler::new(2));

    // Unloaded references, computed up front.
    let batch_fleet = fleet_boards_small(6, 501, 77);
    let (batch_want_reports, batch_want_boards) = sequential_reference(&batch_fleet);
    let serve_case = fleet_boards_small(3, 7, 11);
    let warm_case = dup_fleet_boards_small(4, 0.5, 19);

    for round in 0..4u64 {
        let label = format!("round {round}");

        // Batch tier: a fleet routes on the shared scheduler from a
        // background thread.
        let batch_cfg = config(2, true, Some(Arc::clone(&sched)));
        let mut batch_set = BoardSet::new(batch_fleet.boards.clone());
        let batch = std::thread::spawn(move || {
            let report = route_fleet(&mut batch_set, &batch_cfg);
            (batch_set, report)
        });
        // Speculative tier: a warm-up queued behind both.
        let warm_cfg = config(2, true, Some(Arc::clone(&sched)));
        let warm_set = BoardSet::new(warm_case.boards.clone());
        let warm = std::thread::spawn(move || {
            warm_fleet_cache(&warm_set, &warm_cfg, &Arc::new(ResultCache::default()))
        });

        // Interactive tier: the serving loop edits and re-routes on the
        // same scheduler while the batch fleet is (likely) still in
        // flight. Each reroute's packets open ahead of queued Batch work.
        let serve_cfg = config(2, true, Some(Arc::clone(&sched)));
        let mut session = FleetSession::new(BoardSet::new(serve_case.boards.clone()), &serve_cfg);
        let mut interactive_packets = 0u64;
        for k in 0..3 {
            let _ = session.apply_edit(Edit::MoveObstacle {
                scope: EditScope::Board(k % 3),
                index: k,
                by: Vector::new(0.5 + k as f64 * 0.25, 0.5),
            });
            let report = session.reroute_dirty(&serve_cfg);
            assert!(report.all_routed(), "{label}: reroute {k}");
            interactive_packets += report.stats.sched.packets[Tier::Interactive.index()];
        }

        let (batch_set, batch_report) = batch.join().expect("batch thread");
        let warm = warm.join().expect("warm-up thread");
        assert_eq!(warm.failed + warm.skipped, 0, "{label}: clean warm-up");
        assert_eq!(warm.already_cached + warm.warmed, warm.distinct, "{label}");
        assert_identical(
            &format!("{label}: batch under interactive load"),
            &batch_set,
            &batch_report.reports,
            &batch_want_reports,
            &batch_want_boards,
        );
        // The session equals a from-scratch route of its edited fleet.
        let mut reference = BoardSet::new(session.pristine_boards());
        let want = route_fleet(&mut reference, &config(1, true, None));
        for (b, ref_board) in reference.boards().iter().enumerate() {
            for (id, t) in ref_board.board().traces() {
                let routed = session.boards().boards()[b]
                    .board()
                    .trace(id)
                    .expect("same trace set");
                assert_eq!(
                    t.centerline(),
                    routed.centerline(),
                    "{label}: served board {b} trace {id:?}"
                );
            }
        }
        assert!(want.all_routed(), "{label}");
        assert!(
            interactive_packets > 0,
            "{label}: dirty units ran as Interactive packets"
        );
    }
}

/// The speculative producer installs only through exact cache keys: after
/// a warm-up pass, a cold fleet serves every unit from the cache and the
/// output is still bit-identical to the uncached route. A second warm-up
/// finds nothing left to do.
#[test]
fn speculative_warm_up_populates_exact_keys() {
    let sched = Arc::new(Scheduler::new(2));
    let fleet = dup_fleet_boards_small(6, 0.7, 91);
    let cache = Arc::new(ResultCache::default());
    let mut warm_cfg = config(2, true, Some(Arc::clone(&sched)));
    warm_cfg.cache = Some(Arc::clone(&cache));

    let warm = warm_fleet_cache(&BoardSet::new(fleet.boards.clone()), &warm_cfg, &cache);
    assert_eq!(warm.boards, 6);
    assert_eq!(warm.failed + warm.skipped, 0, "clean pass warms everything");
    assert_eq!(warm.already_cached + warm.warmed, warm.distinct);
    assert!(warm.warmed > 0);
    assert!(
        warm.distinct < warm.groups,
        "a dup-heavy fleet collapses to fewer distinct keys"
    );
    assert!(
        warm.sched.packets[Tier::Speculative.index()] > 0,
        "warm-up routes on the Speculative bucket"
    );

    // Cold fleet, warmed cache: every unit packet hits, and the routed
    // bytes equal the uncached reference exactly.
    let (want_reports, want_boards) = sequential_reference(&fleet);
    let mut warmed_cfg = config(3, true, None);
    warmed_cfg.cache = Some(Arc::clone(&cache));
    let mut set = BoardSet::new(fleet.boards.clone());
    let report = route_fleet(&mut set, &warmed_cfg);
    assert_eq!(report.stats.cache_misses, 0, "warm-up covered every key");
    assert_eq!(report.stats.cache_hits as usize, report.stats.units);
    assert_identical(
        "warmed cold run",
        &set,
        &report.reports,
        &want_reports,
        &want_boards,
    );

    // Idempotent: nothing left to warm.
    let again = warm_fleet_cache(&BoardSet::new(fleet.boards.clone()), &warm_cfg, &cache);
    assert_eq!(again.warmed, 0);
    assert_eq!(again.already_cached, again.distinct);
}

/// Chaos row: a Speculative packet that panics mid-warm-up never inserts
/// a poisoned entry (the incomplete group's key stays absent) and never
/// stalls bucket opening — Batch work submitted afterwards on the same
/// scheduler runs to completion, bit-identical to sequential.
#[cfg(feature = "fault")]
#[test]
fn panicking_speculative_packet_never_poisons_cache_or_stalls() {
    use meander_fleet::FaultPlan;

    let sched = Arc::new(Scheduler::new(2));
    let fleet = dup_fleet_boards_small(4, 0.0, 17);
    let cache = Arc::new(ResultCache::default());
    let mut warm_cfg = config(2, true, Some(Arc::clone(&sched)));
    warm_cfg.cache = Some(Arc::clone(&cache));
    // Unit 0 of the warm-up's own input order: the first representative
    // group panics on every attempt.
    warm_cfg.fault = FaultPlan::new().panic_at_unit(0);

    let warm = warm_fleet_cache(&BoardSet::new(fleet.boards.clone()), &warm_cfg, &cache);
    assert_eq!(warm.failed, 1, "exactly the faulted group fails");
    assert_eq!(warm.warmed, warm.distinct - 1, "the rest warm normally");
    let entries_after_warm = cache.len();
    assert_eq!(
        entries_after_warm, warm.warmed,
        "no entry for the crashed group"
    );

    // The scheduler survives and lower→higher bucket transitions are not
    // stalled: a Batch fleet (no faults) on the same pool completes, the
    // missing entry routes fresh, and the output matches sequential.
    let (want_reports, want_boards) = sequential_reference(&fleet);
    let mut fleet_cfg = config(2, true, Some(Arc::clone(&sched)));
    fleet_cfg.cache = Some(Arc::clone(&cache));
    let mut set = BoardSet::new(fleet.boards.clone());
    let report = route_fleet(&mut set, &fleet_cfg);
    assert!(report.all_routed(), "{}", report.summary());
    assert!(
        report.stats.cache_misses > 0,
        "the unpoisoned group routed fresh"
    );
    assert_identical(
        "post-chaos batch",
        &set,
        &report.reports,
        &want_reports,
        &want_boards,
    );
    assert!(cache.len() > entries_after_warm, "the fresh group inserted");
}
