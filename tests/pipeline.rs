//! End-to-end integration tests across the whole workspace: generators →
//! region assignment → MSDTW → DP meandering → DRC verification, through
//! the `meander` facade.

use meander::core::baseline::{extend_trace_fixed, match_group_aidt, FixedTrackOptions};
use meander::core::extend::{extend_trace, ExtendInput};
use meander::core::{match_all_groups, match_board_group, ExtendConfig};
use meander::drc::{check_layout, check_layout_brute, DesignRules};
use meander::geom::{Angle, Point, Polyline, Rect};
use meander::layout::gen::{
    any_angle_bus, decoupled_pair, dup_fleet_boards_small, fleet_boards_small, stress_board,
    stress_mixed_board, table1_case, table2_case,
};
use meander::layout::io::{load_board, save_board};
use meander::layout::{validate_board, Board, DiffPair, MatchGroup, Trace, ValidationError};
use meander::region::assign;

/// The tier-1 acceptance group: the paper's headline single-board
/// scenario plus the serving path (a cached mini-fleet routed twice).
/// `cargo test --test pipeline tier1` runs exactly this gate.
mod tier1 {
    use super::*;
    use meander::fleet::{route_fleet, BoardSet, FleetConfig, ResultCache};
    use meander::layout::gen::dup_fleet_boards_small;
    use std::sync::Arc;

    #[test]
    fn table1_case1_end_to_end() {
        let mut case = table1_case(1);
        let report = match_board_group(&mut case.board, 0, &ExtendConfig::default());
        assert!(
            report.max_error() < 0.06,
            "max err {:.4}",
            report.max_error()
        );
        assert!(report.avg_error() < 0.03);
        let violations = case.board.check();
        assert!(violations.is_empty(), "{violations:?}");
    }

    /// A 4-board duplicate-heavy fleet through the content-addressed
    /// cache, twice: the warm pass serves every job from the cache, the
    /// routed geometry is bit-identical across passes, and every board
    /// materializes DRC-clean.
    #[test]
    fn cached_mini_fleet_serves_warm_pass() {
        let fleet = dup_fleet_boards_small(4, 0.5, 19);
        let cache = Arc::new(ResultCache::default());
        let cfg = FleetConfig {
            workers: Some(2),
            cache: Some(Arc::clone(&cache)),
            ..Default::default()
        };
        let mut cold = BoardSet::new(fleet.boards.clone());
        let first = route_fleet(&mut cold, &cfg);
        assert!(first.all_routed(), "{:?}", first.outcomes);
        assert!(first.stats.cache_misses > 0, "cold pass routes");

        let mut warm = BoardSet::new(fleet.boards.clone());
        let second = route_fleet(&mut warm, &cfg);
        assert!(second.all_routed());
        assert_eq!(
            second.stats.cache_hits as usize, second.stats.units,
            "warm pass serves every unit packet from the cache"
        );
        for (a, b) in cold.boards().iter().zip(warm.boards()) {
            for (id, t) in a.board().traces() {
                assert_eq!(
                    t.centerline(),
                    b.board().trace(id).expect("same traces").centerline(),
                    "warm pass must replay the cold pass bit for bit"
                );
            }
        }
        for lb in warm.boards() {
            let violations = lb.to_board().check();
            assert!(violations.is_empty(), "{violations:?}");
        }
    }
}

#[test]
fn all_table1_cases_beat_baseline_on_error() {
    for case_no in 1..=4 {
        let mut ours_case = table1_case(case_no);
        let ours = match_board_group(&mut ours_case.board, 0, &ExtendConfig::default());
        let mut base_case = table1_case(case_no);
        let base = match_group_aidt(&mut base_case.board, 0);
        assert!(
            ours.max_error() <= base.max_error() + 1e-9,
            "case {case_no}: ours {:.4} vs baseline {:.4}",
            ours.max_error(),
            base.max_error()
        );
    }
}

#[test]
fn table2_dp_dominates_at_tight_drc() {
    let case = table2_case(6);
    let trace = case.board.trace(case.trace).expect("trace").clone();
    let area = case
        .board
        .area(case.trace)
        .expect("area")
        .polygons()
        .to_vec();
    let obstacles: Vec<_> = case
        .board
        .obstacles()
        .iter()
        .map(|o| o.polygon().clone())
        .collect();
    let rules = *trace.rules();
    let input = ExtendInput {
        trace: trace.centerline(),
        target: trace.length() * 50.0,
        rules: &rules,
        area: &area,
        obstacles: &obstacles,
    };
    let config = ExtendConfig {
        max_iterations: 1000,
        ..ExtendConfig::default()
    };
    let dp = extend_trace(&input, &config);
    let fixed = extend_trace_fixed(&input, &FixedTrackOptions::default());
    assert!(
        dp.achieved > fixed.achieved * 1.3,
        "DP {:.1} vs fixed {:.1}",
        dp.achieved,
        fixed.achieved
    );
}

#[test]
fn any_angle_bus_matches_at_odd_angles() {
    for deg in [17.0, 73.0, 159.0] {
        let mut board = any_angle_bus(3, Angle::from_degrees(deg));
        let report = match_board_group(&mut board, 0, &ExtendConfig::default());
        assert!(
            report.max_error() < 0.05,
            "angle {deg}: max err {:.4}",
            report.max_error()
        );
        let violations = board.check();
        assert!(violations.is_empty(), "angle {deg}: {violations:?}");
    }
}

#[test]
fn decoupled_pair_via_msdtw_stays_coupled() {
    let case = decoupled_pair(false);
    let mut board = case.board;
    let report = match_board_group(&mut board, 0, &ExtendConfig::default());
    assert!(report.traces.iter().all(|t| t.via_msdtw));
    assert!(report.max_error() < 0.05, "{:.4}", report.max_error());
    let p = board.trace(case.p).expect("p").centerline().clone();
    let n = board.trace(case.n).expect("n").centerline().clone();
    let pitch = p.distance_to_polyline(&n);
    assert!(
        (pitch - case.sep0).abs() < case.sep0 * 0.5,
        "pitch {pitch} vs rule {}",
        case.sep0
    );
}

#[test]
fn multi_dra_pair_matches() {
    let case = decoupled_pair(true);
    let mut board = case.board;
    let report = match_board_group(&mut board, 0, &ExtendConfig::default());
    // Multi-DRA pairs are harder; still expect a large improvement over
    // the initial state.
    let init_err: f64 = report
        .traces
        .iter()
        .map(|t| (report.target - t.initial) / report.target)
        .fold(0.0, f64::max);
    assert!(
        report.max_error() < init_err / 2.0,
        "init {init_err:.4} → {:.4}",
        report.max_error()
    );
}

#[test]
fn save_load_match_round_trip() {
    let case = table1_case(2);
    let text = save_board(&case.board).expect("save");
    let mut loaded = load_board(&text).expect("load");
    let report = match_board_group(&mut loaded, 0, &ExtendConfig::default());
    assert!(report.max_error() < 0.06, "{:.4}", report.max_error());
    let violations = loaded.check();
    assert!(violations.is_empty(), "{violations:?}");
}

#[test]
fn region_assignment_feeds_extension() {
    let mut case = table1_case(3);
    let group: MatchGroup = case.board.groups()[0].clone();
    let assignment =
        assign(&case.board, &group, 2.5 * case.dgap, 2.6 * case.dgap).expect("assignment feasible");
    for (id, area) in assignment.areas {
        case.board.set_area(id, area);
    }
    let report = match_board_group(&mut case.board, 0, &ExtendConfig::default());
    // LP corridors are narrower than the generator's; expect meaningful
    // improvement over the initial 36% even if not the tuned-corridor 4%.
    assert!(
        report.max_error() < 0.20,
        "max err {:.4}",
        report.max_error()
    );
    let violations = case.board.check();
    assert!(violations.is_empty(), "{violations:?}");
}

#[test]
fn matching_preserves_original_endpoints() {
    let mut case = table1_case(4);
    let before: Vec<_> = case
        .board
        .traces()
        .map(|(_, t)| (t.centerline().start(), t.centerline().end()))
        .collect();
    let _ = match_board_group(&mut case.board, 0, &ExtendConfig::default());
    for ((id, t), (s, e)) in case.board.traces().zip(before) {
        assert!(
            t.centerline().start().approx_eq(s) && t.centerline().end().approx_eq(e),
            "trace {id} endpoints moved"
        );
    }
}

#[test]
fn matching_never_overshoots_target() {
    for case_no in 1..=4 {
        let mut case = table1_case(case_no);
        let report = match_board_group(&mut case.board, 0, &ExtendConfig::default());
        for t in &report.traces {
            assert!(
                t.achieved <= report.target + 1e-6,
                "case {case_no}, {}: overshoot {} > {}",
                t.id,
                t.achieved,
                report.target
            );
        }
    }
}

/// The DRC oracle over every generator: on each board, as generated and
/// after `match_all_groups`, the indexed scan reports exactly the
/// brute-force scan's violation list (order, values, witnesses).
/// `decoupled_pair(true)` starts dirty, so non-empty lists are compared
/// too.
#[test]
fn every_generator_board_checks_like_brute_force() {
    let mut boards: Vec<(String, Board)> = Vec::new();
    for c in 1..=5 {
        boards.push((format!("table1:{c}"), table1_case(c).board));
    }
    for c in 1..=6 {
        boards.push((format!("table2:{c}"), table2_case(c).board));
    }
    boards.push((
        "anyangle:37".into(),
        any_angle_bus(4, Angle::from_degrees(37.0)),
    ));
    for multi_dra in [false, true] {
        boards.push((
            format!("diffpair:{multi_dra}"),
            decoupled_pair(multi_dra).board,
        ));
    }
    for seed in 1..=2 {
        boards.push((
            format!("stress:{seed}"),
            stress_board(6, 12, 60, seed).board,
        ));
        boards.push((
            format!("mixed:{seed}"),
            stress_mixed_board(6, 12, 60, seed).board,
        ));
    }
    for (i, lb) in fleet_boards_small(3, 7, 1).boards.iter().enumerate() {
        boards.push((format!("fleet:{i}"), lb.to_board()));
    }
    for (i, lb) in dup_fleet_boards_small(3, 0.5, 1).boards.iter().enumerate() {
        boards.push((format!("dup:{i}"), lb.to_board()));
    }
    let mut dirty = 0;
    for (name, mut board) in boards {
        for stage in ["generated", "matched"] {
            if stage == "matched" {
                match_all_groups(&mut board, &ExtendConfig::default());
            }
            let input = board.check_input();
            let brute = check_layout_brute(&input);
            assert_eq!(check_layout(&input), brute, "{name} {stage}");
            dirty += usize::from(!brute.is_empty());
        }
    }
    assert!(dirty > 0, "some board must carry violations");
}

/// A straight differential pair of two `nodes`-node polylines at pitch 6,
/// matched to 2 % over its length.
fn straight_pair(nodes: usize) -> Board {
    let step = 10.0;
    let len = step * (nodes - 1) as f64;
    let mut board = Board::new(Rect::new(
        Point::new(-20.0, -60.0),
        Point::new(len + 20.0, 60.0),
    ));
    let line = |y: f64| Polyline::new((0..nodes).map(|i| Point::new(i as f64 * step, y)).collect());
    let rules = DesignRules {
        gap: 6.0,
        obstacle: 6.0,
        protect: 3.0,
        miter: 1.0,
        width: 3.0,
    };
    let p = board.add_trace(Trace::with_rules("PAIR_P", line(3.0), rules));
    let n = board.add_trace(Trace::with_rules("PAIR_N", line(-3.0), rules));
    board.add_pair(DiffPair::new("PAIR", p, n, 6.0));
    board.add_group(MatchGroup::with_target("pair", vec![p, n], len * 1.02));
    board
}

/// A pair whose DTW cost matrix cannot be held (20,000 nodes a side: 4·10^8
/// cells, 3.2 GB of `f64`) used to abort the process inside MSDTW. It is
/// rejected by validation, before any routing.
#[test]
fn oversized_dtw_pair_is_rejected_by_validation() {
    assert_eq!(
        validate_board(&straight_pair(20_000)),
        Err(ValidationError::OversizedPair {
            pair: "PAIR".into(),
            p_nodes: 20_000,
            n_nodes: 20_000,
        })
    );
}

/// A 2,000-node pair (4·10^6 DTW cells) stays accepted and routes through
/// MSDTW.
#[test]
fn two_thousand_node_pair_routes() {
    let mut board = straight_pair(2_000);
    assert_eq!(validate_board(&board), Ok(()));
    let reports = match_all_groups(&mut board, &ExtendConfig::default());
    let traces = &reports[0].traces;
    assert_eq!(traces.len(), 2);
    for t in traces {
        assert!(t.via_msdtw && t.achieved > t.initial, "{t:?}");
    }
}
