//! Fleet determinism properties: for ANY worker count and either sharing
//! mode, `route_fleet` must reproduce per-board sequential
//! `match_all_groups` **bit for bit** — targets, trace reports, and routed
//! geometry. 64+ randomized fleets (library seed, board seed, fleet size,
//! worker count, sharing mode all drawn per case), the acceptance-size
//! 16-board fleet, and a fleet of differential-pair boards.
//!
//! Wall-clock fields (`GroupReport::runtime`, `FleetStats` timings) are
//! measurements, not outputs, and are deliberately not compared.

use meander_core::{match_all_groups, ExtendConfig, GroupReport};
use meander_fleet::{route_fleet, BoardSet, FleetConfig};
use meander_layout::gen::{decoupled_pair, fleet_boards_small, table1_case};
use meander_layout::io::save_board;
use meander_layout::{Board, LibraryBoard, ObstacleLibrary};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn serial_extend() -> ExtendConfig {
    ExtendConfig {
        parallel: false,
        ..Default::default()
    }
}

/// Routes every board of `fleet` sequentially through `match_all_groups`
/// on its materialized twin, returning the reference reports + boards.
fn sequential_reference(fleet: &[LibraryBoard]) -> (Vec<Vec<GroupReport>>, Vec<Board>) {
    let mut reports = Vec::with_capacity(fleet.len());
    let mut boards = Vec::with_capacity(fleet.len());
    for lb in fleet {
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
        // Geometry, vertex for vertex.
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

#[test]
fn randomized_fleets_match_sequential_bitwise() {
    let mut rng = StdRng::seed_from_u64(0xF1EE7);
    for case in 0..64 {
        let library_seed = rng.gen_range(0..1_000_000) as u64;
        let per_board_seed = rng.gen_range(0..1_000_000) as u64;
        let n_boards = rng.gen_range(2..5);
        let workers = rng.gen_range(1..5);
        let share = rng.gen_range(0..2) == 1;
        let label = format!(
            "case {case} (lib {library_seed}, boards {per_board_seed}×{n_boards}, \
             workers {workers}, share {share})"
        );

        let fleet = fleet_boards_small(n_boards, library_seed, per_board_seed);
        let (want_reports, want_boards) = sequential_reference(&fleet.boards);
        let mut set = BoardSet::new(fleet.boards.clone());
        let report = route_fleet(
            &mut set,
            &FleetConfig {
                extend: serial_extend(),
                workers: Some(workers),
                share_library: share,
                ..Default::default()
            },
        );
        assert_identical(&label, &set, &report.reports, &want_reports, &want_boards);
        assert_eq!(
            report.stats.scheduler.total_executed() as usize,
            report.stats.units,
            "{label}: every unit packet executed exactly once"
        );
    }
}

/// The acceptance-size fleet: ≥ 16 boards sharing one library, routed with
/// library sharing on a multi-worker pool, bit-identical to sequential.
#[test]
fn sixteen_board_fleet_bit_identical() {
    let fleet = fleet_boards_small(16, 2024, 7);
    assert_eq!(fleet.boards.len(), 16);
    let (want_reports, want_boards) = sequential_reference(&fleet.boards);
    for (workers, share) in [(4, true), (2, false), (1, true)] {
        let mut set = BoardSet::new(fleet.boards.clone());
        let report = route_fleet(
            &mut set,
            &FleetConfig {
                extend: serial_extend(),
                workers: Some(workers),
                share_library: share,
                ..Default::default()
            },
        );
        let label = format!("16-board fleet, workers {workers}, share {share}");
        assert_identical(&label, &set, &report.reports, &want_reports, &want_boards);
        // The shared mode really shares: one library, one base build.
        if share {
            assert_eq!(report.stats.libraries, 1);
        }
        // Boards stay DRC-clean after fleet routing (materialize to pick
        // up the library obstacles the checker needs).
        for lb in set.boards() {
            let violations = lb.to_board().check();
            assert!(violations.is_empty(), "{label}: {violations:?}");
        }
    }
}

/// Worker count must not change results even when the per-unit engine's
/// own knobs vary (batched kernels, R-tree indexes, scalar kernels).
#[test]
fn engine_knobs_and_worker_counts_commute() {
    let fleet = fleet_boards_small(3, 5, 9);
    let configs = [
        ExtendConfig {
            parallel: false,
            batch_kernels: true,
            ..Default::default()
        },
        ExtendConfig {
            parallel: false,
            index: meander_core::IndexKind::RTree,
            ..Default::default()
        },
        ExtendConfig {
            parallel: false,
            batch_kernels: false,
            ..Default::default()
        },
    ];
    for (ci, extend) in configs.iter().enumerate() {
        // Reference: sequential per-board with the same engine knobs.
        let mut want: Vec<Vec<GroupReport>> = Vec::new();
        let mut want_boards: Vec<Board> = Vec::new();
        for lb in &fleet.boards {
            let mut board = lb.to_board();
            want.push(match_all_groups(&mut board, extend));
            want_boards.push(board);
        }
        for workers in [1, 3] {
            let mut set = BoardSet::new(fleet.boards.clone());
            let report = route_fleet(
                &mut set,
                &FleetConfig {
                    extend: extend.clone(),
                    workers: Some(workers),
                    share_library: true,
                    ..Default::default()
                },
            );
            assert_identical(
                &format!("knobs {ci}, workers {workers}"),
                &set,
                &report.reports,
                &want,
                &want_boards,
            );
        }
    }
}

/// Differential pairs through the fleet: each pair board's obstacles move
/// into a library of its own, so a pair's merged median routes against a
/// shared base keyed on its virtualized rules. Every worker count and
/// sharing mode must equal `match_all_groups` on the materialized boards,
/// down to the saved board text.
#[test]
fn pair_boards_match_sequential_bitwise() {
    let boards: Vec<LibraryBoard> = [
        table1_case(5).board,
        decoupled_pair(false).board,
        decoupled_pair(true).board,
    ]
    .into_iter()
    .map(|mut board| {
        let mut obstacles = Vec::new();
        while let Some(o) = board.remove_obstacle(0) {
            obstacles.push(o);
        }
        LibraryBoard::new(Arc::new(ObstacleLibrary::new(obstacles)), board)
    })
    .collect();
    assert!(boards.iter().all(|lb| !lb.board().pairs().is_empty()));
    assert!(boards.iter().any(|lb| !lb.library().is_empty()));
    let (want_reports, want_boards) = sequential_reference(&boards);
    assert!(want_reports
        .iter()
        .flatten()
        .flat_map(|g| &g.traces)
        .any(|t| t.via_msdtw));
    for workers in [1, 2] {
        for share in [true, false] {
            let mut set = BoardSet::new(boards.clone());
            let report = route_fleet(
                &mut set,
                &FleetConfig {
                    extend: serial_extend(),
                    workers: Some(workers),
                    share_library: share,
                    ..Default::default()
                },
            );
            let label = format!("pair fleet, workers {workers}, share {share}");
            assert_identical(&label, &set, &report.reports, &want_reports, &want_boards);
            for (b, (lb, want)) in set.boards().iter().zip(&want_boards).enumerate() {
                assert_eq!(
                    save_board(&lb.to_board()).expect("saved"),
                    save_board(want).expect("saved"),
                    "{label}: board {b} text"
                );
            }
        }
    }
}
