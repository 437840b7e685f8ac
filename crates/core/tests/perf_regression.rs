//! Performance regression guard for the engine: a long trace on a dense
//! via-field board converges within the iteration budget and a generous
//! wall-clock budget. The engine-vs-oracle wall-clock ratios live with the
//! test-only oracle, in `meander-core`'s unit tests
//! (`incremental_not_slower_than_naive_on_table2`,
//! `incremental_beats_naive_on_dense_boards`).

use meander_core::{match_board_group, ExtendConfig};
use meander_layout::gen::stress_board;
use std::time::{Duration, Instant};

fn incremental() -> ExtendConfig {
    ExtendConfig {
        parallel: false,
        ..ExtendConfig::default()
    }
}

#[test]
fn long_trace_extension_stays_within_budget() {
    // A segment-rich board with a dense via field: the regime where the
    // rebuild oracle degrades quadratically. The engine must converge (no
    // iteration-cap bailout), hit the target, and finish well inside a
    // generous wall-clock budget even in debug builds.
    let case = stress_board(4, 20, 60, 3);
    let mut board = case.board;
    let t0 = Instant::now();
    let report = match_board_group(&mut board, 0, &incremental());
    let elapsed = t0.elapsed();

    assert!(
        elapsed < Duration::from_secs(120),
        "stress matching took {elapsed:?}"
    );
    assert!(
        report.max_error() < 0.01,
        "stress board must match: max err {:.4}",
        report.max_error()
    );
    assert!(board.check().is_empty(), "{:?}", board.check());
}
