//! The `meander` binary's exit-code contract: `meander match` fails when
//! matching adds a violation whose (kind, trace) pair the input lacked,
//! and still writes its outputs; only a malformed command line prints the
//! usage text; `meander gen` without `--out` writes exactly the board
//! text to stdout.

use meander::core::{match_board_group, ExtendConfig};
use meander::drc::new_violations;
use meander::geom::{Point, Polyline, Rect};
use meander::layout::io::{load_board, save_board};
use meander::layout::{Board, Trace};
use std::path::Path;
use std::process::Command;

const SPECS: &[&str] = &[
    "table1:1",
    "table1:2",
    "table1:3",
    "table1:4",
    "table1:5",
    "table2:1",
    "table2:2",
    "table2:3",
    "table2:4",
    "table2:5",
    "table2:6",
    "anyangle:17",
    "anyangle:30",
    "anyangle:37",
    "anyangle:45",
    "diffpair",
];

fn meander(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_meander"))
        .args(args)
        .output()
        .expect("meander runs")
}

/// `meander match` as a library call: the routed board text and whether
/// matching added a violation.
fn match_in_process(text: &str) -> (String, bool) {
    let mut board = load_board(text).expect("generated board loads");
    let before = board.check();
    for gi in 0..board.groups().len() {
        match_board_group(&mut board, gi, &ExtendConfig::default());
    }
    let added = !new_violations(&before, &board.check()).is_empty();
    (save_board(&board).expect("saves"), added)
}

#[test]
fn match_exit_code_is_the_new_violation_rule() {
    let dir = std::env::temp_dir().join(format!("meander-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
    for spec in SPECS {
        let (input, output) = (path("in.txt"), path("out.txt"));
        let _ = std::fs::remove_file(&output);
        assert!(
            meander(&["gen", spec, "--out", &input]).status.success(),
            "{spec}"
        );
        let run = meander(&["match", &input, "--out", &output]);
        let text = std::fs::read_to_string(&input).expect("generated text");
        let (want, added) = match_in_process(&text);
        assert_eq!(
            run.status.success(),
            !added,
            "{spec}: {}",
            String::from_utf8_lossy(&run.stdout)
        );
        assert!(Path::new(&output).exists(), "{spec}: --out is written");
        let got = std::fs::read_to_string(&output).expect("routed text");
        assert_eq!(got, want, "{spec}: routed bytes");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `meander gen <spec> > b.txt` must produce a loadable board: stdout
/// carries the same bytes `--out` writes, with every status line on
/// stderr — also when an SVG is written alongside.
#[test]
fn gen_stdout_is_the_out_file() {
    let dir = std::env::temp_dir().join(format!("meander-cli-gen-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
    for spec in SPECS {
        let (out, svg) = (path("out.txt"), path("out.svg"));
        assert!(
            meander(&["gen", spec, "--out", &out]).status.success(),
            "{spec}"
        );
        let want = std::fs::read(&out).expect("generated text");
        for args in [vec!["gen", spec], vec!["gen", spec, "--svg", &svg]] {
            let run = meander(&args);
            assert!(run.status.success(), "{args:?}");
            assert!(run.stdout == want, "{args:?}: stdout is the board text");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A DRC verdict is a result, not a bad command line: `check` on a dirty
/// board exits 1 without the usage text, while an unknown command still
/// prints it.
#[test]
fn usage_text_only_for_usage_errors() {
    let mut board = Board::new(Rect::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0)));
    for (name, from, to) in [
        ("a", Point::new(0.0, 0.0), Point::new(100.0, 100.0)),
        ("b", Point::new(0.0, 100.0), Point::new(100.0, 0.0)),
    ] {
        board.add_trace(Trace::new(name, Polyline::new(vec![from, to]), 2.0));
    }
    assert!(!board.check().is_empty(), "crossing traces violate");
    let path = std::env::temp_dir().join(format!("meander-cli-dirty-{}.txt", std::process::id()));
    std::fs::write(&path, save_board(&board).expect("saves")).expect("temp file");

    let check = meander(&["check", &path.to_string_lossy()]);
    let _ = std::fs::remove_file(&path);
    let stderr = String::from_utf8_lossy(&check.stderr);
    assert_eq!(check.status.code(), Some(1), "{stderr}");
    assert!(!stderr.contains("usage:"), "{stderr}");

    let unknown = meander(&["frobnicate"]);
    let stderr = String::from_utf8_lossy(&unknown.stderr);
    assert_eq!(unknown.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
}
