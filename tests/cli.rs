//! The `meander` binary's exit-code contract: `meander match` fails when
//! matching adds a violation whose (kind, trace) pair the input lacked,
//! and still writes its outputs.

use meander::core::{match_board_group, ExtendConfig};
use meander::drc::new_violations;
use meander::layout::io::{load_board, save_board};
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
