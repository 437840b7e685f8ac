//! `meander` — command-line length-matching tool.
//!
//! ```text
//! meander check <board.txt>                 run the DRC scan
//! meander match <board.txt> [options]       length-match every group; exits
//!                                           non-zero if matching adds a violation
//!     --out <file>      write the matched board (text format)
//!     --svg <file>      render the matched board
//!     --miter           chamfer right/acute corners per dmiter
//!     --baseline        use the AiDT-like greedy instead of the DP engine
//! meander gen <table1:N | table2:N | anyangle:DEG | diffpair> [--out <file>]
//!                                           synthesize a benchmark board
//! ```
//!
//! Boards use the line-oriented text format of `meander_layout::io`.

use meander_core::baseline::match_group_aidt;
use meander_core::{match_board_group, miter_group, ExtendConfig};
use meander_drc::new_violations;
use meander_layout::gen::{any_angle_bus, decoupled_pair, table1_case, table2_case};
use meander_layout::io::{load_board, save_board};
use meander_layout::svg::{render_board, SvgStyle};
use meander_layout::Board;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  meander check <board.txt>
  meander match <board.txt> [--out <file>] [--svg <file>] [--miter] [--baseline]
  meander gen <table1:N | table2:N | anyangle:DEG | diffpair> [--out <file>]";

fn run(args: &[String]) -> Result<(), String> {
    let mut it = args.iter();
    match it.next().map(String::as_str) {
        Some("check") => {
            let path = it.next().ok_or("check needs a board file")?;
            let board = read_board(path)?;
            let violations = board.check();
            if violations.is_empty() {
                println!("DRC clean ({})", board);
                Ok(())
            } else {
                for v in &violations {
                    println!("violation: {v}");
                }
                Err(format!("{} violation(s)", violations.len()))
            }
        }
        Some("match") => {
            let path = it.next().ok_or("match needs a board file")?;
            let rest: Vec<&str> = it.map(String::as_str).collect();
            let mut board = read_board(path)?;
            let config = ExtendConfig::default();
            let use_baseline = rest.contains(&"--baseline");
            let do_miter = rest.contains(&"--miter");
            if board.groups().is_empty() {
                return Err("board has no matching groups".into());
            }
            let before = board.check();
            for gi in 0..board.groups().len() {
                let report = if use_baseline {
                    match_group_aidt(&mut board, gi)
                } else {
                    match_board_group(&mut board, gi, &config)
                };
                println!(
                    "group {}: target {:.3}, max err {:.3}%, avg err {:.3}%, {:?}",
                    board.groups()[gi].name(),
                    report.target,
                    report.max_error() * 100.0,
                    report.avg_error() * 100.0,
                    report.runtime
                );
                if do_miter {
                    let deltas = miter_group(&mut board, gi);
                    let total: f64 = deltas.iter().map(|(_, d)| d).sum();
                    println!("  mitered {} traces (Δlength {total:.3})", deltas.len());
                }
            }
            let violations = board.check();
            println!(
                "DRC after matching: {}",
                if violations.is_empty() {
                    "clean".to_string()
                } else {
                    format!("{} violation(s)", violations.len())
                }
            );
            write_outputs(&board, &rest)?;
            // A violation whose (kind, trace) the input lacked is the
            // router's doing; one the input already had is not.
            let added = new_violations(&before, &violations);
            if added.is_empty() {
                return Ok(());
            }
            for v in &added {
                println!("new violation: {v}");
            }
            Err(format!("matching added {} violation(s)", added.len()))
        }
        Some("gen") => {
            let what = it.next().ok_or("gen needs a case spec")?;
            let rest: Vec<&str> = it.map(String::as_str).collect();
            let board = generate(what)?;
            println!("generated: {board}");
            write_outputs(&board, &rest)?;
            if !rest.contains(&"--out") {
                print!("{}", save_board(&board).map_err(|e| e.to_string())?);
            }
            Ok(())
        }
        Some(other) => Err(format!("unknown command `{other}`")),
        None => Err("missing command".into()),
    }
}

fn read_board(path: &str) -> Result<Board, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    load_board(&text).map_err(|e| format!("parse {path}: {e}"))
}

fn write_outputs(board: &Board, rest: &[&str]) -> Result<(), String> {
    if let Some(i) = rest.iter().position(|&a| a == "--out") {
        let path = rest.get(i + 1).ok_or("--out needs a path")?;
        let text = save_board(board).map_err(|e| e.to_string())?;
        std::fs::write(path, text).map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote {path}");
    }
    if let Some(i) = rest.iter().position(|&a| a == "--svg") {
        let path = rest.get(i + 1).ok_or("--svg needs a path")?;
        let svg = render_board(board, &SvgStyle::default());
        std::fs::write(path, svg).map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(())
}

fn generate(spec: &str) -> Result<Board, String> {
    if let Some(n) = spec.strip_prefix("table1:") {
        let n: usize = n.parse().map_err(|_| "bad table1 case number")?;
        if !(1..=5).contains(&n) {
            return Err("table1 cases are 1–5".into());
        }
        return Ok(table1_case(n).board);
    }
    if let Some(n) = spec.strip_prefix("table2:") {
        let n: usize = n.parse().map_err(|_| "bad table2 case number")?;
        if !(1..=6).contains(&n) {
            return Err("table2 cases are 1–6".into());
        }
        return Ok(table2_case(n).board);
    }
    if let Some(deg) = spec.strip_prefix("anyangle:") {
        let deg: f64 = deg.parse().map_err(|_| "bad angle")?;
        return Ok(any_angle_bus(4, meander_geom::Angle::from_degrees(deg)));
    }
    if spec == "diffpair" {
        return Ok(decoupled_pair(false).board);
    }
    Err(format!("unknown generator `{spec}`"))
}
