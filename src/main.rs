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
        Ok(()) => return ExitCode::SUCCESS,
        Err(Error::Usage(e)) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{USAGE}");
        }
        Err(Error::Failed(e)) => eprintln!("error: {e}"),
    }
    ExitCode::FAILURE
}

/// Why a command exited non-zero.
enum Error {
    /// The command line is malformed; the usage text follows the message.
    Usage(String),
    /// The command ran and failed: I/O, a parse error, or a DRC verdict.
    Failed(String),
}

fn usage(msg: impl Into<String>) -> Error {
    Error::Usage(msg.into())
}

const USAGE: &str = "usage:
  meander check <board.txt>
  meander match <board.txt> [--out <file>] [--svg <file>] [--miter] [--baseline]
  meander gen <table1:N | table2:N | anyangle:DEG | diffpair> [--out <file>]";

fn run(args: &[String]) -> Result<(), Error> {
    let mut it = args.iter();
    match it.next().map(String::as_str) {
        Some("check") => {
            let path = it.next().ok_or_else(|| usage("check needs a board file"))?;
            let board = read_board(path)?;
            let violations = board.check();
            if violations.is_empty() {
                println!("DRC clean ({})", board);
                Ok(())
            } else {
                for v in &violations {
                    println!("violation: {v}");
                }
                Err(Error::Failed(format!("{} violation(s)", violations.len())))
            }
        }
        Some("match") => {
            let path = it.next().ok_or_else(|| usage("match needs a board file"))?;
            let rest: Vec<&str> = it.map(String::as_str).collect();
            let mut board = read_board(path)?;
            let config = ExtendConfig::default();
            let use_baseline = rest.contains(&"--baseline");
            let do_miter = rest.contains(&"--miter");
            if board.groups().is_empty() {
                return Err(Error::Failed("board has no matching groups".into()));
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
            Err(Error::Failed(format!(
                "matching added {} violation(s)",
                added.len()
            )))
        }
        Some("gen") => {
            let what = it.next().ok_or_else(|| usage("gen needs a case spec"))?;
            let rest: Vec<&str> = it.map(String::as_str).collect();
            let board = generate(what)?;
            // Status goes to stderr: without `--out` the board text is
            // stdout, which must load as written.
            eprintln!("generated: {board}");
            write_outputs(&board, &rest)?;
            if !rest.contains(&"--out") {
                let text = save_board(&board).map_err(|e| Error::Failed(e.to_string()))?;
                print!("{text}");
            }
            Ok(())
        }
        Some(other) => Err(usage(format!("unknown command `{other}`"))),
        None => Err(usage("missing command")),
    }
}

fn read_board(path: &str) -> Result<Board, Error> {
    let text =
        std::fs::read_to_string(path).map_err(|e| Error::Failed(format!("read {path}: {e}")))?;
    load_board(&text).map_err(|e| Error::Failed(format!("parse {path}: {e}")))
}

fn write_outputs(board: &Board, rest: &[&str]) -> Result<(), Error> {
    let write = |path: &str, text: String| {
        std::fs::write(path, text).map_err(|e| Error::Failed(format!("write {path}: {e}")))?;
        eprintln!("wrote {path}");
        Ok(())
    };
    if let Some(i) = rest.iter().position(|&a| a == "--out") {
        let path = rest.get(i + 1).ok_or_else(|| usage("--out needs a path"))?;
        write(
            path,
            save_board(board).map_err(|e| Error::Failed(e.to_string()))?,
        )?;
    }
    if let Some(i) = rest.iter().position(|&a| a == "--svg") {
        let path = rest.get(i + 1).ok_or_else(|| usage("--svg needs a path"))?;
        write(path, render_board(board, &SvgStyle::default()))?;
    }
    Ok(())
}

fn generate(spec: &str) -> Result<Board, Error> {
    if let Some(n) = spec.strip_prefix("table1:") {
        let n: usize = n.parse().map_err(|_| usage("bad table1 case number"))?;
        if !(1..=5).contains(&n) {
            return Err(usage("table1 cases are 1–5"));
        }
        return Ok(table1_case(n).board);
    }
    if let Some(n) = spec.strip_prefix("table2:") {
        let n: usize = n.parse().map_err(|_| usage("bad table2 case number"))?;
        if !(1..=6).contains(&n) {
            return Err(usage("table2 cases are 1–6"));
        }
        return Ok(table2_case(n).board);
    }
    if let Some(deg) = spec.strip_prefix("anyangle:") {
        let deg: f64 = deg.parse().map_err(|_| usage("bad angle"))?;
        return Ok(any_angle_bus(4, meander_geom::Angle::from_degrees(deg)));
    }
    if spec == "diffpair" {
        return Ok(decoupled_pair(false).board);
    }
    Err(usage(format!("unknown generator `{spec}`")))
}
