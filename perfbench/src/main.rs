//! `perfbench` — the router's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <dup-serve|session-edit|cli-boards>
//!           --seed <n> --seconds <s> --trace <0|1> [--tiny] [--rounds <n>]
//! ```
//!
//! Each workload generates its boards from `--seed`, hands the router only
//! board text, drives the public API as a user would, and checks every
//! output against an in-bench reference. The last line of standard output
//! is the result object: `correct`, `attempted`, `failed`, and `metrics` —
//! the end-to-end metrics with `--trace 0`, the per-layer breakdown of the
//! traced rounds with `--trace 1` (spans land in `out/`).

mod cli;
mod fleet;
mod report;
mod run;
mod session;
mod trace;

use run::{Args, USAGE};
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (rec, mut tracer) = match args.workload.as_str() {
        "dup-serve" => fleet::dup_serve(&args),
        "session-edit" => session::run(&args),
        "cli-boards" => cli::run(&args),
        other => {
            eprintln!("perfbench: unknown workload `{other}`\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    report::emit(&args, rec, &mut tracer);
    ExitCode::SUCCESS
}
