//! `cli-boards`: the one-board path of the `meander` command, run serially
//! over a suite — Table I cases 1–5, the decoupled diff pair, and one
//! stress and one mixed stress board drawn from the seed. One op is one
//! board: `load_board` → `match_all_groups` → `check` → `save_board`. A
//! round runs the suite once; repeated rounds give each board a median.

use crate::fleet::{record_reports, reference_config, InputClean};
use crate::run::{fingerprint, set_up, timed, Args, Record, Round, Verdict};
use crate::trace::{Tracer, OP};
use meander_core::{match_all_groups, ExtendConfig};
use meander_layout::gen::{decoupled_pair, stress_board, stress_mixed_board, table1_case};
use meander_layout::io::{load_board, save_board};
use meander_layout::Board;

fn suite(seed: u64, tiny: bool) -> Vec<Board> {
    let (traces, steps, vias) = if tiny { (3, 4, 12) } else { (12, 30, 200) };
    let mut boards: Vec<Board> = (1..=5).map(|c| table1_case(c).board).collect();
    boards.push(decoupled_pair(false).board);
    boards.push(stress_board(traces, steps, vias, seed).board);
    boards.push(stress_mixed_board(traces, steps, vias, seed).board);
    boards
}

pub fn run(args: &Args) -> (Record, Tracer) {
    let mut rec = Record::default();
    let (boards, texts) = set_up(&mut rec, || {
        let boards = suite(args.seed, args.tiny);
        let texts: Vec<String> = boards
            .iter()
            .map(|b| save_board(b).expect("generated names have no whitespace"))
            .collect();
        (boards, texts)
    });
    let n = boards.len();

    // References: the generated boards themselves (no text round trip),
    // matched serially instead of through `core::par`.
    let want: Vec<u64> = boards
        .iter()
        .map(|b| {
            let mut b = b.clone();
            let reports = match_all_groups(&mut b, &reference_config());
            fingerprint(true, &reports, &b)
        })
        .collect();
    let mut clean = InputClean::new(n);
    rec.board_lat = vec![Vec::new(); n];
    rec.verdicts = vec![Verdict::default(); n];

    let config = ExtendConfig::default();
    let mut tracer = Tracer::new("cli-boards", args.trace);
    let mut pass = |t: &mut Tracer, rec: &mut Record| -> Round {
        let mut round = Round::default();
        for (b, text) in texts.iter().enumerate() {
            t.open(OP);
            let (out, wall) = timed(|| {
                let mut board = t.span("layout.io.load", 1, || {
                    load_board(text).expect("generated boards load")
                });
                let reports = t.span("core.match", 1, || match_all_groups(&mut board, &config));
                let violations = t.span("drc.check", 1, || board.check().len());
                let saved = t.span("layout.io.save", 1, || {
                    save_board(&board).expect("names unchanged by routing")
                });
                (board, reports, violations, saved)
            });
            t.close(1);
            let (board, reports, violations, saved) = out;
            round.add(wall, 1);

            t.count("layout.io.load_bytes", text.len() as f64);
            t.count("layout.io.save_bytes", saved.len() as f64);
            t.count("drc.violations", violations as f64);
            record_reports(t, &reports);
            rec.op(t, wall, [b]);
            rec.errors(b, &reports);
            let dirty = violations > 0 && clean.get(b, || boards[b].clone());
            rec.verdicts[b].merge(Verdict {
                wrong: fingerprint(true, &reports, &board) != want[b],
                dirty,
            });
        }
        round
    };
    // One untimed warm-up pass, checked like the rest.
    pass(&mut tracer, &mut rec);
    rec.forget_timings();
    rec.rounds = args.drive(&mut tracer, |_, t| pass(t, &mut rec));
    (rec, tracer)
}
