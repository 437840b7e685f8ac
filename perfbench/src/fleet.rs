//! The batch workload, `dup-serve`: a caller hands over a fleet as text
//! (one library file, one file per board), routes it with `route_fleet` on
//! one worker and a fresh result cache, and takes back every board's
//! routed text and DRC verdict. One op is one whole batch; the caller waits
//! for it before sending the next (a closed loop with one client).

use crate::run::{fingerprint, set_up, timed, Args, Record, Round, Verdict, WORKERS};
use crate::trace::{Tracer, OP};
use meander_core::{match_all_groups, ExtendConfig, GroupReport};
use meander_fleet::{
    route_fleet, BoardSet, FleetConfig, FleetStats, ResultCache, DEFAULT_CACHE_BUDGET,
};
use meander_layout::gen::{dup_fleet_boards, FleetCase};
use meander_layout::io::{load_board, save_board};
use meander_layout::{Board, LibraryBoard, ObstacleLibrary};
use std::collections::HashMap;
use std::sync::Arc;

/// The obstacle library of `session-edit`: one product's
/// part library, fixed, so `--seed` varies the boards placed against it.
/// (A library is a single draw; letting the seed redraw it swings the whole
/// fleet's routing cost by a third between seeds.)
pub const LIBRARY_SEED: u64 = 7;

/// A fleet as a user hands it over: the shared library as a board file
/// holding only obstacles, and each board's local part.
pub struct FleetText {
    pub library: String,
    pub boards: Vec<String>,
}

impl FleetText {
    pub fn new(case: &FleetCase) -> FleetText {
        let mut lib = Board::default();
        for o in case.library.obstacles() {
            lib.add_obstacle(o.clone());
        }
        FleetText {
            library: save_board(&lib).expect("obstacles carry no names"),
            boards: case
                .boards
                .iter()
                .map(|lb| save_board(lb.board()).expect("generated names have no whitespace"))
                .collect(),
        }
    }

    pub fn bytes(&self) -> usize {
        self.library.len() + self.boards.iter().map(String::len).sum::<usize>()
    }

    /// Parses (and so validates) every file and binds the boards to one
    /// shared library.
    pub fn load(&self) -> Vec<LibraryBoard> {
        let lib = load_board(&self.library).expect("the generated library loads");
        let lib = Arc::new(ObstacleLibrary::new(lib.obstacles().to_vec()));
        self.boards
            .iter()
            .map(|text| {
                let board = load_board(text).expect("generated boards load");
                LibraryBoard::new(Arc::clone(&lib), board)
            })
            .collect()
    }
}

/// The reference engine shape: units matched one after another on the
/// calling thread (`parallel: false`).
pub fn reference_config() -> ExtendConfig {
    ExtendConfig {
        parallel: false,
        ..ExtendConfig::default()
    }
}

/// Routes `lb`'s materialized twin with sequential `match_all_groups`,
/// independently of the fleet engine, and fingerprints the result.
pub fn reference(lb: &LibraryBoard) -> u64 {
    let mut board = lb.to_board();
    let reports = match_all_groups(&mut board, &reference_config());
    fingerprint(true, &reports, &board)
}

/// Whether each board's input is DRC-clean, computed once per board on
/// demand (only boards whose output has violations need the answer).
pub struct InputClean(Vec<Option<bool>>);

impl InputClean {
    pub fn new(n: usize) -> InputClean {
        InputClean(vec![None; n])
    }

    pub fn get(&mut self, b: usize, input: impl FnOnce() -> Board) -> bool {
        *self.0[b].get_or_insert_with(|| input().check().is_empty())
    }
}

/// Counts a fleet call's stats into the trace: validation, planning, base
/// builds, the scheduled pool, and the scheduler's own counters.
pub fn record_fleet_stats(t: &mut Tracer, s: &FleetStats, route_s: f64) {
    let validate = s.validation_wall.as_secs_f64();
    let base = s.base_build.as_secs_f64();
    let pool = s.route_wall.as_secs_f64();
    let busy = s.scheduler.total_busy().as_secs_f64();
    t.count("layout.validate_s", validate);
    t.count("fleet.base_build_s", base);
    t.count("fleet.pool_s", pool);
    t.count("fleet.plan_s", route_s - pool - validate - base);
    t.count("fleet.sched.busy_s", busy);
    t.count("fleet.sched.capacity_s", s.scheduler.workers as f64 * pool);
    t.count("fleet.sched.steals", s.sched.steals as f64);
    t.count("fleet.sched.preemptions", s.sched.preemptions as f64);
    t.add_packets(&s.latency);
}

/// Counts the matching engine's per-unit results into the trace.
pub fn record_reports<'a>(t: &mut Tracer, reports: impl IntoIterator<Item = &'a GroupReport>) {
    for g in reports {
        t.count("core.unit_busy_s", g.runtime.as_secs_f64());
        t.count("core.units", g.traces.len() as f64);
        for tr in &g.traces {
            t.count("core.units_msdtw", f64::from(u8::from(tr.via_msdtw)));
            t.count("core.patterns", tr.patterns as f64);
        }
    }
}

/// Duplicate-heavy fleets per `dup-serve` round. Each fleet draws its own
/// library, and one library's routing cost swings a pass by a fifth, so a
/// round averages over several.
const DUP_FLEETS: u64 = 8;

/// `dup-serve`: `dup_fleet_boards(1000, 0.9)` with a fresh result cache
/// per batch, so repeated boards replay cached routes.
pub fn dup_serve(args: &Args) -> (Record, Tracer) {
    let n = if args.tiny { 40 } else { 1000 };
    let seed = args.seed;
    run(args, move || {
        (0..DUP_FLEETS)
            .map(|i| dup_fleet_boards(n, 0.9, seed.wrapping_mul(DUP_FLEETS).wrapping_add(i)))
            .collect()
    })
}

/// One fleet ready to serve: its generated form, its text, where its
/// boards start among the run's ops, and their reference fingerprints.
struct Input {
    case: FleetCase,
    text: FleetText,
    first: usize,
    want: Vec<u64>,
}

/// Runs batches until the budget is spent; a round routes every fleet once.
fn run(args: &Args, make: impl Fn() -> Vec<FleetCase>) -> (Record, Tracer) {
    let mut rec = Record::default();
    let cases = set_up(&mut rec, || {
        make()
            .into_iter()
            .map(|case| {
                let text = FleetText::new(&case);
                (case, text)
            })
            .collect::<Vec<_>>()
    });
    let mut first = 0;
    let inputs: Vec<Input> = cases
        .into_iter()
        .map(|(case, text)| {
            // References, once per distinct board file (duplicates share one).
            let mut by_text: HashMap<&str, u64> = HashMap::new();
            let want = (0..case.boards.len())
                .map(|b| {
                    *by_text
                        .entry(&text.boards[b])
                        .or_insert_with(|| reference(&case.boards[b]))
                })
                .collect();
            let input = Input {
                first,
                want,
                case,
                text,
            };
            first += input.case.boards.len();
            input
        })
        .collect();
    let total = first;
    let mut clean = InputClean::new(total);
    rec.board_lat = vec![Vec::new(); total];
    rec.verdicts = vec![Verdict::default(); total];

    let config = FleetConfig {
        workers: Some(WORKERS),
        share_library: true,
        ..FleetConfig::default()
    };
    let mut tracer = Tracer::new("dup-serve", args.trace);

    let mut batch = |input: &Input, t: &mut Tracer, rec: &mut Record| -> Round {
        let Input {
            case,
            text,
            first,
            want,
        } = input;
        let n = case.boards.len();
        let cache = Arc::new(ResultCache::new(DEFAULT_CACHE_BUDGET));
        let cfg = FleetConfig {
            cache: Some(Arc::clone(&cache)),
            ..config.clone()
        };
        t.open(OP);
        let (out, wall) = timed(|| {
            let boards = t.span("layout.io.load", n + 1, || text.load());
            let mut set = BoardSet::new(boards);
            let (report, route_s) =
                t.span("fleet.route", 1, || timed(|| route_fleet(&mut set, &cfg)));
            let violations: Vec<usize> = t.span("drc.check", n, || {
                set.boards()
                    .iter()
                    .map(|lb| lb.to_board().check().len())
                    .collect()
            });
            let saved: Vec<String> = t.span("layout.io.save", n, || {
                set.boards()
                    .iter()
                    .map(|lb| save_board(lb.board()).expect("names unchanged by routing"))
                    .collect()
            });
            (set, report, route_s, violations, saved)
        });
        t.close(1);
        let (set, report, route_s, violations, saved) = out;

        t.count("layout.io.load_bytes", text.bytes() as f64);
        t.count(
            "layout.io.save_bytes",
            saved.iter().map(String::len).sum::<usize>() as f64,
        );
        t.count("drc.violations", violations.iter().sum::<usize>() as f64);
        record_fleet_stats(t, &report.stats, route_s);
        record_reports(t, report.reports.iter().flatten());
        let (hits, misses) = (
            report.stats.cache_hits as f64,
            report.stats.cache_misses as f64,
        );
        t.count("fleet.cache.hits", hits);
        t.count("fleet.cache.misses", misses);
        t.sample("fleet.cache.hit_rate", hits / (hits + misses).max(1.0));
        t.count("fleet.cache.entries", cache.len() as f64);
        t.count("fleet.cache.bytes", cache.bytes() as f64);
        rec.op(t, wall, *first..first + n);

        for (b, lb) in set.boards().iter().enumerate() {
            let op = first + b;
            let routed = report.outcomes[b].is_routed();
            rec.errors(op, &report.reports[b]);
            let got = fingerprint(routed, &report.reports[b], lb.board());
            let dirty = violations[b] > 0 && clean.get(op, || case.boards[b].to_board());
            rec.verdicts[op].merge(Verdict {
                wrong: got != want[b],
                dirty,
            });
        }
        Round { wall, boards: n }
    };
    // One untimed warm-up round, checked like the rest.
    for input in &inputs {
        batch(input, &mut tracer, &mut rec);
    }
    rec.forget_timings();
    rec.rounds = args.drive(&mut tracer, |_, t| {
        let mut round = Round::default();
        for input in &inputs {
            let r = batch(input, t, &mut rec);
            round.add(r.wall, r.boards);
        }
        round
    });
    (rec, tracer)
}
