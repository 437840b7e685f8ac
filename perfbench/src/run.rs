//! What every workload shares: the command line, the closed-loop round runner,
//! output checking, and the record a run's metrics are computed from.

use crate::trace::Tracer;
use meander_core::GroupReport;
use meander_layout::Board;
use std::collections::BTreeMap;
use std::time::Instant;

/// Worker threads for every fleet routing call. One, so that the caller's
/// thread and whatever else shares the 2-CPU host have a CPU of their own:
/// with two workers, one competing busy thread slowed a `dup-serve` round
/// by a fifth and an uncached 128-board pass by a third; with one worker
/// neither moved.
pub const WORKERS: usize = 1;

/// Fewest timed rounds a run makes, however long they take.
const MIN_ROUNDS: usize = 3;

/// Set-up repeats at least this often and for at least `SETUP_SECONDS`,
/// at most `SETUP_MAX` times; `setup_s` is the median.
const SETUP_MIN: usize = 3;
const SETUP_SECONDS: f64 = 1.0;
const SETUP_MAX: usize = 21;

/// The parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Small inputs, for the benchmark's own test.
    pub tiny: bool,
    /// Exactly this many rounds instead of `seconds` of them, so two runs
    /// on one seed do the same work.
    pub rounds: Option<usize>,
}

pub const USAGE: &str =
    "usage: perfbench --workload <dup-serve|session-edit|cli-boards> \
--seed <n> --seconds <s> --trace <0|1> [--tiny] [--rounds <n>]";

impl Args {
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 0,
            seconds: 10.0,
            trace: false,
            tiny: false,
            rounds: None,
        };
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => args.workload = value()?.clone(),
                "--seed" => args.seed = value()?.parse().map_err(|_| "bad --seed")?,
                "--seconds" => args.seconds = value()?.parse().map_err(|_| "bad --seconds")?,
                "--trace" => {
                    args.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    }
                }
                "--rounds" => {
                    args.rounds = Some(value()?.parse().map_err(|_| "bad --rounds")?);
                }
                "--tiny" => args.tiny = true,
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        if args.workload.is_empty() {
            return Err("--workload is required".into());
        }
        Ok(args)
    }

    /// Runs `round(k, tracer)` back to back — a closed loop: the next
    /// round starts when the previous one has returned — until the budget
    /// is spent. A round returns its wall in seconds and the boards it
    /// delivered. In a traced run every other round is traced; the
    /// untraced ones are the overhead baseline.
    pub fn drive(
        &self,
        tracer: &mut Tracer,
        mut round: impl FnMut(usize, &mut Tracer) -> Round,
    ) -> Rounds {
        let mut rounds = Rounds::default();
        let start = Instant::now();
        for k in 0.. {
            let done = match self.rounds {
                Some(n) => k >= n,
                None => k >= MIN_ROUNDS && start.elapsed().as_secs_f64() >= self.seconds,
            };
            if done {
                break;
            }
            let traced = self.trace && k % 2 == 1;
            tracer.set_round(traced);
            let r = round(k, tracer);
            if traced {
                rounds.traced.push(r);
            } else {
                rounds.untraced.push(r);
            }
        }
        tracer.set_round(false);
        rounds
    }
}

/// One round's wall, in seconds, and the boards it delivered.
#[derive(Debug, Clone, Copy, Default)]
pub struct Round {
    pub wall: f64,
    pub boards: usize,
}

impl Round {
    /// Sums op results into a round.
    pub fn add(&mut self, wall: f64, boards: usize) {
        self.wall += wall;
        self.boards += boards;
    }
}

/// The rounds of a run, split by whether they were traced.
#[derive(Debug, Default)]
pub struct Rounds {
    pub untraced: Vec<Round>,
    pub traced: Vec<Round>,
}

/// One op's checked result. An op is one board of `cli-boards` or of a
/// batch, or one edit of `session-edit`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Verdict {
    /// Not `Routed`, or the output fingerprint differs from the reference.
    pub wrong: bool,
    /// Ends with DRC violations although its input was DRC-clean.
    pub dirty: bool,
}

impl Verdict {
    /// Folds a repetition of the same op in: it fails if any run failed.
    pub fn merge(&mut self, other: Verdict) {
        self.wrong |= other.wrong;
        self.dirty |= other.dirty;
    }
}

/// Everything a run measured; `report` turns it into metrics.
#[derive(Debug, Default)]
pub struct Record {
    /// Seconds per set-up repetition.
    pub setup_s: Vec<f64>,
    pub rounds: Rounds,
    /// Latency of every untraced op, seconds.
    pub op_lat: Vec<f64>,
    /// Per board: the latency of every untraced op that delivered it.
    pub board_lat: Vec<Vec<f64>>,
    /// One verdict per op.
    pub verdicts: Vec<Verdict>,
    /// Per board: each group's (max, average) Eq. 19 error, as fractions.
    pub errors: BTreeMap<usize, Vec<(f64, f64)>>,
    /// Name of the percentile `op_tail_s` reports, e.g. `p90`.
    pub tail_name: String,
}

impl Record {
    /// Records one untraced op that delivered `boards` (indices into
    /// `board_lat`). Traced ops only feed the trace.
    pub fn op(&mut self, tracer: &Tracer, wall: f64, boards: impl IntoIterator<Item = usize>) {
        if tracer.on() {
            return;
        }
        self.op_lat.push(wall);
        for b in boards {
            self.board_lat[b].push(wall);
        }
    }

    /// Forgets the timings of warm-up ops, keeping their verdicts.
    pub fn forget_timings(&mut self) {
        self.op_lat.clear();
        self.board_lat.iter_mut().for_each(Vec::clear);
    }

    /// Records board `b`'s group errors (a repeated op overwrites its own).
    pub fn errors(&mut self, b: usize, reports: &[GroupReport]) {
        let errs = reports
            .iter()
            .map(|g| (g.max_error(), g.avg_error()))
            .collect();
        self.errors.insert(b, errs);
    }

    /// The worst group error and the mean group-average error, as fractions.
    pub fn error_summary(&self) -> (f64, f64) {
        let all = || self.errors.values().flatten();
        let max = all().map(|e| e.0).fold(0.0, f64::max);
        let n = all().count().max(1) as f64;
        (max, all().map(|e| e.1).sum::<f64>() / n)
    }
}

/// Runs the workload's set-up repeatedly, recording each repetition's
/// seconds, and returns the last result. Only one result is alive at a
/// time, so a set-up that owns worker threads never doubles them.
pub fn set_up<T>(rec: &mut Record, mut f: impl FnMut() -> T) -> T {
    let mut last = None;
    let mut spent = 0.0;
    while rec.setup_s.len() < SETUP_MIN || (spent < SETUP_SECONDS && rec.setup_s.len() < SETUP_MAX)
    {
        drop(last.take());
        let (value, secs) = timed(&mut f);
        rec.setup_s.push(secs);
        spent += secs;
        last = Some(value);
    }
    last.expect("set-up ran")
}

/// Times `f` once.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// A board's output fingerprint: its outcome, the achieved-length bits of
/// every matched trace, and the bits of every centerline vertex.
pub fn fingerprint(routed: bool, reports: &[GroupReport], board: &Board) -> u64 {
    let mut h = Fnv::default();
    h.u64(u64::from(routed));
    for g in reports {
        h.u64(g.target.to_bits());
        for t in &g.traces {
            h.u64(u64::from(t.id.0));
            h.u64(t.achieved.to_bits());
        }
    }
    for (id, trace) in board.traces() {
        h.u64(u64::from(id.0));
        for p in trace.centerline().points() {
            h.u64(p.x.to_bits());
            h.u64(p.y.to_bits());
        }
    }
    h.0
}

/// FNV-1a, 64-bit: a stable hash for fingerprints and source digests.
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}
