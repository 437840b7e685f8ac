//! Turns a run's record into metrics and prints the result: one line
//! describing the host and the run, then the result object as the last
//! line of standard output.

use crate::run::{Args, Fnv, Record, Round};
use crate::trace::{Tracer, SUM_BOUND};
use std::fmt::Write as _;
use std::path::Path;

/// Where runs leave their span and detail files.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

/// Value at percentile `p` (0–100) of `xs`, nearest rank.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Distance between the first and third quartile.
fn iqr(xs: &[f64]) -> f64 {
    percentile(xs, 75.0) - percentile(xs, 25.0)
}

/// The highest percentile with at least ten samples beyond it (never
/// below the median): with `n` samples, the eleventh largest.
fn tail_percentile(n: usize) -> f64 {
    (100.0 * (1.0 - 10.0 / n.max(1) as f64)).max(50.0)
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

type Metric = (&'static str, f64, &'static str);

/// The end-to-end metrics, measured with tracing off.
fn end_to_end(rec: &Record) -> Vec<Metric> {
    let medians: Vec<f64> = rec
        .board_lat
        .iter()
        .filter(|l| !l.is_empty())
        .map(|l| median(l))
        .collect();
    let (boards, wall) = rec
        .rounds
        .untraced
        .iter()
        .fold((0, 0.0), |(b, w), r| (b + r.boards, w + r.wall));
    let geomean = (medians.iter().map(|x| x.ln()).sum::<f64>() / medians.len().max(1) as f64).exp();
    vec![
        ("setup_s", median(&rec.setup_s), "s"),
        ("boards_per_s", boards as f64 / wall, "1/s"),
        ("board_geomean_s", geomean, "s"),
        ("op_p50_s", median(&rec.op_lat), "s"),
        ("peak_rss_mb", peak_rss_mb(), "MB"),
    ]
}

/// The per-layer metrics of the traced rounds. Times and counts are per
/// traced op; rates are over the summed counts. `op_tail_s` comes from the
/// run's untraced ops: a tail this far out moves with every stall of the
/// shared host, too far between runs to hold an end-to-end bound.
fn per_layer(rec: &Record, t: &Tracer) -> Vec<Metric> {
    let ops = t.traced_ops().max(1) as f64;
    let per_op = |name: &str| t.total(name) / ops;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let layer = |name: &str| t.layer_seconds(name) / ops;
    let hits = t.total("fleet.cache.hits");
    let misses = t.total("fleet.cache.misses");
    let dirty = t.total("fleet.session.units_dirty");
    let skipped = t.total("fleet.session.units_skipped");
    let failed = rec.verdicts.iter().filter(|v| v.wrong || v.dirty).count();
    let walls = |rs: &[Round]| rs.iter().map(|r| r.wall).collect::<Vec<f64>>();
    let untraced = median(&walls(&rec.rounds.untraced));
    let overhead = median(&walls(&rec.rounds.traced)) - untraced;
    let gaps = t.unattributed();
    let capacity = t.total("fleet.sched.capacity_s");
    let idle = ratio(capacity - t.total("fleet.sched.busy_s"), capacity);
    vec![
        (
            "op_tail_s",
            percentile(&rec.op_lat, tail_percentile(rec.op_lat.len())),
            "s",
        ),
        ("layout.io.load_s", layer("layout.io.load"), "s"),
        ("layout.io.load_bytes", per_op("layout.io.load_bytes"), "B"),
        ("layout.io.save_s", layer("layout.io.save"), "s"),
        ("layout.io.save_bytes", per_op("layout.io.save_bytes"), "B"),
        ("layout.validate_s", per_op("layout.validate_s"), "s"),
        ("fleet.cache.hits", hits / ops, "count"),
        ("fleet.cache.misses", misses / ops, "count"),
        ("fleet.cache.hit_rate", ratio(hits, hits + misses), "frac"),
        (
            "fleet.cache.hit_rate_iqr",
            iqr(t.series("fleet.cache.hit_rate")),
            "frac",
        ),
        (
            "fleet.cache.entries",
            per_op("fleet.cache.entries"),
            "count",
        ),
        ("fleet.cache.bytes", per_op("fleet.cache.bytes"), "B"),
        ("fleet.route_s", layer("fleet.route"), "s"),
        ("fleet.pool_s", per_op("fleet.pool_s"), "s"),
        ("fleet.base_build_s", per_op("fleet.base_build_s"), "s"),
        ("fleet.plan_s", per_op("fleet.plan_s"), "s"),
        ("fleet.sched.busy_s", per_op("fleet.sched.busy_s"), "s"),
        ("fleet.sched.idle_frac", idle, "frac"),
        ("fleet.sched.steals", per_op("fleet.sched.steals"), "count"),
        (
            "fleet.sched.preemptions",
            per_op("fleet.sched.preemptions"),
            "count",
        ),
        (
            "fleet.packet_p50_s",
            t.packets.quantile_upper(0.5).as_secs_f64(),
            "s",
        ),
        (
            "fleet.packet_p99_s",
            t.packets.quantile_upper(0.99).as_secs_f64(),
            "s",
        ),
        (
            "fleet.session.apply_edit_s",
            layer("fleet.session.apply_edit"),
            "s",
        ),
        (
            "fleet.session.reroute_s",
            layer("fleet.session.reroute"),
            "s",
        ),
        ("fleet.session.units_dirty", dirty / ops, "count"),
        ("fleet.session.units_skipped", skipped / ops, "count"),
        (
            "fleet.session.skip_rate",
            ratio(skipped, dirty + skipped),
            "frac",
        ),
        (
            "fleet.session.cells_dirty",
            per_op("fleet.session.cells_dirty"),
            "count",
        ),
        (
            "fleet.session.boards_replanned",
            per_op("fleet.session.boards_replanned"),
            "count",
        ),
        ("core.match_s", layer("core.match"), "s"),
        ("core.unit_busy_s", per_op("core.unit_busy_s"), "s"),
        ("core.units", per_op("core.units"), "count"),
        ("core.units_msdtw", per_op("core.units_msdtw"), "count"),
        ("core.patterns", per_op("core.patterns"), "count"),
        ("drc.check_s", layer("drc.check"), "s"),
        ("drc.violations", per_op("drc.violations"), "count"),
        ("max_err_pct", rec.error_summary().0 * 100.0, "%"),
        ("avg_err_pct", rec.error_summary().1 * 100.0, "%"),
        (
            "failed_frac",
            ratio(failed as f64, rec.verdicts.len() as f64),
            "frac",
        ),
        ("trace.overhead_s", overhead, "s"),
        ("trace.overhead_frac", ratio(overhead, untraced), "frac"),
        ("trace.unattributed_frac", median(gaps), "frac"),
        (
            "trace.ops_over_bound",
            gaps.iter().filter(|&&g| g > SUM_BOUND).count() as f64,
            "count",
        ),
    ]
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{}", v + 0.0) // `+ 0.0` prints -0 as 0
    } else {
        "null".to_string()
    }
}

/// The checkout's git revision, read from `.git` in the working directory
/// (never from a parent directory), or `none`.
fn git_revision() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "none".into()
        } else {
            head.into()
        };
    };
    std::fs::read_to_string(Path::new(".git").join(reference))
        .ok()
        .or_else(|| {
            let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .map(|l| l.split_whitespace().next().unwrap_or_default().to_string())
        })
        .map_or_else(|| "none".into(), |r| r.trim().to_string())
}

/// FNV digest of the router's sources in the working directory, so a run
/// from a checkout without git history still names the code it measured.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                if p.file_name().is_some_and(|n| n != "target") {
                    walk(&p, files);
                }
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = vec![Path::new("Cargo.toml").to_path_buf()];
    walk(Path::new("crates"), &mut files);
    walk(Path::new("src"), &mut files);
    files.sort();
    let mut h = Fnv::default();
    for f in &files {
        h.bytes(f.to_string_lossy().as_bytes());
        h.bytes(&std::fs::read(f).unwrap_or_default());
    }
    format!("{:016x}", h.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The host and build every result is recorded with.
fn host(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    // The router's cargo features show in the engine defaults they flip.
    let engine = meander_core::ExtendConfig::default();
    let mut features = Vec::new();
    if engine.batch_kernels {
        features.push("batch");
    }
    if engine.index == meander_core::IndexKind::RTree {
        features.push("rtree");
    }
    format!(
        "{{\"nproc\":{nproc},\"cpu\":{},\"git_rev\":{},\"source_digest\":{},\"features\":{},\
         \"rustc\":{},\"seed\":{},\"workers\":{}}}",
        json_str(&cpu_model()),
        json_str(&git_revision()),
        json_str(&source_digest()),
        json_str(&features.join(",")),
        json_str(env!("PERFBENCH_RUSTC")),
        args.seed,
        crate::run::WORKERS,
    )
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*value)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Prints the run's result and writes its detail (and, when traced, its
/// spans) under `out/`.
pub fn emit(args: &Args, mut rec: Record, tracer: &mut Tracer) {
    let wrong = rec.verdicts.iter().filter(|v| v.wrong).count();
    let gaps = tracer.unattributed();
    // In a traced run the layer spans must add back up to each op's wall.
    // A preemption between two spans can push a stray op over the bound, so
    // one op in a hundred (at least one per run) may miss it.
    let over = gaps.iter().filter(|&&g| g > SUM_BOUND).count();
    let trace_ok = !args.trace || over * 100 <= gaps.len().max(100);
    let correct = wrong == 0 && !rec.verdicts.is_empty() && trace_ok;
    rec.tail_name = format!("p{:.2}", tail_percentile(rec.op_lat.len()));
    let metrics = if args.trace {
        per_layer(&rec, tracer)
    } else {
        end_to_end(&rec)
    };
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let detail = format!(
        "{{\"workload\":{},\"host\":{},\"tail_percentile\":{},\"ops\":{},\"rounds\":{},\
         \"traced_rounds\":{},\"setup_reps\":{},\"metrics\":{}}}",
        json_str(&args.workload),
        host(args),
        json_str(&rec.tail_name),
        rec.op_lat.len(),
        rec.rounds.untraced.len(),
        rec.rounds.traced.len(),
        rec.setup_s.len(),
        metrics_json(&metrics),
    );
    let _ = std::fs::create_dir_all(OUT_DIR);
    let _ = std::fs::write(Path::new(OUT_DIR).join(format!("{stem}.json")), &detail);
    if args.trace {
        let spans = tracer.finish_jsonl();
        let _ = std::fs::write(
            Path::new(OUT_DIR).join(format!("{stem}-spans.jsonl")),
            spans,
        );
    }
    println!("detail {detail}");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {wrong}, \"metrics\": {}}}",
        rec.verdicts.len(),
        metrics_json(&metrics)
    );
}
