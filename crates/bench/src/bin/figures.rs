//! Regenerates the paper's display figures as SVG files under
//! `target/figures/`:
//!
//! * `fig14a` — length-matched Table I case 1 (result display),
//! * `fig14b` — any-direction bus demo,
//! * `fig15a..f` — Table II cases 1/5/6 with and without DP,
//! * `fig16a` — decoupled pair and its merged median trace,
//! * `fig16b` — meandered median and the restored pair,
//! * `fig09` — the decoupled differential pair itself (input of Fig. 16),
//! * `fig13` — median trace with DTW match lines.
//!
//! ```text
//! cargo run --release -p meander-bench --bin figures
//! ```

use meander_core::baseline::{extend_trace_fixed, FixedTrackOptions};
use meander_core::extend::ExtendInput;
use meander_core::{extend_trace, match_board_group, ExtendConfig};
use meander_geom::{Angle, Point, Polyline, Segment};
use meander_layout::gen::{any_angle_bus, decoupled_pair, table1_case, table2_case};
use meander_layout::svg::{render_board, render_scene, SvgStyle};
use meander_msdtw::{merge_pair, PairGeometry};
use std::fs;
use std::path::Path;

fn save(dir: &Path, name: &str, svg: &str) {
    let path = dir.join(format!("{name}.svg"));
    fs::write(&path, svg).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("wrote {}", path.display());
}

fn main() {
    let dir = Path::new("target/figures");
    fs::create_dir_all(dir).expect("create target/figures");
    let config = ExtendConfig::default();
    let style = SvgStyle::default();

    // ---- Fig. 14a: matched Table I case. ------------------------------
    let mut case = table1_case(1);
    let report = match_board_group(&mut case.board, 0, &config);
    println!(
        "fig14a: case 1 matched, max err {:.2}%, avg {:.2}%",
        report.max_error() * 100.0,
        report.avg_error() * 100.0
    );
    save(
        dir,
        "fig14a_table1_case1_result",
        &render_board(&case.board, &style),
    );

    // ---- Fig. 14b: any-direction functionality. ------------------------
    let mut bus = any_angle_bus(4, Angle::from_degrees(17.0));
    let report = match_board_group(&mut bus, 0, &config);
    println!(
        "fig14b: any-angle bus matched, max err {:.2}%",
        report.max_error() * 100.0
    );
    save(dir, "fig14b_any_direction", &render_board(&bus, &style));

    // ---- Fig. 15: Table II cases 1/5/6, with and without DP. -----------
    for (tag, case_no) in [("a", 1usize), ("b", 5), ("c", 6)] {
        let case = table2_case(case_no);
        let trace = case.board.trace(case.trace).expect("trace").clone();
        let area = case
            .board
            .area(case.trace)
            .expect("area")
            .polygons()
            .to_vec();
        let obstacles: Vec<_> = case
            .board
            .obstacles()
            .iter()
            .map(|o| o.polygon().clone())
            .collect();
        let rules = *trace.rules();
        let input = ExtendInput {
            trace: trace.centerline(),
            target: trace.length() * 50.0,
            rules: &rules,
            area: &area,
            obstacles: &obstacles,
        };
        let big = ExtendConfig {
            max_iterations: 2000,
            ..ExtendConfig::default()
        };

        let dp = extend_trace(&input, &big);
        let mut with_board = case.board.clone();
        with_board
            .trace_mut(case.trace)
            .expect("trace")
            .set_centerline(dp.trace.clone());
        save(
            dir,
            &format!("fig15{tag}_case{case_no}_with_dp"),
            &render_board(&with_board, &style),
        );

        let fixed = extend_trace_fixed(&input, &FixedTrackOptions::default());
        let mut without_board = case.board.clone();
        without_board
            .trace_mut(case.trace)
            .expect("trace")
            .set_centerline(fixed.trace.clone());
        save(
            dir,
            &format!("fig15{}_case{case_no}_without_dp", next_tag(tag)),
            &render_board(&without_board, &style),
        );
        println!(
            "fig15 case {case_no}: DP +{:.1}%, fixed +{:.1}%",
            (dp.achieved / trace.length() - 1.0) * 100.0,
            (fixed.achieved / trace.length() - 1.0) * 100.0
        );
    }

    // ---- Fig. 9 / 13 / 16: MSDTW on the decoupled pair. ----------------
    let pair_case = decoupled_pair(false);
    save(
        dir,
        "fig09_decoupled_pair",
        &render_board(&pair_case.board, &style),
    );

    let p0 = pair_case
        .board
        .trace(pair_case.p)
        .expect("p")
        .centerline()
        .clone();
    let n0 = pair_case
        .board
        .trace(pair_case.n)
        .expect("n")
        .centerline()
        .clone();
    let merged = merge_pair(&PairGeometry::new(&p0, &n0, pair_case.sep0)).expect("merge");

    // Fig. 13: pair + median + match lines.
    let mut lines: Vec<(Polyline, &str, f64)> = vec![
        (p0.clone(), "#4fc3f7", 1.2),
        (n0.clone(), "#4fc3f7", 1.2),
        (merged.median.clone(), "#aed581", 1.6),
    ];
    for m in &merged.matches {
        let a = p0.points()[m.i];
        let b = n0.points()[m.j];
        lines.push((Polyline::new(vec![a, b]), "#f06292", 0.3));
    }
    save(
        dir,
        "fig13_msdtw_matching",
        &render_scene(&lines, &[], 1000.0),
    );

    // Fig. 16a: original pair (white) + merged median (green).
    save(
        dir,
        "fig16a_merged_median",
        &render_scene(
            &[
                (p0.clone(), "#e8eaed", 1.2),
                (n0.clone(), "#e8eaed", 1.2),
                (merged.median.clone(), "#81c784", 1.6),
            ],
            &[],
            1000.0,
        ),
    );

    // Fig. 16b: meander the median, restore the pair.
    let mut board = pair_case.board.clone();
    let report = match_board_group(&mut board, 0, &config);
    println!(
        "fig16b: pair matched via MSDTW, max err {:.2}%",
        report.max_error() * 100.0
    );
    let new_p = board.trace(pair_case.p).expect("p").centerline().clone();
    let new_n = board.trace(pair_case.n).expect("n").centerline().clone();
    // Re-derive the meandered median for display.
    let median_display = merge_pair(&PairGeometry::new(&new_p, &new_n, pair_case.sep0))
        .map(|m| m.median)
        .unwrap_or_else(|_| merged.median.clone());
    save(
        dir,
        "fig16b_restored_pair",
        &render_scene(
            &[
                (median_display, "#e8eaed", 1.2),
                (new_p, "#81c784", 1.2),
                (new_n, "#81c784", 1.2),
            ],
            &[],
            1000.0,
        ),
    );

    // ---- Bonus: Fig. 3-style URA illustration. --------------------------
    let seg = Segment::new(Point::new(0.0, 0.0), Point::new(60.0, 0.0));
    let ura = meander_geom::Polygon::rectangle(Point::new(16.0, 0.0), Point::new(44.0, 22.0));
    let pattern = Polyline::new(vec![
        Point::new(0.0, 0.0),
        Point::new(20.0, 0.0),
        Point::new(20.0, 18.0),
        Point::new(40.0, 18.0),
        Point::new(40.0, 0.0),
        Point::new(60.0, 0.0),
    ]);
    save(
        dir,
        "fig06_ura",
        &render_scene(
            &[
                (Polyline::new(vec![seg.a, seg.b]), "#4fc3f7", 1.0),
                (pattern, "#aed581", 1.0),
            ],
            &[(ura, "#54606e")],
            800.0,
        ),
    );

    println!("figures complete");
}

fn next_tag(tag: &str) -> &'static str {
    match tag {
        "a" => "d",
        "b" => "e",
        _ => "f",
    }
}
