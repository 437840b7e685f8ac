//! The "without DP" baseline (paper Table II, Fig. 15 d–f).
//!
//! Patterns sit on *fixed tracks*: feet at a constant pitch from the
//! segment start, constant pattern width, greedy left-to-right insertion.
//! Obstacles are never routed around (`max_pattern_height_opts` with
//! enclosure off); when a slot's height comes back too small the slot is
//! simply skipped — no foot shifting, no width adaptation. Exactly the
//! failure modes the paper's Fig. 15 walkthrough describes.

use crate::config::TOLERANCE;
use crate::context::{ShrinkContext, WorldContext};
use crate::extend::{ExtendInput, ExtendOutcome};
use crate::pattern::{build_local_meander_f64, splice_meander};
use crate::shrink::max_pattern_height_opts;
use meander_geom::Frame;

/// Knobs of the fixed-track baseline.
#[derive(Debug, Clone)]
pub struct FixedTrackOptions {
    /// Pattern width as a multiple of `d_gap`.
    pub width_gaps: f64,
    /// Alternate pattern sides (up/down/up/…) instead of always up.
    pub alternate: bool,
    /// Use one uniform amplitude per segment (the minimum over its slots)
    /// instead of per-slot heights — the commercial-style "accordion"
    /// look. Slots with zero height are skipped either way.
    pub uniform_amplitude: bool,
}

impl Default for FixedTrackOptions {
    fn default() -> Self {
        FixedTrackOptions {
            width_gaps: 1.0,
            alternate: true,
            uniform_amplitude: false,
        }
    }
}

/// Extends a trace with the fixed-track greedy (no DP).
///
/// Only the original segments are visited (no meander-on-meander), feet
/// never move off the fixed pitch, and the final pattern is trimmed to
/// avoid overshooting — the same convergence contract as
/// [`crate::extend_trace`] so comparisons are apples-to-apples.
pub fn extend_trace_fixed(input: &ExtendInput<'_>, opts: &FixedTrackOptions) -> ExtendOutcome {
    let rules = input.rules;
    let mut trace = input.trace.clone();
    let tol = (input.target * TOLERANCE).max(1e-9);
    let h_min = rules.protect.max(1e-9);
    // Same centerline clearance math as the DP engine (see extend.rs).
    let g_eff = rules.gap + rules.width;
    let inflate = (rules.obstacle + rules.width / 2.0 - g_eff / 2.0).max(0.0);
    let obstacles: Vec<meander_geom::Polygon> = input
        .obstacles
        .iter()
        .map(|p| p.offset_convex(inflate))
        .collect();
    let wpat = (opts.width_gaps * g_eff).max(g_eff);
    let pitch = wpat + g_eff;

    let mut iterations = 0usize;
    let mut patterns = 0usize;
    // March over segment indices of the *current* trace, but only the
    // pieces that existed originally: we walk by index and skip spliced
    // runs by remembering how many vertices each splice added.
    let mut seg_index = 0usize;
    while trace.length() < input.target - tol && seg_index < trace.segment_count() {
        iterations += 1;
        let seg = trace.segment(seg_index);
        let len = seg.length();
        let Some(frame) = Frame::from_segment(&seg) else {
            seg_index += 1;
            continue;
        };
        let remaining = input.target - trace.length();
        if remaining < 2.0 * h_min {
            break;
        }

        let world = WorldContext {
            area: input.area.to_vec(),
            obstacles: obstacles.clone(),
            other_uras: WorldContext::trace_uras(&trace, seg_index, g_eff),
        };
        let ctx_up = ShrinkContext::build(&world, &frame, len, 1);
        let ctx_dn = ShrinkContext::build(&world, &frame, len, -1);

        // First-fit greedy over the routing-track grid: candidate feet
        // every half-clearance; a slot is taken the moment its constant-
        // width pattern fits (no lookahead, no width adaptation — the
        // "gridded safety tracks" style of the prior work the paper
        // compares against).
        let mut slots: Vec<(f64, f64, i8, f64)> = Vec::new(); // x0, x1, dir, h
        let step = g_eff / 4.0;
        let h_init = remaining / 2.0;
        let mut x0 = rules.protect;
        let mut k = 0usize;
        while x0 + wpat <= len - rules.protect {
            let x1 = x0 + wpat;
            let dir: i8 = if opts.alternate && k % 2 == 1 { -1 } else { 1 };
            let ctx = if dir > 0 { &ctx_up } else { &ctx_dn };
            let r = max_pattern_height_opts(ctx, x0, x1, g_eff, h_init, h_min, false);
            if r.height >= h_min - 1e-9 {
                slots.push((x0, x1, dir, r.height));
                x0 += pitch;
                k += 1;
            } else {
                x0 += step;
            }
        }
        if slots.is_empty() {
            seg_index += 1;
            continue;
        }
        if opts.uniform_amplitude {
            let h_uniform = slots.iter().map(|s| s.3).fold(f64::INFINITY, f64::min);
            for s in &mut slots {
                s.3 = h_uniform;
            }
        }

        // Greedy accumulate with final trim (exact feet, no quantization).
        let mut placements: Vec<(f64, f64, i8, f64)> = Vec::new();
        let mut acc = 0.0;
        for (x0, x1, dir, h) in slots {
            if acc + 2.0 * h <= remaining + 1e-9 {
                placements.push((x0, x1, dir, h));
                acc += 2.0 * h;
            } else {
                let desired = (remaining - acc) / 2.0;
                if desired >= h_min - 1e-9 {
                    let ctx = if dir > 0 { &ctx_up } else { &ctx_dn };
                    let r = max_pattern_height_opts(ctx, x0, x1, g_eff, desired, h_min, false);
                    if r.height >= h_min - 1e-9 {
                        placements.push((x0, x1, dir, r.height));
                    }
                }
                break;
            }
        }
        if placements.is_empty() {
            seg_index += 1;
            continue;
        }
        patterns += placements.len();
        let local = build_local_meander_f64(len, &placements);
        let added = local.point_count() - 2;
        let _ = splice_meander(&mut trace, seg_index, &frame, &local);
        // Jump past the spliced run: fixed-track never meanders meanders.
        seg_index += added + 1;
    }

    ExtendOutcome {
        achieved: trace.length(),
        trace,
        iterations,
        patterns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExtendConfig;
    use meander_geom::{Point, Polygon, Polyline};

    fn rules() -> meander_drc::DesignRules {
        meander_drc::DesignRules {
            gap: 8.0,
            obstacle: 8.0,
            protect: 4.0,
            miter: 2.0,
            width: 4.0,
        }
    }

    fn straight(len: f64) -> Polyline {
        Polyline::new(vec![Point::new(0.0, 0.0), Point::new(len, 0.0)])
    }

    fn area(len: f64) -> Vec<Polygon> {
        vec![Polygon::rectangle(
            Point::new(-20.0, -60.0),
            Point::new(len + 20.0, 60.0),
        )]
    }

    #[test]
    fn reaches_modest_target_in_open_space() {
        let trace = straight(200.0);
        let a = area(200.0);
        let r = rules();
        let out = extend_trace_fixed(
            &ExtendInput {
                trace: &trace,
                target: 260.0,
                rules: &r,
                area: &a,
                obstacles: &[],
            },
            &FixedTrackOptions::default(),
        );
        assert!(
            (out.achieved - 260.0).abs() <= 0.26 + 1e-6,
            "{}",
            out.achieved
        );
        assert!(!out.trace.is_self_intersecting());
    }

    #[test]
    fn never_overshoots() {
        let trace = straight(150.0);
        let a = area(150.0);
        let r = rules();
        let out = extend_trace_fixed(
            &ExtendInput {
                trace: &trace,
                target: 163.0,
                rules: &r,
                area: &a,
                obstacles: &[],
            },
            &FixedTrackOptions::default(),
        );
        assert!(out.achieved <= 163.0 + 1e-6);
    }

    #[test]
    fn cannot_route_around_obstacles() {
        // A via sitting where a DP pattern would simply enclose it.
        let trace = straight(60.0);
        let a = area(60.0);
        let r = rules();
        let obstacles = vec![Polygon::rectangle(
            Point::new(26.0, 20.0),
            Point::new(34.0, 26.0),
        )];
        let fixed = extend_trace_fixed(
            &ExtendInput {
                trace: &trace,
                target: 200.0,
                rules: &r,
                area: &a,
                obstacles: &obstacles,
            },
            &FixedTrackOptions::default(),
        );
        let dp = crate::extend::extend_trace(
            &ExtendInput {
                trace: &trace,
                target: 200.0,
                rules: &r,
                area: &a,
                obstacles: &obstacles,
            },
            &ExtendConfig::default(),
        );
        assert!(
            dp.achieved > fixed.achieved + 1.0,
            "DP {} should beat fixed tracks {}",
            dp.achieved,
            fixed.achieved
        );
    }

    #[test]
    fn respects_drc() {
        let trace = straight(120.0);
        let a = area(120.0);
        let r = rules();
        let obstacles = vec![Polygon::rectangle(
            Point::new(40.0, 12.0),
            Point::new(60.0, 20.0),
        )];
        let out = extend_trace_fixed(
            &ExtendInput {
                trace: &trace,
                target: 200.0,
                rules: &r,
                area: &a,
                obstacles: &obstacles,
            },
            &FixedTrackOptions::default(),
        );
        let violations = meander_drc::check_layout(&meander_drc::CheckInput {
            traces: vec![meander_drc::TraceGeometry {
                id: 0,
                centerline: out.trace.clone(),
                width: r.width,
                rules: r,
                area: a,
                coupled_with: vec![],
            }],
            obstacles,
        });
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn uniform_amplitude_is_weaker() {
        let trace = straight(200.0);
        let a = area(200.0);
        let r = rules();
        // One obstacle lowers a single slot; uniform amplitude drags every
        // slot down to it.
        let obstacles = vec![Polygon::rectangle(
            Point::new(90.0, 10.0),
            Point::new(110.0, 16.0),
        )];
        let mk = |uniform| {
            extend_trace_fixed(
                &ExtendInput {
                    trace: &trace,
                    target: 600.0,
                    rules: &r,
                    area: &a,
                    obstacles: &obstacles,
                },
                &FixedTrackOptions {
                    uniform_amplitude: uniform,
                    ..Default::default()
                },
            )
        };
        let uniform = mk(true);
        let per_slot = mk(false);
        assert!(
            per_slot.achieved >= uniform.achieved,
            "{} < {}",
            per_slot.achieved,
            uniform.achieved
        );
    }
}
