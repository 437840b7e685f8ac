//! Damage accounting for serving edits.
//!
//! An edit's *damage* is where the routing world changed: the bounding
//! boxes of the old and the new inflated obstacle geometry, computed on
//! every stratum the retained units routed under
//! ([`meander_index::StratumKey`] — one `(cell, inflate)` pair per
//! distinct rule derivation). Inflating with
//! `Polygon::offset_convex(stratum.inflation())` replicates exactly what
//! [`meander_core::WorldBase::build`] (and the per-trace monolithic index)
//! inserts, so each damage rect is, bit for bit, the bbox the engine's
//! candidacy test [`meander_index::reaches`] saw (or will see) for that
//! obstacle. A unit is dirty when that same test holds between one of its
//! recorded windows and a damage rect; no quantization sits between the
//! two.

use meander_geom::Polygon;
use meander_index::{DirtyCells, StratumKey};

/// What one [`meander_layout::Edit`] did to the session's dirty state.
///
/// Returned by `FleetSession::apply_edit` so callers can meter damage per
/// edit (the bench derives its churn numbers from these).
#[derive(Debug, Clone, Copy, Default)]
#[must_use = "the damage report says how wide the edit's blast radius is"]
pub struct DamageReport {
    /// Boards whose units this edit can dirty: the referencing
    /// boards of a library-scope edit, 1 for a board-scope edit, 0 for a
    /// no-op (e.g. removing from an empty obstacle list).
    pub boards_affected: usize,
    /// Lattice cells the scope's damage rects grew by, summed over
    /// strata (`u64::MAX` when the edit degraded the scope to "all
    /// dirty"). A size stat: which units are dirty is decided on the
    /// unquantized rects ([`meander_index::reaches`]), not on cells.
    /// Zero for structural edits — they bypass damage accounting.
    pub cells_dirty: u64,
    /// `true` for structural edits (`SetRules`, `ReplaceBoard`): the
    /// board replans and re-routes wholesale instead of by damage.
    pub structural: bool,
}

/// Adds the damage of `polys` (old and/or new *raw* obstacle polygons) to
/// `dirty`: their bboxes inflated on every stratum in `strata`. Returns
/// the dirty-cell growth (a stat; containment dedup may absorb rects).
///
/// `strata` is the union over every retained unit's touched strata, so it
/// covers each unit's own inflation. When it is empty the damage cannot be
/// represented (no recorded stratum — nothing routed yet, or no unit
/// issued a candidate query): the scope degrades to `mark_all`, which
/// re-routes everything it covers. Conservative, never wrong.
pub(crate) fn add_damage(dirty: &mut DirtyCells, strata: &[StratumKey], polys: &[&Polygon]) -> u64 {
    let before = dirty.cells();
    if strata.is_empty() {
        dirty.mark_all();
        return u64::MAX;
    }
    for key in strata {
        for p in polys {
            let inflated = p.offset_convex(key.inflation());
            dirty.add(*key, inflated.bbox());
        }
    }
    dirty.cells().saturating_sub(before)
}

#[cfg(test)]
mod tests {
    use super::*;
    use meander_geom::Point;

    #[test]
    fn damage_covers_the_inflated_polygon_on_every_stratum() {
        let mut dirty = DirtyCells::new();
        let strata = [StratumKey::new(4.0, 2.0), StratumKey::new(8.0, 0.0)];
        let poly = Polygon::rectangle(Point::new(0.0, 0.0), Point::new(4.0, 4.0));
        let grew = add_damage(&mut dirty, &strata, &[&poly]);
        assert!(grew > 0);
        // Stratum (4, 2): inflated bbox [-2, 6] per axis, 3 × 3 cells.
        assert_eq!(grew, 9 + 1);
        let mut probe = meander_index::CellTouches::new();
        probe.record(
            4.0,
            2.0,
            &meander_geom::Rect::new(Point::new(-2.0, -2.0), Point::new(-2.0, -2.0)),
        );
        assert!(probe.intersects(&dirty));
        // Far away on the same stratum: clean.
        let mut far = meander_index::CellTouches::new();
        far.record(
            4.0,
            2.0,
            &meander_geom::Rect::new(Point::new(100.0, 100.0), Point::new(110.0, 110.0)),
        );
        assert!(!far.intersects(&dirty));
    }

    #[test]
    fn empty_strata_degrade_to_mark_all() {
        let mut dirty = DirtyCells::new();
        let poly = Polygon::rectangle(Point::new(0.0, 0.0), Point::new(1.0, 1.0));
        let grew = add_damage(&mut dirty, &[], &[&poly]);
        assert_eq!(grew, u64::MAX);
        assert!(dirty.is_all());
        // Any recorded touch now intersects.
        let mut t = meander_index::CellTouches::new();
        t.record(
            1.0,
            0.0,
            &meander_geom::Rect::new(Point::new(9.0, 9.0), Point::new(9.0, 9.0)),
        );
        assert!(t.intersects(&dirty));
    }
}
