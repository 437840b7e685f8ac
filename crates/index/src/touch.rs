//! Touched-window recording for incremental re-routing (remembered sets).
//!
//! The serving loop (`meander-fleet`'s `FleetSession`) re-routes only the
//! units an edit could have affected. That is sound because an obstacle
//! enters a pop's shrink contexts only when its inflated bbox
//! [`reaches`] the pop's candidate window (`meander_core`'s world index
//! keeps a lattice-cell prefilter in front of that test, which can only
//! drop more). So if a unit records every candidate-query window it
//! issued, and an edit's damage (the bboxes of the old and new inflated
//! polygons) reaches none of them, then the edited obstacle was no
//! candidate of any query the unit made, before the edit or after it:
//! every query answers the same, and since the engine is deterministic,
//! its replay (and output) is bit-identical. [`CellTouches::intersects`]
//! asks exactly [`reaches`], the function the engine filters with, on the
//! same floats — so the argument holds by construction.
//!
//! Two wrinkles the types here encode:
//!
//! * **Strata.** Damage geometry depends on the obstacle inflation, which
//!   is derived from the unit's design rules (diff-pair units route under
//!   *virtualized* rules), as is the lattice the cell stats are counted
//!   on. A unit may therefore touch several `(cell, inflate)` strata;
//!   [`CellTouches`] keeps one rect set per [`StratumKey`], and dirty sets
//!   carry damage inflated per stratum.
//! * **Unclamped windows.** The grid clamps query spans to its occupied
//!   bounds as a pure optimization; clamping is answer-preserving, but the
//!   occupied bounds themselves shift under edits. Recording therefore
//!   keeps the window itself, stated without reference to mutable bounds.

use crate::{cell_coord, reaches};
use meander_geom::Rect;

/// Rects kept per stratum before collapsing to a single bounding rect.
/// Collapse is conservative (a superset of the touched windows, and
/// [`reaches`] is monotone), so it only costs precision, never soundness.
const MAX_RECTS: usize = 256;

/// Identifies the stratum a touch or a damage rect belongs to: bit
/// patterns of the lattice cell size and the obstacle inflation derived
/// from the design rules the unit routed under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StratumKey {
    /// `f64::to_bits` of the lattice cell size.
    pub cell: u64,
    /// `f64::to_bits` of the obstacle inflation distance.
    pub inflate: u64,
}

impl StratumKey {
    /// Key from the raw derived floats.
    pub fn new(cell: f64, inflate: f64) -> Self {
        StratumKey {
            cell: cell.to_bits(),
            inflate: inflate.to_bits(),
        }
    }

    /// The lattice cell size.
    pub fn cell_size(&self) -> f64 {
        f64::from_bits(self.cell)
    }

    /// The obstacle inflation distance.
    pub fn inflation(&self) -> f64 {
        f64::from_bits(self.inflate)
    }
}

/// Inclusive lattice cell range `[cx0, cy0, cx1, cy1]` of a world rect,
/// quantized by [`cell_coord`].
///
/// Only the cell-count stats ([`DirtyCells::cells`]) use it: whether
/// damage can affect a unit is decided on the unquantized rects by
/// [`reaches`], never on cells.
pub fn quantize(cell: f64, r: &Rect) -> [i64; 4] {
    let q = |v: f64| cell_coord(cell, v);
    [q(r.min.x), q(r.min.y), q(r.max.x), q(r.max.y)]
}

#[inline]
fn contains(outer: &Rect, inner: &Rect) -> bool {
    outer.min.x <= inner.min.x
        && outer.min.y <= inner.min.y
        && outer.max.x >= inner.max.x
        && outer.max.y >= inner.max.y
}

fn rect_cells(cell: f64, r: &Rect) -> u64 {
    let q = quantize(cell, r);
    let w = (q[2] - q[0] + 1).max(0) as u64;
    let h = (q[3] - q[1] + 1).max(0) as u64;
    w.saturating_mul(h)
}

#[derive(Debug, Clone)]
struct Stratum {
    key: StratumKey,
    rects: Vec<Rect>,
}

impl Stratum {
    /// Containment-deduplicating insert with a conservative collapse cap.
    fn add(&mut self, rect: Rect) {
        if self.rects.iter().any(|r| contains(r, &rect)) {
            return;
        }
        self.rects.retain(|r| !contains(&rect, r));
        self.rects.push(rect);
        if self.rects.len() > MAX_RECTS {
            let b = self.rects.iter().fold(rect, |b, r| b.union(r));
            self.rects.clear();
            self.rects.push(b);
        }
    }

    fn cells(&self) -> u64 {
        let cell = self.key.cell_size();
        self.rects
            .iter()
            .fold(0u64, |acc, r| acc.saturating_add(rect_cells(cell, r)))
    }
}

fn stratum_mut(strata: &mut Vec<Stratum>, key: StratumKey) -> &mut Stratum {
    if let Some(i) = strata.iter().position(|s| s.key == key) {
        &mut strata[i]
    } else {
        strata.push(Stratum {
            key,
            rects: Vec::new(),
        });
        let last = strata.len() - 1;
        &mut strata[last]
    }
}

/// The candidate-query windows a unit issued, per stratum.
///
/// Recorded during routing (see `extend_trace_with` in `meander-core`);
/// tested against [`DirtyCells`] to decide whether an edit can affect the
/// unit. The router's one engine issues every obstacle query through the
/// recorded funnel, so the windows are the unit's whole obstacle
/// dependence.
#[derive(Debug, Clone, Default)]
pub struct CellTouches {
    strata: Vec<Stratum>,
}

impl CellTouches {
    /// An empty touched set.
    pub fn new() -> Self {
        CellTouches::default()
    }

    /// Records one candidate-query window on the `(cell, inflate)` stratum.
    /// `window` is the **unclamped** world-space query rect.
    pub fn record(&mut self, cell: f64, inflate: f64, window: &Rect) {
        stratum_mut(&mut self.strata, StratumKey::new(cell, inflate)).add(*window);
    }

    /// The stratum keys this unit touched.
    pub fn strata(&self) -> impl Iterator<Item = StratumKey> + '_ {
        self.strata.iter().map(|s| s.key)
    }

    /// The retained windows with their strata: every recorded window is
    /// contained in one of them.
    pub fn windows(&self) -> impl Iterator<Item = (StratumKey, &Rect)> + '_ {
        self.strata
            .iter()
            .flat_map(|s| s.rects.iter().map(move |r| (s.key, r)))
    }

    /// Number of rects retained (compactness stat).
    pub fn rect_count(&self) -> usize {
        self.strata.iter().map(|s| s.rects.len()).sum()
    }

    /// Whether any damage rect [`reaches`] a recorded window of its
    /// stratum. [`DirtyCells::mark_all`] intersects everything (unless
    /// the dirty set is empty).
    pub fn intersects(&self, dirty: &DirtyCells) -> bool {
        if dirty.is_empty() {
            return false;
        }
        if dirty.all {
            return true;
        }
        self.strata.iter().any(|s| {
            dirty
                .strata
                .iter()
                .find(|d| d.key == s.key)
                .is_some_and(|d| {
                    s.rects
                        .iter()
                        .any(|w| d.rects.iter().any(|b| reaches(w, b)))
                })
        })
    }
}

/// Accumulated damage from edits: per-stratum bboxes of the old and new
/// inflated geometry of every edited obstacle since the last re-route.
/// One `DirtyCells` per obstacle library plus one per board.
#[derive(Debug, Clone, Default)]
pub struct DirtyCells {
    all: bool,
    strata: Vec<Stratum>,
}

impl DirtyCells {
    /// An empty (clean) dirty set.
    pub fn new() -> Self {
        DirtyCells::default()
    }

    /// Drops all accumulated damage (called after a re-route consumes it).
    pub fn clear(&mut self) {
        self.all = false;
        self.strata.clear();
    }

    /// Marks everything dirty (structural edits).
    pub fn mark_all(&mut self) {
        self.all = true;
        self.strata.clear();
    }

    /// Whether everything is dirty.
    pub fn is_all(&self) -> bool {
        self.all
    }

    /// Whether no damage is recorded at all.
    pub fn is_empty(&self) -> bool {
        !self.all && self.strata.iter().all(|s| s.rects.is_empty())
    }

    /// Adds one damage rect — the bbox of an obstacle inflated by
    /// `key.inflation()` — on a stratum.
    pub fn add(&mut self, key: StratumKey, bbox: Rect) {
        if self.all {
            return;
        }
        stratum_mut(&mut self.strata, key).add(bbox);
    }

    /// Lattice cells the retained damage rects cover, summed over strata
    /// (each rect quantized on its stratum's lattice). A size stat only:
    /// what is dirty is decided by [`CellTouches::intersects`].
    pub fn cells(&self) -> u64 {
        if self.all {
            return u64::MAX;
        }
        self.strata
            .iter()
            .fold(0u64, |acc, s| acc.saturating_add(s.cells()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::REACH_SLACK;
    use meander_geom::Point;

    fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> Rect {
        Rect::new(Point::new(x0, y0), Point::new(x1, y1))
    }

    #[test]
    fn quantize_floors_like_the_grid() {
        // Floor division, negative coordinates included.
        assert_eq!(quantize(4.0, &rect(-0.1, 0.0, 3.9, 4.0)), [-1, 0, 0, 1]);
        assert_eq!(quantize(2.0, &rect(0.0, 0.0, 0.0, 0.0)), [0, 0, 0, 0]);
    }

    #[test]
    fn containment_dedups_and_supersedes() {
        let mut t = CellTouches::new();
        t.record(1.0, 0.0, &rect(0.0, 0.0, 10.0, 10.0));
        t.record(1.0, 0.0, &rect(2.0, 2.0, 5.0, 5.0)); // contained: dropped
        assert_eq!(t.rect_count(), 1);
        t.record(1.0, 0.0, &rect(-5.0, -5.0, 20.0, 20.0)); // supersedes
        assert_eq!(t.rect_count(), 1);
        assert_eq!(t.strata.iter().map(|s| s.cells()).sum::<u64>(), 26 * 26);
        // Sharing cells is not containment: both rects are kept.
        t.record(1.0, 0.0, &rect(19.5, 0.0, 20.5, 1.0));
        assert_eq!(t.rect_count(), 2);
    }

    #[test]
    fn strata_are_kept_apart() {
        let mut t = CellTouches::new();
        t.record(1.0, 0.0, &rect(0.0, 0.0, 1.0, 1.0));
        t.record(2.0, 0.5, &rect(0.0, 0.0, 1.0, 1.0));
        assert_eq!(t.strata().count(), 2);
        assert_eq!(t.windows().count(), 2);

        let mut d = DirtyCells::new();
        // Damage on a stratum the unit never touched: no intersection.
        d.add(StratumKey::new(8.0, 0.0), rect(0.0, 0.0, 100.0, 100.0));
        assert!(!t.intersects(&d));
        // Same stratum, disjoint rects: still clean.
        d.add(StratumKey::new(1.0, 0.0), rect(50.0, 50.0, 60.0, 60.0));
        assert!(!t.intersects(&d));
        // Same stratum, overlapping rects: dirty.
        d.add(StratumKey::new(1.0, 0.0), rect(0.5, 0.5, 3.0, 3.0));
        assert!(t.intersects(&d));
    }

    #[test]
    fn damage_in_a_touched_cell_but_beyond_the_slack_is_clean() {
        let key = StratumKey::new(48.0, 2.0);
        let mut t = CellTouches::new();
        t.record(48.0, 2.0, &rect(0.0, 0.0, 10.0, 10.0));
        // Same lattice cell as the window, 2 slacks to its right: clean.
        let mut d = DirtyCells::new();
        let x = 10.0 + 2.0 * REACH_SLACK;
        d.add(key, rect(x, 4.0, x + 1.0, 5.0));
        assert_eq!(quantize(48.0, &rect(x, 4.0, x + 1.0, 5.0)), [0, 0, 0, 0]);
        assert!(!t.intersects(&d));
        // Within the slack: dirty.
        let x = 10.0 + REACH_SLACK / 2.0;
        d.add(key, rect(x, 4.0, x + 1.0, 5.0));
        assert!(t.intersects(&d));
    }

    #[test]
    fn mark_all_is_conservative_but_ignores_empty_damage() {
        let clean = CellTouches::new();
        assert!(!clean.intersects(&DirtyCells::new())); // nothing to re-route
        let mut all = DirtyCells::new();
        all.mark_all();
        assert!(clean.intersects(&all));
        assert_eq!(all.cells(), u64::MAX);
        all.clear();
        assert!(all.is_empty());
    }

    #[test]
    fn overflow_collapses_to_bounding_rect() {
        let mut t = CellTouches::new();
        for i in 0..(MAX_RECTS as i64 + 8) {
            let x = 10.0 * i as f64;
            t.record(1.0, 0.0, &rect(x, 0.0, x + 1.0, 1.0));
        }
        assert!(t.rect_count() <= MAX_RECTS);
        // Still a superset: damage on every recorded window intersects.
        let mut d = DirtyCells::new();
        d.add(StratumKey::new(1.0, 0.0), rect(0.0, 0.0, 1.0, 1.0));
        assert!(t.intersects(&d));
    }
}
