//! Touched-cell recording for incremental re-routing (remembered sets).
//!
//! The serving loop (`meander-fleet`'s `FleetSession`) re-routes only the
//! units an edit could have affected. That is sound because candidacy in
//! every spatial structure here is **lattice cell intersection**: an edge is
//! a candidate for a query window exactly when the cell range of its bbox
//! intersects the cell range of the window (`SegmentGrid::cell_coord`
//! quantization; the R-tree honours the same contract — see [`crate::spatial`]).
//! So if a unit records the quantized span of every candidate-query window it
//! issued, and an edit's damage (the quantized bboxes of the old and new
//! inflated polygons) intersects none of them, then no query the unit made
//! would have answered differently — and since the engine is deterministic,
//! its replay (and output) is bit-identical.
//!
//! Two wrinkles the types here encode:
//!
//! * **Strata.** Quantization depends on the cell size, and damage geometry
//!   depends on the obstacle inflation — both derived from the unit's design
//!   rules (diff-pair units route under *virtualized* rules). A unit may
//!   therefore touch several `(cell, inflate)` lattices; [`CellTouches`]
//!   keeps one rect set per [`StratumKey`], and dirty sets carry damage
//!   quantized per stratum.
//! * **Unclamped windows.** The grid clamps query spans to its occupied
//!   bounds as a pure optimization; clamping is answer-preserving, but the
//!   occupied bounds themselves shift under edits. Recording therefore uses
//!   the **unclamped** quantized window span — the candidacy predicate
//!   "edge-bbox cells ∩ window cells ≠ ∅" is exactly what clamped queries
//!   answer, stated without reference to mutable bounds.

use meander_geom::Rect;

/// Rects kept per stratum before collapsing to a single bounding rect.
/// Collapse is conservative (a superset of the touched cells), so it only
/// costs precision, never soundness.
const MAX_RECTS: usize = 256;

/// Identifies the lattice a touch or a damage rect is quantized on:
/// bit patterns of the cell size and the obstacle inflation derived from the
/// design rules the unit routed under.
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
/// using exactly the grid's `cell_coord` quantization (floor division).
pub fn quantize(cell: f64, r: &Rect) -> [i64; 4] {
    let q = |v: f64| (v / cell).floor() as i64;
    [q(r.min.x), q(r.min.y), q(r.max.x), q(r.max.y)]
}

#[inline]
fn contains(outer: &[i64; 4], inner: &[i64; 4]) -> bool {
    outer[0] <= inner[0] && outer[1] <= inner[1] && outer[2] >= inner[2] && outer[3] >= inner[3]
}

#[inline]
fn overlaps(a: &[i64; 4], b: &[i64; 4]) -> bool {
    a[0] <= b[2] && b[0] <= a[2] && a[1] <= b[3] && b[1] <= a[3]
}

#[inline]
fn rect_cells(r: &[i64; 4]) -> u64 {
    let w = (r[2] - r[0] + 1).max(0) as u64;
    let h = (r[3] - r[1] + 1).max(0) as u64;
    w.saturating_mul(h)
}

#[derive(Debug, Clone)]
struct Stratum {
    key: StratumKey,
    rects: Vec<[i64; 4]>,
}

impl Stratum {
    /// Containment-deduplicating insert with a conservative collapse cap.
    fn add(&mut self, rect: [i64; 4]) {
        if self.rects.iter().any(|r| contains(r, &rect)) {
            return;
        }
        self.rects.retain(|r| !contains(&rect, r));
        self.rects.push(rect);
        if self.rects.len() > MAX_RECTS {
            let mut b = rect;
            for r in &self.rects {
                b[0] = b[0].min(r[0]);
                b[1] = b[1].min(r[1]);
                b[2] = b[2].max(r[2]);
                b[3] = b[3].max(r[3]);
            }
            self.rects.clear();
            self.rects.push(b);
        }
    }

    fn cells(&self) -> u64 {
        self.rects
            .iter()
            .fold(0u64, |acc, r| acc.saturating_add(rect_cells(r)))
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

/// The set of lattice cells a unit's candidate queries touched, per stratum.
///
/// Recorded during routing (see `extend_trace_with` in `meander-core`);
/// tested against [`DirtyCells`] to decide whether an edit can affect the
/// unit. [`CellTouches::mark_all`] is the conservative escape hatch for
/// engine shapes whose queries are not funneled through the recordable
/// path (e.g. the full-rebuild fallback engine) — such units are always
/// considered dirty.
#[derive(Debug, Clone, Default)]
pub struct CellTouches {
    all: bool,
    strata: Vec<Stratum>,
}

impl CellTouches {
    /// An empty touched set.
    pub fn new() -> Self {
        CellTouches::default()
    }

    /// Conservatively marks the unit as touching *everything*: it will be
    /// re-routed on any damage.
    pub fn mark_all(&mut self) {
        self.all = true;
        self.strata.clear();
    }

    /// Records one candidate-query window on the `(cell, inflate)` stratum.
    /// `window` is the **unclamped** world-space query rect.
    pub fn record(&mut self, cell: f64, inflate: f64, window: &Rect) {
        if self.all {
            return;
        }
        let rect = quantize(cell, window);
        stratum_mut(&mut self.strata, StratumKey::new(cell, inflate)).add(rect);
    }

    /// The stratum keys this unit touched.
    pub fn strata(&self) -> impl Iterator<Item = StratumKey> + '_ {
        self.strata.iter().map(|s| s.key)
    }

    /// Number of rects retained (compactness stat).
    pub fn rect_count(&self) -> usize {
        self.strata.iter().map(|s| s.rects.len()).sum()
    }

    /// Whether any recorded window intersects the dirty set. `mark_all` on
    /// either side intersects everything (unless the dirty set is empty).
    pub fn intersects(&self, dirty: &DirtyCells) -> bool {
        if dirty.is_empty() {
            return false;
        }
        if self.all || dirty.all {
            return true;
        }
        for s in &self.strata {
            if let Some(d) = dirty.strata.iter().find(|d| d.key == s.key) {
                for a in &s.rects {
                    if d.rects.iter().any(|b| overlaps(a, b)) {
                        return true;
                    }
                }
            }
        }
        false
    }
}

/// Accumulated damage from edits: per-stratum quantized rects covering the
/// old and new inflated geometry of every edited obstacle since the last
/// re-route. One `DirtyCells` per obstacle library plus one per board.
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

    /// Adds one quantized damage rect on a stratum.
    pub fn add(&mut self, key: StratumKey, rect: [i64; 4]) {
        if self.all {
            return;
        }
        stratum_mut(&mut self.strata, key).add(rect);
    }

    /// Total dirty cells, summed over strata.
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
    use meander_geom::Point;

    fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> Rect {
        Rect::new(Point::new(x0, y0), Point::new(x1, y1))
    }

    #[test]
    fn quantize_floors_like_the_grid() {
        // Mirrors SegmentGrid::cell_coord: (v / cell).floor().
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
    }

    #[test]
    fn strata_are_kept_apart() {
        let mut t = CellTouches::new();
        t.record(1.0, 0.0, &rect(0.0, 0.0, 1.0, 1.0));
        t.record(2.0, 0.5, &rect(0.0, 0.0, 1.0, 1.0));
        assert_eq!(t.strata().count(), 2);

        let mut d = DirtyCells::new();
        // Damage on a stratum the unit never touched: no intersection.
        d.add(StratumKey::new(8.0, 0.0), [0, 0, 100, 100]);
        assert!(!t.intersects(&d));
        // Same stratum, disjoint cells: still clean.
        d.add(StratumKey::new(1.0, 0.0), [50, 50, 60, 60]);
        assert!(!t.intersects(&d));
        // Same stratum, overlapping cells: dirty.
        d.add(StratumKey::new(1.0, 0.0), [1, 1, 3, 3]);
        assert!(t.intersects(&d));
    }

    #[test]
    fn mark_all_is_conservative_but_ignores_empty_damage() {
        let mut t = CellTouches::new();
        t.mark_all();
        assert!(t.all);
        let mut d = DirtyCells::new();
        assert!(!t.intersects(&d)); // no damage → nothing to re-route
        d.add(StratumKey::new(1.0, 0.0), [0, 0, 0, 0]);
        assert!(t.intersects(&d));

        let clean = CellTouches::new();
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
        // Still a superset: every recorded window intersects.
        let mut d = DirtyCells::new();
        d.add(StratumKey::new(1.0, 0.0), [0, 0, 1, 1]);
        assert!(t.intersects(&d));
    }
}
