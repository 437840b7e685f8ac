//! Incremental trace state for the extension loop.
//!
//! The naive Alg. 1 loop pays three per-iteration linear costs on the
//! growing trace: `Polyline::length()` in the loop condition, a point-equality
//! scan to re-locate the popped segment, and a full rebuild of the
//! other-segment URA list. [`TraceBuf`] eliminates all three:
//!
//! * vertices live in a slab threaded by a singly-linked `next` chain, so a
//!   splice never shifts indices;
//! * every segment is a *record* with a stable id — the work queue carries
//!   ids, and a popped id whose record was spliced away is dead (O(1) check,
//!   no geometric re-matching);
//! * the arc length is maintained incrementally on splice;
//! * a world-space [`SegmentGrid`] over the live segments answers "which
//!   other segments are near this window" for the URA constraints, with dead
//!   records filtered lazily at query time.

use meander_geom::{Point, Polyline, Rect, Segment};
use meander_index::{GridScratch, SegmentGrid};

const NIL: u32 = u32::MAX;

/// Linked-slab trace with stable segment ids and an incremental length.
#[derive(Debug)]
pub(crate) struct TraceBuf {
    /// Vertex slab.
    pts: Vec<Point>,
    /// Successor vertex id (`NIL` for the tail).
    next: Vec<u32>,
    /// First vertex id.
    head: u32,
    /// Cached arc length, updated on splice.
    length: f64,
    /// Segment record → start vertex id.
    seg_start: Vec<u32>,
    /// Segment record liveness (dead records were spliced away).
    seg_alive: Vec<bool>,
    /// Grid over live segment records (stale entries filtered at query).
    grid: SegmentGrid,
}

impl TraceBuf {
    /// Builds the buffer from a polyline; segment records are created in
    /// order, so ids `0..segment_count` seed the work queue.
    pub(crate) fn from_polyline(pl: &Polyline, cell: f64) -> Self {
        let pts: Vec<Point> = pl.points().to_vec();
        let n = pts.len();
        let next: Vec<u32> = (0..n)
            .map(|i| if i + 1 < n { (i + 1) as u32 } else { NIL })
            .collect();
        let mut buf = TraceBuf {
            pts,
            next,
            head: 0,
            length: pl.length(),
            seg_start: Vec::with_capacity(n - 1),
            seg_alive: Vec::with_capacity(n - 1),
            grid: SegmentGrid::new(cell.max(1e-6)),
        };
        for i in 0..n - 1 {
            buf.new_segment(i as u32);
        }
        buf
    }

    fn new_segment(&mut self, start: u32) -> u32 {
        let sid = self.seg_start.len() as u32;
        self.seg_start.push(start);
        self.seg_alive.push(true);
        let seg = Segment::new(
            self.pts[start as usize],
            self.pts[self.next[start as usize] as usize],
        );
        self.grid.insert(sid, &seg);
        sid
    }

    /// Current arc length (maintained incrementally).
    #[inline]
    pub(crate) fn length(&self) -> f64 {
        self.length
    }

    /// Number of segment records ever created.
    #[inline]
    pub(crate) fn segment_records(&self) -> usize {
        self.seg_start.len()
    }

    /// The geometry of segment `sid`, or `None` when the record is dead.
    pub(crate) fn segment(&self, sid: u32) -> Option<Segment> {
        if !*self.seg_alive.get(sid as usize)? {
            return None;
        }
        let a = self.seg_start[sid as usize];
        let b = self.next[a as usize];
        Some(Segment::new(self.pts[a as usize], self.pts[b as usize]))
    }

    /// Replaces live segment `sid` with the chain `replacement` (whose first
    /// and last points must coincide with the segment's endpoints within
    /// tolerance; the endpoints are overwritten with the supplied values,
    /// mirroring `Polyline::splice`). Returns the new segment ids in chain
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if `sid` is dead or the replacement ends don't match.
    pub(crate) fn splice(&mut self, sid: u32, replacement: &[Point]) -> Vec<u32> {
        assert!(self.seg_alive[sid as usize], "splicing a dead segment");
        assert!(
            replacement.len() >= 2,
            "replacement needs at least 2 points"
        );
        let u = self.seg_start[sid as usize];
        let v = self.next[u as usize];
        assert!(
            replacement[0].approx_eq(self.pts[u as usize]),
            "replacement must start at the segment start"
        );
        assert!(
            replacement[replacement.len() - 1].approx_eq(self.pts[v as usize]),
            "replacement must end at the segment end"
        );

        let old_len = self.pts[u as usize].distance(self.pts[v as usize]);
        self.seg_alive[sid as usize] = false;
        self.pts[u as usize] = replacement[0];
        self.pts[v as usize] = replacement[replacement.len() - 1];

        // Thread the interior vertices.
        let mut prev = u;
        for &p in &replacement[1..replacement.len() - 1] {
            let id = self.pts.len() as u32;
            self.pts.push(p);
            self.next.push(NIL);
            self.next[prev as usize] = id;
            prev = id;
        }
        self.next[prev as usize] = v;

        // Create records for the new chain.
        let mut ids = Vec::with_capacity(replacement.len() - 1);
        let mut new_len = 0.0;
        let mut w = u;
        for _ in 0..replacement.len() - 1 {
            ids.push(self.new_segment(w));
            let x = self.next[w as usize];
            new_len += self.pts[w as usize].distance(self.pts[x as usize]);
            w = x;
        }
        self.length += new_len - old_len;
        ids
    }

    /// Live segment ids whose bbox-registered cells intersect `window`,
    /// excluding `exclude`. A conservative superset in ascending id order.
    pub(crate) fn nearby_segments(
        &self,
        window: &Rect,
        exclude: u32,
        scratch: &mut GridScratch,
        buf: &mut Vec<u32>,
        out: &mut Vec<u32>,
    ) {
        self.grid.query_scratch(window, scratch, buf);
        out.clear();
        for &sid in buf.iter() {
            if sid != exclude && self.seg_alive[sid as usize] {
                out.push(sid);
            }
        }
    }

    /// Materializes the current geometry as a [`Polyline`].
    pub(crate) fn to_polyline(&self) -> Polyline {
        let mut pts = Vec::with_capacity(self.pts.len());
        let mut v = self.head;
        while v != NIL {
            pts.push(self.pts[v as usize]);
            v = self.next[v as usize];
        }
        Polyline::new(pts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square_wave() -> Polyline {
        Polyline::new(vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(10.0, 5.0),
            Point::new(20.0, 5.0),
        ])
    }

    #[test]
    fn round_trips_polyline() {
        let pl = square_wave();
        let buf = TraceBuf::from_polyline(&pl, 4.0);
        assert_eq!(buf.to_polyline(), pl);
        assert!((buf.length() - pl.length()).abs() < 1e-12);
        for sid in 0..3u32 {
            assert_eq!(buf.segment(sid).unwrap(), pl.segment(sid as usize));
        }
    }

    #[test]
    fn splice_updates_length_and_kills_record() {
        let pl = square_wave();
        let mut buf = TraceBuf::from_polyline(&pl, 4.0);
        // Detour on the first segment: + 2 * 3 of length.
        let ids = buf.splice(
            0,
            &[
                Point::new(0.0, 0.0),
                Point::new(2.0, 0.0),
                Point::new(2.0, 3.0),
                Point::new(6.0, 3.0),
                Point::new(6.0, 0.0),
                Point::new(10.0, 0.0),
            ],
        );
        assert_eq!(ids.len(), 5);
        assert!(buf.segment(0).is_none(), "old record must die");
        assert!((buf.length() - (pl.length() + 6.0)).abs() < 1e-9);
        let out = buf.to_polyline();
        assert!((out.length() - buf.length()).abs() < 1e-9);
        assert_eq!(out.point_count(), 8);
        assert_eq!(out.end(), Point::new(20.0, 5.0));
        // New records are live and geometric.
        assert_eq!(
            buf.segment(ids[1]).unwrap(),
            Segment::new(Point::new(2.0, 0.0), Point::new(2.0, 3.0))
        );
    }

    #[test]
    fn nearby_segments_excludes_and_filters_dead() {
        let pl = square_wave();
        let mut buf = TraceBuf::from_polyline(&pl, 2.0);
        let mut scratch = GridScratch::new();
        let (mut raw, mut out) = (Vec::new(), Vec::new());
        let everywhere = Rect::new(Point::new(-50.0, -50.0), Point::new(50.0, 50.0));
        buf.nearby_segments(&everywhere, 1, &mut scratch, &mut raw, &mut out);
        assert_eq!(out, vec![0, 2]);

        buf.splice(
            0,
            &[
                Point::new(0.0, 0.0),
                Point::new(5.0, 0.0),
                Point::new(10.0, 0.0),
            ],
        );
        buf.nearby_segments(&everywhere, NIL, &mut scratch, &mut raw, &mut out);
        assert_eq!(out, vec![1, 2, 3, 4], "dead record 0 filtered");

        // Window far from the vertical jog sees only horizontal runs.
        let near_start = Rect::new(Point::new(-1.0, -1.0), Point::new(3.0, 1.0));
        buf.nearby_segments(&near_start, NIL, &mut scratch, &mut raw, &mut out);
        assert!(out.contains(&3));
        assert!(!out.contains(&2));
    }

    #[test]
    #[should_panic(expected = "dead segment")]
    fn double_splice_panics() {
        let mut buf = TraceBuf::from_polyline(&square_wave(), 4.0);
        let mid = [
            Point::new(0.0, 0.0),
            Point::new(5.0, 0.0),
            Point::new(10.0, 0.0),
        ];
        buf.splice(0, &mid);
        buf.splice(0, &mid);
    }
}
