//! The board: the aggregate layout object.

use crate::area::RoutableArea;
use crate::diffpair::DiffPair;
use crate::group::MatchGroup;
use crate::obstacle::Obstacle;
use crate::trace::{Trace, TraceId};
use meander_drc::{CheckInput, DesignRuleArea, TraceGeometry, Violation};
use meander_geom::{Polygon, Rect};
use std::collections::HashMap;
use std::fmt;

/// A PCB layout: outline, obstacles, traces, matching groups, differential
/// pairs, design-rule areas, and per-trace routable areas.
///
/// `Board` owns all entities and hands out ids; the router mutates traces
/// through [`Board::trace_mut`] and validates results with
/// [`Board::check`].
#[derive(Debug, Clone, Default)]
pub struct Board {
    outline: Option<Rect>,
    traces: Vec<Trace>,
    obstacles: Vec<Obstacle>,
    groups: Vec<MatchGroup>,
    pairs: Vec<DiffPair>,
    rule_areas: Vec<DesignRuleArea>,
    areas: HashMap<TraceId, RoutableArea>,
}

impl Board {
    /// Creates an empty board with the given outline.
    pub fn new(outline: Rect) -> Self {
        Board {
            outline: Some(outline),
            ..Board::default()
        }
    }

    /// Board outline, if set.
    #[inline]
    pub fn outline(&self) -> Option<Rect> {
        self.outline
    }

    /// Sets the outline, keeping every entity.
    pub(crate) fn set_outline(&mut self, outline: Rect) {
        self.outline = Some(outline);
    }

    /// Adds a trace, returning its id.
    pub fn add_trace(&mut self, trace: Trace) -> TraceId {
        let id = TraceId(self.traces.len() as u32);
        self.traces.push(trace);
        id
    }

    /// Looks up a trace.
    pub fn trace(&self, id: TraceId) -> Option<&Trace> {
        self.traces.get(id.0 as usize)
    }

    /// Mutable trace access.
    pub fn trace_mut(&mut self, id: TraceId) -> Option<&mut Trace> {
        self.traces.get_mut(id.0 as usize)
    }

    /// All traces with their ids.
    pub fn traces(&self) -> impl Iterator<Item = (TraceId, &Trace)> {
        self.traces
            .iter()
            .enumerate()
            .map(|(i, t)| (TraceId(i as u32), t))
    }

    /// Number of traces.
    pub fn trace_count(&self) -> usize {
        self.traces.len()
    }

    /// Adds an obstacle.
    pub fn add_obstacle(&mut self, o: Obstacle) {
        self.obstacles.push(o);
    }

    /// Inserts obstacles *before* the existing ones, preserving both
    /// relative orders. [`crate::library::LibraryBoard::to_board`] uses
    /// this to materialize a library-referencing board with the library's
    /// obstacles in the leading positions — the order the shared routing
    /// path's polygon id space assumes.
    pub(crate) fn prepend_obstacles(&mut self, obstacles: impl IntoIterator<Item = Obstacle>) {
        let mut all: Vec<Obstacle> = obstacles.into_iter().collect();
        all.append(&mut self.obstacles);
        self.obstacles = all;
    }

    /// All obstacles.
    #[inline]
    pub fn obstacles(&self) -> &[Obstacle] {
        &self.obstacles
    }

    /// Replaces the obstacle at `idx` in place (position — and therefore
    /// the polygon id every routed trace saw it under — is preserved).
    /// Returns the old obstacle, or `None` when `idx` is out of range.
    pub fn replace_obstacle(&mut self, idx: usize, o: Obstacle) -> Option<Obstacle> {
        let slot = self.obstacles.get_mut(idx)?;
        Some(std::mem::replace(slot, o))
    }

    /// Removes and returns the obstacle at `idx`, preserving the relative
    /// order of the rest (edits must keep id order stable for the
    /// incremental serving loop's candidacy argument). `None` when out of
    /// range.
    pub fn remove_obstacle(&mut self, idx: usize) -> Option<Obstacle> {
        if idx < self.obstacles.len() {
            Some(self.obstacles.remove(idx))
        } else {
            None
        }
    }

    /// Adds a matching group.
    pub fn add_group(&mut self, g: MatchGroup) {
        self.groups.push(g);
    }

    /// All matching groups.
    #[inline]
    pub fn groups(&self) -> &[MatchGroup] {
        &self.groups
    }

    /// Adds a differential pair.
    pub fn add_pair(&mut self, p: DiffPair) {
        self.pairs.push(p);
    }

    /// All differential pairs.
    #[inline]
    pub fn pairs(&self) -> &[DiffPair] {
        &self.pairs
    }

    /// The differential pair containing `id`, if any.
    pub fn pair_of(&self, id: TraceId) -> Option<&DiffPair> {
        self.pairs.iter().find(|p| p.involves(id))
    }

    /// Adds a design-rule area.
    pub fn add_rule_area(&mut self, a: DesignRuleArea) {
        self.rule_areas.push(a);
    }

    /// All design-rule areas.
    #[inline]
    pub fn rule_areas(&self) -> &[DesignRuleArea] {
        &self.rule_areas
    }

    /// Assigns a routable area to a trace (replacing any previous one).
    pub fn set_area(&mut self, id: TraceId, area: RoutableArea) {
        self.areas.insert(id, area);
    }

    /// The routable area assigned to `id`, if any.
    pub fn area(&self, id: TraceId) -> Option<&RoutableArea> {
        self.areas.get(&id)
    }

    /// Adds one polygon to `id`'s routable area, creating the area if
    /// the trace has none.
    pub(crate) fn push_area_polygon(&mut self, id: TraceId, polygon: Polygon) {
        self.areas.entry(id).or_default().push(polygon);
    }

    /// Group lengths: current length of each member of `group`.
    pub fn group_lengths(&self, group: &MatchGroup) -> Vec<f64> {
        group
            .members()
            .iter()
            .map(|&id| self.trace(id).map(|t| t.length()).unwrap_or(0.0))
            .collect()
    }

    /// Runs the full DRC scan over the board.
    pub fn check(&self) -> Vec<Violation> {
        meander_drc::check_layout(&self.check_input())
    }

    /// The checker's view of the board: it borrows every centerline, area
    /// and obstacle polygon, so nothing is copied.
    pub fn check_input(&self) -> CheckInput<'_> {
        CheckInput {
            traces: self
                .traces()
                .map(|(id, t)| TraceGeometry {
                    id: id.0,
                    centerline: t.centerline(),
                    width: t.width(),
                    rules: *t.rules(),
                    area: self.area(id).map(|a| a.polygons()).unwrap_or_default(),
                    coupled_with: self
                        .pair_of(id)
                        .and_then(|p| p.partner(id))
                        .map(|pid| vec![pid.0])
                        .unwrap_or_default(),
                })
                .collect(),
            obstacles: self.obstacles.iter().map(|o| o.polygon()).collect(),
        }
    }
}

impl fmt::Display for Board {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "board: {} traces, {} obstacles, {} groups, {} pairs",
            self.traces.len(),
            self.obstacles.len(),
            self.groups.len(),
            self.pairs.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obstacle::ObstacleKind;
    use meander_geom::{Point, Polygon, Polyline};

    fn board_with_two_traces() -> (Board, TraceId, TraceId) {
        let mut b = Board::new(Rect::new(Point::new(0.0, 0.0), Point::new(200.0, 100.0)));
        let a = b.add_trace(Trace::new(
            "A",
            Polyline::new(vec![Point::new(0.0, 20.0), Point::new(200.0, 20.0)]),
            4.0,
        ));
        let c = b.add_trace(Trace::new(
            "B",
            Polyline::new(vec![Point::new(0.0, 70.0), Point::new(150.0, 70.0)]),
            4.0,
        ));
        (b, a, c)
    }

    #[test]
    fn ids_are_stable() {
        let (b, a, c) = board_with_two_traces();
        assert_eq!(a, TraceId(0));
        assert_eq!(c, TraceId(1));
        assert_eq!(b.trace(a).unwrap().name(), "A");
        assert_eq!(b.trace(c).unwrap().name(), "B");
        assert!(b.trace(TraceId(5)).is_none());
        assert_eq!(b.trace_count(), 2);
    }

    #[test]
    fn group_lengths_follow_members() {
        let (mut b, a, c) = board_with_two_traces();
        let g = MatchGroup::new("g", vec![a, c]);
        assert_eq!(b.group_lengths(&g), vec![200.0, 150.0]);
        assert_eq!(g.resolve_target(&b.group_lengths(&g)), 200.0);
        // Mutating a trace changes the group view.
        b.trace_mut(c).unwrap().set_centerline(Polyline::new(vec![
            Point::new(0.0, 70.0),
            Point::new(200.0, 70.0),
        ]));
        assert_eq!(b.group_lengths(&g), vec![200.0, 200.0]);
    }

    #[test]
    fn pair_lookup() {
        let (mut b, a, c) = board_with_two_traces();
        b.add_pair(DiffPair::new("P", a, c, 6.0));
        assert!(b.pair_of(a).is_some());
        assert_eq!(b.pair_of(a).unwrap().partner(a), Some(c));
        assert!(b.pair_of(TraceId(7)).is_none());
    }

    #[test]
    fn check_integrates_areas_and_obstacles() {
        let (mut b, a, _) = board_with_two_traces();
        // Clean board passes.
        assert!(b.check().is_empty());
        // Shrink trace A's area so it escapes → violation.
        b.set_area(
            a,
            RoutableArea::from_polygon(Polygon::rectangle(
                Point::new(0.0, 0.0),
                Point::new(50.0, 40.0),
            )),
        );
        let v = b.check();
        assert_eq!(v.len(), 1);
        assert!(matches!(v[0], Violation::OutsideRoutableArea { .. }));
    }

    #[test]
    fn obstacle_violation_through_board() {
        let (mut b, _, _) = board_with_two_traces();
        b.add_obstacle(Obstacle::new(
            Polygon::rectangle(Point::new(90.0, 22.0), Point::new(110.0, 30.0)),
            ObstacleKind::Keepout,
        ));
        let v = b.check();
        assert!(v
            .iter()
            .any(|v| matches!(v, Violation::TraceObstacleClearance { .. })));
    }
}
