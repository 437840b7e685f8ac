//! Content-addressed result cache: routed group geometry keyed by what
//! the router *sees*, proven exact by determinism.
//!
//! ## Why a hit is indistinguishable from a re-route
//!
//! The engine is deterministic and bit-identical across every proven
//! knob (worker count, sharing mode, batch kernels, index kind). A routed
//! group is therefore a pure function of
//!
//! * the obstacle library's content ([`CacheKey::library_root`] — a
//!   Merkle root, [`meander_layout::hash::LibraryCommitment`]),
//! * the board's local content ([`CacheKey::board_local_hash`] —
//!   [`meander_layout::hash::hash_board_local`], which pins the trace id
//!   space, every centerline, every local obstacle, and the group list),
//! * the group's own content and position ([`CacheKey::group_hash`]),
//! * the rules its units carry plus the *output-affecting* engine knobs
//!   ([`CacheKey::rules_hash`], `engine_identity`).
//!
//! Equal keys ⇒ identical router input ⇒ (determinism) identical routed
//! floats. So serving a cached entry is not an approximation that needs a
//! tolerance — it is the same bit stream the router would produce,
//! property-tested in `tests/cache.rs` (cache-on vs cache-off,
//! bit-compared across worker counts and sharing modes).
//!
//! Knobs that are *proven* bit-identical (batch kernels, index kind,
//! parallelism, sharing) are deliberately excluded from
//! `engine_identity`, so those engine shapes share entries; the knobs
//! that change the output (the iteration budget and the two ablation
//! switches) are folded in, so a config change can never serve a stale
//! shape. There is one engine, so no knob selects another.
//!
//! ## Invalidation composes with damage tracking
//!
//! Keys are content-addressed, so a stale entry is *unreachable* by
//! construction — correctness never depends on eviction. Precision does:
//! a library edit moves `library_root`, which would orphan every entry
//! under the old root. Instead of abandoning them,
//! `ResultCache::apply_library_edit` walks the old root's entries with
//! the edit's damage ([`DirtyCells`]: the inflated bboxes of the edited
//! obstacles, old and new) and the per-entry query windows recorded at
//! insert time, asking of each pair the engine's own candidacy test
//! ([`meander_index::reaches`]):
//!
//! * damage reaches a window → **evicted** (the edit may have changed
//!   what a candidate query answered);
//! * damage reaches no window → **re-keyed** to the new root — by the
//!   serving session's soundness argument the entry's units would replay
//!   bit-identically against the edited library, so the bytes stored
//!   under the old root are exactly what a re-route under the new root
//!   would produce.
//!
//! Board-local edits do the same along `board_local_hash`
//! (`ResultCache::apply_board_edit`); structural edits drop the edited
//! board's keys wholesale (`ResultCache::drop_board`). The
//! invalidation-precision counters ([`CacheStats::invalidated`],
//! [`CacheStats::rekeyed`]) are what the bench asserts on.

use meander_core::{CellTouches, DirtyCells, ExtendConfig, TraceReport, UnitInput, UnitOutput};
use meander_geom::Polyline;
use meander_layout::hash::{hash_board_local, hash_group, hash_rules, library_root, ContentHasher};
use meander_layout::{LibraryBoard, TraceId};
use std::collections::hash_map::Entry as MapEntry;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// What a routed group is a function of. Two jobs with equal keys are
/// identical router inputs (module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Merkle root of the referenced obstacle library's content.
    pub library_root: u64,
    /// Units' rule sets (in unit order) + output-affecting engine knobs.
    pub rules_hash: u64,
    /// The board's local content digest.
    pub board_local_hash: u64,
    /// The group's content, its board-local index, and its resolved
    /// target.
    pub group_hash: u64,
}

/// One cached unit: the geometry it writes back, its report floats, and
/// the windows its candidate queries touched (recorded at insert time —
/// the handle invalidation tests entries with).
#[derive(Debug, Clone)]
pub(crate) struct CachedUnit {
    updates: Vec<(TraceId, Polyline)>,
    reports: Vec<TraceReport>,
    touches: CellTouches,
}

impl CachedUnit {
    /// Captures a routed unit's output and recorded touches.
    pub(crate) fn new(out: &UnitOutput, touches: CellTouches) -> CachedUnit {
        CachedUnit {
            updates: out.updates().to_vec(),
            reports: out.reports().to_vec(),
            touches,
        }
    }

    /// Replays the unit as an output. Busy time is zero: a hit does no
    /// routing work (wall-clock fields are excluded from bit-identity).
    pub(crate) fn to_output(&self) -> UnitOutput {
        UnitOutput::from_parts(Duration::ZERO, self.updates.clone(), self.reports.clone())
    }

    /// The touched windows recorded when the unit routed.
    pub(crate) fn touches(&self) -> &CellTouches {
        &self.touches
    }
}

/// One cached group: per-unit results in unit order.
#[derive(Debug, Clone)]
pub(crate) struct CachedGroup {
    units: Vec<CachedUnit>,
    /// Approximate heap footprint, charged against the byte budget.
    bytes: usize,
}

impl CachedGroup {
    /// Bundles a routed group's units.
    pub(crate) fn new(units: Vec<CachedUnit>) -> CachedGroup {
        let bytes = units
            .iter()
            .map(|u| {
                let geometry: usize = u
                    .updates
                    .iter()
                    .map(|(_, pl)| 16 * pl.points().len() + 24)
                    .sum();
                // Reports are 5 words each; touches ~4 words per rect.
                geometry + 40 * u.reports.len() + 32 * u.touches.rect_count() + 64
            })
            .sum();
        CachedGroup { units, bytes }
    }

    /// The cached units, in unit order.
    pub(crate) fn units(&self) -> &[CachedUnit] {
        &self.units
    }

    fn touches_intersect(&self, dirty: &DirtyCells) -> bool {
        self.units.iter().any(|u| u.touches.intersects(dirty))
    }
}

/// Hit/miss/churn counters, cumulative over the cache's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that returned an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries inserted (an insert over an existing key is a no-op and
    /// does not count).
    pub inserts: u64,
    /// Entries evicted by the byte-budget LRU.
    pub evictions: u64,
    /// Entries evicted by edit invalidation (their touches intersected
    /// the damage, or their board was structurally edited).
    pub invalidated: u64,
    /// Entries that survived an edit and were re-keyed to the new
    /// root/digest (their touches missed the damage).
    pub rekeyed: u64,
}

#[derive(Debug)]
struct Entry {
    /// `Arc` so a lookup hands out a handle instead of cloning the
    /// group's geometry — per-unit packets consult the same entry once
    /// per unit, which would otherwise clone the whole group each time.
    value: Arc<CachedGroup>,
    /// LRU clock stamp of the last lookup or insert.
    used: u64,
}

#[derive(Debug, Default)]
struct CacheInner {
    map: HashMap<CacheKey, Entry>,
    bytes: usize,
    clock: u64,
    stats: CacheStats,
}

/// A byte-budgeted, LRU-evicting result cache, shared across fleets and
/// sessions behind an `Arc` (interior mutability; every method takes
/// `&self`).
#[derive(Debug)]
pub struct ResultCache {
    inner: Mutex<CacheInner>,
    budget: usize,
}

/// Default byte budget: enough for tens of thousands of serving-size
/// group entries.
pub const DEFAULT_CACHE_BUDGET: usize = 256 << 20;

impl Default for ResultCache {
    fn default() -> Self {
        ResultCache::new(DEFAULT_CACHE_BUDGET)
    }
}

impl ResultCache {
    /// An empty cache holding at most ~`budget` bytes of entries.
    pub fn new(budget: usize) -> ResultCache {
        ResultCache {
            inner: Mutex::new(CacheInner::default()),
            budget,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CacheInner> {
        // A panic while holding this mutex can only come from OOM inside
        // clone/insert; recover the map rather than poisoning every
        // future fleet run.
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// The entry under `key`, counting a hit or miss. The returned handle
    /// shares the stored group (no geometry is cloned).
    pub(crate) fn lookup(&self, key: &CacheKey) -> Option<Arc<CachedGroup>> {
        let mut inner = self.lock();
        inner.clock += 1;
        let clock = inner.clock;
        match inner.map.get_mut(key) {
            Some(e) => {
                e.used = clock;
                let value = Arc::clone(&e.value);
                inner.stats.hits += 1;
                Some(value)
            }
            None => {
                inner.stats.misses += 1;
                None
            }
        }
    }

    /// Inserts `value` under `key` unless present (content-addressed
    /// entries are immutable: an existing entry already holds these
    /// bytes). Evicts least-recently-used entries if the budget
    /// overflows. Returns `true` when the entry was actually inserted.
    pub(crate) fn insert(&self, key: CacheKey, value: CachedGroup) -> bool {
        let mut inner = self.lock();
        if inner.map.contains_key(&key) {
            return false;
        }
        inner.clock += 1;
        let clock = inner.clock;
        inner.bytes += value.bytes;
        inner.map.insert(
            key,
            Entry {
                value: Arc::new(value),
                used: clock,
            },
        );
        inner.stats.inserts += 1;
        while inner.bytes > self.budget && inner.map.len() > 1 {
            let lru = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.used)
                .map(|(k, _)| *k)
                .expect("non-empty map");
            if let Some(e) = inner.map.remove(&lru) {
                inner.bytes -= e.value.bytes;
                inner.stats.evictions += 1;
            }
        }
        true
    }

    /// `true` when `key` has an entry (no counter side effects).
    pub fn contains(&self, key: &CacheKey) -> bool {
        self.lock().map.contains_key(key)
    }

    /// Entry count.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// `true` when the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Estimated bytes currently held.
    pub fn bytes(&self) -> usize {
        self.lock().bytes
    }

    /// A snapshot of the lifetime counters.
    pub fn stats(&self) -> CacheStats {
        self.lock().stats
    }

    /// A library's content moved `old_root → new_root` with `damage`
    /// (the inflated old+new bboxes of the edited obstacles). Entries
    /// under `old_root` with a window the damage reaches are evicted; the
    /// rest are re-keyed to `new_root` — sound because a unit none of
    /// whose candidate queries the damage reaches replays
    /// bit-identically against the edited library (module docs).
    pub(crate) fn apply_library_edit(&self, old_root: u64, new_root: u64, damage: &DirtyCells) {
        if old_root == new_root {
            return;
        }
        self.retarget(
            |k| k.library_root == old_root,
            |k| CacheKey {
                library_root: new_root,
                ..k
            },
            damage,
        );
    }

    /// A board's local content moved `old_hash → new_hash` under
    /// obstacle-edit damage — same evict/re-key walk as
    /// [`ResultCache::apply_library_edit`], along the board component.
    /// Callers must only use this for *non-structural* edits (obstacle
    /// churn): structural edits change the planned units themselves and
    /// must go through [`ResultCache::drop_board`].
    pub(crate) fn apply_board_edit(&self, old_hash: u64, new_hash: u64, damage: &DirtyCells) {
        if old_hash == new_hash {
            return;
        }
        self.retarget(
            |k| k.board_local_hash == old_hash,
            |k| CacheKey {
                board_local_hash: new_hash,
                ..k
            },
            damage,
        );
    }

    /// Drops every entry of board content `board_local_hash` (structural
    /// edit: the board's unit plan itself changed, so no entry under the
    /// old digest can be re-keyed). Counted as invalidated.
    pub(crate) fn drop_board(&self, board_local_hash: u64) {
        let mut inner = self.lock();
        let doomed: Vec<CacheKey> = inner
            .map
            .keys()
            .filter(|k| k.board_local_hash == board_local_hash)
            .copied()
            .collect();
        for k in doomed {
            if let Some(e) = inner.map.remove(&k) {
                inner.bytes -= e.value.bytes;
                inner.stats.invalidated += 1;
            }
        }
    }

    fn retarget(
        &self,
        selects: impl Fn(&CacheKey) -> bool,
        rekey: impl Fn(CacheKey) -> CacheKey,
        damage: &DirtyCells,
    ) {
        let mut inner = self.lock();
        let affected: Vec<CacheKey> = inner.map.keys().filter(|k| selects(k)).copied().collect();
        for k in affected {
            let Some(entry) = inner.map.remove(&k) else {
                continue;
            };
            if entry.value.touches_intersect(damage) {
                inner.bytes -= entry.value.bytes;
                inner.stats.invalidated += 1;
            } else {
                inner.stats.rekeyed += 1;
                // The new key may already hold an entry (a twin board
                // re-inserted first); keep the existing one.
                let new_key = rekey(k);
                let dropped = match inner.map.entry(new_key) {
                    MapEntry::Occupied(_) => Some(entry.value.bytes),
                    MapEntry::Vacant(v) => {
                        v.insert(entry);
                        None
                    }
                };
                if let Some(bytes) = dropped {
                    inner.bytes -= bytes;
                }
            }
        }
    }
}

/// Digest of the *output-affecting* engine knobs. Folded into
/// [`CacheKey::rules_hash`] so a config change can never serve a stale
/// shape. Knobs proven bit-identical (batch kernels, index kind,
/// `parallel`, library sharing, worker count) are excluded —
/// engine shapes and worker counts share entries by design. The
/// engine's constants (`meander_core::config`) need no digest: a build
/// that changes one starts with an empty cache.
pub(crate) fn engine_identity(extend: &ExtendConfig) -> u64 {
    let mut h = ContentHasher::new(0x656e_6769_6e65_0000); // "engine"
    h.u64(extend.max_iterations as u64)
        .u64(extend.connect_priority as u64)
        .u64(extend.requeue as u64);
    h.finish()
}

/// [`CacheKey::rules_hash`] for a planned group: the units' rule sets in
/// unit order, folded with [`engine_identity`].
pub(crate) fn rules_key(units: &[UnitInput], extend: &ExtendConfig) -> u64 {
    let mut h = ContentHasher::new(0x756e_6974_7275_6c65); // "unitrule"
    h.u64(engine_identity(extend));
    h.len(units.len());
    for u in units {
        h.u64(hash_rules(u.rules()));
    }
    h.finish()
}

/// [`CacheKey::group_hash`] for group `index` of a board: the group's
/// content digest, its board-local position (two content-equal groups at
/// different indices are distinct jobs), and its resolved target.
pub(crate) fn group_key(group: &meander_layout::MatchGroup, index: usize, target: f64) -> u64 {
    let mut h = ContentHasher::new(0x6a6f_6267_726f_7570); // "jobgroup"
    h.u64(hash_group(group)).u64(index as u64).f64(target);
    h.finish()
}

/// The [`CacheKey`] of group `g` of `board` — planned with `target` and
/// `units` — under the content identity `(library_root,
/// board_local_hash)`: the one derivation fleets, warm-up, sessions, and
/// [`board_keys`] share, so they all hit each other's entries.
pub(crate) fn key_for(
    (library_root, board_local_hash): (u64, u64),
    board: &meander_layout::Board,
    g: usize,
    target: f64,
    units: &[UnitInput],
    extend: &ExtendConfig,
) -> CacheKey {
    CacheKey {
        library_root,
        rules_hash: rules_key(units, extend),
        board_local_hash,
        group_hash: group_key(&board.groups()[g], g, target),
    }
}

/// The cache keys of every group of `lb`, in group order — what the
/// engine derives per job, exposed for benches and tests that need to
/// probe specific entries.
pub fn board_keys(lb: &LibraryBoard, extend: &ExtendConfig) -> Vec<CacheKey> {
    let ident = (library_root(lb.library()), hash_board_local(lb.board()));
    meander_core::plan_board_units(lb.board())
        .into_iter()
        .enumerate()
        .map(|(g, (target, units))| key_for(ident, lb.board(), g, target, &units, extend))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use meander_core::IndexKind;

    fn key(n: u64) -> CacheKey {
        CacheKey {
            library_root: 1,
            rules_hash: 2,
            board_local_hash: 3,
            group_hash: n,
        }
    }

    fn entry_of_bytes(points: usize) -> CachedGroup {
        let pl = Polyline::new(
            (0..points.max(2))
                .map(|i| meander_geom::Point::new(i as f64, 0.0))
                .collect(),
        );
        let out = UnitOutput::from_parts(
            Duration::ZERO,
            vec![(TraceId(0), pl)],
            vec![TraceReport {
                id: TraceId(0),
                initial: 1.0,
                achieved: 2.0,
                patterns: 3,
                via_msdtw: false,
            }],
        );
        CachedGroup::new(vec![CachedUnit::new(&out, CellTouches::new())])
    }

    #[test]
    fn hit_miss_insert_counters() {
        let cache = ResultCache::default();
        assert!(cache.lookup(&key(1)).is_none());
        assert!(cache.insert(key(1), entry_of_bytes(4)));
        assert!(cache.lookup(&key(1)).is_some());
        // Double insert is a no-op.
        assert!(!cache.insert(key(1), entry_of_bytes(4)));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.inserts), (1, 1, 1));
        assert_eq!(cache.len(), 1);
        assert!(cache.bytes() > 0);
    }

    #[test]
    fn lru_respects_byte_budget() {
        let one = entry_of_bytes(64).bytes;
        let cache = ResultCache::new(3 * one + one / 2);
        for n in 0..4 {
            cache.insert(key(n), entry_of_bytes(64));
            // Touch 0 so it stays warm.
            let _ = cache.lookup(&key(0));
        }
        assert!(cache.bytes() <= 3 * one + one / 2);
        assert!(cache.stats().evictions >= 1);
        // 0 was kept warm; the eviction fell on a colder key.
        assert!(cache.contains(&key(0)));
    }

    #[test]
    fn library_edit_evicts_intersecting_and_rekeys_the_rest() {
        let cache = ResultCache::default();
        // Entry A's window overlaps the damage; entry B's lies far away.
        let mut touched = CellTouches::new();
        touched.record(
            8.0,
            4.0,
            &meander_geom::Rect::new(
                meander_geom::Point::new(0.0, 0.0),
                meander_geom::Point::new(16.0, 16.0),
            ),
        );
        let mut far = CellTouches::new();
        far.record(
            8.0,
            4.0,
            &meander_geom::Rect::new(
                meander_geom::Point::new(800.0, 800.0),
                meander_geom::Point::new(816.0, 816.0),
            ),
        );
        let out = UnitOutput::from_parts(Duration::ZERO, Vec::new(), Vec::new());
        cache.insert(
            key(1),
            CachedGroup::new(vec![CachedUnit::new(&out, touched)]),
        );
        cache.insert(key(2), CachedGroup::new(vec![CachedUnit::new(&out, far)]));

        let mut damage = DirtyCells::new();
        damage.add(
            meander_core::StratumKey::new(8.0, 4.0),
            meander_geom::Rect::new(
                meander_geom::Point::new(4.0, 4.0),
                meander_geom::Point::new(12.0, 12.0),
            ),
        );
        cache.apply_library_edit(1, 99, &damage);
        let s = cache.stats();
        assert_eq!(s.invalidated, 1);
        assert_eq!(s.rekeyed, 1);
        // The survivor answers under the new root, not the old.
        assert!(cache.contains(&CacheKey {
            library_root: 99,
            ..key(2)
        }));
        assert!(!cache.contains(&key(1)));
        assert!(!cache.contains(&key(2)));
    }

    #[test]
    fn drop_board_removes_only_that_content() {
        let cache = ResultCache::default();
        cache.insert(key(1), entry_of_bytes(4));
        let other = CacheKey {
            board_local_hash: 77,
            ..key(1)
        };
        cache.insert(other, entry_of_bytes(4));
        cache.drop_board(3);
        assert!(!cache.contains(&key(1)));
        assert!(cache.contains(&other));
        assert_eq!(cache.stats().invalidated, 1);
    }

    /// The engine digest moves with every output-affecting knob and with
    /// none of the knobs proven bit-identical.
    #[test]
    fn engine_identity_separates_exactly_the_output_affecting_knobs() {
        let base = ExtendConfig::default();
        let id = engine_identity(&base);
        let affecting = [
            ExtendConfig {
                max_iterations: base.max_iterations + 1,
                ..base.clone()
            },
            ExtendConfig {
                connect_priority: !base.connect_priority,
                ..base.clone()
            },
            ExtendConfig {
                requeue: !base.requeue,
                ..base.clone()
            },
        ];
        for c in &affecting {
            assert_ne!(engine_identity(c), id, "{c:?}");
        }
        for index in [IndexKind::Grid, IndexKind::RTree] {
            for batch_kernels in [false, true] {
                for parallel in [false, true] {
                    let c = ExtendConfig {
                        index,
                        batch_kernels,
                        parallel,
                        ..base.clone()
                    };
                    assert_eq!(engine_identity(&c), id, "{c:?}");
                }
            }
        }
    }
}
