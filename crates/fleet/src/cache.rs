//! Content-addressed result cache: one routed unit's geometry per entry,
//! keyed by what the router *sees*, proven exact by determinism.
//!
//! ## Why a hit is indistinguishable from a re-route
//!
//! The engine is deterministic and bit-identical across every proven
//! knob (worker count, sharing mode, batch kernels, index kind), and each
//! matching unit (a trace or a differential pair) meanders inside its own
//! region against the obstacles alone. A routed unit is therefore a pure
//! function of
//!
//! * the obstacle library's content ([`CacheKey::library_root`] — a
//!   Merkle root, [`meander_layout::hash::library_root`]),
//! * the board's local content ([`CacheKey::board_local_hash`] —
//!   [`meander_layout::hash::hash_board_local`], which pins the trace id
//!   space, every centerline, every local obstacle, and the group list),
//! * its group's content and position ([`CacheKey::group_hash`]) and its
//!   index within the group ([`CacheKey::unit`]),
//! * the rules its group's units carry plus the *output-affecting* engine
//!   knobs ([`CacheKey::rules_hash`], `engine_identity`).
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
//! ## Edits need no invalidation
//!
//! Keys are content-addressed, so an entry can only ever serve the
//! content it was routed for. An edit moves the edited scope's digest —
//! [`CacheKey::library_root`] for a library edit,
//! [`CacheKey::board_local_hash`] for a board edit — and the next plan
//! keys the edited units under the new digest. Entries under the old
//! content stay exact for it: an undo, or a twin board that still holds
//! that content, hits them again; otherwise they age out under the
//! byte-budget LRU. Correctness never depends on eviction.
//!
//! The fleet pipeline is the cache's one client: batch fleets, warm-up,
//! and serving sessions all key units through `unit_keys`, and every
//! unit packet looks up its own key and, when it routed fresh, inserts
//! its own entry in the same packet body.

use meander_core::{CellTouches, ExtendConfig, TraceReport, UnitInput, UnitOutput};
use meander_geom::Polyline;
use meander_layout::hash::{hash_board_local, hash_group, hash_rules, library_root, ContentHasher};
use meander_layout::{LibraryBoard, TraceId};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// What a routed unit is a function of. Two unit packets with equal keys
/// are identical router inputs (module docs). The four digests are
/// derived once per group; the group's units differ only in
/// [`CacheKey::unit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Merkle root of the referenced obstacle library's content.
    pub library_root: u64,
    /// The group's unit rule sets (in unit order) + output-affecting
    /// engine knobs.
    pub rules_hash: u64,
    /// The board's local content digest.
    pub board_local_hash: u64,
    /// The group's content, its board-local index, and its resolved
    /// target.
    pub group_hash: u64,
    /// The unit's index within its group. The group digests pin every
    /// unit's input, so the index names exactly one of them.
    pub unit: usize,
}

/// One cache entry — one routed unit: the geometry it writes back, its
/// report floats, and the windows its candidate queries touched (recorded
/// at insert time — a serving session replaying the unit retains them to
/// test later damage against).
#[derive(Debug, Clone)]
pub(crate) struct CachedUnit {
    updates: Vec<(TraceId, Polyline)>,
    reports: Vec<TraceReport>,
    touches: CellTouches,
    /// Approximate heap footprint, charged against the byte budget.
    bytes: usize,
}

impl CachedUnit {
    /// Captures a routed unit's output and recorded touches.
    pub(crate) fn new(out: &UnitOutput, touches: CellTouches) -> CachedUnit {
        let geometry: usize = out
            .updates()
            .iter()
            .map(|(_, pl)| 16 * pl.points().len() + 24)
            .sum();
        // Reports are 5 words each; touches ~4 words per rect.
        let bytes = geometry + 40 * out.reports().len() + 32 * touches.rect_count() + 64;
        CachedUnit {
            updates: out.updates().to_vec(),
            reports: out.reports().to_vec(),
            touches,
            bytes,
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

/// Hit/miss/insert/eviction counters, cumulative over the cache's lifetime.
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
}

#[derive(Debug)]
struct Entry {
    /// `Arc` so a lookup hands out a handle instead of cloning the
    /// unit's geometry and touches under the lock — a replay copies only
    /// what its packet needs.
    value: Arc<CachedUnit>,
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

/// Default byte budget: enough for hundreds of thousands of serving-size
/// unit entries.
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
    /// shares the stored unit (no geometry is cloned).
    pub(crate) fn lookup(&self, key: &CacheKey) -> Option<Arc<CachedUnit>> {
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
    pub(crate) fn insert(&self, key: CacheKey, value: CachedUnit) -> bool {
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

    /// Entry count: one per cached unit.
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

/// [`CacheKey::rules_hash`] for a planned group: its units' rule sets in
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

/// The [`CacheKey`]s of group `g` of `board`'s units — planned with
/// `target` and `units` — in unit order, under the content identity
/// `(library_root, board_local_hash)`. The group's digests are derived
/// once; this is the one derivation fleets, warm-up, sessions, and
/// [`board_keys`] share, so they all hit each other's entries.
pub(crate) fn unit_keys(
    (library_root, board_local_hash): (u64, u64),
    board: &meander_layout::Board,
    g: usize,
    target: f64,
    units: &[UnitInput],
    extend: &ExtendConfig,
) -> Vec<CacheKey> {
    let rules_hash = rules_key(units, extend);
    let group_hash = group_key(&board.groups()[g], g, target);
    (0..units.len())
        .map(|unit| CacheKey {
            library_root,
            rules_hash,
            board_local_hash,
            group_hash,
            unit,
        })
        .collect()
}

/// The cache keys of every unit of `lb`, in `(group, unit)` order — what
/// the engine derives per packet, exposed for benches and tests that need
/// to probe specific entries.
pub fn board_keys(lb: &LibraryBoard, extend: &ExtendConfig) -> Vec<CacheKey> {
    let ident = (library_root(lb.library()), hash_board_local(lb.board()));
    meander_core::plan_board_units(lb.board())
        .into_iter()
        .enumerate()
        .flat_map(|(g, (target, units))| unit_keys(ident, lb.board(), g, target, &units, extend))
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
            unit: 0,
        }
    }

    fn entry_of_bytes(points: usize) -> CachedUnit {
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
        CachedUnit::new(&out, CellTouches::new())
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
