// Cross-candidate selection cache for the validation hot path.
//
// Apriori-mined candidate queries share almost all of their predicate
// atoms by construction (a level-3 conjunction reuses the exact atoms
// of its level-1/2 ancestors), yet the executor used to rescan R for
// every candidate. The AtomSelectionCache memoizes the per-atom
// selection bitmaps produced by the kernels in
// engine/selection_kernels.h, keyed by (table epoch, chunk index,
// atom), so a conjunction that has been seen atom-wise before resolves
// to a word-wise AND of cached bitmaps instead of a rescan. Keys
// compare by FULL equality — hash-only keying would make a collision
// silently serve the wrong selection. Chunked scans store one bitmap
// per chunk — morsel workers on different chunks never contend for the
// same key, and a zone-map-skipped chunk caches nothing.
//
// Retention is a byte budget with LRU eviction: entries are charged
// their bitmap's word-array size, the least-recently-used entries are
// dropped once the budget is exceeded, and bitmaps are handed out as
// shared_ptr<const SelectionBitmap> so an evicted bitmap stays alive
// for readers still holding it.
//
// Thread-safety: fully thread-safe. One cache is shared by all workers
// of the validator's parallel path within a run; every public method
// takes the internal paleo::Mutex. Bitmap *computation* happens outside
// the lock (callers compute on miss, then Insert) — two threads may
// race to compute the same atom, in which case the first Insert wins
// and the loser adopts the winner's bitmap, keeping every consumer on
// one shared copy.

#ifndef PALEO_ENGINE_ATOM_CACHE_H_
#define PALEO_ENGINE_ATOM_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <utility>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "engine/predicate.h"
#include "engine/selection_bitmap.h"
#include "obs/metrics.h"

namespace paleo {

/// \brief Thread-safe LRU cache of per-atom selection bitmaps.
class AtomSelectionCache {
 public:
  /// Registry-backed counters mirrored alongside the internal stats,
  /// all-null (one branch per event) by default. See
  /// paleo/pipeline_metrics.h for the paleo_cache_* series they back.
  struct MetricHandles {
    obs::Counter* hits = nullptr;
    obs::Counter* misses = nullptr;
    obs::Counter* evictions = nullptr;
    obs::Gauge* resident_bytes = nullptr;
    // Never incremented. perfbench is the only reader (it aggregate-
    // initialises all six fields); the next benchmark PR drops them.
    obs::Counter* conjunction_hits = nullptr;
    obs::Counter* conjunction_misses = nullptr;
  };

  /// Point-in-time counters (exact; taken under the mutex).
  struct Stats {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t evictions = 0;
    /// Allocation failures (real or injected) absorbed by shrinking
    /// the effective budget; see Insert().
    int64_t pressure_events = 0;
    size_t resident_bytes = 0;
    size_t entries = 0;
    /// Current retention budget: starts at byte_budget(), halves on
    /// each pressure event, 0 once retention shut down.
    size_t effective_budget_bytes = 0;
  };

  /// `byte_budget` bounds the resident bitmap bytes; 0 disables
  /// retention entirely (every Lookup misses, Insert stores nothing),
  /// which keeps the call sites branch-free.
  explicit AtomSelectionCache(size_t byte_budget)
      : AtomSelectionCache(byte_budget, MetricHandles{}) {}
  AtomSelectionCache(size_t byte_budget, MetricHandles metrics)
      : byte_budget_(byte_budget),
        metrics_(metrics),
        effective_budget_(byte_budget) {}

  AtomSelectionCache(const AtomSelectionCache&) = delete;
  AtomSelectionCache& operator=(const AtomSelectionCache&) = delete;

  /// The cached selection of `atom` over chunk `chunk` of the table
  /// stamped `epoch`, or nullptr on miss. A hit refreshes the entry's
  /// LRU position.
  std::shared_ptr<const SelectionBitmap> Lookup(uint64_t epoch,
                                                uint32_t chunk,
                                                const AtomicPredicate& atom);

  /// Inserts the freshly computed selection and returns the retained
  /// bitmap. First insert wins: if another thread raced the same key in,
  /// the existing bitmap is returned and `bitmap` is discarded, so all
  /// consumers share one copy. Evicts LRU entries past the byte budget.
  ///
  /// Memory-pressure degradation: when retaining the bitmap fails to
  /// allocate (a real bad_alloc or an injected fault), the cache
  /// halves its effective budget, evicts down to it, and hands the
  /// caller an UNRETAINED copy — the run keeps its correct bitmap and
  /// only loses reuse. Once the effective budget shrinks below a small
  /// floor, retention shuts down and under_pressure() turns true, at
  /// which point the executor degrades to its scalar path.
  std::shared_ptr<const SelectionBitmap> Insert(uint64_t epoch,
                                                uint32_t chunk,
                                                const AtomicPredicate& atom,
                                                SelectionBitmap bitmap);

  /// True once repeated allocation failures shut retention down; the
  /// executor then takes the scalar path. Lock-free, cheap enough for
  /// the per-execution check. relaxed: advisory one-way flag, no data
  /// is published through it.
  bool under_pressure() const {
    return retention_disabled_.load(std::memory_order_relaxed);
  }

  Stats stats() const;
  size_t byte_budget() const { return byte_budget_; }

 private:
  /// Fixed-size, allocation-free key (probed once per atom per chunk
  /// per execution — the hot path).
  struct Key {
    uint64_t epoch;
    uint32_t chunk;
    AtomicPredicate atom;
    bool operator==(const Key& other) const {
      return epoch == other.epoch && chunk == other.chunk &&
             atom == other.atom;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      uint64_t h = k.epoch * 0x9E3779B97F4A7C15ULL;
      h ^= (static_cast<uint64_t>(k.chunk) + 0x165667B19E3779F9ULL) *
           0x27D4EB2F165667C5ULL;
      h ^= static_cast<uint64_t>(k.atom.column) * 0xC2B2AE3D27D4EB4FULL;
      h = (h << 17) | (h >> 47);
      h ^= static_cast<uint64_t>(k.atom.kind);
      h ^= k.atom.value.Hash();
      if (k.atom.is_range()) {
        h = (h << 9) | (h >> 55);
        h ^= k.atom.high.Hash();
      }
      return static_cast<size_t>(h * 0xFF51AFD7ED558CCDULL);
    }
  };
  struct Entry {
    Key key;
    std::shared_ptr<const SelectionBitmap> bitmap;
    size_t bytes = 0;
  };
  using LruList = std::list<Entry>;

  /// Below this effective budget retention is pointless (a single
  /// bitmap word array usually exceeds it): shut retention down.
  static constexpr size_t kMinRetentionBytes = 4096;

  /// Drops LRU entries until the effective budget holds again.
  void EvictLocked() REQUIRES(mutex_);
  /// One pressure event: halve the effective budget and evict down to
  /// it; below the floor, shut retention down.
  void ShrinkOnPressureLocked() REQUIRES(mutex_);

  const size_t byte_budget_;
  const MetricHandles metrics_;
  // relaxed: one-way pressure flag read outside mutex_ (see
  // under_pressure()); all cache state is guarded by mutex_ below.
  std::atomic<bool> retention_disabled_{false};

  mutable Mutex mutex_;
  /// Front = most recently used.
  LruList lru_ GUARDED_BY(mutex_);
  std::unordered_map<Key, LruList::iterator, KeyHash> index_
      GUARDED_BY(mutex_);
  size_t effective_budget_ GUARDED_BY(mutex_) = 0;
  size_t resident_bytes_ GUARDED_BY(mutex_) = 0;
  int64_t hits_ GUARDED_BY(mutex_) = 0;
  int64_t misses_ GUARDED_BY(mutex_) = 0;
  int64_t evictions_ GUARDED_BY(mutex_) = 0;
  int64_t pressure_events_ GUARDED_BY(mutex_) = 0;
};

}  // namespace paleo

#endif  // PALEO_ENGINE_ATOM_CACHE_H_
