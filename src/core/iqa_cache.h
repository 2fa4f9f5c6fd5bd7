#ifndef DEEPEVEREST_CORE_IQA_CACHE_H_
#define DEEPEVEREST_CORE_IQA_CACHE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/logging.h"
#include "common/mutex.h"

namespace deepeverest {
namespace core {

/// \brief In-memory activation cache for Inter-Query Acceleration (§4.7.3),
/// sharded for concurrent query execution.
///
/// Caches *whole-layer* activation rows — the activations of every neuron in
/// a layer for one input — so a later query against a different neuron group
/// in the same layer can be served without re-running inference.
///
/// Entries are hashed onto `num_shards` independent shards, each protected
/// by its own mutex and carrying its own recency list and byte budget
/// (`capacity_bytes / num_shards`). Hit/miss/insert/evict counters are
/// per-shard atomics, so Stats reads never take a lock. With one shard the
/// behaviour is exactly the original single-threaded cache.
///
/// Eviction within a shard is **most recently used** (MRU) by default: NTA
/// processes partitions from most- to least-similar, so rows inserted early
/// in a query belong to the most informative inputs; under pressure the
/// cache sheds the latest rows and keeps the early ones. `kLru` is available
/// for workloads without that access pattern (e.g. uniform serving traffic).
///
/// Thread-safety: all public methods are safe to call concurrently. Lookup
/// copies the row out under the shard lock — no pointers into the cache
/// escape, so concurrent Insert/eviction can never invalidate a reader.
class IqaCache {
 public:
  enum class EvictionPolicy {
    kMru,  // paper §4.7.3 default
    kLru,
  };

  struct Stats {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t insertions = 0;
    int64_t evictions = 0;
  };

  /// Per-shard observability snapshot for ServiceStats dashboards.
  struct ShardSnapshot {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t insertions = 0;
    int64_t evictions = 0;
    uint64_t size_bytes = 0;
    uint64_t capacity_bytes = 0;
    size_t entry_count = 0;
  };

  explicit IqaCache(uint64_t capacity_bytes, int num_shards = 1,
                    EvictionPolicy policy = EvictionPolicy::kMru);

  IqaCache(const IqaCache&) = delete;
  IqaCache& operator=(const IqaCache&) = delete;

  /// Looks up (layer, input). On hit, copies the full row into `*row_out`
  /// and counts a hit; returns false (and counts a miss) when absent.
  bool Lookup(int layer, uint32_t input_id, std::vector<float>* row_out);

  /// Like Lookup but extracts only `neurons` (flat indices into the row)
  /// into `*out`, avoiding a full-row copy — the NTA hot path.
  bool Gather(int layer, uint32_t input_id,
              const std::vector<int64_t>& neurons, std::vector<float>* out);

  /// Inserts a full-layer row, evicting entries from the target shard if
  /// needed. Rows larger than the shard capacity are not cached.
  void Insert(int layer, uint32_t input_id, std::vector<float> row);

  /// Drops every entry (e.g. when the dataset or model changes).
  void Clear();

  uint64_t capacity_bytes() const { return capacity_bytes_; }
  int num_shards() const { return static_cast<int>(shards_.size()); }
  EvictionPolicy eviction_policy() const { return policy_; }

  /// Sums over shards. Consistent when quiescent; a live snapshot under
  /// concurrent traffic.
  uint64_t size_bytes() const;
  size_t entry_count() const;

  /// Aggregated counters across all shards (lock-free).
  Stats stats() const;

  /// One snapshot per shard (lock-free counters; sizes read under the
  /// shard lock).
  std::vector<ShardSnapshot> ShardSnapshots() const;

 private:
  struct Entry {
    std::vector<float> row;
    uint64_t last_use = 0;
  };

  /// One lock stripe: its own map, recency index, byte budget, and atomic
  /// counters, padded apart from its neighbours.
  struct Shard {
    mutable common::Mutex mu;
    uint64_t capacity_bytes = 0;  // set once at construction, then read-only
    uint64_t size_bytes GUARDED_BY(mu) = 0;
    uint64_t clock GUARDED_BY(mu) = 0;
    std::unordered_map<uint64_t, Entry> entries GUARDED_BY(mu);
    // last_use -> key, for O(log n) eviction from either end.
    std::map<uint64_t, uint64_t> by_recency GUARDED_BY(mu);
    std::atomic<int64_t> hits{0};
    std::atomic<int64_t> misses{0};
    std::atomic<int64_t> insertions{0};
    std::atomic<int64_t> evictions{0};
  };

  static uint64_t KeyOf(int layer, uint32_t input_id) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(layer)) << 32) |
           input_id;
  }
  static uint64_t BytesOf(const std::vector<float>& row) {
    return row.size() * sizeof(float) + 64;  // payload + bookkeeping estimate
  }

  Shard& ShardFor(uint64_t key);

  /// Finds (layer, input) in its shard, bumps recency and the hit/miss
  /// counters, and invokes `consume(row)` under the shard lock on a hit.
  template <typename Consumer>
  bool LookupInternal(int layer, uint32_t input_id, Consumer&& consume);

  void TouchLocked(Shard* shard, uint64_t key, Entry* entry)
      REQUIRES(shard->mu);

  uint64_t capacity_bytes_;
  EvictionPolicy policy_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace core
}  // namespace deepeverest

#endif  // DEEPEVEREST_CORE_IQA_CACHE_H_
