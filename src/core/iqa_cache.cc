#include "core/iqa_cache.h"

#include <algorithm>

namespace deepeverest {
namespace core {
namespace {

// splitmix64: decorrelates the (layer, input) key bits so consecutive input
// ids spread evenly across shards.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

IqaCache::IqaCache(uint64_t capacity_bytes, int num_shards,
                   EvictionPolicy policy)
    : capacity_bytes_(capacity_bytes), policy_(policy) {
  DE_CHECK_GT(num_shards, 0);
  shards_.reserve(static_cast<size_t>(num_shards));
  const uint64_t per_shard =
      std::max<uint64_t>(1, capacity_bytes / static_cast<uint64_t>(num_shards));
  for (int i = 0; i < num_shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->capacity_bytes = per_shard;
    shards_.push_back(std::move(shard));
  }
}

IqaCache::Shard& IqaCache::ShardFor(uint64_t key) {
  if (shards_.size() == 1) return *shards_[0];
  return *shards_[Mix(key) % shards_.size()];
}

template <typename Consumer>
bool IqaCache::LookupInternal(int layer, uint32_t input_id,
                              Consumer&& consume) {
  const uint64_t key = KeyOf(layer, input_id);
  Shard& shard = ShardFor(key);
  common::MutexLock lock(&shard.mu);
  auto it = shard.entries.find(key);
  if (it == shard.entries.end()) {
    shard.misses.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  shard.hits.fetch_add(1, std::memory_order_relaxed);
  TouchLocked(&shard, key, &it->second);
  consume(it->second.row);
  return true;
}

bool IqaCache::Lookup(int layer, uint32_t input_id,
                      std::vector<float>* row_out) {
  return LookupInternal(layer, input_id, [row_out](
                                             const std::vector<float>& row) {
    if (row_out != nullptr) *row_out = row;
  });
}

bool IqaCache::Gather(int layer, uint32_t input_id,
                      const std::vector<int64_t>& neurons,
                      std::vector<float>* out) {
  return LookupInternal(
      layer, input_id, [&neurons, out](const std::vector<float>& row) {
        out->resize(neurons.size());
        for (size_t i = 0; i < neurons.size(); ++i) {
          (*out)[i] = row[static_cast<size_t>(neurons[i])];
        }
      });
}

void IqaCache::TouchLocked(Shard* shard, uint64_t key, Entry* entry) {
  shard->by_recency.erase(entry->last_use);
  entry->last_use = ++shard->clock;
  shard->by_recency[entry->last_use] = key;
}

void IqaCache::Insert(int layer, uint32_t input_id, std::vector<float> row) {
  const uint64_t bytes = BytesOf(row);
  const uint64_t key = KeyOf(layer, input_id);
  Shard& shard = ShardFor(key);
  if (bytes > shard.capacity_bytes) return;  // can never fit

  common::MutexLock lock(&shard.mu);
  auto it = shard.entries.find(key);
  if (it != shard.entries.end()) {
    // Refresh in place.
    shard.size_bytes -= BytesOf(it->second.row);
    it->second.row = std::move(row);
    shard.size_bytes += BytesOf(it->second.row);
    TouchLocked(&shard, key, &it->second);
    return;
  }

  // Evict from the policy's end of the recency order until the row fits.
  while (shard.size_bytes + bytes > shard.capacity_bytes &&
         !shard.by_recency.empty()) {
    auto victim_pos = policy_ == EvictionPolicy::kMru
                          ? std::prev(shard.by_recency.end())
                          : shard.by_recency.begin();
    const uint64_t victim_key = victim_pos->second;
    auto victim = shard.entries.find(victim_key);
    DE_CHECK(victim != shard.entries.end());
    shard.size_bytes -= BytesOf(victim->second.row);
    shard.entries.erase(victim);
    shard.by_recency.erase(victim_pos);
    shard.evictions.fetch_add(1, std::memory_order_relaxed);
  }

  Entry entry;
  entry.row = std::move(row);
  entry.last_use = ++shard.clock;
  shard.by_recency[entry.last_use] = key;
  shard.size_bytes += BytesOf(entry.row);
  shard.entries.emplace(key, std::move(entry));
  shard.insertions.fetch_add(1, std::memory_order_relaxed);
}

void IqaCache::Clear() {
  for (auto& shard : shards_) {
    common::MutexLock lock(&shard->mu);
    shard->entries.clear();
    shard->by_recency.clear();
    shard->size_bytes = 0;
  }
}

uint64_t IqaCache::size_bytes() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    common::MutexLock lock(&shard->mu);
    total += shard->size_bytes;
  }
  return total;
}

size_t IqaCache::entry_count() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    common::MutexLock lock(&shard->mu);
    total += shard->entries.size();
  }
  return total;
}

IqaCache::Stats IqaCache::stats() const {
  Stats total;
  for (const auto& shard : shards_) {
    total.hits += shard->hits.load(std::memory_order_relaxed);
    total.misses += shard->misses.load(std::memory_order_relaxed);
    total.insertions += shard->insertions.load(std::memory_order_relaxed);
    total.evictions += shard->evictions.load(std::memory_order_relaxed);
  }
  return total;
}

std::vector<IqaCache::ShardSnapshot> IqaCache::ShardSnapshots() const {
  std::vector<ShardSnapshot> snapshots;
  snapshots.reserve(shards_.size());
  for (const auto& shard : shards_) {
    ShardSnapshot snap;
    snap.hits = shard->hits.load(std::memory_order_relaxed);
    snap.misses = shard->misses.load(std::memory_order_relaxed);
    snap.insertions = shard->insertions.load(std::memory_order_relaxed);
    snap.evictions = shard->evictions.load(std::memory_order_relaxed);
    snap.capacity_bytes = shard->capacity_bytes;
    {
      common::MutexLock lock(&shard->mu);
      snap.size_bytes = shard->size_bytes;
      snap.entry_count = shard->entries.size();
    }
    snapshots.push_back(snap);
  }
  return snapshots;
}

}  // namespace core
}  // namespace deepeverest
