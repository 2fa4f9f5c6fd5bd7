#include "core/npi.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

namespace deepeverest {
namespace core {

namespace {
constexpr uint32_t kMagic = 0xDEE71DE8;
constexpr float kInf = std::numeric_limits<float>::infinity();

/// A 32-bit key whose unsigned ascending order is `v`'s descending order.
/// -0.0 maps to +0.0's key, as the two compare equal.
uint32_t DescendingKey(float v) {
  if (v == 0.0f) v = 0.0f;
  uint32_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  const uint32_t ascending = (bits & 0x80000000u) ? ~bits : bits | 0x80000000u;
  return ~ascending;
}

/// Stable LSD radix sort of `keys[0, n)` by their high 32 bits, 8 bits per
/// pass; `scratch` holds n keys. Passes whose byte is the same in every key
/// are skipped.
void RadixSortHigh32(uint64_t* keys, uint64_t* scratch, size_t n) {
  size_t counts[4][256] = {};
  for (size_t i = 0; i < n; ++i) {
    for (int pass = 0; pass < 4; ++pass) {
      ++counts[pass][(keys[i] >> (32 + 8 * pass)) & 0xff];
    }
  }
  uint64_t* from = keys;
  uint64_t* to = scratch;
  for (int pass = 0; pass < 4; ++pass) {
    const int shift = 32 + 8 * pass;
    if (counts[pass][(from[0] >> shift) & 0xff] == n) continue;
    size_t offsets[256];
    size_t total = 0;
    for (int b = 0; b < 256; ++b) {
      offsets[b] = total;
      total += counts[pass][b];
    }
    for (size_t i = 0; i < n; ++i) {
      to[offsets[(from[i] >> shift) & 0xff]++] = from[i];
    }
    std::swap(from, to);
  }
  if (from != keys) std::memcpy(keys, from, n * sizeof(uint64_t));
}
}  // namespace

Result<LayerIndex> LayerIndex::Build(
    const storage::LayerActivationMatrix& acts,
    const LayerIndexConfig& config) {
  if (acts.num_inputs == 0 || acts.num_neurons == 0) {
    return Status::InvalidArgument("empty activation matrix");
  }
  if (config.num_partitions < 1) {
    return Status::InvalidArgument("num_partitions must be >= 1");
  }
  if (config.mai_ratio < 0.0 || config.mai_ratio > 1.0) {
    return Status::InvalidArgument("mai_ratio must be in [0, 1]");
  }
  if (config.num_partitions == 1 && config.mai_ratio > 0.0 &&
      config.mai_ratio < 1.0) {
    // The MAI is partition 0, so the inputs outside it need a second one.
    return Status::InvalidArgument(
        "a partial MAI (0 < mai_ratio < 1) needs num_partitions >= 2");
  }
  if (config.scheme == PartitionScheme::kEquiWidth &&
      config.mai_ratio > 0.0) {
    return Status::InvalidArgument(
        "MAI (a fixed input fraction) requires equi-depth partitioning");
  }
  if (config.scheme == PartitionScheme::kEquiWidth) {
    return BuildEquiWidth(acts, config);
  }

  LayerIndex index;
  index.num_inputs_ = acts.num_inputs;
  index.num_neurons_ = static_cast<int64_t>(acts.num_neurons);
  index.mai_count_ = static_cast<uint32_t>(
      config.mai_ratio * static_cast<double>(acts.num_inputs));
  if (index.mai_count_ > acts.num_inputs) index.mai_count_ = acts.num_inputs;

  // Clamp num_partitions so no equi-depth partition is empty: with MAI,
  // partition 0 is the MAI fraction and the rest split the remaining
  // inputs; without MAI all partitions split all inputs.
  const uint32_t rest =
      acts.num_inputs - index.mai_count_;  // inputs outside MAI
  int num_partitions = config.num_partitions;
  if (index.mai_count_ > 0) {
    const int max_parts = 1 + static_cast<int>(rest);  // MAI + one per input
    num_partitions = std::min(num_partitions, max_parts);
  } else {
    num_partitions = std::min(
        num_partitions, static_cast<int>(acts.num_inputs));
  }
  index.num_partitions_ = num_partitions;

  // Per-partition sizes (identical for every neuron because partitioning is
  // by rank): partition 0 takes the MAI entries when MAI is enabled; the
  // remaining inputs are split as evenly as possible over the rest.
  std::vector<uint32_t> sizes(static_cast<size_t>(num_partitions), 0);
  {
    uint32_t first = 0;
    int equi_parts = num_partitions;
    if (index.mai_count_ > 0) {
      sizes[0] = index.mai_count_;
      first = 1;
      equi_parts = num_partitions - 1;
    }
    // equi_parts is 0 only for an all-MAI build (rest == 0): the config
    // check above rejects a single partition beside a partial MAI.
    if (equi_parts > 0) {
      const uint32_t base = rest / static_cast<uint32_t>(equi_parts);
      const uint32_t extra = rest % static_cast<uint32_t>(equi_parts);
      for (int p = 0; p < equi_parts; ++p) {
        sizes[first + static_cast<size_t>(p)] =
            base + (static_cast<uint32_t>(p) < extra ? 1 : 0);
      }
    }
  }

  const size_t total_slots =
      static_cast<size_t>(index.num_neurons_) * index.num_inputs_;
  index.pids_ = PackedIntArray(
      total_slots, PackedIntArray::BitsFor(
                       static_cast<uint64_t>(num_partitions)));
  index.lower_.assign(
      static_cast<size_t>(index.num_neurons_) * num_partitions, kInf);
  index.upper_.assign(
      static_cast<size_t>(index.num_neurons_) * num_partitions, -kInf);
  index.mai_.resize(static_cast<size_t>(index.num_neurons_) *
                    index.mai_count_);

  // Neurons are sorted in blocks of kSortBlock: one pass over the block's
  // columns of every row gathers the sort keys (DescendingKey << 32 | id),
  // then each neuron's keys are radix-sorted. Gather order is id-ascending
  // and the sort is stable, so equal activations keep ids ascending, the
  // same order as sorting by (activation desc, id asc).
  constexpr int64_t kSortBlock = 16;
  const size_t n = acts.num_inputs;
  std::vector<uint64_t> keys(static_cast<size_t>(kSortBlock) * n);
  std::vector<uint64_t> scratch(n);
  for (int64_t neuron = 0; neuron < index.num_neurons_; ++neuron) {
    const int64_t in_block = neuron % kSortBlock;
    if (in_block == 0) {
      const int64_t width = std::min(kSortBlock, index.num_neurons_ - neuron);
      for (uint32_t id = 0; id < acts.num_inputs; ++id) {
        const float* row = acts.Row(id) + neuron;
        for (int64_t j = 0; j < width; ++j) {
          keys[static_cast<size_t>(j) * n + id] =
              static_cast<uint64_t>(DescendingKey(row[j])) << 32 | id;
        }
      }
    }
    uint64_t* sorted = keys.data() + static_cast<size_t>(in_block) * n;
    RadixSortHigh32(sorted, scratch.data(), n);

    size_t rank = 0;
    for (int pid = 0; pid < num_partitions; ++pid) {
      const size_t bound_idx =
          index.BoundIndex(neuron, static_cast<uint32_t>(pid));
      for (uint32_t j = 0; j < sizes[static_cast<size_t>(pid)]; ++j, ++rank) {
        const uint32_t input_id = static_cast<uint32_t>(sorted[rank]);
        const float act = acts.At(input_id, static_cast<uint64_t>(neuron));
        index.pids_.Set(
            static_cast<size_t>(neuron) * index.num_inputs_ + input_id,
            static_cast<uint64_t>(pid));
        // Descending order: first member is the upper bound, last the lower.
        if (j == 0) index.upper_[bound_idx] = act;
        index.lower_[bound_idx] = act;
        if (pid == 0 && index.mai_count_ > 0) {
          index.mai_[static_cast<size_t>(neuron) * index.mai_count_ + j] =
              MaiEntry{act, input_id};
        }
      }
    }
    DE_CHECK_EQ(rank, static_cast<size_t>(acts.num_inputs));
  }
  return index;
}

Result<LayerIndex> LayerIndex::BuildEquiWidth(
    const storage::LayerActivationMatrix& acts,
    const LayerIndexConfig& config) {
  LayerIndex index;
  index.num_inputs_ = acts.num_inputs;
  index.num_neurons_ = static_cast<int64_t>(acts.num_neurons);
  index.mai_count_ = 0;
  const int num_partitions =
      std::min(config.num_partitions, static_cast<int>(acts.num_inputs));
  index.num_partitions_ = num_partitions;

  const size_t total_slots =
      static_cast<size_t>(index.num_neurons_) * index.num_inputs_;
  index.pids_ = PackedIntArray(
      total_slots,
      PackedIntArray::BitsFor(static_cast<uint64_t>(num_partitions)));
  index.lower_.assign(
      static_cast<size_t>(index.num_neurons_) * num_partitions, kInf);
  index.upper_.assign(
      static_cast<size_t>(index.num_neurons_) * num_partitions, -kInf);

  for (int64_t neuron = 0; neuron < index.num_neurons_; ++neuron) {
    // Value range for this neuron; partition 0 covers the highest slice.
    float lo = acts.At(0, static_cast<uint64_t>(neuron));
    float hi = lo;
    for (uint32_t id = 1; id < acts.num_inputs; ++id) {
      const float v = acts.At(id, static_cast<uint64_t>(neuron));
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    const float width = hi - lo;
    for (uint32_t id = 0; id < acts.num_inputs; ++id) {
      const float v = acts.At(id, static_cast<uint64_t>(neuron));
      int pid = 0;
      if (width > 0.0f) {
        // Highest values -> partition 0.
        pid = static_cast<int>((hi - v) / width *
                               static_cast<float>(num_partitions));
        pid = std::min(pid, num_partitions - 1);
      }
      index.pids_.Set(static_cast<size_t>(neuron) * index.num_inputs_ + id,
                      static_cast<uint64_t>(pid));
      const size_t bound_idx =
          index.BoundIndex(neuron, static_cast<uint32_t>(pid));
      index.lower_[bound_idx] = std::min(index.lower_[bound_idx], v);
      index.upper_[bound_idx] = std::max(index.upper_[bound_idx], v);
    }
  }
  return index;
}

uint32_t LayerIndex::AssignPidExtending(int64_t neuron, float activation,
                                        int start_pid) {
  int best = -1;
  float best_gap = kInf;
  for (int pid = start_pid; pid < num_partitions_; ++pid) {
    const size_t bi = BoundIndex(neuron, static_cast<uint32_t>(pid));
    const float lo = lower_[bi];
    const float hi = upper_[bi];
    if (lo > hi) continue;  // empty partition
    if (activation >= lo && activation <= hi) {
      return static_cast<uint32_t>(pid);
    }
    const float gap = activation > hi ? activation - hi : lo - activation;
    if (gap < best_gap) {
      best_gap = gap;
      best = pid;
    }
  }
  if (best < 0) {
    // Every candidate partition is empty; seed the first one. (This can only
    // happen when ALL of them are empty, so descending order is preserved.)
    const size_t bi = BoundIndex(neuron, static_cast<uint32_t>(start_pid));
    lower_[bi] = activation;
    upper_[bi] = activation;
    return static_cast<uint32_t>(start_pid);
  }
  // The value sits in a gap between the chosen partition and its neighbour,
  // so extending the near bound toward it cannot overlap another partition.
  const size_t bi = BoundIndex(neuron, static_cast<uint32_t>(best));
  if (activation > upper_[bi]) {
    upper_[bi] = activation;
  } else {
    lower_[bi] = activation;
  }
  return static_cast<uint32_t>(best);
}

Result<LayerIndex> LayerIndex::AppendInputs(
    const storage::LayerActivationMatrix& delta) const {
  if (delta.num_inputs == 0) {
    return Status::InvalidArgument("empty activation delta");
  }
  if (static_cast<int64_t>(delta.num_neurons) != num_neurons_) {
    return Status::InvalidArgument("delta neuron count mismatch");
  }
  if (static_cast<uint64_t>(num_inputs_) + delta.num_inputs >
      std::numeric_limits<uint32_t>::max()) {
    return Status::OutOfRange("input id space exhausted");
  }
  if (mai_count_ > 0 && num_partitions_ < 2) {
    // Degenerate build (every input is in the MAI): a displaced entry would
    // have no partition to land in. Callers fall back to a full rebuild.
    return Status::FailedPrecondition(
        "cannot append to a single-partition MAI index");
  }

  LayerIndex out;
  out.num_inputs_ = num_inputs_ + delta.num_inputs;
  out.num_neurons_ = num_neurons_;
  out.num_partitions_ = num_partitions_;
  out.mai_count_ = mai_count_;
  out.lower_ = lower_;
  out.upper_ = upper_;
  out.mai_ = mai_;
  const size_t total_slots =
      static_cast<size_t>(num_neurons_) * out.num_inputs_;
  out.pids_ = PackedIntArray(total_slots, pids_.bits_per_value());

  constexpr size_t kBlock = 1024;
  uint64_t buf[kBlock];
  for (int64_t neuron = 0; neuron < num_neurons_; ++neuron) {
    // Existing PIDs keep their value but the neuron-major stride changes, so
    // the packed row is re-laid-out wholesale.
    const size_t old_base = static_cast<size_t>(neuron) * num_inputs_;
    const size_t new_base = static_cast<size_t>(neuron) * out.num_inputs_;
    for (size_t begin = 0; begin < num_inputs_; begin += kBlock) {
      const size_t count =
          std::min(kBlock, static_cast<size_t>(num_inputs_) - begin);
      pids_.GetMany(old_base + begin, count, buf);
      for (size_t i = 0; i < count; ++i) {
        out.pids_.Set(new_base + begin + i, buf[i]);
      }
    }

    MaiEntry* mai_row =
        out.mai_.data() + static_cast<size_t>(neuron) * mai_count_;
    for (uint32_t j = 0; j < delta.num_inputs; ++j) {
      const uint32_t id = num_inputs_ + j;
      const float v = delta.At(j, static_cast<uint64_t>(neuron));
      if (mai_count_ > 0 && v > mai_row[mai_count_ - 1].activation) {
        // The new input enters the MAI (partition 0); the old minimum is
        // displaced into a regular partition. Ties keep the incumbent: MAI
        // order is (activation desc, id asc) and new ids are the largest.
        const MaiEntry evicted = mai_row[mai_count_ - 1];
        uint32_t pos = 0;
        while (pos < mai_count_ && !(v > mai_row[pos].activation)) ++pos;
        for (uint32_t r = mai_count_ - 1; r > pos; --r) {
          mai_row[r] = mai_row[r - 1];
        }
        mai_row[pos] = MaiEntry{v, id};
        out.pids_.Set(new_base + id, 0);
        const size_t b0 = out.BoundIndex(neuron, 0);
        out.upper_[b0] = mai_row[0].activation;
        out.lower_[b0] = mai_row[mai_count_ - 1].activation;
        const uint32_t epid =
            out.AssignPidExtending(neuron, evicted.activation, 1);
        out.pids_.Set(new_base + evicted.input_id, epid);
      } else {
        const int start_pid = mai_count_ > 0 ? 1 : 0;
        const uint32_t pid = out.AssignPidExtending(neuron, v, start_pid);
        out.pids_.Set(new_base + id, pid);
      }
    }
  }
  return out;
}

void LayerIndex::GetInputIds(int64_t neuron, uint32_t pid,
                             std::vector<uint32_t>* out) const {
  // Per-round membership scan: bulk-unpack the neuron's PID column in
  // fixed-size blocks (bounds checked once per block, SIMD unpack when
  // available) instead of one bounds-checked PackedIntArray::Get per input.
  constexpr size_t kBlock = 1024;
  uint64_t buf[kBlock];
  const size_t base = static_cast<size_t>(neuron) * num_inputs_;
  for (size_t begin = 0; begin < num_inputs_; begin += kBlock) {
    const size_t count =
        std::min(kBlock, static_cast<size_t>(num_inputs_) - begin);
    pids_.GetMany(base + begin, count, buf);
    for (size_t i = 0; i < count; ++i) {
      if (buf[i] == pid) out->push_back(static_cast<uint32_t>(begin + i));
    }
  }
}

uint32_t LayerIndex::PidForActivation(int64_t neuron, float activation) const {
  // Partitions are ordered by activation descending: partition 0 covers the
  // largest values. Find the partition whose range contains `activation`;
  // if it falls in a gap between partitions, return the nearer side.
  uint32_t best = 0;
  float best_gap = kInf;
  for (int pid = 0; pid < num_partitions_; ++pid) {
    const float lo = LowerBound(neuron, static_cast<uint32_t>(pid));
    const float hi = UpperBound(neuron, static_cast<uint32_t>(pid));
    if (lo > hi) continue;  // empty partition
    if (activation >= lo && activation <= hi) {
      return static_cast<uint32_t>(pid);
    }
    const float gap =
        activation > hi ? activation - hi : lo - activation;
    if (gap < best_gap) {
      best_gap = gap;
      best = static_cast<uint32_t>(pid);
    }
  }
  return best;
}

uint64_t LayerIndex::AnalyticStorageBytes(int64_t num_neurons,
                                          uint32_t num_inputs,
                                          int num_partitions,
                                          uint32_t mai_count) {
  const uint64_t pid_bits =
      static_cast<uint64_t>(num_neurons) * num_inputs *
      static_cast<uint64_t>(
          PackedIntArray::BitsFor(static_cast<uint64_t>(num_partitions)));
  const uint64_t bounds_bytes = static_cast<uint64_t>(num_neurons) *
                                static_cast<uint64_t>(num_partitions) * 2 * 4;
  // MAI: activation (4 bytes) + inputID (4 bytes) per pair (§4.7.2).
  const uint64_t mai_bytes =
      static_cast<uint64_t>(num_neurons) * mai_count * 8;
  return (pid_bits + 7) / 8 + bounds_bytes + mai_bytes;
}

uint64_t LayerIndex::AnalyticStorageBytes() const {
  return AnalyticStorageBytes(num_neurons_, num_inputs_, num_partitions_,
                              mai_count_);
}

void LayerIndex::Serialize(BinaryWriter* writer) const {
  writer->WriteU32(kMagic);
  writer->WriteU32(num_inputs_);
  writer->WriteI64(num_neurons_);
  writer->WriteI32(num_partitions_);
  writer->WriteU32(mai_count_);
  writer->WriteF32Vector(lower_);
  writer->WriteF32Vector(upper_);
  writer->WriteU64Vector(pids_.words());
  std::vector<float> mai_acts(mai_.size());
  std::vector<uint32_t> mai_ids(mai_.size());
  for (size_t i = 0; i < mai_.size(); ++i) {
    mai_acts[i] = mai_[i].activation;
    mai_ids[i] = mai_[i].input_id;
  }
  writer->WriteF32Vector(mai_acts);
  writer->WriteU32Vector(mai_ids);
}

Result<LayerIndex> LayerIndex::Deserialize(BinaryReader* reader) {
  uint32_t magic = 0;
  DE_RETURN_NOT_OK(reader->ReadU32(&magic));
  if (magic != kMagic) return Status::IOError("bad layer index magic");
  LayerIndex index;
  DE_RETURN_NOT_OK(reader->ReadU32(&index.num_inputs_));
  DE_RETURN_NOT_OK(reader->ReadI64(&index.num_neurons_));
  DE_RETURN_NOT_OK(reader->ReadI32(&index.num_partitions_));
  DE_RETURN_NOT_OK(reader->ReadU32(&index.mai_count_));
  if (index.num_inputs_ == 0 || index.num_neurons_ <= 0 ||
      index.num_partitions_ <= 0) {
    return Status::IOError("corrupt layer index geometry");
  }
  DE_RETURN_NOT_OK(reader->ReadF32Vector(&index.lower_));
  DE_RETURN_NOT_OK(reader->ReadF32Vector(&index.upper_));
  const size_t bound_slots = static_cast<size_t>(index.num_neurons_) *
                             static_cast<size_t>(index.num_partitions_);
  if (index.lower_.size() != bound_slots ||
      index.upper_.size() != bound_slots) {
    return Status::IOError("corrupt layer index bounds");
  }
  std::vector<uint64_t> words;
  DE_RETURN_NOT_OK(reader->ReadU64Vector(&words));
  const size_t total_slots =
      static_cast<size_t>(index.num_neurons_) * index.num_inputs_;
  const int bits = PackedIntArray::BitsFor(
      static_cast<uint64_t>(index.num_partitions_));
  const size_t expected_words =
      (total_slots * static_cast<size_t>(bits) + 63) / 64;
  if (words.size() != expected_words) {
    return Status::IOError("corrupt layer index PID payload");
  }
  *index.pids_.mutable_words() = std::move(words);
  index.pids_.RestoreGeometry(total_slots, bits);

  std::vector<float> mai_acts;
  std::vector<uint32_t> mai_ids;
  DE_RETURN_NOT_OK(reader->ReadF32Vector(&mai_acts));
  DE_RETURN_NOT_OK(reader->ReadU32Vector(&mai_ids));
  const size_t mai_slots =
      static_cast<size_t>(index.num_neurons_) * index.mai_count_;
  if (mai_acts.size() != mai_slots || mai_ids.size() != mai_slots) {
    return Status::IOError("corrupt layer index MAI payload");
  }
  index.mai_.resize(mai_slots);
  for (size_t i = 0; i < mai_slots; ++i) {
    index.mai_[i] = MaiEntry{mai_acts[i], mai_ids[i]};
  }
  return index;
}

}  // namespace core
}  // namespace deepeverest
