#include "persist/snapshot.h"

#include <algorithm>
#include <set>

#include "common/serde.h"
#include "persist/format.h"

namespace deepeverest {
namespace persist {

namespace {

constexpr uint32_t kManifestMagic = 0xDEE7A901;
/// Version 2: a segment's crc is its payload checksum, the one its
/// envelope carries (version 1 checksummed the whole file a second time).
constexpr uint32_t kManifestVersion = 2;

std::string PrefixFor(const std::string& model) {
  return "snapshot/" + model + "/";
}

std::string SegmentKeyFor(const std::string& model, int layer,
                          uint32_t generation) {
  return PrefixFor(model) + "layer_" + std::to_string(layer) + ".g" +
         std::to_string(generation) + ".seg";
}

/// Parses the generation out of a segment key ("....g<gen>.seg"), or 0.
uint32_t GenerationOf(const std::string& key) {
  const size_t dot_seg = key.rfind(".seg");
  if (dot_seg == std::string::npos) return 0;
  const size_t dot_g = key.rfind(".g", dot_seg);
  if (dot_g == std::string::npos) return 0;
  uint32_t gen = 0;
  for (size_t i = dot_g + 2; i < dot_seg; ++i) {
    if (key[i] < '0' || key[i] > '9') return 0;
    gen = gen * 10 + static_cast<uint32_t>(key[i] - '0');
  }
  return gen;
}

Status Hit(const Failpoint& failpoint, const std::string& point) {
  if (failpoint && failpoint(point)) {
    return Status::Cancelled("failpoint: " + point);
  }
  return Status::OK();
}

}  // namespace

std::string ManifestKeyFor(const std::string& model) {
  return PrefixFor(model) + "MANIFEST";
}

const SegmentInfo* SnapshotManifest::Find(int layer) const {
  for (const SegmentInfo& seg : segments) {
    if (seg.layer == layer) return &seg;
  }
  return nullptr;
}

Result<uint64_t> WriteSnapshot(
    storage::FileStore* store, const std::string& model,
    const std::string& dataset_name, uint32_t dataset_size,
    const std::vector<std::pair<int, const core::LayerIndex*>>& indexes,
    uint64_t created_unix_seconds, const Failpoint& failpoint) {
  SnapshotManifest manifest;
  manifest.model = model;
  manifest.dataset = dataset_name;
  manifest.dataset_size = dataset_size;
  manifest.created_unix_seconds = created_unix_seconds;

  // Carry the current manifest's other layers over by key. An unreadable
  // manifest carries nothing: its snapshot could not be loaded anyway. A
  // segment past `dataset_size` is kept: a reader that replays more of the
  // ingest log may still use it, and loaders skip it otherwise.
  std::set<int> written;
  for (const auto& entry : indexes) written.insert(entry.first);
  Result<SnapshotManifest> current = ReadManifest(store, model);
  if (current.ok()) {
    manifest.generation = current->generation;
    if (current->dataset == dataset_name) {
      for (const SegmentInfo& seg : current->segments) {
        if (written.count(seg.layer) == 0) {
          manifest.segments.push_back(seg);
        }
      }
    }
  }

  // Pick a generation strictly above anything on disk — committed or
  // orphaned — so new segment files never overwrite live ones.
  std::vector<std::string> old_keys;
  {
    DE_ASSIGN_OR_RETURN(std::vector<std::string> keys, store->ListKeys());
    for (std::string& key : keys) {
      if (key.rfind(PrefixFor(model), 0) != 0) continue;
      manifest.generation = std::max(manifest.generation, GenerationOf(key));
      old_keys.push_back(std::move(key));
    }
  }
  ++manifest.generation;

  // 1. Segments first, each write-temp/fsync/rename under a fresh name. The
  // current manifest never references them, so a crash here is invisible.
  for (const auto& [layer, index] : indexes) {
    BinaryWriter writer;
    index->Serialize(&writer);
    SegmentInfo seg;
    const std::vector<uint8_t> enveloped =
        WrapChecksum(writer.buffer(), &seg.crc);
    const std::string key = SegmentKeyFor(model, layer, manifest.generation);
    DE_RETURN_NOT_OK(store->Write(key + ".tmp", enveloped, /*sync=*/true));
    DE_RETURN_NOT_OK(
        Hit(failpoint, "seg:" + std::to_string(layer) + ":tmp_written"));
    DE_RETURN_NOT_OK(store->Rename(key + ".tmp", key));
    DE_RETURN_NOT_OK(
        Hit(failpoint, "seg:" + std::to_string(layer) + ":renamed"));

    seg.layer = layer;
    seg.key = key;
    seg.bytes = enveloped.size();
    seg.watermark = index->num_inputs();
    manifest.segments.push_back(std::move(seg));
  }
  std::sort(manifest.segments.begin(), manifest.segments.end(),
            [](const SegmentInfo& a, const SegmentInfo& b) {
              return a.layer < b.layer;
            });

  // 2. Manifest rename = the commit point: the new generation's segments and
  // every per-layer watermark become visible in one atomic step.
  BinaryWriter writer;
  writer.WriteU32(kManifestMagic);
  writer.WriteU32(kManifestVersion);
  writer.WriteU32(manifest.generation);
  writer.WriteString(manifest.model);
  writer.WriteString(manifest.dataset);
  writer.WriteU32(manifest.dataset_size);
  writer.WriteU64(manifest.created_unix_seconds);
  writer.WriteU32(static_cast<uint32_t>(manifest.segments.size()));
  for (const SegmentInfo& seg : manifest.segments) {
    writer.WriteI32(seg.layer);
    writer.WriteU8(static_cast<uint8_t>(seg.kind));
    writer.WriteString(seg.key);
    writer.WriteU64(seg.bytes);
    writer.WriteU32(seg.crc);
    writer.WriteU32(seg.watermark);
  }
  const std::vector<uint8_t> enveloped = WrapChecksum(writer.buffer());
  const std::string manifest_key = ManifestKeyFor(model);
  DE_RETURN_NOT_OK(store->Write(manifest_key + ".tmp", enveloped,
                                /*sync=*/true));
  DE_RETURN_NOT_OK(Hit(failpoint, "manifest:tmp_written"));
  DE_RETURN_NOT_OK(store->Rename(manifest_key + ".tmp", manifest_key));
  DE_RETURN_NOT_OK(Hit(failpoint, "manifest:renamed"));

  // 3. Reclaim every file that was there before this commit and that the
  // new manifest does not reference: replaced segments and crash leftovers.
  // A crash in here only leaves orphans for the next commit's pass.
  std::set<std::string> referenced = {manifest_key};
  for (const SegmentInfo& seg : manifest.segments) referenced.insert(seg.key);
  for (const std::string& key : old_keys) {
    if (referenced.count(key) == 0) DE_RETURN_NOT_OK(store->Remove(key));
  }
  DE_RETURN_NOT_OK(Hit(failpoint, "gc:done"));

  uint64_t total_bytes = enveloped.size();
  for (const SegmentInfo& seg : manifest.segments) total_bytes += seg.bytes;
  return total_bytes;
}

Result<SnapshotManifest> ReadManifest(storage::FileStore* store,
                                      const std::string& model) {
  const std::string key = ManifestKeyFor(model);
  if (!store->Exists(key)) {
    return Status::NotFound("no snapshot manifest for model '" + model + "'");
  }
  DE_ASSIGN_OR_RETURN(std::vector<uint8_t> blob, store->Read(key));
  DE_ASSIGN_OR_RETURN(std::vector<uint8_t> payload,
                      UnwrapChecksum(blob, "snapshot manifest '" + key + "'"));
  BinaryReader reader(payload);
  uint32_t magic = 0;
  uint32_t version = 0;
  DE_RETURN_NOT_OK(reader.ReadU32(&magic));
  if (magic != kManifestMagic) {
    return Status::IOError("bad snapshot manifest magic");
  }
  DE_RETURN_NOT_OK(reader.ReadU32(&version));
  if (version != kManifestVersion) {
    return Status::IOError("unsupported snapshot manifest version " +
                           std::to_string(version));
  }
  SnapshotManifest manifest;
  DE_RETURN_NOT_OK(reader.ReadU32(&manifest.generation));
  DE_RETURN_NOT_OK(reader.ReadString(&manifest.model));
  DE_RETURN_NOT_OK(reader.ReadString(&manifest.dataset));
  DE_RETURN_NOT_OK(reader.ReadU32(&manifest.dataset_size));
  DE_RETURN_NOT_OK(reader.ReadU64(&manifest.created_unix_seconds));
  uint32_t num_segments = 0;
  DE_RETURN_NOT_OK(reader.ReadU32(&num_segments));
  if (manifest.model != model) {
    return Status::IOError("snapshot manifest names model '" + manifest.model +
                           "', expected '" + model + "'");
  }
  manifest.segments.reserve(num_segments);
  for (uint32_t i = 0; i < num_segments; ++i) {
    SegmentInfo seg;
    int32_t layer = 0;
    uint8_t kind = 0;
    DE_RETURN_NOT_OK(reader.ReadI32(&layer));
    DE_RETURN_NOT_OK(reader.ReadU8(&kind));
    DE_RETURN_NOT_OK(reader.ReadString(&seg.key));
    DE_RETURN_NOT_OK(reader.ReadU64(&seg.bytes));
    DE_RETURN_NOT_OK(reader.ReadU32(&seg.crc));
    DE_RETURN_NOT_OK(reader.ReadU32(&seg.watermark));
    seg.layer = layer;
    if (kind != static_cast<uint8_t>(SegmentKind::kIndex)) {
      return Status::IOError("unknown snapshot segment kind " +
                             std::to_string(kind));
    }
    manifest.total_bytes += seg.bytes;
    manifest.segments.push_back(std::move(seg));
  }
  manifest.total_bytes += blob.size();
  return manifest;
}


Result<core::LayerIndex> LoadSegment(storage::FileStore* store,
                                     const SegmentInfo& segment) {
  DE_ASSIGN_OR_RETURN(std::vector<uint8_t> blob, store->Read(segment.key));
  const std::string what = "snapshot segment '" + segment.key + "'";
  if (blob.size() != segment.bytes) {
    return Status::IOError(what + " has " + std::to_string(blob.size()) +
                           " bytes, its manifest entry " +
                           std::to_string(segment.bytes) + " (truncated?)");
  }
  uint32_t crc = 0;
  DE_ASSIGN_OR_RETURN(std::vector<uint8_t> payload,
                      UnwrapChecksum(blob, what, &crc));
  if (crc != segment.crc) {
    return Status::IOError(what + " is not the file its manifest entry names");
  }
  BinaryReader reader(payload);
  DE_ASSIGN_OR_RETURN(core::LayerIndex index,
                      core::LayerIndex::Deserialize(&reader));
  if (index.num_inputs() != segment.watermark) {
    return Status::IOError(what + ": watermark mismatch");
  }
  return index;
}

}  // namespace persist
}  // namespace deepeverest
