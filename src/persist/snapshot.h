#ifndef DEEPEVEREST_PERSIST_SNAPSHOT_H_
#define DEEPEVEREST_PERSIST_SNAPSHOT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/npi.h"
#include "storage/file_store.h"

namespace deepeverest {
namespace persist {

/// What a snapshot segment holds: serialized NPI/MAI index state, the only
/// kind. The manifest keeps the kind byte, and its decoder rejects any other
/// value rather than skipping a segment it cannot read.
enum class SegmentKind : uint8_t {
  kIndex = 0,
};

/// One per-layer segment as recorded in the manifest.
struct SegmentInfo {
  int layer = 0;
  SegmentKind kind = SegmentKind::kIndex;
  std::string key;         // store key of the segment file
  uint64_t bytes = 0;      // size of the (enveloped) segment file
  uint32_t crc = 0;        // crc32 of the payload (the envelope's checksum)
  uint32_t watermark = 0;  // input ids [0, watermark) are covered
};

/// The decoded snapshot manifest: one durable, atomic commit point. The
/// per-layer watermarks advance only via a manifest rename, so an index
/// delta and its high-watermark become visible together — the transactional
/// pipeline idea from pg_incremental, done with rename instead of a
/// database transaction.
struct SnapshotManifest {
  uint32_t generation = 0;
  std::string model;
  std::string dataset;
  uint32_t dataset_size = 0;  // dataset size when the generation committed
  uint64_t created_unix_seconds = 0;
  std::vector<SegmentInfo> segments;  // ascending layer, one per layer
  /// Not encoded: the manifest file's size plus every segment's, i.e. the
  /// snapshot's bytes on disk. Filled by ReadManifest.
  uint64_t total_bytes = 0;

  /// The segment of `layer`, or nullptr when the manifest has none.
  const SegmentInfo* Find(int layer) const;
};

/// Failpoint hook for crash-injection tests: invoked at named points inside
/// the writer ("seg:<layer>:tmp_written", "seg:<layer>:renamed",
/// "manifest:tmp_written", "manifest:renamed", "gc:done"); returning true
/// aborts the write immediately, leaving the on-disk state exactly as a
/// kill -9 at that point would. Production passes nothing.
using Failpoint = std::function<bool(const std::string& point)>;

/// Store key of a model's manifest: `snapshot/<model>/MANIFEST`.
std::string ManifestKeyFor(const std::string& model);

/// \brief Commits one snapshot generation crash-safely.
///
/// Segment files for `indexes` are written first under fresh
/// generation-stamped names (write-temp/fsync/rename each), then the
/// manifest referencing them is atomically renamed into place — the commit
/// point. Every layer of the current manifest that `indexes` does not name
/// is carried over by key, not rewritten, as long as it belongs to
/// `dataset_name`. A crash anywhere before the manifest rename leaves the
/// previous snapshot fully intact; orphaned new-generation segments and
/// replaced old ones are garbage-collected after the commit.
/// `dataset_size` is the dataset size the caller observed (>= every
/// watermark it commits). Returns the snapshot's total on-disk size
/// (manifest + segments).
///
/// Not synchronised: core::IndexManager::Commit is the one caller that
/// writes a live store, and it serialises its commits.
Result<uint64_t> WriteSnapshot(
    storage::FileStore* store, const std::string& model,
    const std::string& dataset_name, uint32_t dataset_size,
    const std::vector<std::pair<int, const core::LayerIndex*>>& indexes,
    uint64_t created_unix_seconds, const Failpoint& failpoint = nullptr);

/// Reads and validates the model's manifest (checksum envelope, magic,
/// version, segment kinds). Returns NotFound when no snapshot has ever been
/// committed. Segment files are not read.
Result<SnapshotManifest> ReadManifest(storage::FileStore* store,
                                      const std::string& model);

/// Loads one segment the manifest lists: its size against the manifest
/// entry, the envelope (whose checksum must be the entry's crc), the index
/// payload, and its watermark. Any failure — a single flipped bit or a
/// truncated file — is an IOError, and the caller rebuilds that layer
/// instead of serving from it.
Result<core::LayerIndex> LoadSegment(storage::FileStore* store,
                                     const SegmentInfo& segment);

}  // namespace persist
}  // namespace deepeverest

#endif  // DEEPEVEREST_PERSIST_SNAPSHOT_H_
