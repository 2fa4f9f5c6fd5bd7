#ifndef DEEPEVEREST_PERSIST_INGEST_H_
#define DEEPEVEREST_PERSIST_INGEST_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/trace.h"
#include "core/deepeverest.h"
#include "data/dataset.h"
#include "persist/ingest_log.h"
#include "service/ingest_sink.h"
#include "storage/file_store.h"

namespace deepeverest {
namespace persist {

struct IngestQueueOptions {
  /// Maximum inputs the background applier may lag behind the dataset before
  /// new batches are rejected with ResourceExhausted (HTTP 429).
  uint32_t max_backlog = 4096;
  /// Automatically commit a snapshot after this many applied inputs
  /// (0 = snapshots only via SaveSnapshot()).
  uint32_t snapshot_every = 0;
  /// fsync every ingest-log append before acknowledging. Required for the
  /// exactly-once guarantee across power loss; tests may disable for speed.
  bool sync_log = true;
  /// Receives the finished per-apply trace (an "ingest.apply" span with
  /// inputs/layers/inputs_run annotations); wired to a QueryService's trace
  /// ring so `GET /v1/trace/<id>` serves ingest applies too.
  std::function<void(std::shared_ptr<Trace>)> trace_sink;
};

/// \brief The durable ingest pipeline for one model: accepts inputs while
/// queries run, applies them to every built LayerIndex incrementally,
/// replays its log at startup, and sets the snapshot cadence. The snapshot
/// itself is loaded and committed through the engine's IndexManager, the
/// one writer of the manifest.
///
/// Exactly-once index maintenance (pg_incremental style): an input becomes
/// visible only after its log record is durable; each layer's high-watermark
/// is its index's own num_inputs(), persisted atomically *with* the merged
/// index by the snapshot manifest rename. Recovery replays the log (dropping
/// the never-acknowledged torn tail), then loads the snapshot's indexes, and
/// re-merges exactly the inputs past each watermark — deterministic
/// inference makes the re-merge idempotent, so no input is ever indexed
/// twice or skipped. Queries pin the index version they start with, so every
/// answer is bit-identical to a fresh scan over that pinned prefix.
class IngestQueue : public service::IngestSink {
 public:
  /// Recovers state from `store` (ingest-log replay into `dataset`, snapshot
  /// load into the engine's IndexManager) and starts the background applier.
  /// `dataset` must be the engine's dataset, already holding the
  /// deterministic base inputs; all pointers must outlive the queue.
  static Result<std::unique_ptr<IngestQueue>> Create(
      core::DeepEverest* engine, data::Dataset* dataset,
      storage::FileStore* store, IngestQueueOptions options);

  ~IngestQueue() override;

  // service::IngestSink:
  Result<service::IngestAck> Ingest(
      const std::vector<service::IngestInput>& inputs) override;
  service::IngestStats Stats() const override;
  Status SaveSnapshot() override;

  /// Blocks until the applier has caught up to the current dataset size (or
  /// the timeout expires — returns false then). Test/bench synchronization.
  bool WaitIdle(double timeout_seconds);

  /// Stops the applier thread. Idempotent; the destructor calls it.
  void Shutdown();

  /// Inputs replayed from the ingest log at startup.
  uint32_t recovered_inputs() const { return recovered_inputs_; }
  /// Layer indexes loaded from the snapshot at startup.
  uint32_t recovered_layers() const { return recovered_layers_; }

 private:
  IngestQueue(core::DeepEverest* engine, data::Dataset* dataset,
              storage::FileStore* store, IngestQueueOptions options);

  Status Recover();
  void ApplierLoop();
  /// One apply pass: merge every built layer up to `target`. Holds apply_mu_.
  Status ApplyTo(uint32_t target);
  /// Catch up + committed snapshot. Holds apply_mu_.
  Status SnapshotNow();

  core::DeepEverest* engine_;
  data::Dataset* dataset_;
  IngestQueueOptions options_;
  std::string model_;
  IngestLog log_;

  uint32_t recovered_inputs_ = 0;  // written once during Create
  uint32_t recovered_layers_ = 0;

  /// Serializes apply passes and snapshot commits (never held while mu_ is).
  common::Mutex apply_mu_;

  mutable common::Mutex mu_;
  common::CondVar cv_;
  bool shutdown_ GUARDED_BY(mu_) = false;
  bool applying_ GUARDED_BY(mu_) = false;
  /// Dataset size the applier has fully merged into every built layer.
  uint32_t applied_size_ GUARDED_BY(mu_) = 0;
  uint32_t applied_since_snapshot_ GUARDED_BY(mu_) = 0;
  int64_t ingested_total_ GUARDED_BY(mu_) = 0;
  int64_t rejected_total_ GUARDED_BY(mu_) = 0;
  int64_t applies_total_ GUARDED_BY(mu_) = 0;
  int64_t snapshots_written_ GUARDED_BY(mu_) = 0;
  int64_t snapshot_bytes_ GUARDED_BY(mu_) = 0;
  uint64_t snapshot_created_unix_ GUARDED_BY(mu_) = 0;
  uint32_t snapshot_dataset_size_ GUARDED_BY(mu_) = 0;

  std::thread applier_;
};

}  // namespace persist
}  // namespace deepeverest

#endif  // DEEPEVEREST_PERSIST_INGEST_H_
