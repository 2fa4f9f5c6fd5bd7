#ifndef DEEPEVEREST_SERVICE_QUERY_SERVICE_H_
#define DEEPEVEREST_SERVICE_QUERY_SERVICE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/qos.h"
#include "common/result.h"
#include "common/stopwatch.h"
#include "core/deepeverest.h"
#include "core/query.h"
#include "core/query_context.h"
#include "core/query_spec.h"
#include "nn/batch_scheduler.h"
#include "service/service_stats.h"

namespace deepeverest {
namespace service {

class DispatchPolicy;

// The service consumes the one canonical query type, core::QuerySpec —
// the same struct QL parsing and the JSON wire decoder produce. Its
// declarative half says what to retrieve; its serving envelope
// (session_id, qos, deadline_ms, weight, on_progress) is what this
// service schedules by. The progress sink is invoked on the executing
// worker thread after each NTA round, and all invocations happen-before
// the query's future resolves — the seam the HTTP front-end streams
// NDJSON progress events from.

struct QueryServiceOptions {
  /// Fixed-size worker pool executing queries against the shared engine.
  int num_workers = 4;
  /// Bound on queries waiting for a worker, across all sessions. Submissions
  /// beyond it are rejected with ResourceExhausted — backpressure the client
  /// can retry on.
  size_t max_queue_depth = 256;
  /// Per-session bound on *queued* queries (0 = no per-session bound). A
  /// session at its limit is rejected even while the global queue has room,
  /// keeping one bulk client from monopolising the admission queue.
  size_t max_queued_per_session = 0;

  /// Cross-query inference batching: the service owns a
  /// BatchingInferenceScheduler, and all workers' ComputeLayer calls flow
  /// through it, so co-scheduled queries fill each other's device batches
  /// (idle batch lanes cost the same as full ones under the GPU cost
  /// model). Per-query `QueryStats.inputs_run` stays exact — receipts
  /// charge each query its own inputs and its occupancy share of shared
  /// launches. Ignored for a single-worker service (no co-scheduled query
  /// could ever share a batch, so lingering would be pure latency).
  bool enable_cross_query_batching = true;
  /// How long the scheduler holds a partial batch open for other queries'
  /// inputs before flushing it. 0 flushes partial batches as soon as a
  /// dispatcher sees them — the right setting for latency-sensitive,
  /// lightly loaded services where co-arrivals are rare anyway.
  double batch_linger_seconds = 5e-4;
  /// Dispatcher threads running coalesced batches (each models one device
  /// stream). 0 = one per worker, preserving the device-wait overlap the
  /// unbatched service gets from its workers.
  int batch_dispatchers = 0;

  /// QoS-aware scheduling end to end: strict class priority at dispatch
  /// (interactive > batch > best_effort), earliest-deadline-first for
  /// deadline-carrying queries and weighted round-robin across sessions
  /// within a class, and per-class batch linger in the inference scheduler.
  /// Off restores the flat session round-robin and uniform linger of the
  /// pre-QoS service — the control arm of bench_service_qos. Deadline
  /// *enforcement* (queued-past-deadline rejection, mid-query abort) stays
  /// on either way; only prioritisation changes.
  bool enable_qos = true;
  /// Batch linger for interactive-class inference (see
  /// BatchSchedulerOptions::interactive_linger_seconds). The default 0
  /// means interactive requests flush immediately and seal any partial
  /// batch they join.
  double interactive_batch_linger_seconds = 0.0;
  /// Batch linger for best-effort-class inference (background work waits
  /// longest for full batches).
  double best_effort_batch_linger_seconds = 2e-3;

  /// Preemptive execution: a worker stepping a non-interactive query parks
  /// it between NTA rounds as soon as interactive work is waiting, runs the
  /// interactive query, and the parked query resumes later on any worker.
  /// Interactive tail latency becomes independent of bulk round length;
  /// results are unaffected (executions are checkpointed between rounds and
  /// bit-identical to an uninterrupted run). Effective only with
  /// `enable_qos` on: the park-and-switch handoff relies on the QoS
  /// policy's strict class priority to guarantee the freed worker picks up
  /// the interactive query.
  bool enable_preemption = true;

  /// How many finished queries' traces are kept for `GET /v1/trace/<id>`
  /// (a fixed ring: newest wins). 0 keeps none. Every query is traced
  /// either way — spans are appended during execution regardless of whether
  /// anyone asks for them, which is what keeps the trace=0 overhead a
  /// handful of clock reads per query.
  size_t trace_ring_capacity = 128;
  /// Queries whose admission-to-completion latency reaches this emit one
  /// structured key=value log line with their top spans (through
  /// DE_LOG_WARNING, so a pluggable sink can capture it). <= 0 disables.
  double slow_query_seconds = 1.0;
};

/// \brief One admitted query: created at admission (Submit), owned by the
/// dispatch policy until a worker claims it. The context carries the
/// query's QoS class, absolute deadline, receipt, and scheduler plumbing
/// through every layer below the service.
///
/// Ownership protocol (what makes park/resume race-free): a PendingQuery —
/// and with it the single-owner `execution` state object — is owned by
/// exactly one party at any instant: the dispatch policy (under
/// QueryService::mu_) or the one worker that popped it. Handoffs happen
/// only by moving the struct into/out of the policy with mu_ held, so the
/// mutex orders every park → resume transition; no field here needs its own
/// lock, and a resuming worker (any worker) sees all of the previous
/// owner's writes.
struct PendingQuery {
  core::QuerySpec query;
  /// Shared with the Submission handle returned to the caller, so a client
  /// can Cancel() the query while the service still owns or runs it.
  std::shared_ptr<core::QueryContext> ctx;
  std::promise<Result<core::TopKResult>> promise;
  Stopwatch wait;  // started at admission
  /// The resumable execution. Null until a worker first dispatches the
  /// query; non-null exactly while the query is mid-flight — a parked
  /// query re-enters the dispatch queue carrying it, which is how a later
  /// (possibly different) worker distinguishes a resume from a fresh
  /// dispatch.
  std::unique_ptr<core::QueryExecution> execution;
  /// Trace span indices owned across park/resume episodes: the "execute"
  /// span opened at first dispatch (closed at completion) and the open
  /// "parked" span while parked (closed at resume); -1 = none.
  int execute_span = -1;
  int parked_span = -1;
  /// Accumulated time: admission-queue wait (set at first dispatch) and
  /// active execution across all episodes (parked gaps excluded).
  double queue_seconds = 0.0;
  double exec_seconds = 0.0;
};

/// \brief A submitted query's handle: the future resolving to its result
/// plus the control surface the network front-end needs.
struct Submission {
  std::future<Result<core::TopKResult>> result;
  /// The query's execution context. `context->Cancel()` requests
  /// cooperative cancellation from any thread: a queued query fails at
  /// dispatch, a running one aborts between NTA rounds, both with
  /// Cancelled (counted in ServiceStats.cancelled). The HTTP server calls
  /// this when a streaming client disconnects, so abandoned queries stop
  /// consuming inference budget.
  std::shared_ptr<core::QueryContext> context;
};

/// \brief Ordering of the admission queue: which admitted query a freed
/// worker runs next.
///
/// Every method is invoked with the service mutex held, so policies need no
/// locking of their own. QueryServiceOptions::enable_qos picks one of the
/// two implementations: the flat session round-robin (`enable_qos = false`)
/// or the QoS policy — strict class priority, EDF
/// for deadline-carrying queries within a class, weighted round-robin
/// across the class's sessions otherwise.
class DispatchPolicy {
 public:
  virtual ~DispatchPolicy() = default;

  virtual void Enqueue(PendingQuery pending) = 0;
  /// Next query to run. Only called when size() > 0.
  virtual PendingQuery PopNext() = 0;
  /// Queries currently queued (all classes and sessions).
  virtual size_t size() const = 0;
  /// Queued queries of `session` (admission enforces the per-session bound
  /// against this).
  virtual size_t QueuedForSession(uint64_t session) const = 0;
  /// Sessions with at least one queued query.
  virtual size_t ActiveSessions() const = 0;
  /// Removes and returns everything still queued (shutdown cancellation).
  virtual std::vector<PendingQuery> DrainAll() = 0;
};

/// \brief Concurrent query service over a DeepEverest engine: a fixed
/// thread pool consuming a bounded, session- and QoS-aware admission queue.
///
/// Clients Submit() queries and receive futures. Admission applies
/// backpressure (global + per-session queue bounds); dispatch follows the
/// DispatchPolicy `enable_qos` selects — by default strict QoS class priority
/// (interactive > batch > best_effort) with EDF for deadline-carrying
/// queries and weighted round-robin across sessions within a class, FIFO
/// within a session. Every query gets a core::QueryContext at admission
/// (class, absolute deadline, cancellation, receipt) that is threaded
/// through the engine down to the batch scheduler. Results are
/// identical to sequential execution on the same engine — the core it
/// drives (IndexManager, IqaCache, InferenceEngine, FileStore) is
/// concurrency-safe, and inference is deterministic, so only scheduling
/// order (and therefore per-query cache-hit counts) varies between runs.
/// Exact queries (theta == 1) run with tie-complete NTA termination, so
/// even cold-start races (where the build winner answers from the §4.6
/// activation scan) resolve value ties at the k-th boundary identically.
/// θ-approximate queries are guaranteed a valid θ-approximation, but on a
/// cold layer its exact members may vary with the build-race schedule (the
/// scan winner returns the exact answer; NTA losers may stop earlier).
///
/// With cross-query batching enabled (default), worker threads' inference
/// calls flow through a shared BatchingInferenceScheduler that merges
/// co-scheduled queries' inputs into shared device batches. Per-query stats
/// are receipt-metered and therefore exact under any interleaving.
///
/// The engine outlives the service; the service owns only its workers and
/// queue. All public methods are thread-safe.
class QueryService {
 public:
  /// Validates options and starts `num_workers` threads.
  static Result<std::unique_ptr<QueryService>> Create(
      core::DeepEverest* engine, const QueryServiceOptions& options);

  /// Blocks until in-flight queries finish; queued-but-unstarted queries
  /// fail with Cancelled.
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Enqueues `spec`. Fails fast — without consuming a queue slot — with
  /// InvalidArgument (malformed spec, via the shared core::ValidateSpec
  /// choke point), ResourceExhausted (queue full or session at its limit;
  /// retry later), or FailedPrecondition (shutting down). The future
  /// resolves to the query's result or execution error.
  Result<std::future<Result<core::TopKResult>>> Submit(core::QuerySpec spec);

  /// Submit() plus the query's QueryContext, for callers that need
  /// per-query control after admission — mid-flight cancellation
  /// (`context->Cancel()`) and deadline inspection. The context stays valid
  /// for the handle's lifetime regardless of how the query ends.
  Result<Submission> SubmitWithControl(core::QuerySpec spec);

  /// Submit + wait: the blocking convenience used by tests and examples.
  Result<core::TopKResult> Execute(core::QuerySpec spec);

  /// Blocks until the queue is empty and no query is in flight.
  void Drain();

  /// Stops admission, cancels queued queries, finishes in-flight work, and
  /// joins the workers. Idempotent; called by the destructor.
  void Shutdown();

  /// Current counters, latency percentiles, utilization, and IQA shard
  /// hit rates.
  ServiceStats Snapshot() const;

  /// A recently finished query's trace, while it is still in the ring
  /// (see QueryServiceOptions::trace_ring_capacity); nullptr otherwise.
  std::shared_ptr<Trace> FindTrace(uint64_t trace_id) const {
    return trace_ring_.Find(trace_id);
  }

  /// Pushes an externally produced trace (e.g. an ingest apply pass) into
  /// the same ring, so `GET /v1/trace/<id>` serves it like a query trace.
  void RecordTrace(std::shared_ptr<Trace> trace) {
    if (trace != nullptr) trace_ring_.Push(std::move(trace));
  }

  const QueryServiceOptions& options() const { return options_; }

 private:
  /// Completion-side counters, kept overall and per QoS class (see the
  /// ServiceStats field docs for exact meanings).
  struct CompletionCounters {
    std::atomic<int64_t> submitted{0};
    std::atomic<int64_t> completed{0};
    std::atomic<int64_t> failed{0};
    std::atomic<int64_t> cancelled{0};
    std::atomic<int64_t> deadline_exceeded{0};
    std::atomic<int64_t> rejected_past_deadline{0};
    LatencyHistogram latency;
  };

  QueryService(core::DeepEverest* engine, const QueryServiceOptions& options);

  void WorkerLoop();
  /// Pops the next query with mu_ held, maintaining the preemption
  /// bookkeeping: decrements the interactive-waiting hint, and counts a
  /// resume when the popped query carries a parked execution.
  PendingQuery PopLocked() REQUIRES(mu_);
  /// Runs (or resumes) one popped query on the calling worker. Returns true
  /// when the query was parked and `*pending` now holds the interactive
  /// query the worker switched to — the caller loops and processes it;
  /// false when the query in `*pending` reached an outcome (already
  /// completed, counted, and its future resolved).
  bool ProcessPending(PendingQuery* pending);
  /// Parks `*pending` between rounds and switches `*pending` to the
  /// waiting interactive query, all under one mu_ hold (so the queue's
  /// size is unchanged and no wakeup is needed or lost). Returns false —
  /// park abandoned, keep stepping — when the hint was stale or the
  /// service is stopping. `episode_seconds` is the active stepping time of
  /// the current episode, charged before the handoff.
  bool TryParkAndSwitch(PendingQuery* pending, double episode_seconds);
  /// Outcome side of every executed-or-rejected query: closes the execute
  /// span, counts, records latency, emits the slow-query log, pushes the
  /// trace, resolves the future.
  void CompletePending(PendingQuery* pending, Result<core::TopKResult> result,
                       bool executed);
  /// Buckets one finished query into the right completion counter
  /// (overall + per-class). `executed` is false for queries rejected at
  /// dispatch because their deadline had already passed while queued.
  void CountOutcome(const Result<core::TopKResult>& result, QosClass qos,
                    bool executed);

  core::DeepEverest* engine_;
  QueryServiceOptions options_;
  /// Shared cross-query batch scheduler; null when batching is disabled.
  /// Destroyed after Shutdown() has joined the workers, so no query can
  /// still be blocked inside it.
  std::unique_ptr<nn::BatchingInferenceScheduler> scheduler_;
  Stopwatch uptime_;
  /// Recently finished queries' traces, newest-wins (backs FindTrace and
  /// the HTTP front-end's `GET /v1/trace/<id>`).
  TraceRing trace_ring_;

  /// Preemption active: option on AND the built-in QoS policy is in use
  /// (see QueryServiceOptions::enable_preemption).
  bool preemption_enabled_ = false;

  mutable common::Mutex mu_;
  common::CondVar work_cv_;  // signals workers
  common::CondVar idle_cv_;  // signals Drain()
  bool stopping_ GUARDED_BY(mu_) = false;
  std::unique_ptr<DispatchPolicy> policy_ GUARDED_BY(mu_);
  size_t inflight_ GUARDED_BY(mu_) = 0;
  /// Parked queries currently sitting in the dispatch queue (subtracted
  /// from its size() for queue-depth reporting; they already started).
  size_t parked_ GUARDED_BY(mu_) = 0;

  /// Interactive queries admitted but not yet picked up — the lock-free
  /// hint workers poll between NTA rounds to decide whether to park.
  /// Written only under mu_ (admission increments, PopLocked decrements);
  /// read relaxed outside it. A stale read is harmless: a false positive is
  /// re-validated under mu_ in TryParkAndSwitch, a false negative parks one
  /// round later.
  std::atomic<int> interactive_waiting_{0};

  std::atomic<int64_t> rejected_queue_full_{0};
  std::atomic<int64_t> rejected_session_limit_{0};
  std::atomic<int64_t> busy_nanos_{0};
  std::atomic<int64_t> parked_total_{0};
  std::atomic<int64_t> resumed_total_{0};
  std::atomic<int64_t> preemptions_{0};
  CompletionCounters totals_;
  std::array<CompletionCounters, kNumQosClasses> per_class_;

  std::vector<std::thread> workers_;
};

}  // namespace service
}  // namespace deepeverest

#endif  // DEEPEVEREST_SERVICE_QUERY_SERVICE_H_
