// Continuous query: a DAG of operators connected by bounded streams (paper
// §2). The builder API creates operators and returns the stream handle of
// each operator's output; every stream has exactly one producer and one
// consumer (fan-out is explicit via AddSplit). Keyed parallelism — the
// `parallelism` argument of AddFlatMap and the `shards` argument of
// AddAggregate and AddJoin — builds one hash router per input, n worker
// instances `name[i]` and a union merging their outputs.
//
// Lifecycle: build -> Start() -> [Stop()] -> Join(). Sources end the query
// naturally by returning nullopt; Stop() asks sources to finish early. End
// of stream cascades: each operator flushes its state, closes its outputs,
// and exits, so Join() returns once the sinks have consumed everything.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "obs/metrics.hpp"
#include "spe/checkpoint.hpp"
#include "spe/operator.hpp"

namespace strata::spe {

struct QueryOptions {
  std::size_t queue_capacity = 1024;
  const Clock* clock = &Clock::System();
  /// Emit-buffer flush threshold per output (tuples). 1 = per-tuple pushes
  /// (the pre-batch data plane); larger values amortize queue
  /// synchronization at high rates. See BatchPolicy.
  std::size_t batch_size = BatchPolicy{}.batch_size;
  /// Upper bound (µs, query clock) a tuple may wait in an emit buffer.
  /// Idle-triggered flushes keep latency flat at low rates regardless.
  std::int64_t batch_linger_us = BatchPolicy{}.linger_us;
};

class Query {
 public:
  explicit Query(QueryOptions options = {});
  ~Query();
  Query(const Query&) = delete;
  Query& operator=(const Query&) = delete;

  // ----- builders (call before Start) -----

  [[nodiscard]] StreamPtr AddSource(const std::string& name, SourceFn fn);

  /// Source whose function yields whole batches (e.g. one broker poll);
  /// each yielded batch is emitted and flushed downstream as a unit.
  [[nodiscard]] StreamPtr AddBatchSource(const std::string& name,
                                         BatchSourceFn fn);

  /// Map/FlatMap. With parallelism > 1 a hash router shards tuples by
  /// `shard_key` across `parallelism` instances whose outputs are unioned
  /// (per-key order preserved; cross-key order not).
  [[nodiscard]] StreamPtr AddFlatMap(const std::string& name, StreamPtr in,
                                     FlatMapFn fn, int parallelism = 1,
                                     KeyFn shard_key = nullptr);

  [[nodiscard]] StreamPtr AddFilter(const std::string& name, StreamPtr in,
                                    FilterFn fn);

  /// Windowed aggregate. With shards > 1 the stage is keyed-data-parallel:
  /// a hash router partitions tuples by `spec.key` (required) across
  /// `shards` instances named `name[i]` whose outputs are unioned
  /// (per-key order preserved; cross-key order not). Checkpoint state is
  /// per shard; Recover() re-hashes it onto a different shard count.
  [[nodiscard]] StreamPtr AddAggregate(const std::string& name, StreamPtr in,
                                       AggregateSpec spec, int shards = 1);

  /// Time-bound join. With shards > 1 both sides are hash-routed by their
  /// respective group-by keys (`spec.key_left`/`spec.key_right`, required)
  /// across `shards` join instances; matching pairs agree on key and so
  /// land on the same shard. Same checkpoint/re-hash story as AddAggregate.
  [[nodiscard]] StreamPtr AddJoin(const std::string& name, StreamPtr left,
                                  StreamPtr right, JoinSpec spec,
                                  int shards = 1);

  [[nodiscard]] StreamPtr AddUnion(const std::string& name,
                                   std::vector<StreamPtr> ins);

  /// Duplicates a stream to `n` consumers (explicit DAG fan-out).
  [[nodiscard]] std::vector<StreamPtr> AddSplit(const std::string& name,
                                                StreamPtr in, int n);

  /// Terminal operator. Returns the sink so callers can read its latency
  /// histogram; the Query keeps ownership.
  SinkOperator* AddSink(const std::string& name, StreamPtr in, SinkFn fn);

  // ----- checkpointing (call before Start) -----

  /// Enable epoch-barrier checkpointing against `store` (caller keeps
  /// ownership; must outlive the query). Start() then registers every
  /// operator with the coordinator — which requires operator names to be
  /// unique — and runs the epoch timer for the life of the query.
  void EnableCheckpointing(CheckpointStore* store,
                           CheckpointerOptions options = {});

  /// Restore the latest complete checkpoint into the rebuilt DAG: each
  /// manifest blob is matched to an operator by name and fed to its
  /// RestoreState; blobs naming operators absent from this build are warned
  /// about and dropped. NotFound in the store (no checkpoint yet) is a
  /// normal fresh start, not an error. Epoch numbering resumes after the
  /// recovered epoch. Call after building the DAG, before Start().
  [[nodiscard]] Status Recover();

  /// Epoch restored by the last successful Recover(); 0 = fresh start.
  [[nodiscard]] std::uint64_t recovered_epoch() const noexcept {
    return recovered_epoch_;
  }

  /// The operator registered under `name`, or nullptr. Used by the strata
  /// facade (and tests) to install state hooks on connector endpoints.
  [[nodiscard]] Operator* FindOperator(const std::string& name);

  /// The checkpoint coordinator, or nullptr when checkpointing is off.
  [[nodiscard]] Checkpointer* checkpointer() noexcept {
    return checkpointer_.get();
  }

  // ----- lifecycle -----

  void Start();
  /// Ask sources to finish; pipeline drains and Join() then returns.
  void Stop();
  /// Wait until every operator thread exits.
  void Join();
  /// Convenience: Start + Join (for finite sources).
  void Run();

  [[nodiscard]] bool started() const noexcept { return started_; }

  // ----- introspection -----

  /// Expose per-operator counters (spe.operator.*{op,kind}) and per-stream
  /// gauges (spe.stream.*{stream}) on `registry` via a pull callback.
  /// Rebinding replaces the previous registration; nullptr unbinds. The
  /// callback is unregistered automatically on destruction, so the registry
  /// must outlive the query.
  void BindMetrics(obs::MetricsRegistry* registry);

  [[nodiscard]] std::vector<OperatorStats> Stats() const;
  [[nodiscard]] std::size_t operator_count() const noexcept {
    return operators_.size();
  }

  /// GraphViz rendering of the operator/stream DAG (for docs + debugging).
  [[nodiscard]] std::string ToDot() const;

 private:
  /// A keyed-parallel Aggregate/Join built by the shards argument; recorded
  /// even at shards == 1 so Recover() can re-hash a manifest written under
  /// a different shard count onto this plan's shape.
  struct ShardGroup {
    std::string base;
    bool is_join = false;
    int shards = 1;

    /// Name of instance `i`: `base` when unsharded, else `base[i]`.
    [[nodiscard]] std::string instance(int i) const {
      return shards == 1 ? base : base + "[" + std::to_string(i) + "]";
    }
  };

  using NewWorkerFn = std::function<Operator*(const std::string& name)>;

  StreamPtr NewStream(const std::string& name);
  void Consume(const StreamPtr& stream);  // enforce single consumer
  /// Builds one keyed stage over `ins` (one input, or a join's [L, R]) with
  /// `keys[s]` keying input s. n == 1: one worker named `name` reads the
  /// inputs directly. n > 1: a router per input (`name.router`, or
  /// `name.router.left/right`), n workers `name[i]` fed by `name.shard{i}`
  /// (or `name.left{i}`/`name.right{i}`) and writing `name.shard{i}.out`,
  /// and a union `name.union`. The stage's output stream is `name.out`.
  /// The inputs must already be Consume()d.
  StreamPtr AddKeyedStage(const std::string& name, std::vector<StreamPtr> ins,
                          std::vector<KeyFn> keys, int n,
                          const NewWorkerFn& new_worker);
  /// Switch streams with one producer op, one consumer op and no
  /// router/union endpoint to the lock-free SPSC transport (MPMC stays on
  /// the fan-out/fan-in edges).
  void EnableSpscFastPaths();
  /// Re-hash `group`'s manifest blobs onto its current shard count; blob
  /// names consumed here are added to `consumed` and skipped by the plain
  /// by-name restore loop. No-op when the manifest's shape already matches.
  [[nodiscard]] Status RestoreShardGroup(
      const ShardGroup& group, const CheckpointManifest& manifest,
      std::unordered_set<std::string>* consumed);
  /// FindOperator for callers already holding build_mu_.
  [[nodiscard]] Operator* FindOperatorLocked(const std::string& name) const;
  template <typename Op, typename... Args>
  Op* NewOperator(Args&&... args);

  QueryOptions options_;
  /// Guards operators_/streams_ against concurrent builder calls and the
  /// metrics snapshot callback (which may run on a sampler thread).
  mutable std::mutex build_mu_;
  std::vector<std::unique_ptr<Operator>> operators_;
  std::vector<ShardGroup> shard_groups_;
  std::vector<StreamPtr> streams_;
  std::unordered_set<Stream*> consumed_;
  std::vector<std::thread> threads_;
  std::unique_ptr<Checkpointer> checkpointer_;
  std::uint64_t recovered_epoch_ = 0;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::MetricsRegistry::CallbackId metrics_callback_ = 0;
  bool started_ = false;
  bool joined_ = false;
};

}  // namespace strata::spe
