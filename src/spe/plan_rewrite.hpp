// Plan rewriting for the SPE data plane (ROADMAP item 3, after the stream
// fusion line of work — Kiselyov et al., "Complete Stream Fusion for
// Software-Defined Radio" / "Highest-performance Stream Processing").
//
// Two transforms, both applied by Query::Start and both plan-level only
// (builder code and operator semantics are untouched):
//
//  1. Operator fusion (QueryOptions::enable_fusion): maximal chains of
//     adjacent stateless operators (FlatMap/Filter, each 1-input/1-output,
//     linked by a stream with exactly one registered producer and one
//     registered consumer) collapse into a single FusedOperator that runs
//     the whole chain per tuple on one thread — the interior streams are
//     never touched, so a fused chain costs zero intermediate queue
//     synchronizations. The absorbed operators never run; the fused worker
//     executes their functions in order and attributes per-stage counts
//     (tuples in/out, user errors, discards) back to them, so
//     spe.operator.* metrics and OperatorStats keep per-stage identity.
//
//  2. Keyed data-parallel sharding (the `shards` argument of
//     Query::AddAggregate / Query::AddJoin): a stateful stage is
//     partitioned across K instances behind a hash router keyed on the
//     group-by key, with a union merging the shard outputs. Per-key order
//     is preserved (a key always hashes to the same shard, and the union
//     preserves per-input order); cross-key order is not. The helpers
//     below re-bucket checkpointed shard state so a run restored onto a
//     different shard count re-hashes every window / join buffer entry to
//     its new home shard.
//
// Checkpoint composition: a FusedOperator forwards an epoch barrier as a
// unit — it flushes the chain's emit buffers, reports one snapshot per
// constituent operator (under the constituent's registered name), then
// forwards the barrier once. Keyed shards rely on the existing
// router-broadcast / union-alignment barrier rules.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "spe/operator.hpp"

namespace strata::spe {

/// A single fused worker executing a chain of stateless stages per tuple.
/// Borrows the absorbed operators (owned by the Query): their user
/// functions drive the stages and their counters receive the per-stage
/// attribution. Created by FuseStatelessChains; never built directly.
class FusedOperator final : public Operator {
 public:
  /// One absorbed stage: exactly one of flatmap/filter is set, borrowed
  /// from `op` (which outlives the fused worker — both live on the Query).
  struct Stage {
    Operator* op = nullptr;
    const FlatMapFn* flatmap = nullptr;
    const FilterFn* filter = nullptr;
  };

  FusedOperator(std::string name, const Clock* clock,
                std::vector<Stage> stages);

  [[nodiscard]] const char* kind() const noexcept override { return "fused"; }
  void Run() override;

  [[nodiscard]] const std::vector<Stage>& stages() const noexcept {
    return stages_;
  }

 private:
  /// Barriers and the end of the chain are reported once per absorbed
  /// constituent, under its own registered name.
  [[nodiscard]] std::vector<Operator*> CheckpointIdentities() override;

  std::vector<Stage> stages_;
};

/// The operators registered at one stream's two ends.
struct StreamEndpoints {
  int producers = 0;
  int consumers = 0;
  /// A router or union is one of them.
  bool plumbing = false;
};

/// Endpoint census of every stream `operators` read or write. A stream
/// pushed or popped from outside the query has an endpoint the census cannot
/// see, so "one producer, one consumer" means private only for streams the
/// query built. Query::Start uses it to pick the SPSC transport and the
/// fusion pass to find private links.
[[nodiscard]] std::unordered_map<Stream*, StreamEndpoints> CountStreamEndpoints(
    const std::vector<std::unique_ptr<Operator>>& operators);

/// Result of the fusion pass: the fused workers to run instead of the
/// absorbed originals.
struct FusionPlan {
  std::vector<std::unique_ptr<FusedOperator>> fused;
  /// Operators absorbed into a fused worker (no thread is spawned for
  /// them; their counters are updated by the fused worker).
  std::vector<Operator*> absorbed;
};

/// Finds maximal fusable chains among `operators` (see file comment for
/// the eligibility rules) and builds one FusedOperator per chain of length
/// >= 2. Runs single-threaded before operator threads spawn.
[[nodiscard]] FusionPlan FuseStatelessChains(
    const std::vector<std::unique_ptr<Operator>>& operators,
    const Clock* clock);

// ------------------------------------------------------- shard re-hashing
//
// Both helpers parse the operators' snapshot wire format directly (keys and
// accumulator payloads stay opaque bytes), so re-sharding never needs the
// user codecs. The bucket function must match RouterOperator's:
// std::hash<std::string>{}(key) % shards.

/// Re-buckets AggregateOperator snapshots (any old shard count, including a
/// single unsharded blob) into `new_shards` blobs. Every output blob gets
/// the max closed-horizon of the inputs: re-opening a window some old shard
/// already closed and emitted would double-report, so the merged horizon
/// trades (bounded-lateness) late drops for no duplicates.
[[nodiscard]] Status ReshardAggregateSnapshots(
    const std::vector<std::string>& old_blobs, std::size_t new_shards,
    std::vector<std::string>* new_blobs);

/// Re-buckets JoinOperator snapshots into `new_shards` blobs. Per-side
/// buffers are merged in event-time order and every output blob gets the
/// min per-side watermark of the inputs: eviction is only an optimization
/// (the |τL-τR| <= window predicate still rejects stale pairs), so the
/// conservative watermark can never drop a matchable pair.
[[nodiscard]] Status ReshardJoinSnapshots(
    const std::vector<std::string>& old_blobs, std::size_t new_shards,
    std::vector<std::string>* new_blobs);

}  // namespace strata::spe
