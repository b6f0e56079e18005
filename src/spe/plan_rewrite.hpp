// Shard re-hashing for keyed data-parallel stages (the `shards` argument of
// Query::AddAggregate / Query::AddJoin). A sharded stage runs K instances
// behind a hash router keyed on the group-by key, with a union merging the
// shard outputs (see Query::AddKeyedStage); per-key order is preserved, and
// barriers follow the router-broadcast / union-alignment rules. The helpers
// below re-bucket checkpointed shard state so a run restored onto a
// different shard count re-hashes every window / join buffer entry to its
// new home shard. Query::Recover calls them.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/status.hpp"

namespace strata::spe {

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
