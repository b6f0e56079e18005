#include "spe/plan_rewrite.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <map>
#include <utility>

#include "common/codec.hpp"
#include "spe/checkpoint.hpp"

namespace strata::spe {

namespace {

/// One open window lifted out of an aggregate snapshot; the accumulator
/// stays opaque bytes, so re-sharding needs no user codec.
struct WindowRecord {
  Timestamp max_stimulus = 0;
  Timestamp max_event_time = 0;
  std::string acc;
};

}  // namespace

Status ReshardAggregateSnapshots(const std::vector<std::string>& old_blobs,
                                 std::size_t new_shards,
                                 std::vector<std::string>* new_blobs) {
  if (new_shards == 0) {
    return Status::InvalidArgument("reshard: new_shards must be > 0");
  }
  // Merge every window into one canonically-ordered map. A (start, key)
  // pair living in two old blobs means the old shards disagreed about key
  // ownership — corruption, not something to paper over.
  std::map<std::pair<Timestamp, std::string>, WindowRecord> merged;
  Timestamp horizon = std::numeric_limits<Timestamp>::min();
  bool any_state = false;
  for (const std::string& blob : old_blobs) {
    if (blob.empty()) continue;  // fresh shard: nothing to merge
    std::string_view in = blob;
    Timestamp blob_horizon = 0;
    std::uint64_t count = 0;
    if (!codec::GetVarint64Signed(&in, &blob_horizon) ||
        !codec::GetVarint64(&in, &count)) {
      return Status::Corruption("reshard: truncated aggregate header");
    }
    any_state = true;
    // Max over shards: re-opening a window some shard already closed and
    // emitted would double-report; the max horizon trades bounded-lateness
    // drops for no duplicates.
    horizon = std::max(horizon, blob_horizon);
    for (std::uint64_t i = 0; i < count; ++i) {
      Timestamp start = 0;
      std::string_view key;
      WindowRecord window;
      std::string_view acc;
      if (!codec::GetVarint64Signed(&in, &start) ||
          !codec::GetLengthPrefixed(&in, &key) ||
          !codec::GetVarint64Signed(&in, &window.max_stimulus) ||
          !codec::GetVarint64Signed(&in, &window.max_event_time) ||
          !codec::GetLengthPrefixed(&in, &acc)) {
        return Status::Corruption("reshard: truncated aggregate window");
      }
      window.acc = std::string(acc);
      const auto [it, inserted] = merged.emplace(
          std::make_pair(start, std::string(key)), std::move(window));
      if (!inserted) {
        return Status::Corruption("reshard: window (" +
                                  std::to_string(start) + ", '" +
                                  std::string(key) +
                                  "') present in two shard snapshots");
      }
    }
    if (!in.empty()) {
      return Status::Corruption("reshard: trailing aggregate bytes");
    }
  }

  new_blobs->assign(new_shards, std::string());
  if (!any_state) return Status::Ok();  // all-fresh in, all-fresh out

  // Re-bucket with the router's hash so every window lands on the shard
  // that will receive its key's future tuples.
  std::hash<std::string> hasher;
  std::vector<std::uint64_t> shard_counts(new_shards, 0);
  for (const auto& [key, window] : merged) {
    ++shard_counts[hasher(key.second) % new_shards];
  }
  for (std::size_t s = 0; s < new_shards; ++s) {
    std::string* out = &(*new_blobs)[s];
    codec::PutVarint64Signed(out, horizon);  // every shard gets the horizon
    codec::PutVarint64(out, shard_counts[s]);
  }
  for (const auto& [key, window] : merged) {
    std::string* out = &(*new_blobs)[hasher(key.second) % new_shards];
    codec::PutVarint64Signed(out, key.first);
    codec::PutLengthPrefixed(out, key.second);
    codec::PutVarint64Signed(out, window.max_stimulus);
    codec::PutVarint64Signed(out, window.max_event_time);
    codec::PutLengthPrefixed(out, window.acc);
  }
  return Status::Ok();
}

Status ReshardJoinSnapshots(const std::vector<std::string>& old_blobs,
                            std::size_t new_shards,
                            std::vector<std::string>* new_blobs) {
  if (new_shards == 0) {
    return Status::InvalidArgument("reshard: new_shards must be > 0");
  }
  struct Entry {
    std::string key;
    Tuple tuple;
  };
  std::vector<Entry> sides[2];
  Timestamp max_time[2] = {std::numeric_limits<Timestamp>::max(),
                           std::numeric_limits<Timestamp>::max()};
  bool any_state = false;
  for (const std::string& blob : old_blobs) {
    if (blob.empty()) continue;
    std::string_view in = blob;
    for (std::size_t side = 0; side < 2; ++side) {
      std::uint64_t count = 0;
      if (!codec::GetVarint64(&in, &count)) {
        return Status::Corruption("reshard: truncated join buffer count");
      }
      for (std::uint64_t i = 0; i < count; ++i) {
        std::string_view key;
        if (!codec::GetLengthPrefixed(&in, &key)) {
          return Status::Corruption("reshard: truncated join key");
        }
        Entry entry;
        entry.key = std::string(key);
        STRATA_RETURN_IF_ERROR(DecodeTupleSnapshot(&in, &entry.tuple));
        sides[side].push_back(std::move(entry));
      }
    }
    Timestamp blob_max[2] = {0, 0};
    if (!codec::GetVarint64Signed(&in, &blob_max[0]) ||
        !codec::GetVarint64Signed(&in, &blob_max[1])) {
      return Status::Corruption("reshard: truncated join watermarks");
    }
    if (!in.empty()) {
      return Status::Corruption("reshard: trailing join bytes");
    }
    // Min over shards: the watermark only drives eviction, and eviction is
    // an optimization — the |τL-τR| <= window predicate still rejects stale
    // pairs — so the conservative bound can never drop a matchable pair.
    max_time[0] = std::min(max_time[0], blob_max[0]);
    max_time[1] = std::min(max_time[1], blob_max[1]);
    any_state = true;
  }

  new_blobs->assign(new_shards, std::string());
  if (!any_state) return Status::Ok();

  // Restore the deque's front-oldest invariant (Evict pops from the front).
  // Stable: a key's entries all lived on one old shard, so ties keep their
  // original relative order and per-key order survives the merge.
  for (auto& side : sides) {
    std::stable_sort(side.begin(), side.end(),
                     [](const Entry& a, const Entry& b) {
                       return a.tuple.event_time < b.tuple.event_time;
                     });
  }

  std::hash<std::string> hasher;
  std::vector<std::string> bodies[2];
  std::vector<std::uint64_t> counts[2];
  for (std::size_t side = 0; side < 2; ++side) {
    bodies[side].assign(new_shards, std::string());
    counts[side].assign(new_shards, 0);
    for (const Entry& entry : sides[side]) {
      const std::size_t s = hasher(entry.key) % new_shards;
      std::string* out = &bodies[side][s];
      codec::PutLengthPrefixed(out, entry.key);
      STRATA_RETURN_IF_ERROR(EncodeTupleSnapshot(entry.tuple, out));
      ++counts[side][s];
    }
  }
  for (std::size_t s = 0; s < new_shards; ++s) {
    std::string* out = &(*new_blobs)[s];
    for (std::size_t side = 0; side < 2; ++side) {
      codec::PutVarint64(out, counts[side][s]);
      out->append(bodies[side][s]);
    }
    codec::PutVarint64Signed(out, max_time[0]);
    codec::PutVarint64Signed(out, max_time[1]);
  }
  return Status::Ok();
}

}  // namespace strata::spe
