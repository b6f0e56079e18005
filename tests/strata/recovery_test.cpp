// Crash-recovery plumbing above the SPE: the kv-backed checkpoint store,
// the effectively-once durable sink, and a full facade-level
// checkpoint -> shutdown -> rebuild -> recover round trip.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/codec.hpp"
#include "common/fs.hpp"
#include "strata/checkpoint_store.hpp"
#include "strata/strata.hpp"

namespace strata::core {
namespace {

using namespace std::chrono_literals;

template <typename Pred>
bool WaitUntil(Pred pred, std::chrono::milliseconds timeout = 5000ms) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(1ms);
  }
  return true;
}

// --------------------------------------------------- KvCheckpointStore

class KvCheckpointStoreTest : public ::testing::Test {
 protected:
  KvCheckpointStoreTest() : dir_("ckpt-store") {
    db_ = std::move(kv::DB::Open(dir_.path(), {})).value();
  }
  strata::fs::ScopedTempDir dir_;
  std::unique_ptr<kv::DB> db_;
};

TEST_F(KvCheckpointStoreTest, FreshStoreHasNoEpoch) {
  KvCheckpointStore store(db_.get());
  EXPECT_TRUE(store.LatestEpoch().status().IsNotFound());
  EXPECT_FALSE(store.Get(1).ok());
}

TEST_F(KvCheckpointStoreTest, PutCommitGetRoundTrip) {
  KvCheckpointStore store(db_.get());
  ASSERT_TRUE(store.Put(1, "manifest-1").ok());
  // Put alone is staging: not recoverable until the commit pointer moves.
  EXPECT_TRUE(store.LatestEpoch().status().IsNotFound());
  ASSERT_TRUE(store.Commit(1).ok());

  auto latest = store.LatestEpoch();
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(*latest, 1u);
  auto blob = store.Get(1);
  ASSERT_TRUE(blob.ok());
  EXPECT_EQ(*blob, "manifest-1");
}

TEST_F(KvCheckpointStoreTest, GcKeepsTwoNewestEpochs) {
  KvCheckpointStore store(db_.get());
  for (std::uint64_t epoch = 1; epoch <= 5; ++epoch) {
    const std::string n = std::to_string(epoch);
    ASSERT_TRUE(store.Put(epoch, "m" + n).ok());
    ASSERT_TRUE(store.Commit(epoch).ok());
  }
  EXPECT_EQ(*store.LatestEpoch(), 5u);
  // The previous complete epoch survives as a fallback recovery point;
  // everything older is garbage-collected.
  EXPECT_TRUE(store.Get(5).ok());
  EXPECT_TRUE(store.Get(4).ok());
  EXPECT_FALSE(store.Get(3).ok());
  EXPECT_FALSE(store.Get(2).ok());
  EXPECT_FALSE(store.Get(1).ok());
}

TEST_F(KvCheckpointStoreTest, SurvivesReopen) {
  {
    KvCheckpointStore store(db_.get());
    ASSERT_TRUE(store.Put(7, "persisted").ok());
    ASSERT_TRUE(store.Commit(7).ok());
  }
  db_.reset();
  db_ = std::move(kv::DB::Open(dir_.path(), {})).value();
  KvCheckpointStore store(db_.get());
  ASSERT_TRUE(store.LatestEpoch().ok());
  EXPECT_EQ(*store.LatestEpoch(), 7u);
  EXPECT_EQ(*store.Get(7), "persisted");
}

TEST_F(KvCheckpointStoreTest, DistinctPrefixesAreIndependent) {
  KvCheckpointStore a(db_.get(), "a/");
  KvCheckpointStore b(db_.get(), "b/");
  ASSERT_TRUE(a.Put(1, "for-a").ok());
  ASSERT_TRUE(a.Commit(1).ok());
  EXPECT_TRUE(b.LatestEpoch().status().IsNotFound());
}

// ------------------------------------------------------- DeliverDurable

TEST(DeliverDurable, WritesEachKeyOnceAndCountsDuplicates) {
  Strata strata;
  auto next = std::make_shared<int>(0);
  auto stream = strata.AddSource("src", [next]() -> std::optional<spe::Tuple> {
    if (*next >= 6) return std::nullopt;
    spe::Tuple t;
    t.job = 1;
    t.layer = *next;
    t.event_time = (*next)++ + 1;
    return t;
  });
  // Six tuples, three distinct keys: the second write of each key must be
  // recognized as a duplicate and dropped.
  strata.DeliverDurable("reports", stream, "reports/",
                        [](const spe::Tuple& t) {
                          return std::to_string(t.layer % 3);
                        });
  strata.Deploy();
  strata.WaitForCompletion();

  auto entries = strata.GetByPrefix("reports/");
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 3u);

  bool found = false;
  for (const auto& sample : strata.MetricsSnapshot().samples) {
    if (sample.name == "strata.deliver_durable.duplicates") {
      EXPECT_EQ(sample.value, 3);
      found = true;
    }
  }
  EXPECT_TRUE(found) << "duplicate counter not exported";
  strata.Shutdown();
}

// ------------------------------------- facade-level checkpoint/recover

std::int64_t FirstDelivered(const std::vector<std::int64_t>& values) {
  return values.empty() ? -1 : values.front();
}

TEST(StrataRecovery, RebuildRecoversFromLatestEpochAndResumesSource) {
  strata::fs::ScopedTempDir dir("strata-recover");
  StrataOptions options;
  options.data_dir = dir.path();
  options.persistent_connectors = true;
  options.checkpoint_interval_ms = 20;

  // ---- run A: emit until at least one epoch commits, then shut down ----
  std::int64_t source_position_a = 0;
  {
    Strata strata(options);
    auto position = std::make_shared<std::int64_t>(0);
    auto stream = strata.AddSource(
        "gen", [position]() -> std::optional<spe::Tuple> {
          std::this_thread::sleep_for(1ms);  // outlive several intervals
          spe::Tuple t;
          t.job = 1;
          t.layer = (*position)++;
          t.event_time = t.layer + 1;
          return t;
        });
    std::atomic<std::int64_t> delivered{0};
    strata.Deliver("sink", stream, [&](const spe::Tuple&) { ++delivered; });
    strata.query().FindOperator("gen")->SetStateHooks(
        [position](std::uint64_t, std::string* out) {
          codec::PutVarint64(out, static_cast<std::uint64_t>(*position));
          return Status::Ok();
        },
        [position](std::string_view blob) {
          std::uint64_t value = 0;
          if (!codec::GetVarint64(&blob, &value)) {
            return Status::Corruption("gen snapshot");
          }
          *position = static_cast<std::int64_t>(value);
          return Status::Ok();
        });
    strata.Deploy();
    EXPECT_EQ(strata.query().recovered_epoch(), 0u);  // fresh start
    ASSERT_TRUE(WaitUntil([&] {
      return strata.query().checkpointer()->stats().epochs_completed >= 1 &&
             delivered.load() > 0;
    }));
    strata.Shutdown();
    source_position_a = *position;
    ASSERT_GT(source_position_a, 0);
  }

  // ---- run B: same directory, same pipeline, fresh process state ----
  {
    Strata strata(options);
    auto position = std::make_shared<std::int64_t>(0);
    auto restored_at = std::make_shared<std::int64_t>(-1);
    auto stream = strata.AddSource(
        "gen", [position]() -> std::optional<spe::Tuple> {
          spe::Tuple t;
          t.job = 1;
          t.layer = (*position)++;
          t.event_time = t.layer + 1;
          return t;
        });
    std::vector<std::int64_t> delivered;
    std::mutex mu;
    strata.Deliver("sink", stream, [&](const spe::Tuple& t) {
      std::lock_guard lock(mu);
      delivered.push_back(t.layer);
    });
    strata.query().FindOperator("gen")->SetStateHooks(
        [position](std::uint64_t, std::string* out) {
          codec::PutVarint64(out, static_cast<std::uint64_t>(*position));
          return Status::Ok();
        },
        [position, restored_at](std::string_view blob) {
          std::uint64_t value = 0;
          if (!codec::GetVarint64(&blob, &value)) {
            return Status::Corruption("gen snapshot");
          }
          *position = static_cast<std::int64_t>(value);
          *restored_at = *position;
          return Status::Ok();
        });
    strata.Deploy();  // recovers before starting

    // The checkpoint was found and the generator resumed mid-stream
    // instead of re-emitting from zero.
    EXPECT_GT(strata.query().recovered_epoch(), 0u);
    EXPECT_GT(*restored_at, 0) << "generator position not restored";
    EXPECT_LE(*restored_at, source_position_a);

    ASSERT_TRUE(WaitUntil([&] {
      std::lock_guard lock(mu);
      return delivered.size() >= 5;
    }));
    strata.Shutdown();

    std::lock_guard lock(mu);
    // Replay starts at the checkpoint cut (at-least-once), never at zero:
    // the subscriber's restored cursor skips everything the checkpoint
    // already covered.
    EXPECT_GT(FirstDelivered(delivered), 0)
        << "recovery replayed the stream from the beginning";
  }
}

}  // namespace
}  // namespace strata::core
