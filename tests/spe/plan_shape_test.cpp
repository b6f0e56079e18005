// Plan shape of the keyed stages: AddFlatMap(parallelism), AddAggregate
// (shards) and AddJoin(shards) at n = 3 and n = 1. Operator and stream names
// are metric labels and checkpoint-manifest keys, so the exact DAG rendering,
// the Stats() name/kind list and the names a checkpoint records are pinned
// byte for byte.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/codec.hpp"
#include "spe/checkpoint.hpp"
#include "spe/query.hpp"

namespace strata::spe {
namespace {

using namespace std::chrono_literals;

std::string JobKey(const Tuple& t) { return std::to_string(t.job); }

/// Per-job tuple count with an accumulator codec, so the aggregate shards
/// can checkpoint.
AggregateSpec JobCountSpec() {
  AggregateSpec spec;
  spec.window = {10, 10};
  spec.key = JobKey;
  spec.init = [] { return std::any(std::int64_t{0}); };
  spec.add = [](std::any& acc, const Tuple&) {
    ++std::any_cast<std::int64_t&>(acc);
  };
  spec.result = [](std::any& acc, Timestamp, Timestamp) {
    Tuple out;
    out.payload.Set("count", std::any_cast<std::int64_t>(acc));
    return std::vector<Tuple>{out};
  };
  spec.encode_acc = [](const std::any& acc, std::string* out) {
    codec::PutVarint64Signed(out, std::any_cast<std::int64_t>(acc));
    return Status::Ok();
  };
  spec.decode_acc = [](std::string_view in) -> Result<std::any> {
    std::int64_t count = 0;
    if (!codec::GetVarint64Signed(&in, &count) || !in.empty()) {
      return Status::Corruption("job count accumulator");
    }
    return std::any(count);
  };
  return spec;
}

struct PlanShape {
  std::string dot;
  std::vector<std::pair<std::string, std::string>> operators;  // name, kind
  std::vector<std::string> checkpointed;  // names in the latest manifest
};

/// src.a -> fm -> agg -> join.left; src.b -> join.right; join -> sink, every
/// keyed stage at parallelism `n`. Runs until one checkpoint completes.
PlanShape BuildAndCheckpoint(int n) {
  InMemoryCheckpointStore store;
  CheckpointerOptions cp_options;
  cp_options.interval_ms = 5;
  Query query;
  // Paced sources that keep producing until an epoch has completed (bounded
  // at ~2 s), so every operator has taken part in a checkpoint.
  auto make_source = [&query](std::int64_t offset) {
    auto next = std::make_shared<std::int64_t>(0);
    return [&query, next, offset]() -> std::optional<Tuple> {
      const bool checkpointed =
          query.checkpointer()->stats().epochs_completed >= 1;
      if ((*next >= 20 && checkpointed) || *next >= 2000) return std::nullopt;
      std::this_thread::sleep_for(1ms);
      Tuple t;
      t.event_time = ++*next;
      t.job = (*next + offset) % 5;
      t.payload.Set("v", *next);
      return t;
    };
  };
  StreamPtr a = query.AddSource("src.a", make_source(0));
  StreamPtr b = query.AddSource("src.b", make_source(1));
  StreamPtr mapped = query.AddFlatMap(
      "fm", a, [](const Tuple& t) { return std::vector<Tuple>{t}; }, n,
      JobKey);
  StreamPtr counted = query.AddAggregate("agg", mapped, JobCountSpec(), n);
  JoinSpec join;
  join.window = 1000;
  join.key_left = JobKey;
  join.key_right = JobKey;
  StreamPtr joined = query.AddJoin("join", counted, b, join, n);
  query.AddSink("sink", joined, [](const Tuple&) {});
  query.EnableCheckpointing(&store, cp_options);
  query.Run();

  PlanShape shape;
  shape.dot = query.ToDot();
  for (const OperatorStats& s : query.Stats()) {
    shape.operators.emplace_back(s.name, s.kind);
  }
  const auto epoch = store.LatestEpoch();
  EXPECT_TRUE(epoch.ok()) << "no checkpoint completed";
  if (!epoch.ok()) return shape;
  const auto blob = store.Get(*epoch);
  EXPECT_TRUE(blob.ok());
  if (!blob.ok()) return shape;
  const auto manifest = CheckpointManifest::Decode(*blob);
  EXPECT_TRUE(manifest.ok());
  if (!manifest.ok()) return shape;
  for (const OperatorSnapshot& snapshot : manifest->operators) {
    shape.checkpointed.push_back(snapshot.name);
  }
  return shape;
}

TEST(PlanShape, KeyedStagesAtParallelismThree) {
  const PlanShape shape = BuildAndCheckpoint(3);
  EXPECT_EQ(shape.dot, R"(digraph query {
  rankdir=LR;
  node [shape=box];
  op0 [label="src.a"];
  op1 [label="src.b"];
  op2 [label="fm.router"];
  op3 [label="fm.union"];
  op4 [label="fm[0]"];
  op5 [label="fm[1]"];
  op6 [label="fm[2]"];
  op7 [label="agg.router"];
  op8 [label="agg.union"];
  op9 [label="agg[0]"];
  op10 [label="agg[1]"];
  op11 [label="agg[2]"];
  op12 [label="join.router.left"];
  op13 [label="join.router.right"];
  op14 [label="join.union"];
  op15 [label="join[0]"];
  op16 [label="join[1]"];
  op17 [label="join[2]"];
  op18 [label="sink"];
  op0 -> op2 [label="src.a.out"];
  op4 -> op3 [label="fm.shard0.out"];
  op5 -> op3 [label="fm.shard1.out"];
  op6 -> op3 [label="fm.shard2.out"];
  op2 -> op4 [label="fm.shard0"];
  op2 -> op5 [label="fm.shard1"];
  op2 -> op6 [label="fm.shard2"];
  op3 -> op7 [label="fm.out"];
  op9 -> op8 [label="agg.shard0.out"];
  op10 -> op8 [label="agg.shard1.out"];
  op11 -> op8 [label="agg.shard2.out"];
  op7 -> op9 [label="agg.shard0"];
  op7 -> op10 [label="agg.shard1"];
  op7 -> op11 [label="agg.shard2"];
  op8 -> op12 [label="agg.out"];
  op1 -> op13 [label="src.b.out"];
  op15 -> op14 [label="join.shard0.out"];
  op16 -> op14 [label="join.shard1.out"];
  op17 -> op14 [label="join.shard2.out"];
  op12 -> op15 [label="join.left0"];
  op13 -> op15 [label="join.right0"];
  op12 -> op16 [label="join.left1"];
  op13 -> op16 [label="join.right1"];
  op12 -> op17 [label="join.left2"];
  op13 -> op17 [label="join.right2"];
  op14 -> op18 [label="join.out"];
}
)");
  const std::vector<std::pair<std::string, std::string>> operators = {
      {"src.a", "source"},         {"src.b", "source"},
      {"fm.router", "router"},     {"fm.union", "union"},
      {"fm[0]", "flatmap"},        {"fm[1]", "flatmap"},
      {"fm[2]", "flatmap"},        {"agg.router", "router"},
      {"agg.union", "union"},      {"agg[0]", "aggregate"},
      {"agg[1]", "aggregate"},     {"agg[2]", "aggregate"},
      {"join.router.left", "router"},
      {"join.router.right", "router"},
      {"join.union", "union"},     {"join[0]", "join"},
      {"join[1]", "join"},         {"join[2]", "join"},
      {"sink", "sink"}};
  EXPECT_EQ(shape.operators, operators);
  // The manifest keys are the operator names, in registration order.
  const std::vector<std::string> checkpointed = {
      "src.a",      "src.b",      "fm.router",        "fm.union",
      "fm[0]",      "fm[1]",      "fm[2]",            "agg.router",
      "agg.union",  "agg[0]",     "agg[1]",           "agg[2]",
      "join.router.left",         "join.router.right", "join.union",
      "join[0]",    "join[1]",    "join[2]",          "sink"};
  EXPECT_EQ(shape.checkpointed, checkpointed);
}

TEST(PlanShape, KeyedStagesAtParallelismOne) {
  const PlanShape shape = BuildAndCheckpoint(1);
  EXPECT_EQ(shape.dot, R"(digraph query {
  rankdir=LR;
  node [shape=box];
  op0 [label="src.a"];
  op1 [label="src.b"];
  op2 [label="fm"];
  op3 [label="agg"];
  op4 [label="join"];
  op5 [label="sink"];
  op0 -> op2 [label="src.a.out"];
  op2 -> op3 [label="fm.out"];
  op3 -> op4 [label="agg.out"];
  op1 -> op4 [label="src.b.out"];
  op4 -> op5 [label="join.out"];
}
)");
  const std::vector<std::pair<std::string, std::string>> operators = {
      {"src.a", "source"}, {"src.b", "source"}, {"fm", "flatmap"},
      {"agg", "aggregate"}, {"join", "join"},   {"sink", "sink"}};
  EXPECT_EQ(shape.operators, operators);
  const std::vector<std::string> checkpointed = {"src.a", "src.b", "fm",
                                                 "agg",   "join",  "sink"};
  EXPECT_EQ(shape.checkpointed, checkpointed);
}

}  // namespace
}  // namespace strata::spe
