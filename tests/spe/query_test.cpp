#include <gtest/gtest.h>

#include <atomic>

#include "spe/replay_source.hpp"
#include "spe_test_util.hpp"

namespace strata::spe {
namespace {

using testutil::Collector;
using testutil::CountAggregate;
using testutil::MakeTuple;

TEST(QueryLifecycle, RunCompletesWithFiniteSource) {
  Query query;
  auto src = query.AddSource("src", VectorSource({MakeTuple(1)}));
  Collector collector;
  query.AddSink("sink", src, collector.AsSink());
  query.Run();
  EXPECT_EQ(collector.size(), 1u);
}

TEST(QueryLifecycle, StopEndsInfiniteSource) {
  Query query;
  std::atomic<std::int64_t> counter{0};
  auto src = query.AddSource("src", [&]() -> std::optional<Tuple> {
    Tuple t;
    t.event_time = counter++;
    return t;
  });
  std::atomic<std::int64_t> seen{0};
  query.AddSink("sink", src, [&](const Tuple&) { ++seen; });
  query.Start();
  while (seen.load() < 100) std::this_thread::yield();
  query.Stop();
  query.Join();
  EXPECT_GE(seen.load(), 100);
}

TEST(QueryLifecycle, DestructorStopsRunningQuery) {
  std::atomic<std::int64_t> counter{0};
  {
    Query query;
    auto src = query.AddSource("src", [&]() -> std::optional<Tuple> {
      Tuple t;
      t.event_time = counter++;
      return t;
    });
    query.AddSink("sink", src, [](const Tuple&) {});
    query.Start();
    while (counter.load() < 10) std::this_thread::yield();
  }  // must not hang or crash
  SUCCEED();
}

TEST(QueryLifecycle, DoubleStartThrows) {
  Query query;
  auto src = query.AddSource("src", VectorSource({}));
  query.AddSink("sink", src, [](const Tuple&) {});
  query.Start();
  EXPECT_THROW(query.Start(), std::logic_error);
  query.Join();
}

TEST(QueryLifecycle, AddAfterStartThrows) {
  Query query;
  auto src = query.AddSource("src", VectorSource({}));
  query.AddSink("sink", src, [](const Tuple&) {});
  query.Start();
  EXPECT_THROW((void)query.AddSource("late", VectorSource({})),
               std::logic_error);
  query.Join();
}

TEST(QueryValidation, StreamCannotHaveTwoConsumers) {
  Query query;
  auto src = query.AddSource("src", VectorSource({}));
  query.AddSink("sink1", src, [](const Tuple&) {});
  EXPECT_THROW(query.AddSink("sink2", src, [](const Tuple&) {}),
               std::logic_error);
}

TEST(QueryValidation, NullStreamRejected) {
  Query query;
  EXPECT_THROW(query.AddSink("sink", nullptr, [](const Tuple&) {}),
               std::invalid_argument);
}

TEST(QueryValidation, ZeroCapacityRejected) {
  QueryOptions options;
  options.queue_capacity = 0;
  EXPECT_THROW(Query query(options), std::invalid_argument);
}

TEST(QueryBackPressure, SlowSinkThrottlesFastSource) {
  QueryOptions options;
  options.queue_capacity = 4;
  // Pin the per-tuple plane: batching widens the run-ahead bound to
  // capacity + batch-sized emit/drain buffers (covered by the batch-plane
  // tests); this test asserts the strict per-tuple bound.
  options.batch_size = 1;
  Query query(options);
  std::atomic<std::int64_t> produced{0};
  auto src = query.AddSource("fast-src", [&]() -> std::optional<Tuple> {
    if (produced >= 200) return std::nullopt;
    Tuple t;
    t.event_time = produced++;
    return t;
  });
  std::atomic<std::int64_t> consumed{0};
  query.AddSink("slow-sink", src, [&](const Tuple&) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
    ++consumed;
  });
  query.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  // The source cannot run far ahead of the sink: bounded by queue capacity
  // plus in-flight slack.
  EXPECT_LE(produced.load(), consumed.load() + 8);
  query.Join();
  EXPECT_EQ(consumed.load(), 200);
}

TEST(QueryPipeline, MultiStagePipelineProducesExpectedResult) {
  // src -> filter(evens) -> map(x2) -> aggregate(count per window) -> sink
  Query query;
  std::vector<Tuple> input;
  for (int i = 0; i < 100; ++i) {
    Tuple t = MakeTuple(i);
    t.payload.Set("v", i);
    input.push_back(t);
  }
  auto src = query.AddSource("src", VectorSource(input));
  auto evens = query.AddFilter("evens", src, [](const Tuple& t) {
    return t.payload.Get("v").AsInt() % 2 == 0;
  });
  auto doubled = query.AddFlatMap("double", evens, [](const Tuple& t) {
    Tuple out = t;
    out.payload.Set("v", t.payload.Get("v").AsInt() * 2);
    return std::vector<Tuple>{out};
  });
  auto counted = query.AddAggregate("count", doubled, CountAggregate(50, 50));
  Collector collector;
  query.AddSink("sink", counted, collector.AsSink());
  query.Run();

  const auto out = collector.tuples();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].payload.Get("count").AsInt(), 25);
  EXPECT_EQ(out[1].payload.Get("count").AsInt(), 25);
}

TEST(QueryPipeline, DiamondTopology) {
  // src -> split -> (filterA, filterB) -> union -> sink
  Query query;
  std::vector<Tuple> input;
  for (int i = 0; i < 50; ++i) {
    Tuple t = MakeTuple(i);
    t.payload.Set("v", i);
    input.push_back(t);
  }
  auto src = query.AddSource("src", VectorSource(input));
  auto branches = query.AddSplit("split", src, 2);
  auto low = query.AddFilter("low", branches[0], [](const Tuple& t) {
    return t.payload.Get("v").AsInt() < 10;
  });
  auto high = query.AddFilter("high", branches[1], [](const Tuple& t) {
    return t.payload.Get("v").AsInt() >= 40;
  });
  auto merged = query.AddUnion("union", {low, high});
  Collector collector;
  query.AddSink("sink", merged, collector.AsSink());
  query.Run();
  EXPECT_EQ(collector.size(), 20u);
}

TEST(QueryPipeline, ManualClockLatency) {
  // With a manual clock, sink latency = clock delta between source emission
  // and sink consumption; here nothing advances the clock, so latency = 0.
  ManualClock clock(1000);
  QueryOptions options;
  options.clock = &clock;
  Query query(options);
  auto src = query.AddSource("src", VectorSource({MakeTuple(1)}));
  Collector collector;
  auto* sink = query.AddSink("sink", src, collector.AsSink());
  query.Run();
  const Histogram latency = sink->LatencySnapshot();
  ASSERT_EQ(latency.count(), 1u);
  EXPECT_EQ(latency.max(), 0);
}

TEST(QueryIntrospection, ToDotRendersDag) {
  Query query;
  auto src = query.AddSource("src", VectorSource({}));
  auto mapped = query.AddFlatMap(
      "stage", src, [](const Tuple& t) { return std::vector<Tuple>{t}; });
  query.AddSink("out", mapped, [](const Tuple&) {});
  const std::string dot = query.ToDot();
  EXPECT_NE(dot.find("digraph query"), std::string::npos);
  EXPECT_NE(dot.find("src"), std::string::npos);
  EXPECT_NE(dot.find("stage"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
}

TEST(QueryTransport, StartPutsOnlyPrivateStreamsOnSpsc) {
  Query query;
  auto src = query.AddSource("src", VectorSource({MakeTuple(1), MakeTuple(2)}));
  auto identity = [](const Tuple& t) { return std::vector<Tuple>{t}; };
  auto mapped = query.AddFlatMap("map", src, identity);
  auto sharded = query.AddFlatMap(
      "par", mapped, identity, 2,
      [](const Tuple& t) { return std::to_string(t.event_time); });
  auto copies = query.AddSplit("tee", sharded, 2);
  Collector first;
  Collector second;
  query.AddSink("sink0", copies[0], first.AsSink());
  query.AddSink("sink1", copies[1], second.AsSink());
  query.Run();
  EXPECT_EQ(first.size(), 2u);
  EXPECT_EQ(second.size(), 2u);
  // One producer and one consumer operator: the lock-free ring, including
  // each branch of a split.
  EXPECT_TRUE(src->spsc());
  EXPECT_TRUE(copies[0]->spsc());
  EXPECT_TRUE(copies[1]->spsc());
  // A router reads `mapped` and a union writes `sharded`: both stay MPMC.
  EXPECT_FALSE(mapped->spsc());
  EXPECT_FALSE(sharded->spsc());
}

TEST(QueryStats, OperatorCountsAllInstances) {
  Query query;
  auto src = query.AddSource("src", VectorSource({}));
  auto mapped = query.AddFlatMap(
      "m", src, [](const Tuple& t) { return std::vector<Tuple>{t}; }, 3,
      [](const Tuple& t) { return std::to_string(t.layer); });
  query.AddSink("sink", mapped, [](const Tuple&) {});
  // source + router + 3 workers + union + sink = 7
  EXPECT_EQ(query.operator_count(), 7u);
}

}  // namespace
}  // namespace strata::spe
