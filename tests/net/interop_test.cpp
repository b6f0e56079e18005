// Client/server interop and failure-surface tests:
//
//   * a server built with another protocol version refuses the client's
//     Hello with an error naming both versions, and the client returns it
//     without retrying;
//   * pipelined correlated produces across a connection the server severs
//     mid-stream (net.server.dispatch failpoint) must recover with
//     at-least-once semantics and matching correlation ids;
//   * broker disk failures must reach remote producers as *distinct*,
//     non-retried application errors: fail-stop -> StorageFailed (sticky),
//     degrade -> acks keep flowing with the shard flagged in BrokerStats.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/fs.hpp"
#include "fault/failpoint.hpp"
#include "net/frame.hpp"
#include "net/remote.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"
#include "pubsub/broker.hpp"

namespace strata::net {
namespace {

using namespace std::chrono_literals;

class InteropTest : public ::testing::Test {
 protected:
  void TearDown() override { fault::DeactivateAll(); }
};

// Every peer speaks exactly kProtocolVersion; there is no downgrade. A
// broker from another build answers Hello with an application error, which
// must reach the caller as a final server error: retrying or reconnecting
// cannot change the peer's version.
TEST_F(InteropTest, MismatchedHelloIsRefusedWithoutRetry) {
  // The real server refuses a Hello claiming any other version.
  ps::Broker broker;
  BrokerServer server(&broker);
  ASSERT_TRUE(server.Start().ok());
  {
    auto socket = Socket::Connect("127.0.0.1", server.port(), After(2s));
    ASSERT_TRUE(socket.ok());
    std::string body;
    EncodeHelloRequest(HelloRequest{kProtocolVersion + 1}, &body);
    std::string payload;
    EncodeRequest(ApiKey::kHello, body, &payload);
    ASSERT_TRUE(WriteFrame(&*socket, payload, After(5s)).ok());
    std::string response;
    ASSERT_TRUE(ReadFrame(&*socket, &response, After(5s)).ok());
    std::string_view out;
    const Status refused = DecodeResponse(response, &out);
    EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument)
        << refused.ToString();
    EXPECT_EQ(refused.message(),
              "protocol version mismatch: client speaks v" +
                  std::to_string(kProtocolVersion + 1) + ", server speaks v" +
                  std::to_string(kProtocolVersion));
  }
  server.Stop();

  // A broker of another build, stood in for by a listener that answers
  // every frame the way such a server answers this client's Hello.
  auto listener = ListenSocket::Listen("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok());
  const std::string mismatch = "protocol version mismatch: client speaks v" +
                               std::to_string(kProtocolVersion) +
                               ", server speaks v" +
                               std::to_string(kProtocolVersion + 1);
  std::atomic<int> hellos{0};
  std::atomic<bool> done{false};
  std::thread peer([&] {
    while (!done.load()) {
      auto conn = listener->Accept(After(50ms));
      if (!conn.ok()) continue;
      std::string request;
      std::uint64_t correlation = 0;
      while (ReadFrame(&*conn, &request, After(2s), nullptr, &correlation)
                 .ok()) {
        ApiKey api{};
        std::string_view body;
        EXPECT_TRUE(DecodeRequest(request, &api, &body).ok());
        EXPECT_EQ(api, ApiKey::kHello);
        hellos.fetch_add(1);
        std::string response;
        EncodeResponse(Status::InvalidArgument(mismatch), "", &response);
        EXPECT_TRUE(
            WriteFrame(&*conn, response, After(2s), {}, correlation).ok());
      }
    }
  });

  obs::MetricsRegistry registry;
  RemoteOptions remote;
  remote.port = listener->port();
  remote.metrics = &registry;
  remote.backoff_initial = 1ms;
  RemoteBroker client(remote);
  const Status created = client.CreateTopic("events", {.partitions = 1});
  done.store(true);
  peer.join();

  EXPECT_EQ(created.code(), StatusCode::kInvalidArgument)
      << created.ToString();
  EXPECT_EQ(created.message(), "server: " + mismatch);
  EXPECT_EQ(hellos.load(), 1) << "a refused Hello must not be retried";
  EXPECT_EQ(registry.Snapshot().Value("net.client.retries").value_or(0), 0);
}

TEST_F(InteropTest, PipelinedProducesSurviveMidStreamDisconnect) {
  ps::Broker broker;
  BrokerServer server(&broker);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(broker.CreateTopic("events", {.partitions = 1}).ok());

  constexpr int kPipelined = 8;
  const auto deadline = After(5s);

  // Raw connection with explicit correlation ids, so requests can be
  // pipelined and responses matched out of band of the client library.
  auto connect = [&]() -> Socket {
    auto socket = Socket::Connect("127.0.0.1", server.port(), After(2s));
    EXPECT_TRUE(socket.ok());
    std::string body;
    EncodeHelloRequest(HelloRequest{}, &body);
    std::string payload;
    EncodeRequest(ApiKey::kHello, body, &payload);
    EXPECT_TRUE(WriteFrame(&*socket, payload, deadline).ok());
    std::string response;
    EXPECT_TRUE(ReadFrame(&*socket, &response, deadline).ok());
    std::string_view out;
    EXPECT_TRUE(DecodeResponse(response, &out).ok());
    return std::move(*socket);
  };

  auto frame_for = [](std::uint64_t correlation, int i) {
    ProduceRequest req;
    req.topic = "events";
    req.record = ps::Record{"k", "v" + std::to_string(i), 0};
    std::string body;
    EncodeProduceRequest(req, &body);
    std::string payload;
    EncodeRequest(ApiKey::kProduce, body, &payload);
    std::string frame;
    EncodeFrame(payload, {}, correlation, &frame);
    return frame;
  };

  Socket socket = connect();
  // Sever the connection at the first produce dispatch — after the append
  // is applied, before its response is written (the at-least-once window).
  fault::SeedRng(7);
  fault::Activate("net.server.dispatch",
                  fault::Action{fault::ActionKind::kDisconnect, 0, 1.0, 1});

  std::string burst;
  for (int i = 0; i < kPipelined; ++i) {
    burst += frame_for(static_cast<std::uint64_t>(i) + 1, i);
  }
  ASSERT_TRUE(socket.WriteAll(burst, deadline).ok());

  // The server drops the connection without answering anything.
  std::string response;
  EXPECT_FALSE(ReadFrame(&socket, &response, deadline).ok());

  // A real client re-sends every unacknowledged request on a fresh
  // connection; all of them must be answered with matching correlations.
  socket = connect();
  ASSERT_TRUE(socket.WriteAll(burst, deadline).ok());
  std::set<std::uint64_t> answered;
  for (int i = 0; i < kPipelined; ++i) {
    std::uint64_t correlation = 0;
    ASSERT_TRUE(ReadFrame(&socket, &response, deadline, nullptr, &correlation)
                    .ok());
    std::string_view out;
    ASSERT_TRUE(DecodeResponse(response, &out).ok());
    answered.insert(correlation);
  }
  EXPECT_EQ(answered.size(), static_cast<std::size_t>(kPipelined));

  // At-least-once: every value present; the one applied before the sever
  // was applied again on the retry, so exactly one duplicate.
  auto log = broker.GetLog("events", 0);
  ASSERT_TRUE(log.ok());
  EXPECT_EQ((*log)->EndOffset(), kPipelined + 1);
  std::vector<ps::Record> stored;
  std::int64_t next = 0;
  ASSERT_TRUE((*log)->ReadFrom(0, 64, &stored, &next).ok());
  std::set<std::string> values;
  for (const ps::Record& record : stored) values.insert(record.value);
  for (int i = 0; i < kPipelined; ++i) {
    EXPECT_TRUE(values.contains("v" + std::to_string(i)));
  }

  server.Stop();
}

TEST_F(InteropTest, FailStopDiskErrorReachesClientAsStorageFailed) {
  strata::fs::ScopedTempDir dir("interop-failstop");
  ps::BrokerOptions broker_options;
  broker_options.data_dir = dir.path();
  broker_options.disk_failure_policy = ps::DiskFailurePolicy::kFailStop;
  ps::Broker broker(broker_options);
  BrokerServer server(&broker);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(broker.CreateTopic("events", {.partitions = 1}).ok());

  obs::MetricsRegistry registry;
  RemoteOptions remote;
  remote.port = server.port();
  remote.metrics = &registry;
  RemoteProducer producer(remote);
  ASSERT_TRUE(producer.Send("events", "k", "healthy", 0).ok());

  fault::Activate("segment.append",
                  fault::Action{fault::ActionKind::kError, 0, 1.0, -1});
  auto sent = producer.Send("events", "k", "doomed", 0);
  ASSERT_FALSE(sent.ok());
  EXPECT_TRUE(sent.status().IsStorageFailed()) << sent.status().ToString();

  // Sticky: the disk error outlives the failpoint, and the distinct error
  // keeps the client from burning retries on a dead partition.
  fault::DeactivateAll();
  auto again = producer.Send("events", "k", "still-doomed", 0);
  ASSERT_FALSE(again.ok());
  EXPECT_TRUE(again.status().IsStorageFailed()) << again.status().ToString();
  for (const auto& sample : registry.Snapshot().samples) {
    if (sample.name == "net.client.retries") {
      EXPECT_EQ(sample.value, 0) << "storage failure must not be retried";
    }
  }
  auto stats = broker.Stats();
  bool failed_shard = false;
  for (const auto& shard : stats.shards) failed_shard |= shard.fail_stopped;
  EXPECT_TRUE(failed_shard);

  server.Stop();
}

TEST_F(InteropTest, DegradedDiskKeepsAckingAndFlagsTheShard) {
  strata::fs::ScopedTempDir dir("interop-degrade");
  ps::BrokerOptions broker_options;
  broker_options.data_dir = dir.path();
  broker_options.disk_failure_policy = ps::DiskFailurePolicy::kDegrade;
  ps::Broker broker(broker_options);
  BrokerServer server(&broker);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(broker.CreateTopic("events", {.partitions = 1}).ok());

  RemoteOptions remote;
  remote.port = server.port();
  RemoteProducer producer(remote);
  ASSERT_TRUE(producer.Send("events", "k", "on-disk", 0).ok());

  fault::Activate("segment.append",
                  fault::Action{fault::ActionKind::kError, 0, 1.0, -1});
  // kDegrade absorbs the disk failure: produces keep acking from memory.
  auto sent = producer.Send("events", "k", "memory-only", 0);
  ASSERT_TRUE(sent.ok()) << sent.status().ToString();
  fault::DeactivateAll();

  auto stats = broker.Stats();
  bool degraded_shard = false;
  std::uint64_t disk_errors = 0;
  for (const auto& shard : stats.shards) {
    degraded_shard |= shard.degraded;
    disk_errors += shard.disk_errors;
  }
  EXPECT_TRUE(degraded_shard);
  EXPECT_GE(disk_errors, 1u);
  EXPECT_EQ(stats.shards.size(), 8u);  // default shard count, all reported

  server.Stop();
}

}  // namespace
}  // namespace strata::net
