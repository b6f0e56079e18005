#include "net/frame.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <thread>
#include <vector>

#include "common/codec.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"

namespace strata::net {
namespace {

constexpr auto kTestDeadline = std::chrono::seconds(5);

/// A connected loopback socket pair (client, server side).
struct SocketPair {
  Socket client;
  Socket server;
};

SocketPair MakePair() {
  auto listener = ListenSocket::Listen("127.0.0.1", 0);
  listener.status().OrDie();
  auto client = Socket::Connect("127.0.0.1", listener->port(),
                                After(kTestDeadline));
  client.status().OrDie();
  auto server = listener->Accept(After(kTestDeadline));
  server.status().OrDie();
  return SocketPair{std::move(*client), std::move(*server)};
}

TEST(Frame, RoundTripOverLoopback) {
  SocketPair pair = MakePair();
  std::string payload = "hello broker ? world";
  payload[13] = '\0';  // binary-safe: embedded NUL must survive framing
  ASSERT_TRUE(WriteFrame(&pair.client, payload, After(kTestDeadline)).ok());

  std::string received;
  ASSERT_TRUE(ReadFrame(&pair.server, &received, After(kTestDeadline)).ok());
  EXPECT_EQ(received, payload);
}

TEST(Frame, EmptyPayloadRoundTrips) {
  SocketPair pair = MakePair();
  ASSERT_TRUE(WriteFrame(&pair.client, "", After(kTestDeadline)).ok());
  std::string received = "sentinel";
  ASSERT_TRUE(ReadFrame(&pair.server, &received, After(kTestDeadline)).ok());
  EXPECT_TRUE(received.empty());
}

/// Flip every bit of frame[begin, end) in turn and expect each mutated
/// frame to read back as Corruption.
void ExpectEveryBitFlipIsCorruption(const std::string& frame,
                                    std::size_t begin, std::size_t end) {
  for (std::size_t byte = begin; byte < end; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      SocketPair pair = MakePair();
      std::string mutated = frame;
      mutated[byte] = static_cast<char>(mutated[byte] ^ (1 << bit));
      ASSERT_TRUE(pair.client.WriteAll(mutated, After(kTestDeadline)).ok());
      std::string received;
      TraceContext trace;
      std::uint64_t correlation = 0;
      Status read = ReadFrame(&pair.server, &received, After(kTestDeadline),
                              &trace, &correlation);
      EXPECT_TRUE(read.IsCorruption())
          << "byte " << byte << " bit " << bit << ": " << read.ToString();
    }
  }
}

/// Byte offsets of the fixed blocks inside a frame.
constexpr std::size_t kTraceBlockAt = 8;
constexpr std::size_t kCorrelationBlockAt = 24;

TEST(Frame, EveryPayloadBitFlipIsCorruption) {
  TraceContext trace;
  trace.trace_id = 0x1122334455667788ull;
  trace.parent_span = 0x99aabbccddeeff00ull;
  std::string frame;
  EncodeFrame("framed payload under test", trace, 0x8877665544332211ull,
              &frame);
  // Everything after the length and CRC words — trace block, correlation
  // block and payload — is covered by the CRC.
  ExpectEveryBitFlipIsCorruption(frame, kTraceBlockAt, frame.size());
}

TEST(Frame, CorruptCrcHeaderIsCorruption) {
  std::string frame;
  EncodeFrame("payload", {}, 0, &frame);
  frame[4] = static_cast<char>(frame[4] ^ 0x40);  // inside the masked CRC

  SocketPair pair = MakePair();
  ASSERT_TRUE(pair.client.WriteAll(frame, After(kTestDeadline)).ok());
  std::string received;
  EXPECT_TRUE(
      ReadFrame(&pair.server, &received, After(kTestDeadline)).IsCorruption());
}

TEST(Frame, ImplausibleLengthRejectedBeforeAllocation) {
  std::string frame;
  codec::PutFixed32(&frame, kMaxFrameBytes + 1);
  frame.resize(kFrameHeaderBytes, '\0');  // CRC and blocks: zeros

  SocketPair pair = MakePair();
  ASSERT_TRUE(pair.client.WriteAll(frame, After(kTestDeadline)).ok());
  std::string received;
  EXPECT_TRUE(
      ReadFrame(&pair.server, &received, After(kTestDeadline)).IsCorruption());
}

TEST(Frame, PeerCloseSurfacesAsUnavailable) {
  SocketPair pair = MakePair();
  pair.client.Close();
  std::string received;
  Status read = ReadFrame(&pair.server, &received, After(kTestDeadline));
  EXPECT_EQ(read.code(), StatusCode::kUnavailable) << read.ToString();
}

TEST(Frame, TruncatedFrameThenCloseSurfacesAsUnavailable) {
  std::string frame;
  EncodeFrame("payload that will be cut short", {}, 0, &frame);
  SocketPair pair = MakePair();
  ASSERT_TRUE(pair.client
                  .WriteAll(std::string_view(frame).substr(0, frame.size() / 2),
                            After(kTestDeadline))
                  .ok());
  pair.client.Close();
  std::string received;
  Status read = ReadFrame(&pair.server, &received, After(kTestDeadline));
  EXPECT_EQ(read.code(), StatusCode::kUnavailable) << read.ToString();
}

TEST(Frame, ReadTimesOutWhenNothingArrives) {
  SocketPair pair = MakePair();
  std::string received;
  Status read = ReadFrame(&pair.server, &received,
                          After(std::chrono::milliseconds(50)));
  EXPECT_TRUE(read.IsTimeout()) << read.ToString();
}

TEST(Frame, ShutdownUnblocksPendingRead) {
  SocketPair pair = MakePair();
  std::thread unblocker([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    pair.server.Shutdown();
  });
  std::string received;
  Status read = ReadFrame(&pair.server, &received, kNoDeadline);
  unblocker.join();
  EXPECT_FALSE(read.ok());
}

// --- trace and correlation blocks -------------------------------------------

TEST(Frame, TracedFrameRoundTripsContext) {
  SocketPair pair = MakePair();
  TraceContext trace;
  trace.trace_id = 0x1122334455667788ull;
  trace.parent_span = 0x99aabbccddeeff00ull;
  ASSERT_TRUE(WriteFrame(&pair.client, "traced payload", After(kTestDeadline),
                         trace, 0x0102030405060708ull)
                  .ok());

  std::string received;
  TraceContext decoded;
  decoded.trace_id = 1;  // must be overwritten, not merely left alone
  std::uint64_t correlation = 0;
  ASSERT_TRUE(ReadFrame(&pair.server, &received, After(kTestDeadline),
                        &decoded, &correlation)
                  .ok());
  EXPECT_EQ(received, "traced payload");
  EXPECT_EQ(decoded.trace_id, trace.trace_id);
  EXPECT_EQ(decoded.parent_span, trace.parent_span);
  EXPECT_EQ(correlation, 0x0102030405060708ull);
}

TEST(Frame, TracedFrameReadableWithoutTraceSink) {
  // A reader that does not care about traces still gets the payload: the
  // blocks are consumed and the chained CRC still verifies.
  SocketPair pair = MakePair();
  TraceContext trace;
  trace.trace_id = 42;
  ASSERT_TRUE(
      WriteFrame(&pair.client, "payload", After(kTestDeadline), trace, 7).ok());
  std::string received;
  ASSERT_TRUE(ReadFrame(&pair.server, &received, After(kTestDeadline)).ok());
  EXPECT_EQ(received, "payload");
}

TEST(Frame, UntracedFrameZeroesTraceSink) {
  SocketPair pair = MakePair();
  ASSERT_TRUE(WriteFrame(&pair.client, "plain", After(kTestDeadline)).ok());
  std::string received;
  TraceContext decoded;
  decoded.trace_id = 7;  // stale state from a previous traced frame
  std::uint64_t correlation = 9;
  ASSERT_TRUE(ReadFrame(&pair.server, &received, After(kTestDeadline),
                        &decoded, &correlation)
                  .ok());
  EXPECT_EQ(decoded.trace_id, 0u);
  EXPECT_FALSE(decoded.sampled());
  EXPECT_EQ(correlation, 0u);
}

TEST(Frame, UnsampledContextFallsBackToPlainFrame) {
  // The blocks are fixed: an unsampled context (no trace id, whatever its
  // parent span) encodes as an all-zero trace block, byte-identical to a
  // default-constructed one.
  TraceContext unsampled;
  unsampled.parent_span = 0x1234;
  std::string unsampled_encode;
  EncodeFrame("body", unsampled, 0, &unsampled_encode);
  std::string plain_encode;
  EncodeFrame("body", {}, 0, &plain_encode);
  EXPECT_EQ(unsampled_encode, plain_encode);
  ASSERT_EQ(plain_encode.size(), kFrameHeaderBytes + 4);
  EXPECT_EQ(plain_encode.substr(kTraceBlockAt, 16), std::string(16, '\0'));
  EXPECT_EQ(plain_encode.substr(kFrameHeaderBytes), "body");
}

TEST(Frame, EveryTraceBlockBitFlipIsCorruption) {
  TraceContext trace;
  trace.trace_id = 0xdeadbeef;
  trace.parent_span = 0xfeedface;
  std::string frame;
  EncodeFrame("guarded by chained crc", trace, 11, &frame);
  // The 16-byte trace block follows the length and CRC words; its bits are
  // covered by the frame CRC just like payload bits.
  ExpectEveryBitFlipIsCorruption(frame, kTraceBlockAt, kCorrelationBlockAt);
}

// --- protocol envelope + body codecs ----------------------------------------

TEST(Protocol, RequestEnvelopeRoundTrip) {
  std::string payload;
  EncodeRequest(ApiKey::kProduce, "body-bytes", &payload);
  ApiKey api{};
  std::string_view body;
  ASSERT_TRUE(DecodeRequest(payload, &api, &body).ok());
  EXPECT_EQ(api, ApiKey::kProduce);
  EXPECT_EQ(body, "body-bytes");
}

TEST(Protocol, UnknownApiKeyRejected) {
  std::string payload = "\x7fgarbage";
  ApiKey api{};
  std::string_view body;
  EXPECT_TRUE(DecodeRequest(payload, &api, &body).IsCorruption());
  EXPECT_TRUE(DecodeRequest("", &api, &body).IsCorruption());
}

TEST(Protocol, ResponseCarriesApplicationError) {
  std::string payload;
  EncodeResponse(Status::NotFound("no such topic"), "", &payload);
  std::string_view body;
  Status decoded = DecodeResponse(payload, &body);
  EXPECT_TRUE(decoded.IsNotFound());
  EXPECT_EQ(decoded.message(), "no such topic");
}

TEST(Protocol, FetchRoundTrip) {
  FetchRequest req;
  req.entries.push_back({{"topic-a", 2}, 17, 128});
  req.entries.push_back({{"topic-b", 0}, 0, 64});
  req.max_wait_us = 250'000;
  std::string body;
  EncodeFetchRequest(req, &body);
  FetchRequest decoded;
  ASSERT_TRUE(DecodeFetchRequest(body, &decoded).ok());
  ASSERT_EQ(decoded.entries.size(), 2u);
  EXPECT_EQ(decoded.entries[0].tp, (ps::TopicPartition{"topic-a", 2}));
  EXPECT_EQ(decoded.entries[0].offset, 17);
  EXPECT_EQ(decoded.entries[1].max_records, 64u);
  EXPECT_EQ(decoded.max_wait_us, 250'000u);

  FetchResponse resp;
  FetchResponse::Entry entry;
  entry.tp = {"topic-a", 2};
  entry.next_offset = 19;
  ps::ConsumedRecord record;
  record.topic = "topic-a";
  record.partition = 2;
  record.offset = 17;
  record.key = "k";
  record.value = "v";
  record.timestamp = -5;  // signed timestamps survive
  entry.records.push_back(record);
  resp.entries.push_back(entry);
  body.clear();
  EncodeFetchResponse(resp, &body);
  FetchResponse decoded_resp;
  ASSERT_TRUE(DecodeFetchResponse(body, &decoded_resp).ok());
  ASSERT_EQ(decoded_resp.entries.size(), 1u);
  EXPECT_EQ(decoded_resp.entries[0].records[0].timestamp, -5);
  EXPECT_EQ(decoded_resp.entries[0].records[0].value, "v");
  EXPECT_FALSE(decoded_resp.empty());
}

TEST(Protocol, HelloRoundTripAndVersionFloor) {
  std::string body;
  EncodeHelloRequest(HelloRequest{}, &body);
  HelloRequest req;
  ASSERT_TRUE(DecodeHelloRequest(body, &req).ok());
  EXPECT_EQ(req.version, kProtocolVersion);
  EXPECT_TRUE(CheckHello(req).ok());

  // Any other version — older or newer — is refused, naming both.
  for (const std::uint32_t other : {kProtocolVersion - 1, kProtocolVersion + 1}) {
    const Status refused = CheckHello(HelloRequest{other});
    EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument)
        << refused.ToString();
    EXPECT_NE(refused.message().find("v" + std::to_string(other)),
              std::string::npos)
        << refused.message();
    EXPECT_NE(
        refused.message().find("v" + std::to_string(kProtocolVersion)),
        std::string::npos)
        << refused.message();
  }

  // Version 0 does not exist on any wire; reject rather than misbehave.
  body.clear();
  EncodeHelloRequest(HelloRequest{0}, &body);
  EXPECT_FALSE(DecodeHelloRequest(body, &req).ok());
}

/// One body codec under test: a valid encoding plus its decoder.
struct BodyCase {
  const char* name;
  std::string body;
  std::function<Status(std::string_view)> decode;
};

template <typename Msg>
BodyCase MakeCase(const char* name, const Msg& msg,
                  void (*encode)(const Msg&, std::string*),
                  Status (*decode)(std::string_view, Msg*)) {
  BodyCase c{name, {}, [decode](std::string_view in) {
               Msg out;
               return decode(in, &out);
             }};
  encode(msg, &c.body);
  return c;
}

/// A valid, non-trivial message for every request and response body codec:
/// every repeated field holds at least one element, so truncation reaches
/// the nested decoders too.
std::vector<BodyCase> AllBodyCodecs() {
  const ps::TopicPartition tp{"t", 1};
  std::vector<BodyCase> cases;

  CreateTopicRequest create;
  create.topic = "t";
  create.config = {.partitions = 3, .retention_records = 300};
  cases.push_back(
      MakeCase("create_topic", create, &EncodeCreateTopic, &DecodeCreateTopic));

  cases.push_back(MakeCase("metadata_request", MetadataRequest{"t"},
                           &EncodeMetadataRequest, &DecodeMetadataRequest));
  MetadataResponse metadata;
  metadata.topics.push_back(TopicMetadata{"t", {{0, 300}, {5, 6}}});
  cases.push_back(MakeCase("metadata_response", metadata,
                           &EncodeMetadataResponse, &DecodeMetadataResponse));

  ProduceRequest produce;
  produce.topic = "t";
  produce.record = ps::Record{"k", "v", -300};
  produce.acks = ProduceAcks::kQuorum;
  cases.push_back(MakeCase("produce_request", produce, &EncodeProduceRequest,
                           &DecodeProduceRequest));
  cases.push_back(MakeCase("produce_response", ProduceResponse{1, 300},
                           &EncodeProduceResponse, &DecodeProduceResponse));

  FetchRequest fetch;
  fetch.entries.push_back({tp, 300, 128});
  fetch.max_wait_us = 300;
  cases.push_back(MakeCase("fetch_request", fetch, &EncodeFetchRequest,
                           &DecodeFetchRequest));
  FetchResponse fetched;
  FetchResponse::Entry fetched_entry;
  fetched_entry.tp = tp;
  fetched_entry.next_offset = 301;
  ps::ConsumedRecord record;
  record.offset = 300;
  record.key = "k";
  record.value = "v";
  record.timestamp = -300;
  fetched_entry.records.push_back(record);
  fetched.entries.push_back(fetched_entry);
  cases.push_back(MakeCase("fetch_response", fetched, &EncodeFetchResponse,
                           &DecodeFetchResponse));

  cases.push_back(MakeCase("group_request", GroupRequest{"g", "t", 300},
                           &EncodeGroupRequest, &DecodeGroupRequest));
  cases.push_back(MakeCase("join_group_response", JoinGroupResponse{300},
                           &EncodeJoinGroupResponse, &DecodeJoinGroupResponse));
  cases.push_back(MakeCase("heartbeat_response", HeartbeatResponse{300, {tp}},
                           &EncodeHeartbeatResponse, &DecodeHeartbeatResponse));

  CommitOffsetRequest commit;
  commit.group = "g";
  commit.offsets.emplace_back(tp, 42);
  cases.push_back(MakeCase("commit_offset_request", commit,
                           &EncodeCommitOffsetRequest,
                           &DecodeCommitOffsetRequest));
  cases.push_back(MakeCase("offset_fetch_request", OffsetFetchRequest{"g", {tp}},
                           &EncodeOffsetFetchRequest,
                           &DecodeOffsetFetchRequest));
  cases.push_back(MakeCase("offset_fetch_response",
                           OffsetFetchResponse{{300, OffsetFetchResponse::kNone}},
                           &EncodeOffsetFetchResponse,
                           &DecodeOffsetFetchResponse));

  ReplicaFetchRequest replica_fetch;
  replica_fetch.follower = 2;
  replica_fetch.epoch = 300;
  replica_fetch.topic = "t";
  replica_fetch.entries.push_back({1, 300, 512});
  cases.push_back(MakeCase("replica_fetch_request", replica_fetch,
                           &EncodeReplicaFetchRequest,
                           &DecodeReplicaFetchRequest));
  ReplicaFetchResponse replica_fetched;
  replica_fetched.leader = 1;
  replica_fetched.epoch = 300;
  ReplicaFetchResponse::Entry replica_entry;
  replica_entry.partition = 1;
  replica_entry.base_offset = 300;
  replica_entry.high_watermark = 299;
  replica_entry.log_end = 301;
  replica_entry.records.push_back(ps::Record{"k", "v", -300});
  replica_fetched.entries.push_back(replica_entry);
  cases.push_back(MakeCase("replica_fetch_response", replica_fetched,
                           &EncodeReplicaFetchResponse,
                           &DecodeReplicaFetchResponse));

  ReplicaAckRequest ack;
  ack.follower = 2;
  ack.epoch = 300;
  ack.topic = "t";
  ack.entries.push_back({1, 300});
  cases.push_back(MakeCase("replica_ack_request", ack, &EncodeReplicaAckRequest,
                           &DecodeReplicaAckRequest));
  ReplicaAckResponse acked;
  acked.entries.push_back({1, 300});
  cases.push_back(MakeCase("replica_ack_response", acked,
                           &EncodeReplicaAckResponse,
                           &DecodeReplicaAckResponse));

  PromoteLeaderRequest promote;
  promote.leader = 2;
  promote.epoch = 300;
  promote.topic = "t";
  promote.entries.push_back({1, 300});
  cases.push_back(MakeCase("promote_leader_request", promote,
                           &EncodePromoteLeaderRequest,
                           &DecodePromoteLeaderRequest));
  PromoteLeaderResponse promoted;
  promoted.entries.push_back({1, 300});
  cases.push_back(MakeCase("promote_leader_response", promoted,
                           &EncodePromoteLeaderResponse,
                           &DecodePromoteLeaderResponse));

  cases.push_back(MakeCase("cluster_meta_request", ClusterMetaRequest{"t"},
                           &EncodeClusterMetaRequest,
                           &DecodeClusterMetaRequest));
  ClusterMetaResponse meta;
  meta.brokers.push_back({1, "127.0.0.1", 9300});
  meta.self = 1;
  ClusterMetaResponse::Topic meta_topic;
  meta_topic.topic = "t";
  meta_topic.leader = 1;
  meta_topic.epoch = 300;
  meta_topic.isr = {1, 2};
  meta_topic.partitions.push_back({301, 300});
  meta.topics.push_back(meta_topic);
  cases.push_back(MakeCase("cluster_meta_response", meta,
                           &EncodeClusterMetaResponse,
                           &DecodeClusterMetaResponse));

  cases.push_back(MakeCase("hello_request", HelloRequest{}, &EncodeHelloRequest,
                           &DecodeHelloRequest));
  return cases;
}

TEST(Protocol, TruncatedBodiesAlwaysError) {
  for (const BodyCase& c : AllBodyCodecs()) {
    ASSERT_TRUE(c.decode(c.body).ok()) << c.name << ": full body must decode";
    for (std::size_t len = 0; len < c.body.size(); ++len) {
      EXPECT_FALSE(c.decode(std::string_view(c.body.data(), len)).ok())
          << c.name << ": prefix of " << len << "/" << c.body.size()
          << " bytes decoded";
    }
    EXPECT_FALSE(c.decode(c.body + "x").ok())
        << c.name << ": trailing byte accepted";
  }
}

/// Decode `body` with `decode` into a fresh message and return the capacity
/// of the vector `field` selects.
template <typename Msg, typename Field>
std::size_t CapacityAfterDecode(std::string_view body,
                                Status (*decode)(std::string_view, Msg*),
                                Field Msg::*field) {
  Msg out;
  EXPECT_FALSE(decode(body, &out).ok());
  return (out.*field).capacity();
}

// Regression: decoders used to reserve whatever element count the wire
// claimed (up to 2^20), so a 3-byte body made the server allocate tens of
// MiB before failing. Each element takes at least one byte, so a failed
// decode of a count-only body must not reserve more elements than the body
// has bytes.
TEST(Protocol, ForgedCountsDoNotDriveAllocation) {
  std::string body;
  codec::PutVarint32(&body, 1u << 20);  // the count alone, 3 bytes
  EXPECT_LE(CapacityAfterDecode(body, &DecodeFetchRequest,
                                &FetchRequest::entries),
            body.size());
  EXPECT_LE(CapacityAfterDecode(body, &DecodeFetchResponse,
                                &FetchResponse::entries),
            body.size());
  EXPECT_LE(CapacityAfterDecode(body, &DecodeMetadataResponse,
                                &MetadataResponse::topics),
            body.size());
  EXPECT_LE(CapacityAfterDecode(body, &DecodeOffsetFetchResponse,
                                &OffsetFetchResponse::offsets),
            body.size());
  EXPECT_LE(CapacityAfterDecode(body, &DecodeReplicaAckResponse,
                                &ReplicaAckResponse::entries),
            body.size());
  EXPECT_LE(CapacityAfterDecode(body, &DecodePromoteLeaderResponse,
                                &PromoteLeaderResponse::entries),
            body.size());
  EXPECT_LE(CapacityAfterDecode(body, &DecodeClusterMetaResponse,
                                &ClusterMetaResponse::brokers),
            body.size());
}

}  // namespace
}  // namespace strata::net
