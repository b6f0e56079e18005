// Wire framing for the broker protocol: every message travels as
//
//   length(4, LE) | masked_crc32c(4, LE) | trace(16) | correlation(8) | payload
//
// The length word is the payload size. The trace block (trace id + parent
// span id, LE) is all zeros when the message is not sampled; the
// correlation id (LE) is echoed from request to response. The CRC
// (Castagnoli, masked as in the storage formats) covers both blocks and the
// payload, so a flipped bit anywhere surfaces as Status::Corruption instead
// of a garbage decode. Lengths above kMaxFrameBytes are rejected before any
// allocation, which also cheaply catches desynchronized streams.
//
// Correlation ids are what make request pipelining possible: a client may
// send many tagged requests on one connection without reading responses in
// between, and the server echoes each request's id on its response frame so
// replies can complete out of order (a parked long-poll Fetch never blocks
// a Produce pipelined behind it).
#pragma once

#include <string>

#include "common/trace_context.hpp"
#include "net/socket.hpp"

namespace strata::net {

/// Upper bound on one frame's payload. Large enough for a 4k x 4k OT frame
/// tuple with headroom; small enough that a corrupt length cannot OOM us.
inline constexpr std::uint32_t kMaxFrameBytes = 64u << 20;

/// Everything before the payload: length, CRC, trace and correlation blocks.
inline constexpr std::size_t kFrameHeaderBytes = 4 + 4 + 16 + 8;

/// Serialize one frame appended to `*out`. An unsampled `trace` is sent as
/// zeros.
void EncodeFrame(std::string_view payload, const TraceContext& trace,
                 std::uint64_t correlation, std::string* out);

/// Write one frame. InvalidArgument when the payload exceeds kMaxFrameBytes.
[[nodiscard]] Status WriteFrame(Socket* socket, std::string_view payload,
                                Deadline deadline,
                                const TraceContext& trace = {},
                                std::uint64_t correlation = 0);

/// Read one frame into `*payload`. Corruption on CRC mismatch or an
/// implausible length; otherwise forwards the socket's status (Unavailable
/// on peer close, Timeout past the deadline). The trace and correlation
/// blocks are stored into `*trace` / `*correlation` when non-null.
[[nodiscard]] Status ReadFrame(Socket* socket, std::string* payload,
                               Deadline deadline,
                               TraceContext* trace = nullptr,
                               std::uint64_t* correlation = nullptr);

// --- Incremental (buffer-based) parsing, for the epoll reactor --------------
//
// The reactor reads whatever bytes the socket has into a connection buffer
// and parses frames out of it without blocking: first the fixed header
// (ParseFrameHeader), then — once payload_len more bytes are available —
// the CRC check over blocks and payload (VerifyFramePayload).

struct FrameHeader {
  std::uint32_t payload_len = 0;
  std::uint32_t masked_crc = 0;
  TraceContext trace;
  std::uint64_t correlation = 0;
  /// CRC32C of the trace + correlation blocks; the payload CRC chains on it.
  std::uint32_t blocks_crc = 0;
};

/// Parse exactly kFrameHeaderBytes bytes. Corruption on an implausible
/// length.
[[nodiscard]] Status ParseFrameHeader(std::string_view header,
                                      FrameHeader* out);

/// Check the frame CRC over the header's blocks and exactly
/// `header.payload_len` payload bytes.
[[nodiscard]] Status VerifyFramePayload(const FrameHeader& header,
                                        std::string_view payload);

}  // namespace strata::net
