// Blocking PNB-KV client connection: the counterpart of src/server/.
//
// One Client is one TCP connection with simple request/response
// round-trip helpers (get/put/del/batch/range/metrics) plus the raw
// send_bytes/recv_frame surface the robustness tests use to pipeline
// requests and to inject malformed bytes. Not thread-safe: one Client
// per thread, like a socket.
//
// Round-trip helpers return a Status; transport failures (peer closed,
// I/O error) surface as kTransport so callers can distinguish "server
// said no" from "connection died" — the latter is what the garbage-input
// tests assert after a kBadRequest.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "server/framing.h"
#include "server/protocol.h"

namespace pnbbst::net {

// Client-side status: the protocol statuses plus the transport sentinel.
inline constexpr std::uint8_t kTransportError = 0xFF;

class Client {
 public:
  Client() = default;
  ~Client() { close(); }

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  Client(Client&& o) noexcept;
  Client& operator=(Client&& o) noexcept;

  bool connect(const std::string& host, std::uint16_t port);
  void close();
  bool connected() const noexcept { return fd_ >= 0; }
  int fd() const noexcept { return fd_; }

  // --- One-shot round trips ------------------------------------------------

  struct GetReply {
    Status status = Status::kBadRequest;
    std::int64_t value = 0;
  };
  GetReply get(std::int64_t key);

  struct AckReply {
    Status status = Status::kBadRequest;
    bool changed = false;  // PUT: added; DEL: removed
  };
  AckReply put(std::int64_t key, std::int64_t value);
  AckReply del(std::int64_t key);

  struct BatchReply {
    Status status = Status::kBadRequest;
    std::uint64_t applied = 0;
    std::uint64_t inserted = 0;
    std::uint64_t erased = 0;
    std::uint64_t deferred = 0;  // nonzero iff status == kRetry
  };
  BatchReply batch(const std::vector<BatchEntry>& entries);

  struct RangeReply {
    Status status = Status::kBadRequest;
    std::uint64_t count = 0;
    std::vector<std::pair<std::int64_t, std::int64_t>> pairs;
  };
  RangeReply range(std::int64_t lo, std::int64_t hi, std::uint32_t limit);

  struct MetricsReply {
    Status status = Status::kBadRequest;
    std::string text;  // Prometheus text exposition (empty on error)
  };
  // Full obs registry snapshot over the binary transport (kMetrics);
  // the same payload GET /metrics serves on the same port.
  MetricsReply metrics();

  // --- Raw framed I/O (pipelining, fault injection) --------------------------

  // Writes all n bytes (handles short writes); false on transport error.
  bool send_bytes(const void* data, std::size_t n);
  // Blocks until one complete response frame arrives; returns its body.
  // False on EOF or transport error (the garbage-input disconnect shows
  // up here as a clean false, not a hang — the server closes the socket).
  bool recv_frame(std::vector<std::uint8_t>& body);
  // Reads until the peer closes (unframed — for talking HTTP to the
  // server's GET /metrics, which answers one request and hangs up).
  std::string recv_all();

 private:
  // Sends one encoded request frame and decodes the status byte of the
  // matching response into `body`; kTransportError on I/O failure.
  std::uint8_t round_trip(const std::vector<std::uint8_t>& frame,
                          std::vector<std::uint8_t>& body);

  int fd_ = -1;
  FrameReader reader_{kMaxFrameBytes};
};

}  // namespace pnbbst::net
