// PNB-KV wire protocol: compact length-prefixed binary frames.
//
// Every message — request or response — is one frame:
//
//   u32 body_len   (little-endian; body_len <= kMaxFrameBytes)
//   body_len bytes of body
//
// Request body:  u8 opcode, then the opcode's payload.
// Response body: u8 status, then the status/opcode's payload.
// Responses are returned IN REQUEST ORDER on each connection (the
// transport is a byte stream, the server handles a connection's frames
// sequentially), so there is no request-id field — pipelining works by
// counting.
//
//   opcode   request payload              OK response payload
//   ------   -------------------------    ------------------------------
//   GET      i64 key                      i64 value      (kNotFound: none)
//   PUT      i64 key, i64 value           u8 added
//   DEL      i64 key                      u8 removed
//   BATCH    u32 n, n x (u8 kind,         u64 applied, u64 inserted,
//              i64 key, i64 value)          u64 erased
//   RANGE    i64 lo, i64 hi, u32 limit    u64 count, u32 npairs,
//                                           npairs x (i64 key, i64 value)
//   METRICS  (empty)                      u32 len, len bytes of Prometheus
//                                           text exposition (the same
//                                           payload GET /metrics serves)
//
// Opcode value 6 is unassigned and answers kBadRequest like any unknown
// opcode. A connection whose first four bytes are "GET " is HTTP, not
// framed (server.h); those bytes read as a length prefix exceed
// kMaxFrameBytes, so no valid frame can start with them.
//
// RANGE with limit == 0 is a pure merged count (npairs == 0); limit > 0
// returns the first `limit` merged pairs ascending plus count == npairs.
// BATCH kind: 0 = insert, 1 = erase (erase still carries the i64 value
// slot, ignored — fixed-stride entries keep the decoder trivial).
//
// Error statuses:
//   kRetry       BATCH bounced by admission control (overload shedding).
//                The structure is untouched; payload u64 deferred_ops.
//                Clients back off and retry — this is the protocol-level
//                surface of the retired-bytes watermark (DESIGN.md §13).
//   kBadRequest  malformed body or unknown opcode. The server answers
//                with this status (empty payload) and then CLOSES the
//                connection: after a framing-level parse failure the
//                stream offset can no longer be trusted.
//
// All integers are little-endian, fixed width; keys and values are i64
// (the serving map is ShardedPnbMap<int64, int64>). Encoding helpers
// (WireWriter/WireReader) are socket-free so tests can drive them with
// byte dribbles; framing (incremental frame extraction) lives in
// framing.h.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pnbbst::net {

// Hard ceiling on a frame body; a peer announcing more is dropped before
// any allocation of that size happens (framing.h rejects on the prefix
// alone). 1 MiB fits a ~43k-op BATCH or a ~65k-pair RANGE response.
inline constexpr std::size_t kMaxFrameBytes = 1u << 20;
inline constexpr std::size_t kLenPrefixBytes = 4;

enum class Opcode : std::uint8_t {
  kGet = 1,
  kPut = 2,
  kDel = 3,
  kBatch = 4,
  kRange = 5,
  kMetrics = 7,  // full obs registry snapshot as Prometheus text
};

enum class Status : std::uint8_t {
  kOk = 0,
  kNotFound = 1,
  kRetry = 2,       // admission control shed the batch; retry later
  kBadRequest = 3,  // malformed frame; the server closes after sending
};

// One BATCH entry on the wire. kind mirrors ingest::BatchOpKind's values
// but is pinned here so the wire format cannot drift with the enum.
struct BatchEntry {
  std::int64_t key = 0;
  std::int64_t value = 0;
  std::uint8_t kind = 0;  // 0 = insert, 1 = erase

  static BatchEntry insert(std::int64_t k, std::int64_t v) {
    return {k, v, 0};
  }
  static BatchEntry erase(std::int64_t k) { return {k, 0, 1}; }
};
inline constexpr std::size_t kBatchEntryBytes = 1 + 8 + 8;

// --- Little-endian primitives ----------------------------------------------

// Append-only encoder over a caller-owned byte vector. Multi-byte values
// are written byte-by-byte (no reinterpret_cast), so the encoding is
// endian-independent and alignment-safe.
class WireWriter {
 public:
  explicit WireWriter(std::vector<std::uint8_t>& out) : out_(&out) {}

  void u8(std::uint8_t v) { out_->push_back(v); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      out_->push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      out_->push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

  std::size_t size() const noexcept { return out_->size(); }

 private:
  std::vector<std::uint8_t>* out_;
};

// Bounds-checked decoder over a byte span. Underflow latches ok() false
// and every later read returns 0 — callers validate once at the end
// instead of after every field (garbage input must never index out of
// bounds, only fail the final ok() check).
class WireReader {
 public:
  WireReader(const std::uint8_t* data, std::size_t n)
      : data_(data), size_(n) {}
  explicit WireReader(const std::vector<std::uint8_t>& v)
      : WireReader(v.data(), v.size()) {}

  std::uint8_t u8() {
    if (!take(1)) return 0;
    return data_[off_++];
  }
  std::uint32_t u32() {
    if (!take(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(data_[off_++]) << (8 * i);
    }
    return v;
  }
  std::uint64_t u64() {
    if (!take(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(data_[off_++]) << (8 * i);
    }
    return v;
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

  bool ok() const noexcept { return ok_; }
  std::size_t remaining() const noexcept { return size_ - off_; }
  // A fully-consumed, error-free parse; trailing bytes are a protocol
  // violation (kBadRequest), not padding.
  bool done() const noexcept { return ok_ && off_ == size_; }

 private:
  bool take(std::size_t n) noexcept {
    if (!ok_ || size_ - off_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t off_ = 0;
  bool ok_ = true;
};

// --- Frame assembly --------------------------------------------------------

// Appends `body` as one length-prefixed frame to `out`.
inline void append_frame(std::vector<std::uint8_t>& out,
                         const std::vector<std::uint8_t>& body) {
  WireWriter w(out);
  w.u32(static_cast<std::uint32_t>(body.size()));
  for (std::uint8_t b : body) out.push_back(b);
}

// In-place variant: the caller built the body directly in `buf` starting
// at `body_start`, with kLenPrefixBytes reserved before it; patches the
// prefix. Saves a copy on the server's hot response path.
inline void patch_frame_prefix(std::vector<std::uint8_t>& buf,
                               std::size_t prefix_at) {
  const std::size_t body = buf.size() - prefix_at - kLenPrefixBytes;
  const auto v = static_cast<std::uint32_t>(body);
  for (int i = 0; i < 4; ++i) {
    buf[prefix_at + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(v >> (8 * i));
  }
}

// --- Request encoders (client side) ----------------------------------------

inline void encode_get(std::vector<std::uint8_t>& out, std::int64_t key) {
  std::vector<std::uint8_t> body;
  WireWriter w(body);
  w.u8(static_cast<std::uint8_t>(Opcode::kGet));
  w.i64(key);
  append_frame(out, body);
}

inline void encode_put(std::vector<std::uint8_t>& out, std::int64_t key,
                       std::int64_t value) {
  std::vector<std::uint8_t> body;
  WireWriter w(body);
  w.u8(static_cast<std::uint8_t>(Opcode::kPut));
  w.i64(key);
  w.i64(value);
  append_frame(out, body);
}

inline void encode_del(std::vector<std::uint8_t>& out, std::int64_t key) {
  std::vector<std::uint8_t> body;
  WireWriter w(body);
  w.u8(static_cast<std::uint8_t>(Opcode::kDel));
  w.i64(key);
  append_frame(out, body);
}

inline void encode_batch(std::vector<std::uint8_t>& out,
                         const std::vector<BatchEntry>& entries) {
  std::vector<std::uint8_t> body;
  body.reserve(1 + 4 + entries.size() * kBatchEntryBytes);
  WireWriter w(body);
  w.u8(static_cast<std::uint8_t>(Opcode::kBatch));
  w.u32(static_cast<std::uint32_t>(entries.size()));
  for (const BatchEntry& e : entries) {
    w.u8(e.kind);
    w.i64(e.key);
    w.i64(e.value);
  }
  append_frame(out, body);
}

inline void encode_range(std::vector<std::uint8_t>& out, std::int64_t lo,
                         std::int64_t hi, std::uint32_t limit) {
  std::vector<std::uint8_t> body;
  WireWriter w(body);
  w.u8(static_cast<std::uint8_t>(Opcode::kRange));
  w.i64(lo);
  w.i64(hi);
  w.u32(limit);
  append_frame(out, body);
}

inline void encode_metrics(std::vector<std::uint8_t>& out) {
  std::vector<std::uint8_t> body;
  WireWriter w(body);
  w.u8(static_cast<std::uint8_t>(Opcode::kMetrics));
  append_frame(out, body);
}

}  // namespace pnbbst::net
