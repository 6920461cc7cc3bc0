// Incremental frame extraction and write coalescing, socket-free.
//
// FrameReader consumes the byte stream in whatever pieces the transport
// delivers — a length prefix split across two reads, a body dribbled one
// byte at a time — and yields complete frame bodies. It never allocates
// proportionally to a CLAIMED length: an oversized prefix is rejected
// from the 4 prefix bytes alone, so a hostile peer cannot make the
// server reserve max_frame memory with a 4-byte packet. That property
// plus the bounds-latched WireReader is the whole robustness story for
// garbage input: worst case is kTooLarge/kBadRequest and a dropped
// connection, never a crash or a leak (tests/test_protocol.cpp holds
// this under ASan).
//
// WriteBuffer is the per-connection output side: responses for every
// frame decoded from one read burst are appended back-to-back and
// flushed with single write() calls — the per-connection write
// coalescing the reactor relies on. consumed() advances past partial
// writes; compaction (drop_consumed) is amortized so a slow reader does
// not turn the buffer into an O(n^2) memmove chain.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "server/protocol.h"

namespace pnbbst::net {

// Drops the consumed prefix buf[0, off) of a buffer read from its head —
// the one drain/compact step of both FrameReader and WriteBuffer.
//
// A fully drained buffer is emptied. Capacity above twice the server's
// 64 KiB recv burst is released, but the buffer keeps that floor reserved:
// a connection that once buffered up to a high mark does not hold that
// memory while idle, and the next burst grows from the floor instead of
// from zero. Steady traffic stays below the floor and never reallocates.
// A partly consumed buffer drops its prefix once the prefix dominates the
// buffer: amortized O(1) per byte, so a long-lived connection's buffer
// stays at frame scale.
inline void drop_consumed(std::vector<std::uint8_t>& buf, std::size_t& off) {
  constexpr std::size_t kKeepCapacity = 128 * 1024;
  if (off == 0) return;
  if (off == buf.size()) {
    if (buf.capacity() > kKeepCapacity) {
      std::vector<std::uint8_t> floor;
      floor.reserve(kKeepCapacity);
      buf.swap(floor);
    } else {
      buf.clear();
    }
    off = 0;
  } else if (off >= 4096 && off * 2 >= buf.size()) {
    buf.erase(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(off));
    off = 0;
  }
}

class FrameReader {
 public:
  enum class Next : std::uint8_t {
    kFrame,     // `out` holds one complete body
    kNeedMore,  // buffered bytes do not complete a frame yet
    kTooLarge,  // prefix announced > max_frame bytes: drop the connection
  };

  explicit FrameReader(std::size_t max_frame = kMaxFrameBytes)
      : max_frame_(max_frame) {}

  // Appends raw transport bytes. The reader owns its buffer, so the
  // caller's read buffer can be reused immediately.
  void feed(const std::uint8_t* data, std::size_t n) {
    buf_.insert(buf_.end(), data, data + n);
  }
  void feed(const std::vector<std::uint8_t>& data) {
    feed(data.data(), data.size());
  }

  // Extracts the next complete frame body into `out` (overwritten).
  // Call in a loop until kNeedMore: one feed() can complete several
  // pipelined frames. kTooLarge is sticky — the stream offset is
  // meaningless after a rejected prefix, so the connection must die.
  Next next(std::vector<std::uint8_t>& out) {
    if (poisoned_) return Next::kTooLarge;
    const std::size_t avail = buf_.size() - off_;
    if (avail < kLenPrefixBytes) {
      drop_consumed(buf_, off_);
      return Next::kNeedMore;
    }
    std::uint32_t len = 0;
    for (int i = 0; i < 4; ++i) {
      len |= static_cast<std::uint32_t>(buf_[off_ + static_cast<std::size_t>(
                                                       i)])
             << (8 * i);
    }
    if (len > max_frame_) {
      poisoned_ = true;
      return Next::kTooLarge;
    }
    if (avail < kLenPrefixBytes + len) {
      drop_consumed(buf_, off_);
      return Next::kNeedMore;
    }
    out.assign(buf_.begin() + static_cast<std::ptrdiff_t>(
                                  off_ + kLenPrefixBytes),
               buf_.begin() + static_cast<std::ptrdiff_t>(
                                  off_ + kLenPrefixBytes + len));
    off_ += kLenPrefixBytes + len;
    drop_consumed(buf_, off_);
    return Next::kFrame;
  }

  // Bytes buffered but not yet returned as frames, starting at pending().
  // A rejected (kTooLarge) prefix stays buffered, so the server can sniff
  // the first bytes of a connection that turned out not to be framed.
  std::size_t buffered() const noexcept { return buf_.size() - off_; }
  const std::uint8_t* pending() const noexcept { return buf_.data() + off_; }
  std::size_t capacity() const noexcept { return buf_.capacity(); }

 private:
  std::size_t max_frame_;
  std::vector<std::uint8_t> buf_;
  std::size_t off_ = 0;      // consumed prefix of buf_
  bool poisoned_ = false;    // kTooLarge latched
};

// Per-connection pending output. Responses append at the tail; the
// transport drains from the head via data()/size() + consumed(n).
class WriteBuffer {
 public:
  std::vector<std::uint8_t>& raw() noexcept { return buf_; }

  // Reserves a length prefix, returns its offset for patch_frame_prefix
  // once the body is built in place (no body staging copy).
  std::size_t begin_frame() {
    const std::size_t at = buf_.size();
    buf_.resize(at + kLenPrefixBytes);
    return at;
  }
  void end_frame(std::size_t prefix_at) {
    patch_frame_prefix(buf_, prefix_at);
  }

  const std::uint8_t* data() const noexcept { return buf_.data() + off_; }
  std::size_t size() const noexcept { return buf_.size() - off_; }
  bool empty() const noexcept { return size() == 0; }

  void consumed(std::size_t n) {
    off_ += n;
    drop_consumed(buf_, off_);
  }

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t off_ = 0;
};

}  // namespace pnbbst::net
