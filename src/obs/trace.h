// Mechanism event trace: fixed-size per-thread ring buffers recording
// the paper's coordination events (freeze-fail aborts, helps, handshake
// aborts) and the service layer's lifecycle events (reshard cutover,
// admission shed, rebalance trigger), dumped on demand as Chrome
// trace_event JSON (chrome://tracing / Perfetto "instant" events).
//
// Cost model: tracing is OFF by default — every hook is one relaxed
// atomic load and a predictable branch. When enabled, an event is a
// per-thread ring-slot write (monotone per-thread sequence + steady
// timestamp + kind + arg); rings never allocate after thread
// registration and wrap silently, keeping the last kRingSlots events
// per thread. Slot fields are relaxed atomics so a concurrent dump()
// reading another thread's ring is race-free under TSan; per-slot
// sequence numbers let the reader detect and order wrapped entries
// (a torn in-flight slot can at worst mix two events' fields in the
// dump — acceptable for a diagnostic timeline, never UB).
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/timer.h"

namespace pnbbst::obs {

enum class TraceKind : std::uint8_t {
  kFreezeFailAbort = 0,  // lost a freeze CAS; arg = attempt ordinal
  kHelp = 1,             // helped a foreign Info; arg = 0 normal, 1 scan
  kHandshakeAbort = 2,   // handshaking check forced an abort
  kReshardCutover = 3,   // routing-table generation swap; arg = new gen
  kAdmissionShed = 4,    // batch shed (deferred); arg = retired bytes
  kRebalanceTrigger = 5,  // adaptive reshard fired; arg = skew per-mille
  kCount
};

inline const char* trace_kind_name(TraceKind k) noexcept {
  switch (k) {
    case TraceKind::kFreezeFailAbort:
      return "freeze_fail_abort";
    case TraceKind::kHelp:
      return "help";
    case TraceKind::kHandshakeAbort:
      return "handshake_abort";
    case TraceKind::kReshardCutover:
      return "reshard_cutover";
    case TraceKind::kAdmissionShed:
      return "admission_shed";
    case TraceKind::kRebalanceTrigger:
      return "rebalance_trigger";
    case TraceKind::kCount:
      break;
  }
  return "unknown";
}

class MechanismTrace {
 public:
  static constexpr std::size_t kRingSlots = 1024;  // power of two

  // One decoded event, as returned by dump().
  struct Event {
    std::uint64_t seq = 0;    // per-thread monotone ordinal
    std::uint64_t ts_ns = 0;  // now_ns() at record time
    std::uint32_t tid = 0;    // small dense thread ordinal
    TraceKind kind = TraceKind::kCount;
    std::uint64_t arg = 0;
  };

  static MechanismTrace& global() {
    static MechanismTrace* t = new MechanismTrace();  // immortal
    return *t;
  }

  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }

  // Hot-path hook: one relaxed load when disabled.
  void record(TraceKind kind, std::uint64_t arg = 0) noexcept {
    if (!enabled()) return;
    Ring& ring = this_thread_ring();
    const std::uint64_t seq =
        ring.head.fetch_add(1, std::memory_order_relaxed);
    Slot& slot = ring.slots[seq & (kRingSlots - 1)];
    slot.seq.store(0, std::memory_order_relaxed);  // mark in-flight
    slot.ts_ns.store(now_ns(), std::memory_order_relaxed);
    slot.kind.store(static_cast<std::uint8_t>(kind),
                    std::memory_order_relaxed);
    slot.arg.store(arg, std::memory_order_relaxed);
    // seq is written last with release so a dump() that observes it
    // sees the matching payload; 1-based so 0 always means "empty".
    slot.seq.store(seq + 1, std::memory_order_release);
  }

  // Decode every ring: surviving (possibly wrapped) events in per-thread
  // seq order, threads concatenated. Safe to call while writers run.
  std::vector<Event> dump() const {
    std::vector<Event> out;
    std::lock_guard<std::mutex> lock(rings_mu_);
    for (std::size_t t = 0; t < rings_.size(); ++t) {
      const Ring& ring = *rings_[t];
      const std::uint64_t head = ring.head.load(std::memory_order_acquire);
      const std::uint64_t lo = head > kRingSlots ? head - kRingSlots : 0;
      for (std::uint64_t s = lo; s < head; ++s) {
        const Slot& slot = ring.slots[s & (kRingSlots - 1)];
        const std::uint64_t seq = slot.seq.load(std::memory_order_acquire);
        if (seq != s + 1) continue;  // empty, in-flight, or overwritten
        Event e;
        e.seq = s;
        e.ts_ns = slot.ts_ns.load(std::memory_order_relaxed);
        e.tid = static_cast<std::uint32_t>(t);
        e.kind = static_cast<TraceKind>(
            slot.kind.load(std::memory_order_relaxed));
        e.arg = slot.arg.load(std::memory_order_relaxed);
        out.push_back(e);
      }
    }
    return out;
  }

  // Chrome trace_event JSON ("instant" events, thread-scoped): load the
  // string into chrome://tracing or ui.perfetto.dev for a timeline of
  // helps/aborts/cutovers. Timestamps are µs relative to the earliest
  // surviving event.
  std::string chrome_json() const {
    const std::vector<Event> events = dump();
    std::uint64_t t0 = UINT64_MAX;
    for (const Event& e : events) t0 = e.ts_ns < t0 ? e.ts_ns : t0;
    std::string out = "{\"traceEvents\":[";
    char buf[256];
    bool first = true;
    for (const Event& e : events) {
      std::snprintf(
          buf, sizeof(buf),
          "%s{\"name\":\"%s\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,"
          "\"tid\":%u,\"ts\":%.3f,\"args\":{\"seq\":%llu,\"arg\":%llu}}",
          first ? "" : ",", trace_kind_name(e.kind), e.tid,
          static_cast<double>(e.ts_ns - t0) / 1000.0,
          static_cast<unsigned long long>(e.seq),
          static_cast<unsigned long long>(e.arg));
      out += buf;
      first = false;
    }
    out += "]}";
    return out;
  }

  // Threads that ever recorded while enabled (for tests).
  std::size_t thread_count() const {
    std::lock_guard<std::mutex> lock(rings_mu_);
    return rings_.size();
  }

 private:
  struct Slot {
    std::atomic<std::uint64_t> seq{0};  // 1-based; 0 = never written
    std::atomic<std::uint64_t> ts_ns{0};
    std::atomic<std::uint64_t> arg{0};
    std::atomic<std::uint8_t> kind{0};
  };

  struct Ring {
    std::atomic<std::uint64_t> head{0};  // next seq to write
    Slot slots[kRingSlots];
  };

  MechanismTrace() = default;

  Ring& this_thread_ring() {
    // Rings are owned by the (immortal) trace so dump() stays valid
    // after the recording thread exits; registration is once per thread.
    static thread_local Ring* ring = [this] {
      auto owned = std::make_unique<Ring>();
      Ring* raw = owned.get();
      std::lock_guard<std::mutex> lock(rings_mu_);
      rings_.push_back(std::move(owned));
      return raw;
    }();
    return *ring;
  }

  std::atomic<bool> enabled_{false};
  mutable std::mutex rings_mu_;
  std::vector<std::unique_ptr<Ring>> rings_;
};

// Free-function hook used at instrumentation sites; keeps call sites to
// one line and one include.
inline void trace_event(TraceKind kind, std::uint64_t arg = 0) noexcept {
  MechanismTrace::global().record(kind, arg);
}

}  // namespace pnbbst::obs
