// Network front-end: an epoll reactor serving ShardedPnbMap over the
// PNB-KV protocol (protocol.h). Linux-only (epoll + eventfd).
//
// Threading model (docs/DESIGN.md §13)
// ------------------------------------
//   * `loops` event-loop threads, each owning one epoll instance and a
//     disjoint set of connections (accepted sockets are assigned
//     round-robin, woken via eventfd). A connection lives its whole
//     life on one loop, so per-connection state (FrameReader,
//     WriteBuffer) is single-threaded by construction — no locks on the
//     data path.
//   * All request execution happens ON the owning loop thread, against
//     the shared ShardedPnbMap. The map's own guarantees do the heavy
//     lifting: point ops are lock-free per shard, RANGE takes wait-free
//     snapshots, BATCH funnels through ingest::apply_batch. RANGE and
//     BATCH additionally fan their per-shard work across the server's
//     ScanExecutor (scan_threads wide), so one loop thread drives
//     multi-core scans without stalling siblings.
//   * Nothing on a loop thread blocks: sockets are non-blocking, and
//     batch admission never waits — a batch arriving over the map's
//     retired-bytes shed watermark is bounced inside apply_batch and
//     surfaces as a protocol-level kRetry response (overload shedding).
//
// Write coalescing: all responses produced by one read burst accumulate
// in the connection's WriteBuffer and leave in single write() calls;
// EPOLLOUT interest is registered only while a partial write is pending.
//
// Bounded output: a connection stops being read once its pending output
// passes a fixed high mark, and resumes (decoding the requests it had
// already buffered first) when the peer drains it below a low mark. A
// client that pipelines requests and never reads replies therefore holds
// a bounded amount of server memory; pnb_server_conns_paused counts the
// connections held there.
//
// HTTP on the serving port: a connection whose first four bytes are
// "GET " carries one HTTP/1.1 request instead of frames. GET /metrics is
// answered with the obs registry's Prometheus text, any other GET with a
// 404, and the connection closes after the reply. The scrape runs on the
// loop thread like the METRICS opcode.
//
// Lifetime: the caller owns the map and must keep it alive across
// start()..stop(). stop() joins the loops and closes every connection;
// the destructor calls stop().
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "mem/alloc_policy.h"
#include "obs/registry.h"
#include "scan/executor.h"
#include "server/framing.h"
#include "server/protocol.h"
#include "shard/sharded_map.h"
#include "util/cacheline.h"

namespace pnbbst::net {

// The concrete serving type: 8 range-partitioned shards of int64 -> int64.
// RangeSplitter keeps narrow RANGE queries on single shards; the keyspace
// bounds come from the map the caller constructs. The serving map carries
// CountingOpStats (per-shard mechanism gauges for the obs registry and
// the adaptive rebalancer — striped counters, priced by the micro_ops obs
// ablation) and allocates from the pooled arena domains (pnb_arena_*
// gauges observe the serving path).
using ServerMap = ShardedPnbMap<std::int64_t, std::int64_t, 8, EpochReclaimer,
                                CountingOpStats, mem::ArenaAlloc>;

struct ServerConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;   // 0 = ephemeral; read the bound port via port()
  unsigned loops = 1;       // event-loop threads
  // Worker width for RANGE fan-out and BATCH shard fan-out (0 = one
  // task at a time, i.e. the loop thread alone).
  unsigned scan_threads = 2;
  // Hard cap on pairs in one RANGE response regardless of the client's
  // limit field (bounds response frames and server-side materialization).
  std::uint32_t range_pair_cap = 60000;
  // When set, installed as the map's retired-bytes shed watermark at
  // start(); unset keeps the map's own watermark.
  std::optional<std::size_t> shed_watermark;
  // Op-latency sampling rate for the obs latency plane: every Nth frame
  // per loop thread gets timed (0 disables). Applied process-wide at
  // start() (the plane is global).
  std::uint32_t latency_sample_every = 64;
};

// Request counters are kept per opcode value; slot 0 counts unknown
// opcodes and HTTP requests for anything but /metrics.
inline constexpr std::size_t kOpcodeSlots = 8;

// Server-side counters at one instant (the pnb_server_* families).
struct ServerStats {
  std::uint64_t ops_served = 0;  // requests answered: sum of requests[]
  std::uint64_t conns_accepted = 0;
  std::uint64_t conns_open = 0;
  std::uint64_t conns_paused = 0;  // reads stopped by the output high mark
  std::uint64_t batch_ops_applied = 0;
  std::uint64_t shed_responses = 0;
  std::uint64_t bad_frames = 0;
  // Requests decoded per opcode value, whatever the outcome; an HTTP
  // GET /metrics counts as a METRICS request.
  std::uint64_t requests[kOpcodeSlots] = {};
};

class Server {
 public:
  Server(ServerMap& map, ServerConfig cfg);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds, listens, spawns the loop threads. Returns false (with the
  // reason on stderr) when the socket setup fails; idempotent start is
  // not supported — one Server, one start/stop cycle.
  bool start();

  // Signals every loop, joins the threads, closes all sockets. Safe to
  // call twice; also called by the destructor.
  void stop();

  bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }
  // Bound port (valid after start(); resolves ephemeral port 0).
  std::uint16_t port() const noexcept { return bound_port_; }
  const ServerConfig& config() const noexcept { return cfg_; }

  ServerStats stats() const noexcept;

 private:
  struct Conn;
  struct Loop;

  void loop_main(Loop& loop);
  void handle_accepts(Loop& loop);
  void adopt_pending(Loop& loop);
  void adopt(Loop& loop, int fd);
  bool read_input(Loop& loop, Conn& c);
  void serve(Loop& loop, Conn& c);
  void decode(Conn& c);
  void serve_http(Conn& c);
  void handle_frame(Conn& c, const std::vector<std::uint8_t>& body);
  bool flush_writes(Loop& loop, Conn& c);
  void close_conn(Loop& loop, Conn& c);
  void update_interest(Loop& loop, Conn& c);
  void register_gauges();

  ServerMap& map_;
  ServerConfig cfg_;
  scan::ScanExecutor executor_;
  std::vector<std::unique_ptr<Loop>> loops_;
  std::vector<std::thread> threads_;
  std::atomic<bool> running_{false};
  int listen_fd_ = -1;
  std::uint16_t bound_port_ = 0;
  std::atomic<std::size_t> next_loop_{0};  // round-robin accept assignment

  // Releases this server's registry collectors at stop() so a later
  // server (tests cycle them) can re-register without duplicates.
  obs::Registration obs_reg_;

  // Monotone counters on striped cells, so a request costs one
  // uncontended bump; slots below kOpcodeSlots count requests by opcode.
  enum Counter : std::size_t {
    kConnsAccepted = kOpcodeSlots,
    kBatchOpsApplied,
    kShedResponses,
    kBadFrames,
    kCounters
  };
  StripedCounters<kCounters> counters_;
  std::atomic<std::uint64_t> conns_open_{0};
  std::atomic<std::uint64_t> conns_paused_{0};
};

}  // namespace pnbbst::net
