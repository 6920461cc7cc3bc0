#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "ingest/batch_apply.h"
#include "mem/arena.h"
#include "obs/adapters.h"
#include "obs/latency.h"

namespace pnbbst::net {

namespace {

// epoll_event.data tags for the two non-connection fds a loop watches.
// Conn pointers are heap-allocated and aligned, so they can never equal
// these small sentinel values.
constexpr std::uint64_t kWakeTag = 0;
constexpr std::uint64_t kListenTag = 1;

bool add_fd(int epoll_fd, int fd, std::uint32_t events, std::uint64_t tag) {
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = tag;
  return ::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev) == 0;
}

// Per-connection output bounds: reading stops once pending output reaches
// the high mark and resumes once the peer has drained it to the low mark.
// Input is read in bursts of at most the high mark too, so a paused
// connection holds about two high marks of buffers.
constexpr std::size_t kOutHighMark = kMaxFrameBytes;
constexpr std::size_t kOutLowMark = kMaxFrameBytes / 4;

// Longest HTTP request header answered; a longer one drops the connection.
constexpr std::size_t kMaxHttpHeader = 1024;

// The HTTP sniff's proof: "GET " read as a frame's little-endian length
// prefix announces ~542 MB, more than kMaxFrameBytes, so FrameReader
// rejects those bytes as kTooLarge and no valid frame starts with them.
static_assert((std::uint32_t{'G'} | std::uint32_t{'E'} << 8 |
               std::uint32_t{'T'} << 16 | std::uint32_t{' '} << 24) >
              kMaxFrameBytes);

// Request counter slot of an opcode: its value when the server knows it,
// else 0.
std::size_t opcode_slot(Opcode op) noexcept {
  switch (op) {
    case Opcode::kGet:
    case Opcode::kPut:
    case Opcode::kDel:
    case Opcode::kBatch:
    case Opcode::kRange:
    case Opcode::kMetrics:
      return static_cast<std::size_t>(op);
  }
  return 0;
}

}  // namespace

// Per-connection state; owned by exactly one Loop, so no synchronization.
struct Server::Conn {
  explicit Conn(int f) : fd(f) {}
  int fd;
  FrameReader reader;
  WriteBuffer out;
  std::uint32_t events = EPOLLIN;  // epoll interest currently registered
  bool paused = false;             // not reading: out passed kOutHighMark
  bool framed = false;             // a frame was decoded: no HTTP sniff
  bool http = false;               // started with "GET ": one HTTP request
  bool close_after_flush = false;  // bad request or HTTP reply: drain, drop
};
struct Server::Loop {
  int epoll_fd = -1;
  int wake_fd = -1;
  bool owns_listener = false;
  std::mutex mu;
  std::vector<int> pending;  // fds accepted elsewhere, to adopt (under mu)
  std::unordered_map<int, std::unique_ptr<Conn>> conns;
};

Server::Server(ServerMap& map, ServerConfig cfg)
    : map_(map), cfg_(std::move(cfg)), executor_(cfg_.scan_threads) {}

Server::~Server() { stop(); }

bool Server::start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) {
    std::perror("server: socket");
    return false;
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(cfg_.port);
  if (::inet_pton(AF_INET, cfg_.host.c_str(), &addr.sin_addr) != 1) {
    std::fprintf(stderr, "server: bad host %s\n", cfg_.host.c_str());
    stop();
    return false;
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 128) != 0) {
    std::perror("server: bind/listen");
    stop();
    return false;
  }
  sockaddr_in bound{};
  socklen_t blen = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &blen) == 0) {
    bound_port_ = ntohs(bound.sin_port);
  }

  // Overload shedding: a batch over the watermark bounces out of
  // apply_batch and the client sees a protocol-level kRetry.
  if (cfg_.shed_watermark) map_.set_shed_watermark(*cfg_.shed_watermark);

  const unsigned nloops = cfg_.loops == 0 ? 1 : cfg_.loops;
  for (unsigned i = 0; i < nloops; ++i) {
    auto loop = std::make_unique<Loop>();
    loop->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    loop->wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (loop->epoll_fd < 0 || loop->wake_fd < 0 ||
        !add_fd(loop->epoll_fd, loop->wake_fd, EPOLLIN, kWakeTag)) {
      std::perror("server: epoll/eventfd");
      stop();
      return false;
    }
    loop->owns_listener = (i == 0);
    if (loop->owns_listener &&
        !add_fd(loop->epoll_fd, listen_fd_, EPOLLIN, kListenTag)) {
      std::perror("server: epoll add listener");
      stop();
      return false;
    }
    loops_.push_back(std::move(loop));
  }
  // Telemetry plane: sampling rate is process-global (the plane is), the
  // gauge registrations are per-server (released again in stop()).
  obs::LatencyPlane::global().set_sample_every(cfg_.latency_sample_every);
  register_gauges();

  running_.store(true, std::memory_order_release);
  threads_.reserve(loops_.size());
  for (auto& loop : loops_) {
    threads_.emplace_back([this, l = loop.get()] { loop_main(*l); });
  }
  return true;
}

void Server::stop() {
  if (running_.exchange(false, std::memory_order_acq_rel)) {
    for (auto& loop : loops_) {
      const std::uint64_t one = 1;
      [[maybe_unused]] ssize_t n =
          ::write(loop->wake_fd, &one, sizeof(one));
    }
    for (auto& t : threads_) t.join();
    threads_.clear();
  }
  // Release this server's registry collectors: their callbacks capture
  // `this` and the map, which a later test/server cycle would dangle.
  obs_reg_.reset();
  for (auto& loop : loops_) {
    for (auto& [fd, conn] : loop->conns) {
      ::close(fd);
      conns_open_.fetch_sub(1, std::memory_order_relaxed);
      if (conn->paused) conns_paused_.fetch_sub(1, std::memory_order_relaxed);
    }
    loop->conns.clear();
    if (loop->wake_fd >= 0) ::close(loop->wake_fd);
    if (loop->epoll_fd >= 0) ::close(loop->epoll_fd);
  }
  loops_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

ServerStats Server::stats() const noexcept {
  ServerStats s;
  for (std::size_t op = 0; op < kOpcodeSlots; ++op) {
    s.requests[op] = counters_.value(op);
    s.ops_served += s.requests[op];
  }
  s.conns_accepted = counters_.value(kConnsAccepted);
  s.conns_open = conns_open_.load(std::memory_order_relaxed);
  s.conns_paused = conns_paused_.load(std::memory_order_relaxed);
  s.batch_ops_applied = counters_.value(kBatchOpsApplied);
  s.shed_responses = counters_.value(kShedResponses);
  s.bad_frames = counters_.value(kBadFrames);
  return s;
}

// --- Registry wiring -------------------------------------------------------

void Server::register_gauges() {
  auto& reg = obs::MetricsRegistry::global();
  char lbuf[48];
  std::snprintf(lbuf, sizeof(lbuf), "port=\"%u\"",
                static_cast<unsigned>(bound_port_));
  const std::string port_label = lbuf;

  // Server-side counters, one collector for the whole family set.
  reg.add_collector(
      obs_reg_, "pnb_server_ops_served_total", obs::MetricType::kCounter,
      "Requests answered (all opcodes)",
      [this, port_label](std::vector<obs::Sample>& out) {
        const ServerStats s = stats();
        out.push_back({"pnb_server_ops_served_total", port_label,
                       static_cast<double>(s.ops_served)});
        out.push_back({"pnb_server_conns_accepted_total", port_label,
                       static_cast<double>(s.conns_accepted)});
        out.push_back({"pnb_server_conns_open", port_label,
                       static_cast<double>(s.conns_open)});
        out.push_back({"pnb_server_conns_paused", port_label,
                       static_cast<double>(s.conns_paused)});
        out.push_back({"pnb_server_batch_ops_applied_total", port_label,
                       static_cast<double>(s.batch_ops_applied)});
        out.push_back({"pnb_server_shed_responses_total", port_label,
                       static_cast<double>(s.shed_responses)});
        out.push_back({"pnb_server_bad_frames_total", port_label,
                       static_cast<double>(s.bad_frames)});
        static constexpr std::pair<Opcode, const char*> kOps[] = {
            {Opcode::kGet, "get"},     {Opcode::kPut, "put"},
            {Opcode::kDel, "del"},     {Opcode::kBatch, "batch"},
            {Opcode::kRange, "range"}, {Opcode::kMetrics, "metrics"},
            {Opcode{0}, "unknown"},
        };
        for (const auto& [op, name] : kOps) {
          out.push_back({"pnb_server_requests_total",
                         port_label + ",op=\"" + name + "\"",
                         static_cast<double>(
                             s.requests[static_cast<std::size_t>(op)])});
        }
      });
  reg.declare("pnb_server_conns_accepted_total", obs::MetricType::kCounter,
              "Connections accepted since start");
  reg.declare("pnb_server_conns_open", obs::MetricType::kGauge,
              "Currently open connections");
  reg.declare("pnb_server_conns_paused", obs::MetricType::kGauge,
              "Connections not read until their peer drains replies");
  reg.declare("pnb_server_batch_ops_applied_total",
              obs::MetricType::kCounter, "BATCH ops applied after dedup");
  reg.declare("pnb_server_shed_responses_total", obs::MetricType::kCounter,
              "kRetry frames sent (overload shedding)");
  reg.declare("pnb_server_bad_frames_total", obs::MetricType::kCounter,
              "Malformed frames answered kBadRequest");
  reg.declare("pnb_server_requests_total", obs::MetricType::kCounter,
              "Requests decoded per opcode");

  // The serving map: per-shard op/size gauges, lifecycle, admission —
  // plus the aggregate engine family (CountingOpStats is enabled on
  // ServerMap precisely so these exist on the serving path).
  obs::register_sharded_map(reg, obs_reg_, map_, port_label);

  // Process-lifetime subjects register exactly once (idempotent across
  // serial server instances; the subjects are immortal, so is their
  // Registration — there is never a reason to unwire. The static pointer
  // keeps it reachable for the leak checker).
  static const bool process_wide = [&reg] {
    static auto* keep = new obs::Registration();
    obs::register_arena(reg, *keep, mem::ArenaDomain::shared(),
                        "domain=\"shared\"");
    for (std::size_t i = 0; i < mem::ArenaDomain::kPooledDomains; ++i) {
      char dbuf[32];
      std::snprintf(dbuf, sizeof(dbuf), "domain=\"pooled%zu\"", i);
      obs::register_arena(reg, *keep, mem::ArenaDomain::pooled(i), dbuf);
    }
    obs::register_latency(reg, *keep, obs::LatencyPlane::global(), "");
    return true;
  }();
  (void)process_wide;
}

void Server::loop_main(Loop& loop) {
  epoll_event events[64];
  while (running_.load(std::memory_order_acquire)) {
    // The 100 ms timeout is a belt over the eventfd wake: a missed wake
    // costs one tick of shutdown latency, never a hang.
    const int n = ::epoll_wait(loop.epoll_fd, events, 64, 100);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const std::uint64_t tag = events[i].data.u64;
      if (tag == kWakeTag) {
        std::uint64_t drain = 0;
        [[maybe_unused]] ssize_t r =
            ::read(loop.wake_fd, &drain, sizeof(drain));
        adopt_pending(loop);
        continue;
      }
      if (tag == kListenTag) {
        handle_accepts(loop);
        continue;
      }
      // Each registered fd yields at most one event per wait, and no
      // handler closes a conn other than its own, so `c` is alive here.
      auto* c = reinterpret_cast<Conn*>(static_cast<std::uintptr_t>(tag));
      if ((events[i].events & (EPOLLERR | EPOLLHUP)) != 0) {
        close_conn(loop, *c);
        continue;
      }
      if ((events[i].events & EPOLLIN) != 0 && !read_input(loop, *c)) {
        continue;  // closed
      }
      serve(loop, *c);
    }
  }
}

void Server::handle_accepts(Loop& loop) {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;  // transient accept failure; the listener stays registered
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    counters_.add(kConnsAccepted);
    const std::size_t target =
        next_loop_.fetch_add(1, std::memory_order_relaxed) % loops_.size();
    Loop& dst = *loops_[target];
    if (&dst == &loop) {
      adopt(loop, fd);
    } else {
      {
        std::lock_guard<std::mutex> lk(dst.mu);
        dst.pending.push_back(fd);
      }
      const std::uint64_t one64 = 1;
      [[maybe_unused]] ssize_t r =
          ::write(dst.wake_fd, &one64, sizeof(one64));
    }
  }
}

void Server::adopt_pending(Loop& loop) {
  std::vector<int> fds;
  {
    std::lock_guard<std::mutex> lk(loop.mu);
    fds.swap(loop.pending);
  }
  for (int fd : fds) adopt(loop, fd);
}

void Server::adopt(Loop& loop, int fd) {
  auto conn = std::make_unique<Conn>(fd);
  if (!add_fd(loop.epoll_fd, fd, conn->events,
              reinterpret_cast<std::uintptr_t>(conn.get()))) {
    ::close(fd);
    return;
  }
  conns_open_.fetch_add(1, std::memory_order_relaxed);
  loop.conns.emplace(fd, std::move(conn));
}

// Moves what the socket holds into the conn's FrameReader, at most about
// kOutHighMark per call. Returns false when the connection was closed.
bool Server::read_input(Loop& loop, Conn& c) {
  std::uint8_t buf[65536];
  for (;;) {
    const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      c.reader.feed(buf, static_cast<std::size_t>(n));
      if (n < static_cast<ssize_t>(sizeof(buf)) ||
          c.reader.buffered() >= kOutHighMark) {
        return true;
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    close_conn(loop, c);  // orderly shutdown by the peer, or an error
    return false;
  }
}

// Answers buffered requests and flushes until the connection runs out of
// input or the peer stops draining, then re-arms epoll. A paused
// connection whose output drained to the low mark resumes here, and the
// requests it had already buffered are answered before the next read.
void Server::serve(Loop& loop, Conn& c) {
  for (;;) {
    if (c.paused && c.out.size() <= kOutLowMark) {
      c.paused = false;
      conns_paused_.fetch_sub(1, std::memory_order_relaxed);
    }
    if (!c.paused) decode(c);
    if (!flush_writes(loop, c)) return;  // closed
    if (!c.paused || c.out.size() > kOutLowMark) break;
  }
  update_interest(loop, c);
}

// Decodes every complete request buffered on the connection; responses
// coalesce in c.out. Stops early, pausing reads, when c.out reaches the
// high mark.
void Server::decode(Conn& c) {
  std::vector<std::uint8_t> body;
  while (!c.close_after_flush) {
    if (c.out.size() >= kOutHighMark) {
      c.paused = true;
      conns_paused_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (c.http) {
      serve_http(c);
      return;
    }
    const FrameReader::Next r = c.reader.next(body);
    if (r == FrameReader::Next::kFrame) {
      c.framed = true;
      handle_frame(c, body);
      continue;
    }
    if (r == FrameReader::Next::kNeedMore) return;
    // kTooLarge on a connection's first bytes may be an HTTP request.
    if (!c.framed && std::memcmp(c.reader.pending(), "GET ", 4) == 0) {
      c.http = true;
      continue;
    }
    // Otherwise reject and drop: the stream offset is unusable.
    counters_.add(kBadFrames);
    const std::size_t at = c.out.begin_frame();
    WireWriter w(c.out.raw());
    w.u8(static_cast<std::uint8_t>(Status::kBadRequest));
    c.out.end_frame(at);
    c.close_after_flush = true;
  }
}

// Answers the connection's one HTTP request once its header is complete:
// GET /metrics with the registry's Prometheus text, any other target with
// a 404. Not a general HTTP server: no keep-alive, no request body.
void Server::serve_http(Conn& c) {
  const std::string_view head(
      reinterpret_cast<const char*>(c.reader.pending()),
      std::min(c.reader.buffered(), kMaxHttpHeader));
  if (head.find("\r\n\r\n") == std::string_view::npos &&
      head.find("\n\n") == std::string_view::npos) {
    // Header still incomplete: wait for more, or drop an oversized one.
    c.close_after_flush = head.size() == kMaxHttpHeader;
    return;
  }
  const std::string_view target =
      head.substr(4, head.find_first_of(" ?\r\n", 4) - 4);
  std::string resp;
  if (target == "/metrics") {
    counters_.add(static_cast<std::size_t>(Opcode::kMetrics));
    const std::string body =
        obs::MetricsRegistry::global().prometheus_text();
    resp = "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4; "
           "charset=utf-8\r\nContent-Length: " +
           std::to_string(body.size()) + "\r\nConnection: close\r\n\r\n" +
           body;
  } else {
    counters_.add(0);
    resp = "HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n"
           "Connection: close\r\n\r\n";
  }
  c.out.raw().insert(c.out.raw().end(), resp.begin(), resp.end());
  c.close_after_flush = true;
}

void Server::handle_frame(Conn& c, const std::vector<std::uint8_t>& body) {
  WireReader req(body);
  const auto opcode = static_cast<Opcode>(req.u8());
  const std::size_t at = c.out.begin_frame();
  WireWriter w(c.out.raw());
  counters_.add(opcode_slot(opcode));
  // Latency plane: t0 == 0 for the (sample_every-1)/sample_every ops
  // that are not sampled; finish() is then a no-op. Malformed frames
  // fall through without recording — the distribution is of served ops.
  auto& lat = obs::LatencyPlane::global();
  const std::uint64_t t0 = lat.maybe_start();

  switch (opcode) {
    case Opcode::kGet: {
      const std::int64_t key = req.i64();
      if (!req.done()) break;
      const auto v = map_.get(key);
      if (v) {
        w.u8(static_cast<std::uint8_t>(Status::kOk));
        w.i64(*v);
      } else {
        w.u8(static_cast<std::uint8_t>(Status::kNotFound));
      }
      c.out.end_frame(at);
      lat.finish(obs::OpClass::kFind, t0);
      return;
    }
    case Opcode::kPut: {
      const std::int64_t key = req.i64();
      const std::int64_t value = req.i64();
      if (!req.done()) break;
      const bool added = map_.insert(key, value);
      w.u8(static_cast<std::uint8_t>(Status::kOk));
      w.u8(added ? 1 : 0);
      c.out.end_frame(at);
      lat.finish(obs::OpClass::kInsert, t0);
      return;
    }
    case Opcode::kDel: {
      const std::int64_t key = req.i64();
      if (!req.done()) break;
      const bool removed = map_.erase(key);
      w.u8(static_cast<std::uint8_t>(Status::kOk));
      w.u8(removed ? 1 : 0);
      c.out.end_frame(at);
      lat.finish(obs::OpClass::kErase, t0);
      return;
    }
    case Opcode::kBatch: {
      const std::uint32_t n = req.u32();
      if (req.remaining() != static_cast<std::size_t>(n) * kBatchEntryBytes) {
        break;
      }
      std::vector<ServerMap::batch_op> ops;
      ops.reserve(n);
      bool bad = false;
      for (std::uint32_t i = 0; i < n; ++i) {
        const std::uint8_t kind = req.u8();
        const std::int64_t key = req.i64();
        const std::int64_t value = req.i64();
        if (kind > 1) {
          bad = true;
          break;
        }
        ops.push_back(kind == 0 ? ServerMap::batch_op::insert(key, value)
                                : ServerMap::batch_op::erase(key));
      }
      if (bad || !req.done()) break;
      const ingest::BatchResult r = map_.apply_batch(
          std::move(ops),
          scan::ParallelScanOptions(cfg_.scan_threads, executor_));
      if (!r.admitted()) {
        // Overload shed: retired-bytes watermark exceeded, batch bounced
        // untouched.
        counters_.add(kShedResponses);
        w.u8(static_cast<std::uint8_t>(Status::kRetry));
        w.u64(r.deferred);
        c.out.end_frame(at);
        return;
      }
      counters_.add(kBatchOpsApplied, r.applied);
      w.u8(static_cast<std::uint8_t>(Status::kOk));
      w.u64(r.applied);
      w.u64(r.inserted);
      w.u64(r.erased);
      c.out.end_frame(at);
      lat.finish(obs::OpClass::kBatch, t0);
      return;
    }
    case Opcode::kRange: {
      const std::int64_t lo = req.i64();
      const std::int64_t hi = req.i64();
      std::uint32_t limit = req.u32();
      if (!req.done()) break;
      w.u8(static_cast<std::uint8_t>(Status::kOk));
      if (limit == 0) {
        // Pure merged count: key chunks of one snapshot fan out across
        // the server's scan executor.
        const std::size_t count =
            lo > hi ? 0
                    : map_.parallel_range_count(
                          lo, hi,
                          scan::ParallelScanOptions(cfg_.scan_threads,
                                                    executor_));
        w.u64(count);
        w.u32(0);
      } else {
        // Paired responses do work bounded by `limit` (merged
        // range_first), never by the queried key span — a wire client
        // must not be able to ask for an unbounded materialization.
        if (limit > cfg_.range_pair_cap) limit = cfg_.range_pair_cap;
        const auto pairs =
            lo > hi ? std::vector<std::pair<std::int64_t, std::int64_t>>{}
                    : map_.range_first(lo, hi, limit);
        w.u64(pairs.size());
        w.u32(static_cast<std::uint32_t>(pairs.size()));
        for (const auto& [k, v] : pairs) {
          w.i64(k);
          w.i64(v);
        }
      }
      c.out.end_frame(at);
      lat.finish(obs::OpClass::kScan, t0);
      return;
    }
    case Opcode::kMetrics: {
      if (!req.done()) break;
      // Same payload as GET /metrics, over the binary transport (so
      // Client can scrape without a second socket family).
      const std::string text =
          obs::MetricsRegistry::global().prometheus_text();
      w.u8(static_cast<std::uint8_t>(Status::kOk));
      w.u32(static_cast<std::uint32_t>(text.size()));
      for (const char ch : text) {
        w.u8(static_cast<std::uint8_t>(ch));
      }
      c.out.end_frame(at);
      return;
    }
    default:
      break;
  }

  // Malformed payload or unknown opcode: answer kBadRequest and drop the
  // connection once the response drains. Any partial response bytes the
  // switch wrote are discarded by rewinding to the frame start.
  counters_.add(kBadFrames);
  c.out.raw().resize(at + kLenPrefixBytes);
  WireWriter werr(c.out.raw());
  werr.u8(static_cast<std::uint8_t>(Status::kBadRequest));
  c.out.end_frame(at);
  c.close_after_flush = true;
}

// Sends pending output until it is gone or the socket is full. Returns
// false when the connection was closed (send error, or fully drained with
// close_after_flush set).
bool Server::flush_writes(Loop& loop, Conn& c) {
  while (!c.out.empty()) {
    const ssize_t n =
        ::send(c.fd, c.out.data(), c.out.size(), MSG_NOSIGNAL);
    if (n > 0) {
      c.out.consumed(static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    close_conn(loop, c);
    return false;
  }
  if (c.close_after_flush) {
    close_conn(loop, c);
    return false;
  }
  return true;
}

// EPOLLIN unless reads are paused or the connection only drains to close;
// EPOLLOUT while output is pending after a short write.
void Server::update_interest(Loop& loop, Conn& c) {
  const std::uint32_t want =
      (c.paused || c.close_after_flush ? 0u : std::uint32_t{EPOLLIN}) |
      (c.out.empty() ? 0u : std::uint32_t{EPOLLOUT});
  if (want == c.events) return;
  c.events = want;
  epoll_event ev{};
  ev.events = want;
  ev.data.u64 = reinterpret_cast<std::uintptr_t>(&c);
  ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_MOD, c.fd, &ev);
}

void Server::close_conn(Loop& loop, Conn& c) {
  ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_DEL, c.fd, nullptr);
  ::close(c.fd);
  conns_open_.fetch_sub(1, std::memory_order_relaxed);
  if (c.paused) conns_paused_.fetch_sub(1, std::memory_order_relaxed);
  loop.conns.erase(c.fd);  // destroys c; do not touch it afterwards
}

}  // namespace pnbbst::net
