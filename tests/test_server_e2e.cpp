// Loopback end-to-end tests for the network service layer: a real
// Server (epoll reactor, ephemeral port) serving a real ShardedPnbMap,
// driven through real sockets by the blocking Client. Named WITHOUT the
// stress-suite keywords on purpose: this suite carries the `unit` label
// so every CI job (gcc/clang Release, ASan+UBSan, TSan) runs the full
// socket path.
//
// Covers the whole op surface (GET/PUT/DEL/BATCH/RANGE/METRICS and
// HTTP GET /metrics on the same port), pipelining, malformed/garbage/
// oversized input (answer kBadRequest, then disconnect — never crash),
// the per-connection output bound, and the overload-shedding contract:
// with retired bytes pinned over the watermark, BATCH bounces with
// kRetry while point reads keep flowing on the same event loops.
#include "server/server.h"

#include <sys/socket.h>

#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "loadgen/client.h"

namespace pnbbst::net {
namespace {

constexpr std::int64_t kKeySpace = 1 << 16;

// Value of the first sample on a Prometheus page named `name` whose label
// body contains `label`; -1 when there is none.
double sample(const std::string& page, std::string_view name,
              std::string_view label = {}) {
  std::istringstream in(page);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t value_at = line.rfind(' ');
    if (value_at == std::string::npos) continue;
    const std::string_view head(line.data(), value_at);
    if (head.substr(0, head.find('{')) != name) continue;
    if (head.find(label) == std::string_view::npos) continue;
    return std::stod(line.substr(value_at + 1));
  }
  return -1.0;
}

// Sends a raw HTTP request on a fresh connection and returns everything
// the server sent back before closing.
std::string http_get(std::uint16_t port, const std::string& request) {
  Client http;
  if (!http.connect("127.0.0.1", port)) return "connect failed";
  if (!http.send_bytes(request.data(), request.size())) return "send failed";
  return http.recv_all();
}

class ServerE2E : public ::testing::Test {
 protected:
  // loops=2 exercises cross-loop connection adoption (accepts land on
  // loop 0, odd connections migrate via eventfd); scan_threads=2 keeps
  // the RANGE/BATCH executor fan-out real but tiny (CI runs 1-2 cores).
  void start(ServerConfig cfg = {}) {
    cfg.loops = 2;
    cfg.scan_threads = 2;
    server_ = std::make_unique<Server>(map_, cfg);
    ASSERT_TRUE(server_->start());
    ASSERT_NE(server_->port(), 0);
  }

  Client connect() {
    Client c;
    EXPECT_TRUE(c.connect("127.0.0.1", server_->port()));
    return c;
  }

  ServerMap map_{RangeSplitter<std::int64_t>{0, kKeySpace}};
  std::unique_ptr<Server> server_;
};

TEST_F(ServerE2E, PointOpsRoundTrip) {
  start();
  Client c = connect();

  EXPECT_EQ(c.get(7).status, Status::kNotFound);

  auto put = c.put(7, 70);
  EXPECT_EQ(put.status, Status::kOk);
  EXPECT_TRUE(put.changed);
  // Insert-if-absent: a second PUT of the same key is a no-op ack.
  put = c.put(7, 71);
  EXPECT_EQ(put.status, Status::kOk);
  EXPECT_FALSE(put.changed);

  auto got = c.get(7);
  EXPECT_EQ(got.status, Status::kOk);
  EXPECT_EQ(got.value, 70);

  auto del = c.del(7);
  EXPECT_EQ(del.status, Status::kOk);
  EXPECT_TRUE(del.changed);
  del = c.del(7);
  EXPECT_EQ(del.status, Status::kOk);
  EXPECT_FALSE(del.changed);
  EXPECT_EQ(c.get(7).status, Status::kNotFound);
}

TEST_F(ServerE2E, BatchAppliesAndAcksCounts) {
  start();
  Client c = connect();

  std::vector<BatchEntry> ops;
  for (std::int64_t k = 0; k < 500; ++k) {
    ops.push_back(BatchEntry::insert(k, k * 3));
  }
  auto br = c.batch(ops);
  EXPECT_EQ(br.status, Status::kOk);
  EXPECT_EQ(br.inserted, 500u);
  EXPECT_EQ(br.erased, 0u);

  // Mixed batch: erase half, insert past the end.
  ops.clear();
  for (std::int64_t k = 0; k < 250; ++k) ops.push_back(BatchEntry::erase(k));
  ops.push_back(BatchEntry::insert(1000, -1));
  br = c.batch(ops);
  EXPECT_EQ(br.status, Status::kOk);
  EXPECT_EQ(br.erased, 250u);
  EXPECT_EQ(br.inserted, 1u);

  EXPECT_EQ(c.get(100).status, Status::kNotFound);
  EXPECT_EQ(c.get(300).value, 900);
  EXPECT_EQ(c.get(1000).value, -1);
  // The batch went through the map, not a server-side shadow.
  EXPECT_EQ(map_.get_or(300, 0), 900);
}

TEST_F(ServerE2E, RangeCountAndPairsAcrossShards) {
  start();
  Client c = connect();

  // Keys straddling all 8 range shards of [0, 2^16).
  std::vector<BatchEntry> ops;
  for (std::int64_t k = 0; k < kKeySpace; k += 64) {
    ops.push_back(BatchEntry::insert(k, k + 1));
  }
  ASSERT_EQ(c.batch(ops).status, Status::kOk);

  // limit == 0: pure merged count over the whole keyspace.
  auto rr = c.range(0, kKeySpace, 0);
  EXPECT_EQ(rr.status, Status::kOk);
  EXPECT_EQ(rr.count, static_cast<std::uint64_t>(kKeySpace / 64));
  EXPECT_TRUE(rr.pairs.empty());

  // limit > 0: first-n merged pairs, ascending, values intact.
  rr = c.range(1000, kKeySpace, 5);
  EXPECT_EQ(rr.status, Status::kOk);
  ASSERT_EQ(rr.pairs.size(), 5u);
  EXPECT_EQ(rr.count, 5u);
  std::int64_t expect = 1024;  // first multiple of 64 >= 1000
  for (const auto& [k, v] : rr.pairs) {
    EXPECT_EQ(k, expect);
    EXPECT_EQ(v, expect + 1);
    expect += 64;
  }

  // Empty and inverted windows are well-formed zero answers.
  rr = c.range(1, 63, 8);
  EXPECT_EQ(rr.status, Status::kOk);
  EXPECT_TRUE(rr.pairs.empty());
  rr = c.range(500, 100, 0);
  EXPECT_EQ(rr.status, Status::kOk);
  EXPECT_EQ(rr.count, 0u);
}

TEST_F(ServerE2E, RangePairCapBoundsResponses) {
  ServerConfig cfg;
  cfg.range_pair_cap = 10;
  start(cfg);
  Client c = connect();

  std::vector<BatchEntry> ops;
  for (std::int64_t k = 0; k < 100; ++k) {
    ops.push_back(BatchEntry::insert(k, k));
  }
  ASSERT_EQ(c.batch(ops).status, Status::kOk);

  // The client asks for 1000 pairs; the server's cap wins.
  auto rr = c.range(0, kKeySpace, 1000);
  EXPECT_EQ(rr.status, Status::kOk);
  EXPECT_EQ(rr.pairs.size(), 10u);
}

TEST_F(ServerE2E, MetricsReportServerAndMapGauges) {
  start();
  Client c = connect();
  ASSERT_EQ(c.put(1, 1).status, Status::kOk);
  ASSERT_EQ(c.range(0, 100, 0).status, Status::kOk);
  ASSERT_EQ(c.batch({BatchEntry::insert(2, 2)}).status, Status::kOk);

  const auto mr = c.metrics();
  ASSERT_EQ(mr.status, Status::kOk);
  const std::string& page = mr.text;
  const std::string port = "port=\"" + std::to_string(server_->port()) + "\"";
  EXPECT_GE(sample(page, "pnb_server_ops_served_total", port), 3.0);
  EXPECT_GE(sample(page, "pnb_server_conns_accepted_total", port), 1.0);
  EXPECT_GE(sample(page, "pnb_server_conns_open", port), 1.0);
  EXPECT_EQ(sample(page, "pnb_server_conns_paused", port), 0.0);
  EXPECT_EQ(sample(page, "pnb_server_batch_ops_applied_total", port), 1.0);
  EXPECT_EQ(sample(page, "pnb_admission_admitted_total", port), 1.0);
  EXPECT_EQ(sample(page, "pnb_admission_deferred_total", port), 0.0);
  EXPECT_EQ(sample(page, "pnb_server_shed_responses_total", port), 0.0);
  EXPECT_EQ(sample(page, "pnb_server_requests_total", "op=\"range\""), 1.0);
  EXPECT_EQ(sample(page, "pnb_lifecycle_retired_bytes", port), 0.0);
  EXPECT_EQ(sample(page, "pnb_no_such_family"), -1.0);
}

TEST_F(ServerE2E, MetricsReportPerOpcodeRequestCounters) {
  start();
  Client c = connect();
  ASSERT_EQ(c.put(1, 1).status, Status::kOk);
  ASSERT_EQ(c.get(1).status, Status::kOk);
  ASSERT_EQ(c.get(2).status, Status::kNotFound);
  ASSERT_EQ(c.del(1).status, Status::kOk);
  ASSERT_EQ(c.batch({BatchEntry::insert(3, 3)}).status, Status::kOk);
  ASSERT_EQ(c.range(0, 100, 0).status, Status::kOk);

  const auto mr = c.metrics();
  ASSERT_EQ(mr.status, Status::kOk);
  const auto req = [&](const char* op) {
    return sample(mr.text, "pnb_server_requests_total",
                  std::string("op=\"") + op + "\"");
  };
  EXPECT_EQ(req("get"), 2.0);
  EXPECT_EQ(req("put"), 1.0);
  EXPECT_EQ(req("del"), 1.0);
  EXPECT_EQ(req("batch"), 1.0);
  EXPECT_EQ(req("range"), 1.0);
  // The METRICS request that carried this page counts itself.
  EXPECT_EQ(req("metrics"), 1.0);
  EXPECT_EQ(req("unknown"), 0.0);
  EXPECT_EQ(sample(mr.text, "pnb_server_ops_served_total"), 7.0);
  EXPECT_EQ(sample(mr.text, "pnb_admission_deferred_total"), 0.0);
}

TEST_F(ServerE2E, MetricsOpcodeServesPrometheusText) {
  start();
  Client c = connect();
  ASSERT_EQ(c.put(1, 1).status, Status::kOk);

  const auto mr = c.metrics();
  ASSERT_EQ(mr.status, Status::kOk);
  ASSERT_FALSE(mr.text.empty());
  // All six gauge families are present (acceptance criterion), carrying
  // this server's port label.
  for (const char* family :
       {"pnb_engine_", "pnb_arena_", "pnb_lifecycle_", "pnb_admission_",
        "pnb_shard_", "pnb_server_"}) {
    EXPECT_NE(mr.text.find(family), std::string::npos) << family;
  }
  char port_label[32];
  std::snprintf(port_label, sizeof(port_label), "port=\"%u\"",
                server_->port());
  EXPECT_NE(mr.text.find(port_label), std::string::npos);
  EXPECT_NE(mr.text.find("# TYPE pnb_shard_size gauge"),
            std::string::npos);

  // A second server on another port must not double-register families:
  // its samples carry its own port label and vanish after stop().
  ServerMap map2{RangeSplitter<std::int64_t>{0, kKeySpace}};
  {
    auto server2 = std::make_unique<Server>(map2, ServerConfig{});
    ASSERT_TRUE(server2->start());
    char label2[32];
    std::snprintf(label2, sizeof(label2), "port=\"%u\"", server2->port());
    const auto mr2 = c.metrics();
    ASSERT_EQ(mr2.status, Status::kOk);
    EXPECT_NE(mr2.text.find(label2), std::string::npos);
    server2->stop();
    const auto mr3 = c.metrics();
    EXPECT_EQ(mr3.text.find(label2), std::string::npos);
  }
}

TEST_F(ServerE2E, HttpMetricsListenerServesScrape) {
  start();
  Client c = connect();
  ASSERT_EQ(c.put(1, 1).status, Status::kOk);

  // Raw HTTP/1.1 on the serving port: the reactor speaks just enough
  // HTTP for a Prometheus scraper.
  const std::string page =
      http_get(server_->port(), "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_EQ(page.rfind("HTTP/1.1 200 OK\r\n", 0), 0u);
  EXPECT_NE(page.find("text/plain; version=0.0.4"), std::string::npos);
  for (const char* family :
       {"pnb_engine_", "pnb_arena_", "pnb_lifecycle_", "pnb_admission_",
        "pnb_shard_", "pnb_server_", "pnb_op_latency_ns"}) {
    EXPECT_NE(page.find(family), std::string::npos) << family;
  }
  // The scrape is counted, next to the METRICS request reading it.
  const auto mr = c.metrics();
  EXPECT_EQ(sample(mr.text, "pnb_server_requests_total", "op=\"metrics\""),
            2.0);

  // Other targets 404 without disturbing the server.
  EXPECT_EQ(http_get(server_->port(), "GET /nope HTTP/1.1\r\n\r\n")
                .rfind("HTTP/1.1 404 Not Found\r\n", 0),
            0u);
  EXPECT_EQ(c.get(1).status, Status::kOk);
  EXPECT_EQ(sample(c.metrics().text, "pnb_server_requests_total",
                   "op=\"unknown\""),
            1.0);
}

TEST_F(ServerE2E, HttpRequestFedByteByByte) {
  start();
  Client http;
  ASSERT_TRUE(http.connect("127.0.0.1", server_->port()));
  const std::string req = "GET /metrics HTTP/1.1\r\n\r\n";
  for (const char ch : req) {
    ASSERT_TRUE(http.send_bytes(&ch, 1));
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  EXPECT_EQ(http.recv_all().rfind("HTTP/1.1 200 OK\r\n", 0), 0u);
}

TEST_F(ServerE2E, HttpHeaderOverOneKibCloses) {
  start();
  // No header terminator within 1 KiB: dropped without a reply.
  EXPECT_EQ(http_get(server_->port(), "GET /" + std::string(2000, 'a')), "");
  // A header ending just inside the limit is still answered.
  const std::string pad(1024 - 4 - 6 - 4, 'h');
  EXPECT_EQ(http_get(server_->port(), "GET / " + pad + "\r\n\r\n")
                .rfind("HTTP/1.1 404", 0),
            0u);
  Client c = connect();
  EXPECT_EQ(c.put(1, 1).status, Status::kOk);
}

TEST_F(ServerE2E, GetBytesAfterAFrameAreABadRequest) {
  start();
  Client c = connect();
  std::vector<std::uint8_t> wire;
  encode_put(wire, 4, 40);
  const std::string http = "GET /metrics HTTP/1.1\r\n\r\n";
  wire.insert(wire.end(), http.begin(), http.end());
  ASSERT_TRUE(c.send_bytes(wire.data(), wire.size()));
  std::vector<std::uint8_t> resp;
  ASSERT_TRUE(c.recv_frame(resp));
  EXPECT_EQ(resp[0], static_cast<std::uint8_t>(Status::kOk));
  ASSERT_TRUE(c.recv_frame(resp));
  ASSERT_EQ(resp.size(), 1u);
  EXPECT_EQ(resp[0], static_cast<std::uint8_t>(Status::kBadRequest));
  EXPECT_FALSE(c.recv_frame(resp));
  EXPECT_GE(server_->stats().bad_frames, 1u);
}

TEST_F(ServerE2E, RetiredStatsOpcodeAnswersBadRequest) {
  start();
  Client c = connect();
  std::vector<std::uint8_t> wire;
  append_frame(wire, {6});
  ASSERT_TRUE(c.send_bytes(wire.data(), wire.size()));
  std::vector<std::uint8_t> resp;
  ASSERT_TRUE(c.recv_frame(resp));
  ASSERT_EQ(resp.size(), 1u);
  EXPECT_EQ(resp[0], static_cast<std::uint8_t>(Status::kBadRequest));
  EXPECT_FALSE(c.recv_frame(resp));
  EXPECT_EQ(server_->stats().requests[0], 1u);
}

// One loop thread serves a binary client and an HTTP client whose header
// arrives in two halves: neither disturbs the other.
TEST(ServerE2ESingleLoop, HttpAndBinaryClientsShareALoop) {
  ServerMap map{RangeSplitter<std::int64_t>{0, kKeySpace}};
  ServerConfig cfg;
  cfg.loops = 1;
  Server server(map, cfg);
  ASSERT_TRUE(server.start());
  Client bin;
  ASSERT_TRUE(bin.connect("127.0.0.1", server.port()));
  Client http;
  ASSERT_TRUE(http.connect("127.0.0.1", server.port()));
  const std::string first = "GET /metrics HTTP/1.1\r\nHo";
  ASSERT_TRUE(http.send_bytes(first.data(), first.size()));
  for (std::int64_t k = 0; k < 50; ++k) {
    ASSERT_EQ(bin.put(k, k).status, Status::kOk);
    ASSERT_EQ(bin.get(k).value, k);
  }
  const std::string rest = "st: x\r\n\r\n";
  ASSERT_TRUE(http.send_bytes(rest.data(), rest.size()));
  const std::string page = http.recv_all();
  EXPECT_EQ(page.rfind("HTTP/1.1 200 OK\r\n", 0), 0u);
  EXPECT_NE(page.find("pnb_server_"), std::string::npos);
  EXPECT_EQ(bin.get(49).value, 49);
  EXPECT_EQ(server.stats().bad_frames, 0u);
}

// A client that pipelines GETs and never reads replies is held to the
// output high mark: its connection stops being read (the paused gauge
// reads 1) while other connections keep being served, and once it drains,
// every reply arrives in order.
TEST_F(ServerE2E, NeverReadingClientIsHeldToTheOutputBound) {
  start();
  Client c = connect();
  ASSERT_EQ(c.put(1, 10).status, Status::kOk);
  constexpr std::size_t kGets = 640 * 1024;  // 8 MiB of requests
  std::vector<std::uint8_t> wire;
  wire.reserve(kGets * 13);
  for (std::size_t i = 0; i < kGets; ++i) encode_get(wire, 1);
  std::atomic<bool> sent{false};
  std::thread sender([&] {
    const std::uint8_t* p = wire.data();
    std::size_t left = wire.size();
    while (left > 0) {
      const ssize_t n = ::send(c.fd(), p, left, MSG_NOSIGNAL);
      if (n <= 0) return;
      p += n;
      left -= static_cast<std::size_t>(n);
    }
    sent = true;
  });

  // While the kernel buffers still absorb replies the connection may
  // resume and pause again; it settles paused once they are full. A
  // second connection is served throughout (it reads the gauge).
  Client other = connect();
  double paused = -1.0;
  for (int spin = 0; spin < 5000 && paused != 1.0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    const auto mr = other.metrics();
    ASSERT_EQ(mr.status, Status::kOk);
    paused = sample(mr.text, "pnb_server_conns_paused");
  }
  EXPECT_EQ(paused, 1.0);
  EXPECT_EQ(other.get(1).value, 10);

  std::vector<std::uint8_t> body;
  for (std::size_t i = 0; i < kGets; ++i) {
    ASSERT_TRUE(c.recv_frame(body)) << "reply " << i;
    WireReader r(body);
    ASSERT_EQ(r.u8(), static_cast<std::uint8_t>(Status::kOk));
    ASSERT_EQ(r.i64(), 10);
  }
  sender.join();
  EXPECT_TRUE(sent.load());
  EXPECT_EQ(c.get(1).value, 10);
  EXPECT_EQ(server_->stats().conns_paused, 0u);
}

TEST_F(ServerE2E, PipelinedRequestsAnswerInOrder) {
  start();
  Client c = connect();
  std::vector<BatchEntry> ops;
  for (std::int64_t k = 0; k < 32; ++k) {
    ops.push_back(BatchEntry::insert(k, k * 10));
  }
  ASSERT_EQ(c.batch(ops).status, Status::kOk);

  // 32 GETs in one send; responses must come back in request order.
  std::vector<std::uint8_t> wire;
  for (std::int64_t k = 0; k < 32; ++k) encode_get(wire, k);
  ASSERT_TRUE(c.send_bytes(wire.data(), wire.size()));
  std::vector<std::uint8_t> body;
  for (std::int64_t k = 0; k < 32; ++k) {
    ASSERT_TRUE(c.recv_frame(body));
    WireReader r(body);
    ASSERT_EQ(r.u8(), static_cast<std::uint8_t>(Status::kOk));
    EXPECT_EQ(r.i64(), k * 10);
    EXPECT_TRUE(r.done());
  }
}

TEST_F(ServerE2E, ManyConnectionsAcrossBothLoops) {
  start();
  std::vector<Client> clients;
  for (int i = 0; i < 8; ++i) clients.push_back(connect());
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(clients[static_cast<std::size_t>(i)].put(i, i).status,
              Status::kOk);
  }
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(clients[static_cast<std::size_t>(i)].get(i).value, i);
  }
  EXPECT_EQ(server_->stats().conns_open, 8u);
  clients.clear();
  // Close is observed by the reactor asynchronously.
  for (int spin = 0; spin < 500 && server_->stats().conns_open != 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(server_->stats().conns_open, 0u);
}

TEST_F(ServerE2E, MalformedPayloadAnswersBadRequestThenCloses) {
  start();
  Client c = connect();

  // GET with a truncated key (4 of 8 bytes): parse fails server-side.
  std::vector<std::uint8_t> body;
  WireWriter w(body);
  w.u8(static_cast<std::uint8_t>(Opcode::kGet));
  w.u32(0xDEAD);
  std::vector<std::uint8_t> wire;
  append_frame(wire, body);
  ASSERT_TRUE(c.send_bytes(wire.data(), wire.size()));

  std::vector<std::uint8_t> resp;
  ASSERT_TRUE(c.recv_frame(resp));
  ASSERT_EQ(resp.size(), 1u);
  EXPECT_EQ(resp[0], static_cast<std::uint8_t>(Status::kBadRequest));
  // ...and then the server hangs up.
  EXPECT_FALSE(c.recv_frame(resp));

  // The server survives: a fresh connection works.
  Client c2 = connect();
  EXPECT_EQ(c2.put(1, 1).status, Status::kOk);
  EXPECT_GE(server_->stats().bad_frames, 1u);
}

TEST_F(ServerE2E, UnknownOpcodeAnswersBadRequestThenCloses) {
  start();
  Client c = connect();
  std::vector<std::uint8_t> wire;
  append_frame(wire, {0x77, 0x01, 0x02});
  ASSERT_TRUE(c.send_bytes(wire.data(), wire.size()));
  std::vector<std::uint8_t> resp;
  ASSERT_TRUE(c.recv_frame(resp));
  EXPECT_EQ(resp[0], static_cast<std::uint8_t>(Status::kBadRequest));
  EXPECT_FALSE(c.recv_frame(resp));
}

TEST_F(ServerE2E, OversizedFramePrefixDisconnects) {
  start();
  Client c = connect();
  // 4 bytes claiming a 4 GiB body. The server must reject from the
  // prefix alone — no allocation, no waiting for the body.
  const std::uint8_t huge[4] = {0xFF, 0xFF, 0xFF, 0xFF};
  ASSERT_TRUE(c.send_bytes(huge, sizeof(huge)));
  std::vector<std::uint8_t> resp;
  ASSERT_TRUE(c.recv_frame(resp));
  EXPECT_EQ(resp[0], static_cast<std::uint8_t>(Status::kBadRequest));
  EXPECT_FALSE(c.recv_frame(resp));
  EXPECT_GE(server_->stats().bad_frames, 1u);
}

TEST_F(ServerE2E, TrailingGarbageAfterValidOpDisconnects) {
  start();
  Client c = connect();
  // A well-formed PUT followed by a garbage-body frame: the PUT must be
  // answered normally before the connection is dropped for the garbage.
  std::vector<std::uint8_t> wire;
  encode_put(wire, 5, 50);
  append_frame(wire, {0x00, 0xFE, 0xFD, 0xFC, 0xFB});
  ASSERT_TRUE(c.send_bytes(wire.data(), wire.size()));
  std::vector<std::uint8_t> resp;
  ASSERT_TRUE(c.recv_frame(resp));
  EXPECT_EQ(resp[0], static_cast<std::uint8_t>(Status::kOk));
  ASSERT_TRUE(c.recv_frame(resp));
  EXPECT_EQ(resp[0], static_cast<std::uint8_t>(Status::kBadRequest));
  EXPECT_FALSE(c.recv_frame(resp));
  EXPECT_EQ(map_.get_or(5, 0), 50);  // the valid op landed
}

TEST_F(ServerE2E, ShedsBatchesWithRetryWhileReadsKeepFlowing) {
  ServerConfig cfg;
  cfg.shed_watermark = 1;  // any pinned retired generation trips shedding
  start(cfg);
  Client c = connect();

  std::vector<BatchEntry> ops;
  for (std::int64_t k = 0; k < 200; ++k) {
    ops.push_back(BatchEntry::insert(k, k));
  }
  ASSERT_EQ(c.batch(ops).status, Status::kOk);  // below watermark: admitted

  // Pin retired memory over the watermark: a held snapshot's epoch pin
  // keeps the pre-reshard generation alive, exactly the overload the
  // watermark models.
  auto snap = map_.snapshot();
  map_.reshard(RangeSplitter<std::int64_t>{0, kKeySpace * 2});
  ASSERT_GT(map_.retired_bytes(), 1u);

  // BATCH now sheds: protocol-level kRetry carrying the deferred count,
  // map untouched.
  auto br = c.batch({BatchEntry::insert(5000, 1), BatchEntry::insert(5001, 1)});
  EXPECT_EQ(br.status, Status::kRetry);
  EXPECT_EQ(br.deferred, 2u);
  EXPECT_EQ(c.get(5000).status, Status::kNotFound);

  // Point ops never shed — same connection, same loops, still served.
  EXPECT_EQ(c.get(100).value, 100);
  EXPECT_EQ(c.put(6000, 6).status, Status::kOk);
  EXPECT_EQ(c.get(6000).value, 6);

  // The shed shows up on every gauge surface: server stats, the METRICS
  // page, and the map's admission counters.
  EXPECT_GE(server_->stats().shed_responses, 1u);
  const auto mr = c.metrics();
  EXPECT_GE(sample(mr.text, "pnb_server_shed_responses_total"), 1.0);
  EXPECT_GE(sample(mr.text, "pnb_admission_deferred_total"), 1.0);
  EXPECT_GT(sample(mr.text, "pnb_lifecycle_retired_bytes"), 1.0);
  EXPECT_EQ(map_.admission_stats().deferred, 1u);
  EXPECT_EQ(map_.admission_stats().admitted, 1u);

  // Dropping the snapshot reopens admission: the very next BATCH, with no
  // other traffic in between, has the reclaimer free the unpinned
  // generation before it decides, so the retry the protocol asked for
  // succeeds.
  { auto drop = std::move(snap); }
  br = c.batch({BatchEntry::insert(5000, 1), BatchEntry::insert(5001, 1)});
  EXPECT_EQ(br.status, Status::kOk);
  EXPECT_EQ(br.inserted, 2u);
  EXPECT_EQ(map_.retired_bytes(), 0u);
  EXPECT_EQ(c.get(5000).status, Status::kOk);
}

TEST_F(ServerE2E, ShedStormNeverStallsTheEventLoops) {
  // The acceptance-criteria stress: sustained BATCH pressure while the
  // watermark is tripped. Every batch must bounce QUICKLY with kRetry
  // (the loops would deadlock or time out here if admission blocked),
  // and interleaved point reads on separate connections must keep
  // being served throughout the storm.
  ServerConfig cfg;
  cfg.shed_watermark = 1;
  start(cfg);

  {
    Client seed = connect();
    std::vector<BatchEntry> ops;
    for (std::int64_t k = 0; k < 100; ++k) {
      ops.push_back(BatchEntry::insert(k, k));
    }
    ASSERT_EQ(seed.batch(ops).status, Status::kOk);
  }
  auto snap = map_.snapshot();
  map_.reshard(RangeSplitter<std::int64_t>{0, kKeySpace * 2});
  ASSERT_GT(map_.retired_bytes(), 1u);

  constexpr int kWriters = 3;
  constexpr int kBatchesPerWriter = 40;
  std::atomic<int> retries{0}, batch_errors{0};
  std::atomic<bool> stop_reads{false};
  std::atomic<int> reads_ok{0}, read_errors{0};

  std::thread reader([&] {
    Client rc;
    if (!rc.connect("127.0.0.1", server_->port())) {
      ++read_errors;
      return;
    }
    while (!stop_reads.load(std::memory_order_acquire)) {
      const auto gr = rc.get(50);
      if (gr.status == Status::kOk && gr.value == 50) {
        ++reads_ok;
      } else {
        ++read_errors;
      }
    }
  });

  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      Client wc;
      if (!wc.connect("127.0.0.1", server_->port())) {
        ++batch_errors;
        return;
      }
      std::vector<BatchEntry> ops;
      for (std::int64_t k = 0; k < 64; ++k) {
        ops.push_back(BatchEntry::insert(10000 + t * 1000 + k, k));
      }
      for (int i = 0; i < kBatchesPerWriter; ++i) {
        const auto br = wc.batch(ops);
        if (br.status == Status::kRetry && br.deferred == ops.size()) {
          ++retries;
        } else {
          ++batch_errors;
        }
      }
    });
  }
  for (auto& w : writers) w.join();
  stop_reads.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(batch_errors.load(), 0);
  EXPECT_EQ(retries.load(), kWriters * kBatchesPerWriter);
  EXPECT_EQ(read_errors.load(), 0);
  EXPECT_GT(reads_ok.load(), 0);
  // Nothing leaked into the map, and the gauges agree with the storm.
  EXPECT_FALSE(map_.contains(10000));
  EXPECT_EQ(map_.admission_stats().deferred,
            static_cast<std::uint64_t>(kWriters * kBatchesPerWriter));
  EXPECT_GE(server_->stats().shed_responses,
            static_cast<std::uint64_t>(kWriters * kBatchesPerWriter));
}

TEST_F(ServerE2E, StopClosesConnectionsAndJoins) {
  start();
  Client c = connect();
  ASSERT_EQ(c.put(1, 1).status, Status::kOk);
  server_->stop();
  EXPECT_FALSE(server_->running());
  // The peer close surfaces as a failed round trip, not a hang.
  std::vector<std::uint8_t> resp;
  std::vector<std::uint8_t> wire;
  encode_get(wire, 1);
  c.send_bytes(wire.data(), wire.size());
  EXPECT_FALSE(c.recv_frame(resp));
  // stop() is idempotent (the destructor will call it again).
  server_->stop();
}

}  // namespace
}  // namespace pnbbst::net
