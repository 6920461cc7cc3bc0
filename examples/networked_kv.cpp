// Networked key/value service: the whole PR-7 stack in one binary. An
// epoll Server fronts a ShardedPnbMap on a loopback ephemeral port; a
// Client connection bulk-loads through BATCH frames, one watches with
// RANGE queries, then --conns threads each run a fixed GET/PUT/DEL
// sequence on their own Client, and the METRICS page reports the server-
// and map-side gauges — including the shed counters that would light up
// under retired-bytes overload. The same page is served over HTTP on the
// serving port (DESIGN.md §14), announced as a METRICS_URL= line that
// tools/obs_scrape.py --spawn parses to scrape and validate it. Latency
// and throughput over the wire are pnbbench's job (benchmark/README.md).
//
//   build/examples/networked_kv [--events=N] [--conns=N] [--linger-ms=N]
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <inttypes.h>
#include <string>
#include <thread>
#include <vector>

#include "loadgen/client.h"
#include "server/server.h"
#include "shard/rebalance.h"
#include "util/cli.h"

int main(int argc, char** argv) {
  using namespace pnbbst;
  Cli cli(argc, argv);
  const long events = cli.get_int("events", 50000);
  const long conns = cli.get_int("conns", 2);
  // Keep serving this long after the workload finishes, so an external
  // scraper (CI's obs_scrape --spawn step) has a window to hit /metrics.
  const long linger_ms = cli.get_int("linger-ms", 0);
  for (const auto& unknown : cli.unknown()) {
    std::fprintf(stderr, "unknown flag: --%s\n", unknown.c_str());
    return 2;
  }
  if (conns < 1 || conns > 64) {
    std::fprintf(stderr, "--conns must be in [1, 64]\n");
    return 2;
  }

  constexpr std::int64_t kKeySpace = 1 << 16;
  net::ServerMap map(RangeSplitter<std::int64_t>{0, kKeySpace});
  net::ServerConfig scfg;
  scfg.loops = 2;
  net::Server server(map, scfg);
  if (!server.start()) return 1;
  std::printf("serving 127.0.0.1:%u (2 event loops, 8 shards)\n",
              server.port());

  // Adaptive sharding on the serving map: the rebalancer senses write
  // skew from its own key sample, exports its pnb_rebalance_* families
  // under the server's port label, and reshards through the loss-free
  // migration path while traffic runs. The sequential bulk
  // load below lands on the low shards, so a trigger is expected. Built
  // BEFORE the METRICS_URL announcement so a scraper that fetches the
  // moment the line appears already sees the pnb_rebalance_* families.
  char port_label[32];
  std::snprintf(port_label, sizeof(port_label), "port=\"%u\"",
                server.port());
  Rebalancer<net::ServerMap>::Config rcfg;
  rcfg.labels = port_label;
  rcfg.interval = std::chrono::milliseconds(100);
  Rebalancer<net::ServerMap> rebalancer(map, rcfg);
  rebalancer.start();

  std::printf("METRICS_URL=http://127.0.0.1:%u/metrics\n", server.port());
  std::fflush(stdout);

  // Bulk load through the wire: BATCH frames funnel into
  // ingest::apply_batch (deduped, shard-parallel) server-side.
  net::Client loader;
  if (!loader.connect("127.0.0.1", server.port())) return 1;
  std::vector<net::BatchEntry> batch;
  long loaded = 0;
  for (long k = 0; k < events; ++k) {
    batch.push_back(net::BatchEntry::insert(k % kKeySpace, k));
    if (batch.size() == 4096 || k + 1 == events) {
      const auto br = loader.batch(batch);
      if (br.status != net::Status::kOk) {
        std::fprintf(stderr, "batch rejected (status %u)\n",
                     static_cast<unsigned>(br.status));
        return 1;
      }
      loaded += static_cast<long>(br.applied);
      batch.clear();
    }
  }
  std::printf("bulk-loaded %ld ops over BATCH frames\n", loaded);

  // Point and range traffic on separate connections.
  net::Client reader;
  if (!reader.connect("127.0.0.1", server.port())) return 1;
  const auto got = reader.get(123);
  std::printf("GET 123 -> %s\n",
              got.status == net::Status::kOk ? "hit" : "miss");
  const auto rr = reader.range(0, kKeySpace, 0);
  std::printf("RANGE count over the keyspace: %" PRIu64 " keys\n", rr.count);
  const auto first = reader.range(1000, 2000, 5);
  std::printf("RANGE first-5 of [1000,2000]: %zu pairs\n",
              first.pairs.size());

  // Point traffic: each connection runs the same deterministic
  // 8:1:1 GET/PUT/DEL sequence from its own offset in the keyspace.
  // kOk and kNotFound are the expected answers; anything else (a
  // transport failure included) is an error.
  std::atomic<std::uint64_t> replies{0}, errors{0};
  std::vector<std::thread> workers;
  for (long c = 0; c < conns; ++c) {
    workers.emplace_back([&, c] {
      net::Client client;
      if (!client.connect("127.0.0.1", server.port())) {
        errors.fetch_add(1);
        return;
      }
      for (long i = 0; i < events / conns; ++i) {
        const std::int64_t k = (i * 7919 + c * 104729) % kKeySpace;
        const net::Status st =
            i % 10 == 8   ? client.put(k, i).status
            : i % 10 == 9 ? client.del(k).status
                          : client.get(k).status;
        if (st != net::Status::kOk && st != net::Status::kNotFound) {
          errors.fetch_add(1);
        } else {
          replies.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  std::printf("point traffic: %ld conns, %" PRIu64 " replies, %" PRIu64
              " errors\n",
              conns, replies.load(), errors.load());

  // The METRICS opcode returns the Prometheus page GET /metrics serves:
  // server counters plus the map's admission and lifecycle gauges (sheds
  // would appear as pnb_admission_deferred_total > 0).
  const auto mr = reader.metrics();
  if (mr.status != net::Status::kOk) return 1;
  std::printf("METRICS opcode: %zu bytes of Prometheus text\n",
              mr.text.size());
  const std::string labels = std::string("{") + port_label;
  // Value of the sample `name{port="N"<extra>` on the page, or 0.
  const auto metric = [&](const char* name, const char* extra = "}") {
    const std::string key = name + labels + extra;
    const std::size_t at = mr.text.find("\n" + key);
    if (at == std::string::npos) return 0.0;
    return std::strtod(mr.text.c_str() + mr.text.find(' ', at + 1), nullptr);
  };
  std::printf("server: ops_served=%.0f conns_accepted=%.0f batch_ops=%.0f "
              "batches_admitted=%.0f batches_deferred=%.0f "
              "retired_bytes=%.0f\n",
              metric("pnb_server_ops_served_total"),
              metric("pnb_server_conns_accepted_total"),
              metric("pnb_server_batch_ops_applied_total"),
              metric("pnb_admission_admitted_total"),
              metric("pnb_admission_deferred_total"),
              metric("pnb_lifecycle_retired_bytes"));
  std::printf("requests:");
  for (const char* op : {"get", "put", "del", "batch", "range", "metrics",
                         "unknown"}) {
    const std::string sel = std::string(",op=\"") + op + "\"}";
    std::printf(" %s=%.0f", op,
                metric("pnb_server_requests_total", sel.c_str()));
  }
  std::printf("\n");

  if (linger_ms > 0) {
    std::fflush(stdout);
    std::this_thread::sleep_for(std::chrono::milliseconds(linger_ms));
  }
  server.stop();
  rebalancer.stop();
  std::printf("rebalancer: %" PRIu64 " adaptive reshards, last skew %.2f\n",
              rebalancer.triggers(), rebalancer.last_skew());
  std::printf("done: map holds %zu keys\n", map.size());
  return errors.load() == 0 ? 0 : 1;
}
