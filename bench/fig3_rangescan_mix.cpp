// Fig.E3 — Range-query workloads: 10% scans of width w + 45% inserts + 45%
// deletes, sweeping w, for the structures with linearizable scans (NB-BST is
// included as a non-linearizable reference point and marked as such).
//
// Paper claim exercised: PNB-BST scans are wait-free and only synchronize
// with updates on the traversed subtree, so throughput degrades gracefully
// as scan width grows; the locked tree serializes scans against all updates
// and the COW tree pays path-copying on every update regardless of scans.
#include <cstdio>

#include "bench_common.h"
#include "baseline/cow_bst.h"
#include "baseline/locked_bst.h"
#include "benchsupport/reporter.h"
#include "core/pnb_bst.h"
#include "nbbst/nb_bst.h"
#include "util/table.h"

namespace {

using namespace pnbbst;
using namespace pnbbst::bench;

template <class Tree>
void run_series(Table& table, const BenchConfig& base,
                const std::vector<std::int64_t>& widths, unsigned threads) {
  for (auto w : widths) {
    BenchConfig cfg = base;
    cfg.threads = threads;
    Tree tree;
    const RunResult r =
        bench_structure(tree, WorkloadMix::with_scans(0.10, w), cfg);
    const double avg_scan_us =
        r.scans ? r.scan_latency_ns.mean() / 1000.0 : 0.0;
    table.add_row(
        {Tree::kName,
         Tree::kLinearizableScan ? "yes" : "NO",
         Table::num(std::int64_t{w}), Table::num(r.update_mops(), 3),
         Table::num(r.scans_per_s(), 0), Table::num(avg_scan_us, 1),
         Table::num(r.scanned_keys)});
  }
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const bool smoke = smoke_mode(cli);
  BenchConfig base = config_from_cli(cli);
  const auto widths =
      sweep_list(cli, "widths", smoke, {16, 64}, {64, 256, 1024, 4096});
  const auto threads =
      static_cast<unsigned>(cli.get_int("threads", smoke ? 2 : 4));
  Reporter rep(cli, "Fig.E3",
               "updates + 10% range scans, sweeping scan width");
  for (const auto& unknown : cli.unknown()) {
    std::fprintf(stderr, "unknown flag: --%s\n", unknown.c_str());
    return 2;
  }
  char extra[32];
  std::snprintf(extra, sizeof(extra), "threads=%u", threads);
  rep.preamble(params_string(base, extra));

  Table table({"structure", "linearizable", "scan_width", "update_Mops/s",
               "scans/s", "avg_scan_us", "keys_scanned"});
  run_series<PnbBst<long>>(table, base, widths, threads);
  run_series<LockedBst<long>>(table, base, widths, threads);
  run_series<CowBst<long>>(table, base, widths, threads);
  run_series<NbBst<long>>(table, base, widths, threads);
  rep.emit(table);
  return 0;
}
