// Fig.E1 — Update-only throughput vs thread count (50% insert / 50% delete)
// across all four structures and two key ranges.
//
// Paper claim exercised: PNB-BST's persistence bookkeeping (prev/seq fields,
// sibling copy on delete) costs only a modest constant over NB-BST, while
// blocking (locked) and root-contended (COW) designs fall behind as threads
// are added.
#include <cstdio>

#include "bench_common.h"
#include "baseline/cow_bst.h"
#include "baseline/lf_skiplist.h"
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
                const std::vector<std::int64_t>& threads, long key_range) {
  for (auto th : threads) {
    BenchConfig cfg = base;
    cfg.threads = static_cast<unsigned>(th);
    cfg.key_range = key_range;
    Tree tree;
    const RunResult r = bench_structure(tree, WorkloadMix::updates_only(), cfg);
    table.add_row({Tree::kName, Table::num(std::int64_t{key_range}),
                   Table::num(std::int64_t{th}), Table::num(r.mops(), 3),
                   Table::num(r.update_successes),
                   Table::num(static_cast<double>(r.update_successes) /
                                  static_cast<double>(r.total_ops) * 100.0,
                              1)});
  }
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const bool smoke = smoke_mode(cli);
  BenchConfig base = config_from_cli(cli);
  const auto threads = sweep_list(cli, "threads", smoke, {1, 2}, {1, 2, 4, 8});
  const auto ranges =
      sweep_list(cli, "ranges", smoke, {1 << 10}, {1 << 12, 1 << 18});
  Reporter rep(cli, "Fig.E1", "update-only throughput vs threads (50i/50d)");
  for (const auto& unknown : cli.unknown()) {
    std::fprintf(stderr, "unknown flag: --%s\n", unknown.c_str());
    return 2;
  }
  rep.preamble(params_string(base));

  Table table({"structure", "keyrange", "threads", "Mops/s",
               "succ_updates", "succ_%"});
  for (auto range : ranges) {
    run_series<PnbBst<long>>(table, base, threads, range);
    run_series<NbBst<long>>(table, base, threads, range);
    run_series<LockedBst<long>>(table, base, threads, range);
    run_series<CowBst<long>>(table, base, threads, range);
    run_series<LfSkipList<long>>(table, base, threads, range);
  }
  rep.emit(table);
  return 0;
}
