// Fig.E2 — Mixed find/update throughput vs thread count for three canonical
// mixes: read-mostly (90f/5i/5d), balanced (50f/25i/25d), update-only
// (0f/50i/50d).
//
// Paper claim exercised: Finds never interfere with each other and help only
// updates at the leaf's neighbourhood, so read-heavy mixes scale best; the
// ordering pnb ~ nbbst > cow > locked should hold throughout.
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

struct NamedMix {
  const char* name;
  WorkloadMix mix;
};

template <class Tree>
void run_series(Table& table, const BenchConfig& base,
                const std::vector<std::int64_t>& threads,
                const NamedMix& nm) {
  for (auto th : threads) {
    BenchConfig cfg = base;
    cfg.threads = static_cast<unsigned>(th);
    Tree tree;
    const RunResult r = bench_structure(tree, nm.mix, cfg);
    table.add_row({nm.name, Tree::kName,
                   Table::num(std::int64_t{th}), Table::num(r.mops(), 3),
                   Table::num(r.finds), Table::num(r.inserts + r.erases)});
  }
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const bool smoke = smoke_mode(cli);
  BenchConfig base = config_from_cli(cli);
  const auto threads = sweep_list(cli, "threads", smoke, {2}, {1, 2, 4, 8});
  Reporter rep(cli, "Fig.E2", "mixed workload throughput vs threads");
  for (const auto& unknown : cli.unknown()) {
    std::fprintf(stderr, "unknown flag: --%s\n", unknown.c_str());
    return 2;
  }
  rep.preamble(params_string(base));

  const NamedMix mixes[] = {
      {"90f/5i/5d", WorkloadMix::read_mostly()},
      {"50f/25i/25d", WorkloadMix::balanced()},
      {"0f/50i/50d", WorkloadMix::updates_only()},
  };
  Table table({"mix", "structure", "threads", "Mops/s", "finds", "updates"});
  for (const auto& nm : mixes) {
    run_series<PnbBst<long>>(table, base, threads, nm);
    run_series<NbBst<long>>(table, base, threads, nm);
    run_series<LockedBst<long>>(table, base, threads, nm);
    run_series<CowBst<long>>(table, base, threads, nm);
    run_series<LfSkipList<long>>(table, base, threads, nm);
  }
  rep.emit(table);
  return 0;
}
