// Tab.E5 — Handshaking ablation: how the scan rate drives update-attempt
// aborts (the paper's pro-active abort on a failed handshaking check) and
// helping traffic. Uses CountingOpStats on PNB-BST.
//
// Paper mechanism exercised: every scan bumps the phase counter; an update
// attempt whose counter changed between its read and its first freeze CAS
// aborts itself (Help, lines 111–112). More scans => more aborted attempts
// and more attempts per committed update, degrading gracefully.
#include <cstdio>

#include "bench_common.h"
#include "benchsupport/reporter.h"
#include "core/pnb_bst.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace pnbbst;
  using namespace pnbbst::bench;
  Cli cli(argc, argv);
  const bool smoke = smoke_mode(cli);
  BenchConfig base = config_from_cli(cli);
  const auto threads =
      static_cast<unsigned>(cli.get_int("threads", smoke ? 2 : 4));
  const long width = cli.get_int("width", smoke ? 64 : 256);
  Reporter rep(cli, "Tab.E5",
               "handshaking: scan fraction vs update aborts/helping");
  for (const auto& unknown : cli.unknown()) {
    std::fprintf(stderr, "unknown flag: --%s\n", unknown.c_str());
    return 2;
  }
  char extra[48];
  std::snprintf(extra, sizeof(extra), "threads=%u width=%ld", threads, width);
  rep.preamble(params_string(base, extra));

  Table table({"scan_%", "update_Mops/s", "scans/s", "attempts",
               "commits", "handshake_aborts", "aborts/commit_%",
               "helps", "validate_fails"});
  for (double scan_frac : {0.0, 0.001, 0.01, 0.10}) {
    using Tree = PnbBst<long, std::less<long>, EpochReclaimer, CountingOpStats>;
    BenchConfig cfg = base;
    cfg.threads = threads;
    Tree tree;
    const RunResult r =
        bench_structure(tree, WorkloadMix::with_scans(scan_frac, width), cfg);
    const OpStatsSnapshot s = tree.stats().snapshot();
    const double commits = static_cast<double>(s.commits);
    const double aborts = static_cast<double>(s.handshake_aborts);
    table.add_row(
        {Table::num(scan_frac * 100.0, 1), Table::num(r.update_mops(), 3),
         Table::num(r.scans_per_s(), 0), Table::num(s.attempts),
         Table::num(s.commits), Table::num(s.handshake_aborts),
         Table::num(commits > 0 ? aborts / commits * 100.0 : 0.0, 3),
         Table::num(s.helps), Table::num(s.validate_fails)});
  }
  rep.emit(table);
  return 0;
}
