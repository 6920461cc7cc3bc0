// Shared output conventions for the figure/table bench binaries.
//
// Every bench prints a titled, aligned table (the "figure" the paper would
// plot). With --json the banner is suppressed and emit() prints a single
// JSON document instead — the format of the committed BENCH_*.json
// baselines:
//
//   {
//     "experiment": "Fig.E1",
//     "title": "...",
//     "params": "keyrange=... secs=...",
//     "rows": [ {"col": value, ...}, ... ]
//   }
#pragma once

#include <string>

#include "util/cli.h"
#include "util/table.h"

namespace pnbbst {

class Reporter {
 public:
  Reporter(const Cli& cli, std::string experiment_id, std::string title);

  // Prints the header banner (experiment id, title, parameters line); in
  // --json mode prints nothing and records `params` for emit().
  void preamble(const std::string& params);

  // Prints the aligned table, or the JSON document with --json.
  void emit(const Table& table) const;

  bool json() const noexcept { return json_; }

 private:
  std::string id_;
  std::string title_;
  std::string params_;
  bool json_;
};

}  // namespace pnbbst
