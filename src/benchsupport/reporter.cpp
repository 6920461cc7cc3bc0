#include "benchsupport/reporter.h"

#include <cstdio>

namespace pnbbst {

Reporter::Reporter(const Cli& cli, std::string experiment_id,
                   std::string title)
    : id_(std::move(experiment_id)),
      title_(std::move(title)),
      json_(cli.get_bool("json", false)) {}

void Reporter::preamble(const std::string& params) {
  params_ = params;
  if (json_) return;
  std::printf("== %s: %s ==\n", id_.c_str(), title_.c_str());
  if (!params.empty()) std::printf("params: %s\n", params.c_str());
  std::printf("\n");
}

void Reporter::emit(const Table& table) const {
  if (json_) {
    std::printf("{\n  \"experiment\": \"%s\",\n  \"title\": \"%s\",\n"
                "  \"params\": \"%s\",\n  \"rows\":\n%s\n}\n",
                json_escape(id_).c_str(), json_escape(title_).c_str(),
                json_escape(params_).c_str(), table.to_json(4).c_str());
    return;
  }
  table.print(stdout);
  std::printf("\n");
}

}  // namespace pnbbst
