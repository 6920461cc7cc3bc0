// Metrics registry: the process-wide telemetry plane (DESIGN.md §14).
//
// The paper's claims are about mechanism behavior under contention —
// helps, handshake aborts, freeze failures, scan/update interference —
// but each gauge family lives in its own corner (CountingOpStats on a
// tree, AllocStats on an arena, a sharded map's retired-generation
// gauges, AdmissionStats, ServerStats). MetricsRegistry puts them behind
// one named, labeled, scrapeable surface:
//
//   Counter   registry-owned monotone counter with cacheline-striped
//             cells (util/cacheline.h): the enabled-mode hot-path cost
//             is ONE padded relaxed fetch_add on the thread's stripe,
//             aggregated only at read time.
//   gauge     a sampled callback — existing gauges (AllocStats, the
//             retired-generation gauges, AdmissionStats, ...) register
//             collectors (obs/adapters.h) instead of duplicating state.
//   snapshot  one call yields every sample in the process;
//             prometheus_text() renders the standard text exposition
//             format served by GET /metrics and the binary METRICS
//             opcode, both on the server's port.
//
// Overhead contract: the DISABLED mode is the default NullOpStats tree
// policy — nothing is instrumented and nothing compiles in. A tree on
// CountingOpStats pays one striped increment per mechanism event and is
// exposed through obs::register_op_stats; the micro_ops obs on/off
// ablation rows guard the cost.
//
// Registration is mutex-guarded and meant for setup paths; hot paths
// hold the stable Counter& and never look anything up. Collectors are
// removed via the RAII Registration handle (a Server unregisters its
// families on stop(), so tests can cycle servers without accumulating
// dangling callbacks); counters are process-lifetime and find-or-create
// (re-registering returns the same cells).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/cacheline.h"

namespace pnbbst::obs {

// Prometheus metric families. Latency data is exported BOTH as a summary
// (pre-computed quantile labels) and as a native le-bucketed histogram
// (obs/adapters.h register_latency), so all four appear in TYPE lines.
enum class MetricType : std::uint8_t { kCounter, kGauge, kSummary,
                                       kHistogram };

inline const char* metric_type_name(MetricType t) noexcept {
  switch (t) {
    case MetricType::kCounter:
      return "counter";
    case MetricType::kGauge:
      return "gauge";
    case MetricType::kSummary:
      return "summary";
    case MetricType::kHistogram:
      return "histogram";
  }
  return "untyped";
}

// One scraped sample: family name, preformatted label body (the text
// between the braces, e.g. `shard="3",op="find"`; empty = no braces),
// and the value.
struct Sample {
  std::string name;
  std::string labels;
  double value = 0.0;
};

// Registry-owned counter: striped cells plus the identity under which
// snapshot() reports it.
class Counter {
 public:
  Counter(std::string name, std::string labels)
      : name_(std::move(name)), labels_(std::move(labels)) {}

  void inc() noexcept { cells_.add(0); }
  void add(std::uint64_t n) noexcept { cells_.add(0, n); }
  std::uint64_t value() const noexcept { return cells_.value(0); }

  const std::string& name() const noexcept { return name_; }
  const std::string& labels() const noexcept { return labels_; }

 private:
  std::string name_;
  std::string labels_;
  StripedCounters<1> cells_;
};

class MetricsRegistry;

// RAII unregistration handle: collectors added through it are removed
// when the handle is destroyed (or reset). Move-only.
class Registration {
 public:
  Registration() noexcept = default;
  Registration(const Registration&) = delete;
  Registration& operator=(const Registration&) = delete;
  Registration(Registration&& o) noexcept
      : registry_(o.registry_), ids_(std::move(o.ids_)) {
    o.registry_ = nullptr;
    o.ids_.clear();
  }
  Registration& operator=(Registration&& o) noexcept {
    if (this != &o) {
      reset();
      registry_ = o.registry_;
      ids_ = std::move(o.ids_);
      o.registry_ = nullptr;
      o.ids_.clear();
    }
    return *this;
  }
  ~Registration() { reset(); }

  inline void reset() noexcept;
  bool empty() const noexcept { return ids_.empty(); }

 private:
  friend class MetricsRegistry;
  MetricsRegistry* registry_ = nullptr;
  std::vector<std::uint64_t> ids_;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // The process-wide registry every subsystem registers into and the
  // exposition endpoints scrape. Immortal, like ArenaDomain::shared():
  // collectors may still be removed during static teardown.
  static MetricsRegistry& global() {
    static MetricsRegistry* r = new MetricsRegistry();
    return *r;
  }

  // Find-or-create a counter under (name, labels). The reference is
  // stable for the registry's lifetime — hot paths hold it and never
  // come back here. Also declares the family (help wins on first call).
  Counter& counter(std::string_view name, std::string_view help,
                   std::string_view labels = {}) {
    std::lock_guard<std::mutex> lock(mu_);
    declare_locked(name, MetricType::kCounter, help);
    const std::string key =
        std::string(name) + "\x1f" + std::string(labels);
    auto it = counters_.find(key);
    if (it == counters_.end()) {
      it = counters_
               .emplace(key, std::make_unique<Counter>(std::string(name),
                                                       std::string(labels)))
               .first;
    }
    return *it->second;
  }

  // Declare family metadata (type + help) without adding a sample source;
  // collectors registered below emit samples for declared families.
  void declare(std::string_view name, MetricType type,
               std::string_view help) {
    std::lock_guard<std::mutex> lock(mu_);
    declare_locked(name, type, help);
  }

  // Sampled-callback gauge: `fn` is invoked at every snapshot. The
  // callback must stay valid until the Registration releases it.
  void add_gauge(Registration& reg, std::string_view name,
                 std::string_view help, std::string_view labels,
                 std::function<double()> fn) {
    add_collector(reg, name, MetricType::kGauge, help,
                  [name = std::string(name), labels = std::string(labels),
                   fn = std::move(fn)](std::vector<Sample>& out) {
                    out.push_back({name, labels, fn()});
                  });
  }

  // General collector: may emit any number of samples (per-shard fans,
  // summary quantiles). `family` + `type` + `help` declare the primary
  // family it feeds; a collector emitting several families should
  // declare() the others itself.
  void add_collector(Registration& reg, std::string_view family,
                     MetricType type, std::string_view help,
                     std::function<void(std::vector<Sample>&)> fn) {
    std::lock_guard<std::mutex> lock(mu_);
    declare_locked(family, type, help);
    const std::uint64_t id = next_id_++;
    collectors_.emplace(id, std::move(fn));
    if (reg.registry_ == nullptr) reg.registry_ = this;
    reg.ids_.push_back(id);
  }

  void remove_collector(std::uint64_t id) noexcept {
    std::lock_guard<std::mutex> lock(mu_);
    collectors_.erase(id);
  }

  // Every sample in the process: owned counters first, then collector
  // output, sorted by (name, labels) so families group contiguously.
  std::vector<Sample> snapshot() const {
    std::vector<Sample> out;
    std::lock_guard<std::mutex> lock(mu_);
    out.reserve(counters_.size() + collectors_.size());
    for (const auto& [key, c] : counters_) {
      out.push_back({c->name(), c->labels(),
                     static_cast<double>(c->value())});
    }
    for (const auto& [id, fn] : collectors_) fn(out);
    std::sort(out.begin(), out.end(), [](const Sample& a, const Sample& b) {
      if (a.name != b.name) return a.name < b.name;
      return a.labels < b.labels;
    });
    return out;
  }

  // Prometheus text exposition format (version 0.0.4): one `# HELP` +
  // `# TYPE` header per family, then its samples. This is the payload of
  // both GET /metrics and the binary METRICS opcode.
  std::string prometheus_text() const {
    const std::vector<Sample> samples = snapshot();
    std::map<std::string, Family> families;
    {
      std::lock_guard<std::mutex> lock(mu_);
      families = families_;
    }
    std::string out;
    out.reserve(samples.size() * 64);
    std::string last_family;
    for (const Sample& s : samples) {
      // Header name: the sample's own declared family, or — for the
      // _bucket/_count/_sum series of a declared histogram/summary base
      // (e.g. pnb_op_latency_ns_hist_bucket) — the base family, so the
      // TYPE histogram line appears once above its series. Exact
      // declarations win, preserving the standalone *_count counter
      // families some adapters declare deliberately.
      std::string fam = s.name;
      auto it = families.find(fam);
      if (it == families.end()) {
        for (const char* suffix : {"_bucket", "_count", "_sum"}) {
          const std::size_t n = std::string_view(suffix).size();
          if (fam.size() > n && fam.compare(fam.size() - n, n, suffix) == 0) {
            auto base_it = families.find(fam.substr(0, fam.size() - n));
            if (base_it != families.end()) {
              fam = base_it->first;
              it = base_it;
            }
            break;
          }
        }
      }
      if (fam != last_family) {
        last_family = fam;
        const char* type = it != families.end()
                               ? metric_type_name(it->second.type)
                               : "untyped";
        out += "# HELP " + fam + " ";
        out += it != families.end() ? it->second.help : "";
        out += "\n# TYPE " + fam + " ";
        out += type;
        out += "\n";
      }
      out += s.name;
      if (!s.labels.empty()) {
        out += "{";
        out += s.labels;
        out += "}";
      }
      out += " ";
      out += format_value(s.value);
      out += "\n";
    }
    return out;
  }

 private:
  struct Family {
    MetricType type = MetricType::kGauge;
    std::string help;
  };

  void declare_locked(std::string_view name, MetricType type,
                      std::string_view help) {
    auto it = families_.find(std::string(name));
    if (it == families_.end()) {
      families_.emplace(std::string(name),
                        Family{type, std::string(help)});
    }
  }

  // Counters are u64; everything else double. Print integral values
  // without an exponent so counter samples survive a text round trip
  // exactly (u64 up to 2^53 — beyond that monotonicity still holds).
  static std::string format_value(double v) {
    char buf[32];
    if (std::nearbyint(v) == v && std::fabs(v) < 9.007199254740992e15) {
      std::snprintf(buf, sizeof(buf), "%.0f", v);
    } else {
      std::snprintf(buf, sizeof(buf), "%.10g", v);
    }
    return buf;
  }

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, Family> families_;
  std::map<std::uint64_t, std::function<void(std::vector<Sample>&)>>
      collectors_;
  std::uint64_t next_id_ = 1;
};

inline void Registration::reset() noexcept {
  if (registry_ != nullptr) {
    for (const std::uint64_t id : ids_) registry_->remove_collector(id);
  }
  registry_ = nullptr;
  ids_.clear();
}

}  // namespace pnbbst::obs
