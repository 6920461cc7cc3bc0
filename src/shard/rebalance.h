// Adaptive sharding: a background rebalancer that turns the loss-free
// reshard() machinery (write-intent ledgers, PR 5) from a manual tool
// into automatic hot-shard recovery (DESIGN.md §15).
//
// The control loop is deliberately TELEMETRY-DRIVEN: every input comes
// out of a MetricsRegistry snapshot — the same pnb_shard_commits_total /
// pnb_shard_imbalance_ratio samples a dashboard scrapes — rather than
// ad-hoc reads of container internals. That keeps one skew definition
// across operators and automation, and means anything visible to the
// rebalancer is visible on /metrics when a decision needs explaining.
// The only direct map calls are splitter() (current bounds) and
// reshard() (the actuator).
//
//   sense   registry snapshot -> per-shard commit deltas since the last
//           tick (Prometheus-style counter-reset detection: a reshard
//           replaces the shard maps, so their counters restart) and the
//           size-skew gauge
//   decide  skew = max(op-skew, size-skew), where op-skew is the max
//           shard's share of the tick's commit delta over the ideal
//           1/NumShards share; trigger when skew >= threshold, gated by
//           a cooldown (hysteresis) and a minimum key-sample count
//   act     new RangeSplitter boundaries at the NumShards-quantiles of
//           the sampled-key ring (shard/key_sampler.h, 1-in-N write-path
//           sampling), applied via reshard() — acknowledged writes
//           survive by the ledger contract
//
// Decisions are themselves exported: pnb_rebalance_* counters/gauges and
// a kRebalanceTrigger MechanismTrace event per firing, so a soak run's
// rebalancing history reads straight off the trace dump.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/registry.h"
#include "obs/trace.h"
#include "shard/key_sampler.h"
#include "shard/sharded_map.h"

namespace pnbbst {

template <class Map>
class Rebalancer {
 public:
  using Key = typename Map::key_type;

  struct Config {
    // Label selector: a sample participates when its label body contains
    // this substring. MUST equal the labels the owner passed to
    // obs::register_sharded_map for this map on the same registry —
    // otherwise no per-shard sample matches and the loop never sees skew.
    std::string labels;
    // Background cadence (start()); tick() ignores it.
    std::chrono::milliseconds interval{100};
    // Trigger at skew >= threshold. 1.0 = balanced, NumShards = all load
    // on one shard; 1.75 tolerates normal jitter on 8 shards while
    // catching any real hot range.
    double skew_threshold = 1.75;
    // Hysteresis: ticks to skip after a trigger, letting the migration's
    // own churn (ledger replay commits into the fresh maps) wash out of
    // the deltas before the next decision.
    std::uint32_t cooldown_ticks = 5;
    // Write-path sampling rate handed to the KeySampler (1-in-N; 0
    // leaves the sampler off and effectively disables triggering).
    std::uint32_t sample_every = 16;
    // Don't cut boundaries from fewer sampled keys than this.
    std::uint64_t min_samples = 256;
    // Ignore op-skew computed from fewer commits than this per tick
    // (idle maps jitter hard; size-skew still applies).
    std::uint64_t min_ops_delta = 256;
  };

  // One tick's outcome, for tests and logs. `note` is a static string
  // naming why the tick did not trigger ("" when it did).
  struct TickResult {
    double skew = 0.0;
    bool triggered = false;
    const char* note = "";
  };

  Rebalancer(Map& map, Config cfg,
             obs::MetricsRegistry& reg = obs::MetricsRegistry::global())
      : map_(&map),
        cfg_(std::move(cfg)),
        reg_(&reg),
        sampler_(cfg_.sample_every),
        ticks_(&reg.counter("pnb_rebalance_ticks_total",
                            "Rebalancer decision passes", cfg_.labels)),
        triggers_(&reg.counter("pnb_rebalance_triggers_total",
                               "Adaptive reshards fired", cfg_.labels)),
        skipped_cooldown_(&reg.counter(
            "pnb_rebalance_skipped_cooldown_total",
            "Over-threshold ticks suppressed by the cooldown",
            cfg_.labels)),
        skipped_samples_(&reg.counter(
            "pnb_rebalance_skipped_samples_total",
            "Over-threshold ticks with too few sampled keys",
            cfg_.labels)) {
    reg.add_gauge(gauges_, "pnb_rebalance_last_skew_ratio",
                  "Skew seen by the last rebalancer tick (max/mean)",
                  cfg_.labels, [this] {
                    return last_skew_.load(std::memory_order_relaxed);
                  });
    reg.add_gauge(gauges_, "pnb_rebalance_key_samples",
                  "Keys ever recorded by the write-path sampler",
                  cfg_.labels, [this] {
                    return static_cast<double>(sampler_.recorded());
                  });
    map_->set_key_sampler(&sampler_);
  }

  // Detach order matters: stop the loop, then unhook the sampler. The
  // sampler itself must outlive any writer that could still hold the
  // pointer — same quiescence the map destructor already assumes.
  ~Rebalancer() {
    stop();
    gauges_.reset();
    map_->set_key_sampler(nullptr);
  }

  Rebalancer(const Rebalancer&) = delete;
  Rebalancer& operator=(const Rebalancer&) = delete;

  // Background mode: tick() every cfg.interval until stop().
  void start() {
    std::lock_guard<std::mutex> lk(thread_mu_);
    if (worker_.joinable()) return;
    stop_requested_ = false;
    worker_ = std::thread([this] {
      std::unique_lock<std::mutex> lk(cv_mu_);
      for (;;) {
        if (cv_.wait_for(lk, cfg_.interval,
                         [this] { return stop_requested_; })) {
          return;
        }
        lk.unlock();
        tick();
        lk.lock();
      }
    });
  }

  void stop() {
    std::lock_guard<std::mutex> lk(thread_mu_);
    if (!worker_.joinable()) return;
    {
      std::lock_guard<std::mutex> cvlk(cv_mu_);
      stop_requested_ = true;
    }
    cv_.notify_all();
    worker_.join();
    worker_ = std::thread();
  }

  // One sense-decide-act pass. Public and synchronous so tests (and
  // callers that already own a control loop) can drive the policy
  // deterministically; the background thread calls exactly this.
  TickResult tick() {
    std::lock_guard<std::mutex> lk(tick_mu_);
    ticks_->inc();
    const std::vector<obs::Sample> samples = reg_->snapshot();
    const double skew = sense(samples);
    last_skew_.store(skew, std::memory_order_relaxed);
    TickResult r;
    r.skew = skew;
    if (skew < cfg_.skew_threshold) {
      if (cooldown_left_ > 0) --cooldown_left_;
      r.note = "below-threshold";
      return r;
    }
    if (cooldown_left_ > 0) {
      --cooldown_left_;
      skipped_cooldown_->inc();
      r.note = "cooldown";
      return r;
    }
    std::vector<Key> keys = sampler_.snapshot();
    if (keys.size() < cfg_.min_samples) {
      skipped_samples_->inc();
      r.note = "too-few-samples";
      return r;
    }
    act(std::move(keys), skew);
    cooldown_left_ = cfg_.cooldown_ticks;
    r.triggered = true;
    return r;
  }

  KeySampler<Key>& sampler() noexcept { return sampler_; }
  std::uint64_t triggers() const { return triggers_->value(); }
  double last_skew() const {
    return last_skew_.load(std::memory_order_relaxed);
  }

 private:
  static bool matches(const std::string& labels, const std::string& sel) {
    return sel.empty() || labels.find(sel) != std::string::npos;
  }

  // shard="N" out of a preformatted label body.
  static bool shard_index(const std::string& labels, std::size_t& out) {
    static constexpr char kTag[] = "shard=\"";
    const auto pos = labels.find(kTag);
    if (pos == std::string::npos) return false;
    std::size_t i = pos + sizeof(kTag) - 1;
    if (i >= labels.size() || labels[i] < '0' || labels[i] > '9') {
      return false;
    }
    std::size_t v = 0;
    for (; i < labels.size() && labels[i] >= '0' && labels[i] <= '9'; ++i) {
      v = v * 10 + static_cast<std::size_t>(labels[i] - '0');
    }
    out = v;
    return true;
  }

  // Skew out of one registry snapshot: the larger of op-skew (this
  // tick's commit-delta concentration) and the exported size-skew gauge.
  double sense(const std::vector<obs::Sample>& samples) {
    std::vector<double> commits(Map::shard_count(), -1.0);
    double size_skew = 0.0;
    for (const obs::Sample& s : samples) {
      if (!matches(s.labels, cfg_.labels)) continue;
      if (s.name == "pnb_shard_commits_total") {
        std::size_t idx = 0;
        if (shard_index(s.labels, idx) && idx < commits.size()) {
          commits[idx] = s.value;
        }
      } else if (s.name == "pnb_shard_imbalance_ratio") {
        size_skew = s.value;
      }
    }
    double op_skew = 0.0;
    if (last_commits_.size() != commits.size()) {
      last_commits_.assign(commits.size(), 0.0);
    }
    double total = 0.0;
    double biggest = 0.0;
    bool have_ops = false;
    for (std::size_t i = 0; i < commits.size(); ++i) {
      if (commits[i] < 0.0) continue;  // family absent (stats disabled)
      have_ops = true;
      // Counter-reset detection: a reshard swaps in fresh shard maps
      // whose counters restart from 0, exactly like a restarted scrape
      // target — a shrunk value means the delta IS the new value.
      const double delta = commits[i] >= last_commits_[i]
                               ? commits[i] - last_commits_[i]
                               : commits[i];
      last_commits_[i] = commits[i];
      total += delta;
      if (delta > biggest) biggest = delta;
    }
    if (have_ops && total >= static_cast<double>(cfg_.min_ops_delta)) {
      op_skew = biggest / (total / static_cast<double>(commits.size()));
    }
    return op_skew > size_skew ? op_skew : size_skew;
  }

  // New boundaries at the NumShards-quantiles of the sampled keys, fed
  // through the loss-free reshard. Keeps the configured [lo, hi) bounds;
  // with_boundaries dedups/clamps (a hyper-hot single key can collapse
  // several quantiles into one cut — the remaining cuts still peel the
  // hot range apart as far as a range partition can).
  void act(std::vector<Key> keys, double skew) {
    std::sort(keys.begin(), keys.end());
    std::vector<Key> cuts;
    cuts.reserve(Map::shard_count() - 1);
    for (std::size_t i = 1; i < Map::shard_count(); ++i) {
      cuts.push_back(keys[i * keys.size() / Map::shard_count()]);
    }
    const RangeSplitter<Key> cur = map_->splitter();
    map_->reshard(RangeSplitter<Key>::with_boundaries(
        cur.lo, cur.hi, std::move(cuts), Map::shard_count()));
    triggers_->inc();
    obs::trace_event(obs::TraceKind::kRebalanceTrigger,
                     static_cast<std::uint64_t>(skew * 1000.0));
  }

  Map* map_;
  Config cfg_;
  obs::MetricsRegistry* reg_;
  KeySampler<Key> sampler_;
  obs::Counter* ticks_;
  obs::Counter* triggers_;
  obs::Counter* skipped_cooldown_;
  obs::Counter* skipped_samples_;
  obs::Registration gauges_;
  std::atomic<double> last_skew_{0.0};

  // tick() state (tick_mu_): commit baselines + hysteresis.
  std::mutex tick_mu_;
  std::vector<double> last_commits_;
  std::uint32_t cooldown_left_ = 0;

  // Background-thread plumbing.
  std::mutex thread_mu_;
  std::mutex cv_mu_;
  std::condition_variable cv_;
  std::thread worker_;
  bool stop_requested_ = false;
};

}  // namespace pnbbst
