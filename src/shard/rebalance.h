// Adaptive sharding: a background rebalancer that turns the loss-free
// reshard() machinery from a manual tool into automatic hot-shard
// recovery (DESIGN.md §15).
//
// One objective, one data source: the controller balances WRITES, the
// only load a range cut can move, as seen by the write-path key sample it
// owns (shard/key_sampler.h). It reads no registry and walks no tree; its
// only map calls are splitter() and reshard().
//
//   sense   skew = max/mean of the sampled keys' per-shard counts under
//           the current splitter (1.0 = balanced)
//   decide  skew >= threshold, past the cooldown and min-samples gates
//   gate    cuts at the sample's NumShards-quantiles must bring the same
//           skew below the threshold, else "no-benefit" (e.g. one hot
//           key no range cut can spread)
//   act     reshard() to those cuts, loss-free by the ledger contract
//
// An accepted cut balances the sample, so the controller settles after
// one useful reshard. Decisions are exported as pnb_rebalance_* families
// and a kRebalanceTrigger trace event per firing.
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
    // Label body of the rebalancer's own pnb_rebalance_* families on the
    // registry (e.g. the server's port="N"), so several maps' controllers
    // can share one registry.
    std::string labels;
    // Background cadence (start()); tick() ignores it.
    std::chrono::milliseconds interval{100};
    // Trigger at skew >= threshold, and reshard only to cuts predicted
    // below it. 1.0 = balanced, NumShards = all writes on one shard; 1.75
    // tolerates normal jitter on 8 shards while catching any real hot
    // range.
    double skew_threshold = 1.75;
    // Hysteresis: ticks to skip after a trigger or a no-benefit skip,
    // letting the ring refill with post-decision writes before the next
    // decision.
    std::uint32_t cooldown_ticks = 5;
    // Write-path sampling rate handed to the KeySampler (1-in-N; 0
    // leaves the sampler off and effectively disables triggering).
    std::uint32_t sample_every = 16;
    // Don't decide from fewer sampled keys than this.
    std::uint64_t min_samples = 256;
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
            cfg_.labels)),
        skipped_no_benefit_(&reg.counter(
            "pnb_rebalance_skipped_no_benefit_total",
            "Over-threshold ticks whose proposed cuts would stay skewed",
            cfg_.labels)) {
    reg.add_gauge(gauges_, "pnb_rebalance_last_skew_ratio",
                  "Sampled write skew seen by the last tick (max/mean)",
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
    std::vector<Key> keys = sampler_.snapshot();
    const RangeSplitter<Key> cur = map_->splitter();
    const double skew = skew_of(cur, keys);
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
    if (keys.size() < cfg_.min_samples) {
      skipped_samples_->inc();
      r.note = "too-few-samples";
      return r;
    }
    cooldown_left_ = cfg_.cooldown_ticks;
    RangeSplitter<Key> proposed = quantile_cuts(cur, keys);
    if (skew_of(proposed, keys) >= cfg_.skew_threshold) {
      skipped_no_benefit_->inc();
      r.note = "no-benefit";
      return r;
    }
    map_->reshard(std::move(proposed));
    triggers_->inc();
    obs::trace_event(obs::TraceKind::kRebalanceTrigger,
                     static_cast<std::uint64_t>(skew * 1000.0));
    r.triggered = true;
    return r;
  }

  std::uint64_t triggers() const { return triggers_->value(); }
  double last_skew() const {
    return last_skew_.load(std::memory_order_relaxed);
  }

 private:
  // Write skew of `keys` under `sp`: the busiest shard's sample count over
  // the mean (0 for an empty sample).
  static double skew_of(const RangeSplitter<Key>& sp,
                        const std::vector<Key>& keys) {
    if (keys.empty()) return 0.0;
    std::vector<std::size_t> counts(Map::shard_count(), 0);
    for (const Key& k : keys) ++counts[sp.shard_of(k, Map::shard_count())];
    const std::size_t biggest =
        *std::max_element(counts.begin(), counts.end());
    return static_cast<double>(biggest * Map::shard_count()) /
           static_cast<double>(keys.size());
  }

  // Cuts at the NumShards-quantiles of the sample, keeping the current
  // [lo, hi) bounds. Sorts `keys` in place. with_boundaries dedups/clamps:
  // a hyper-hot single key collapses several quantiles into one cut, which
  // is exactly the case the no-benefit gate then declines.
  static RangeSplitter<Key> quantile_cuts(const RangeSplitter<Key>& cur,
                                          std::vector<Key>& keys) {
    std::sort(keys.begin(), keys.end());
    std::vector<Key> cuts;
    cuts.reserve(Map::shard_count() - 1);
    for (std::size_t i = 1; i < Map::shard_count(); ++i) {
      cuts.push_back(keys[i * keys.size() / Map::shard_count()]);
    }
    return RangeSplitter<Key>::with_boundaries(
        cur.lo, cur.hi, std::move(cuts), Map::shard_count());
  }

  Map* map_;
  Config cfg_;
  KeySampler<Key> sampler_;
  obs::Counter* ticks_;
  obs::Counter* triggers_;
  obs::Counter* skipped_cooldown_;
  obs::Counter* skipped_samples_;
  obs::Counter* skipped_no_benefit_;
  obs::Registration gauges_;
  std::atomic<double> last_skew_{0.0};

  // tick() state (tick_mu_): hysteresis.
  std::mutex tick_mu_;
  std::uint32_t cooldown_left_ = 0;

  // Background-thread plumbing.
  std::mutex thread_mu_;
  std::mutex cv_mu_;
  std::condition_variable cv_;
  std::thread worker_;
  bool stop_requested_ = false;
};

}  // namespace pnbbst
