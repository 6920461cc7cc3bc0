#include "util/histogram.h"

#include <cstdio>

namespace pnbbst {

template <class Cell>
std::uint64_t BasicHistogram<Cell>::quantile(double q) const noexcept {
  const std::uint64_t total = count();
  if (total == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const auto target = static_cast<std::uint64_t>(
      q * static_cast<double>(total - 1));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += load(counts_[i]);
    if (seen > target) return value_for(i);
  }
  return max();
}

template <class Cell>
std::string BasicHistogram<Cell>::summary() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "n=%llu mean=%.0f p50=%llu p90=%llu p99=%llu p99.9=%llu "
                "max=%llu",
                static_cast<unsigned long long>(count()), mean(),
                static_cast<unsigned long long>(p50()),
                static_cast<unsigned long long>(p90()),
                static_cast<unsigned long long>(p99()),
                static_cast<unsigned long long>(p999()),
                static_cast<unsigned long long>(max()));
  return buf;
}

template class BasicHistogram<std::uint64_t>;
template class BasicHistogram<std::atomic<std::uint64_t>>;

}  // namespace pnbbst
