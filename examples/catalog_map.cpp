// Product catalog on PnbMap: concurrent sellers update listings while
// shoppers run price-range queries and paginated browsing — the ordered
// key/value layer over the persistent tree.
//
//   build/examples/catalog_map [--listings=N]
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "core/pnb_map.h"
#include "util/cli.h"
#include "util/random.h"

namespace {

struct Listing {
  long product_id = 0;
  long stock = 0;
};

}  // namespace

int main(int argc, char** argv) {
  pnbbst::Cli cli(argc, argv);
  const long listings = cli.get_int("listings", 50000);
  for (const auto& unknown : cli.unknown()) {
    std::fprintf(stderr, "unknown flag: --%s\n", unknown.c_str());
    return 2;
  }

  // Keyed by price-in-cents (unique per listing in this toy model).
  pnbbst::PnbMap<long, Listing> catalog;
  std::atomic<bool> done{false};

  std::vector<std::thread> sellers;
  for (unsigned ti = 0; ti < 3; ++ti) {
    sellers.emplace_back([&, ti] {
      pnbbst::Xoshiro256 rng(pnbbst::thread_seed(777, ti));
      for (long i = 0; i < listings / 3; ++i) {
        const long price = static_cast<long>(rng.next_bounded(1000000));
        if (rng.next_bounded(4) != 0) {
          catalog.insert(price,
                         Listing{static_cast<long>(rng.next()),
                                 static_cast<long>(rng.next_bounded(100))});
        } else {
          catalog.erase(price);
        }
      }
    });
  }

  std::thread shopper([&] {
    pnbbst::Xoshiro256 rng(999);
    long searches = 0;
    std::size_t found = 0;
    while (!done.load()) {
      const long budget_lo = static_cast<long>(rng.next_bounded(900000));
      found += catalog.range_count(budget_lo, budget_lo + 50000);
      ++searches;
    }
    std::printf("[shopper] %ld price-range searches, %zu listings seen\n",
                searches, found);
  });

  for (auto& th : sellers) th.join();
  done = true;
  shopper.join();

  // Paginated browse of the cheapest listings from a consistent snapshot.
  auto snap = catalog.snapshot();
  std::printf("catalog size: %zu listings\n", snap.size());
  std::printf("10 cheapest listings (price: stock):\n");
  int shown = 0;
  snap.range_visit(0, 1000000, [&shown](long price, const Listing& l) {
    if (shown < 10) {
      std::printf("  %ld: stock %ld\n", price, l.stock);
      ++shown;
    }
  });
  std::puts("catalog_map done");
  return 0;
}
