#ifndef SSA_AUCTION_QUERY_H_
#define SSA_AUCTION_QUERY_H_

#include <cstdint>
#include <vector>

#include "util/common.h"
#include "util/rng.h"

namespace ssa {

/// One user search (Step 2 of the auction lifecycle). Following Section V,
/// a query selects one keyword out of the keyword universe; the chosen
/// keyword has relevance 1 and all others relevance 0. `time` is the auction
/// counter — the shared monotone variable the logical-update triggers key on.
struct Query {
  int keyword = 0;
  /// 1-based auction number ("time"): target spend rates are per-auction.
  int64_t time = 0;
  /// relevance[kw] in [0, 1]; the Figure 5 program bids on keywords with
  /// relevance > 0.7.
  std::vector<double> relevance;
};

/// Generates the Section V query stream: queries arrive at a constant rate,
/// each containing one keyword chosen uniformly at random.
class QueryGenerator {
 public:
  QueryGenerator(int num_keywords, uint64_t seed)
      : num_keywords_(num_keywords), rng_(seed) {
    SSA_CHECK(num_keywords >= 1);
  }

  Query Next() {
    Query q;
    q.keyword = static_cast<int>(rng_.NextBounded(num_keywords_));
    q.time = ++time_;
    q.relevance.assign(num_keywords_, 0.0);
    q.relevance[q.keyword] = 1.0;
    return q;
  }

 private:
  int num_keywords_;
  Rng rng_;
  int64_t time_ = 0;
};

}  // namespace ssa

#endif  // SSA_AUCTION_QUERY_H_
