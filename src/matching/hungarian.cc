#include "matching/hungarian.h"

#include <limits>
#include <numeric>

namespace ssa {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Shortest-augmenting-path Hungarian algorithm (Jonker-Volgenant / e-maxx
/// formulation), minimization. Rows are the k slots; columns are the
/// candidate advertisers plus, when `allow_unmatched` is true, k zero-cost
/// dummy columns so a slot can stay empty. Cost of (slot row, advertiser
/// col) is the negated weight. O(k^2 * (|candidates| + k)).
template <typename CostFn>
void SolveJv(int num_rows, int num_cols, const CostFn& cost,
             std::vector<int>* col_to_row) {
  const int k = num_rows;
  const int nc = num_cols;
  // 1-based arrays per the classical presentation; index 0 is the virtual
  // source row/column.
  std::vector<double> u(k + 1, 0.0), v(nc + 1, 0.0);
  std::vector<int> p(nc + 1, 0), way(nc + 1, 0);
  std::vector<double> minv(nc + 1);
  std::vector<char> used(nc + 1);

  for (int i = 1; i <= k; ++i) {
    p[0] = i;
    int j0 = 0;
    std::fill(minv.begin(), minv.end(), kInf);
    std::fill(used.begin(), used.end(), 0);
    do {
      used[j0] = 1;
      const int i0 = p[j0];
      int j1 = -1;
      double delta = kInf;
      for (int j = 1; j <= nc; ++j) {
        if (used[j]) continue;
        const double cur = cost(i0 - 1, j - 1) - u[i0] - v[j];
        if (cur < minv[j]) {
          minv[j] = cur;
          way[j] = j0;
        }
        if (minv[j] < delta) {
          delta = minv[j];
          j1 = j;
        }
      }
      SSA_CHECK_MSG(j1 != -1, "Hungarian: no augmenting column");
      for (int j = 0; j <= nc; ++j) {
        if (used[j]) {
          u[p[j]] += delta;
          v[j] -= delta;
        } else {
          minv[j] -= delta;
        }
      }
      j0 = j1;
    } while (p[j0] != 0);
    do {
      const int j1 = way[j0];
      p[j0] = p[j1];
      j0 = j1;
    } while (j0 != 0);
  }
  col_to_row->assign(p.begin(), p.end());
}

/// Shared driver: candidate columns first, then (optionally) k dummy
/// zero-cost columns that let a slot stay empty.
Allocation Solve(const std::vector<double>& weights, int n, int k,
                 const std::vector<AdvertiserId>& candidates,
                 bool allow_unmatched) {
  SSA_CHECK(weights.size() == static_cast<size_t>(n) * k);
  const int m = static_cast<int>(candidates.size());
  SSA_CHECK_MSG(allow_unmatched || m >= k,
                "perfect matching needs at least k candidates");
  Allocation result = Allocation::Empty(n, k);
  if (k == 0) return result;

  const int num_cols = m + (allow_unmatched ? k : 0);
  auto cost = [&](int slot, int col) -> double {
    if (col >= m) return 0.0;  // dummy: slot left empty, weight 0
    return -weights[static_cast<size_t>(candidates[col]) * k + slot];
  };

  std::vector<int> col_to_row;
  SolveJv(k, num_cols, cost, &col_to_row);

  for (int col = 1; col <= m; ++col) {
    const int row = col_to_row[col];
    if (row == 0) continue;
    const AdvertiserId adv = candidates[col - 1];
    const SlotIndex slot = row - 1;
    result.slot_to_advertiser[slot] = adv;
    result.advertiser_to_slot[adv] = slot;
    result.total_weight += weights[static_cast<size_t>(adv) * k + slot];
  }
  return result;
}

}  // namespace

Allocation MaxWeightMatchingDense(const std::vector<double>& weights, int n,
                                  int k) {
  std::vector<AdvertiserId> all(n);
  std::iota(all.begin(), all.end(), 0);
  return Solve(weights, n, k, all, /*allow_unmatched=*/true);
}

Allocation MaxWeightPerfectMatchingSubset(
    const std::vector<double>& weights, int n, int k,
    const std::vector<AdvertiserId>& candidates) {
  return Solve(weights, n, k, candidates, /*allow_unmatched=*/false);
}

}  // namespace ssa
