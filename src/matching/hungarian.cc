#include "matching/hungarian.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <utility>

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

/// The sparse solve's scratch, reused across calls on a thread. Columns are
/// 1-based as in SolveJv (0 is the virtual source): 1..m the distinct
/// advertisers ascending, m + 1 + j row j's "leave empty" column.
struct TopKScratch {
  std::vector<std::pair<AdvertiserId, int>> by_id;  // (id, edge), sorted
  std::vector<int> row_end;      // edges of row j: [row_end[j-1], row_end[j])
  std::vector<double> weight;    // per edge
  std::vector<int> col;          // per edge, 1-based
  std::vector<AdvertiserId> col_id;
  std::vector<double> u, v, minv;
  std::vector<int> p, way, touched;
  std::vector<char> used;
};

}  // namespace

Allocation MaxWeightMatchingTopK(const TopKHeapSet& heaps, int num_advertisers,
                                 std::vector<double>* seated_weight) {
  const int k = heaps.num_heaps();
  SSA_CHECK(heaps.capacity() <= k + 1);
  Allocation result = Allocation::Empty(num_advertisers, k);
  if (seated_weight != nullptr) seated_weight->assign(k, 0.0);
  thread_local TopKScratch s;

  // Edges row by row; a full top-(k+1) heap's root is the (k+1)-th.
  s.weight.clear();
  s.by_id.clear();
  s.row_end.assign(1, 0);
  for (SlotIndex j = 0; j < k; ++j) {
    const TopKHeapSet::Entry* entries = heaps.entries(j);
    for (int e = heaps.size(j) > k ? 1 : 0; e < heaps.size(j); ++e) {
      if (!(entries[e].weight > 0.0)) continue;
      SSA_CHECK(entries[e].id >= 0 && entries[e].id < num_advertisers);
      s.by_id.emplace_back(entries[e].id, static_cast<int>(s.weight.size()));
      s.weight.push_back(entries[e].weight);
    }
    s.row_end.push_back(static_cast<int>(s.weight.size()));
  }
  if (s.weight.empty()) return result;

  // Canonical columns: distinct ids ascending.
  std::sort(s.by_id.begin(), s.by_id.end());
  s.col.resize(s.weight.size());
  s.col_id.assign(1, -1);
  for (const auto& [id, e] : s.by_id) {
    if (s.col_id.back() != id) s.col_id.push_back(id);
    s.col[e] = static_cast<int>(s.col_id.size()) - 1;
  }
  const int m = static_cast<int>(s.col_id.size()) - 1;
  const int nc = m + k;
  s.u.assign(k + 1, 0.0);
  s.v.assign(nc + 1, 0.0);
  s.p.assign(nc + 1, 0);
  s.way.assign(nc + 1, 0);
  s.minv.assign(nc + 1, kInf);
  s.used.assign(nc + 1, 0);

  // SolveJv's phases on costs -weight, each scanning only the rows its
  // search reaches: a column no reached row has an edge to keeps an
  // infinite minv, which neither the minimum nor the potentials read.
  for (int i = 1; i <= k; ++i) {
    s.p[0] = i;
    int j0 = 0;
    s.touched.clear();
    do {
      s.used[j0] = 1;
      const int i0 = s.p[j0];
      auto relax = [&](int j, double cost) {
        if (s.used[j]) return;
        const double cur = cost - s.u[i0] - s.v[j];
        if (s.minv[j] == kInf) s.touched.push_back(j);
        if (cur < s.minv[j]) {
          s.minv[j] = cur;
          s.way[j] = j0;
        }
      };
      for (int e = s.row_end[i0 - 1]; e < s.row_end[i0]; ++e) {
        relax(s.col[e], -s.weight[e]);
      }
      relax(m + i0, 0.0);
      int j1 = -1;
      double delta = kInf;
      for (const int j : s.touched) {
        if (s.used[j]) continue;
        if (s.minv[j] < delta || (s.minv[j] == delta && j < j1)) {
          delta = s.minv[j];
          j1 = j;
        }
      }
      SSA_CHECK_MSG(j1 != -1, "Hungarian: no augmenting column");
      s.u[s.p[0]] += delta;
      s.v[0] -= delta;
      for (const int j : s.touched) {
        if (s.used[j]) {
          s.u[s.p[j]] += delta;
          s.v[j] -= delta;
        } else {
          s.minv[j] -= delta;
        }
      }
      j0 = j1;
    } while (s.p[j0] != 0);
    do {
      const int j1 = s.way[j0];
      s.p[j0] = s.p[j1];
      j0 = j1;
    } while (j0 != 0);
    s.used[0] = 0;
    for (const int j : s.touched) {
      s.minv[j] = kInf;
      s.used[j] = 0;
    }
  }

  // Seat each row's edge column, then sum in ascending id (column) order.
  for (int c = 1; c <= m; ++c) {
    const int row = s.p[c];
    if (row == 0) continue;
    int e = s.row_end[row - 1];
    while (s.col[e] != c) ++e;
    const SlotIndex slot = row - 1;
    result.slot_to_advertiser[slot] = s.col_id[c];
    result.advertiser_to_slot[s.col_id[c]] = slot;
    result.total_weight += s.weight[e];
    if (seated_weight != nullptr) (*seated_weight)[slot] = s.weight[e];
  }
  return result;
}

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
