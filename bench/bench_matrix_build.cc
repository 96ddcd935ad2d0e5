// Ablation H: expected-revenue matrix construction — the Theorem 2 table
// that every auction builds before winner determination. Compares:
//
//   * Baseline:  tree-walking BuildRevenueMatrixBaseline (recursive
//                Formula::Evaluate per (row, slot, outcome) — the seed
//                implementation),
//   * Compiled:  BuildRevenueMatrix (compile to flat truth tables, then
//                stream; compile cost included),
//   * Cached:    BuildRevenueMatrixCompiled over pre-compiled rows (the
//                engine's steady state: a compiled-bids cache hit, zero
//                compile cost),
//   * Parallel:  Cached + ThreadPool over advertiser blocks,
//   * CacheGet:  CompiledBidsCache::Get itself over one auction's tables,
//                with values that move every auction or stay unchanged.
//
// The acceptance point of the compilation PR is n=5000, k=8; see
// bench/README.md for recorded numbers.

#include <memory>
#include <vector>

#include <benchmark/benchmark.h>

#include "core/compiled_bids.h"
#include "core/expected_revenue.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace ssa {
namespace {

/// Representative multi-feature bid mix: position bids (Slot disjunctions),
/// click bids, purchase bids and guarded combinations — heavier than the
/// Section V Click-only tables so the formula walk cost is visible.
Formula RandomBidFormula(Rng& rng, int k) {
  switch (rng.NextBounded(5)) {
    case 0:
      return Formula::Click();
    case 1: {
      std::vector<SlotIndex> slots;
      const int count = 1 + static_cast<int>(rng.NextBounded(3));
      for (int s = 0; s < count; ++s) {
        slots.push_back(static_cast<SlotIndex>(rng.NextBounded(k)));
      }
      return Formula::AnySlot(slots);
    }
    case 2:
      return Formula::Click() &&
             Formula::Slot(static_cast<SlotIndex>(rng.NextBounded(k)));
    case 3:
      return Formula::Purchase() ||
             (Formula::Click() &&
              Formula::Slot(static_cast<SlotIndex>(rng.NextBounded(k))));
    default:
      return !Formula::Slot(static_cast<SlotIndex>(rng.NextBounded(k)));
  }
}

std::vector<BidsTable> MakeBids(int n, int k, Rng& rng) {
  std::vector<BidsTable> bids(n);
  for (int i = 0; i < n; ++i) {
    const int rows = 1 + static_cast<int>(rng.NextBounded(3));
    for (int r = 0; r < rows; ++r) {
      bids[i].AddBid(RandomBidFormula(rng, k),
                     static_cast<Money>(rng.UniformInt(1, 50)));
    }
  }
  return bids;
}

MatrixClickModel MakeModel(int n, int k, Rng& rng) {
  std::vector<double> click(static_cast<size_t>(n) * k);
  for (auto& p : click) p = rng.Uniform(0.1, 0.9);
  return MatrixClickModel(n, k, click);
}

struct Instance {
  std::vector<BidsTable> bids;
  std::unique_ptr<MatrixClickModel> model;
  std::vector<CompiledBids> compiled;
  std::vector<const CompiledBids*> view;
};

Instance MakeInstance(int n, int k) {
  Rng rng(12345);
  Instance inst;
  inst.bids = MakeBids(n, k, rng);
  inst.model = std::make_unique<MatrixClickModel>(MakeModel(n, k, rng));
  inst.compiled.reserve(n);
  for (int i = 0; i < n; ++i) {
    inst.compiled.push_back(CompiledBids::Compile(inst.bids[i], k));
    inst.view.push_back(&inst.compiled.back());
  }
  return inst;
}

void BM_MatrixBaselineTreeWalk(benchmark::State& state) {
  const Instance inst = MakeInstance(static_cast<int>(state.range(0)),
                                     static_cast<int>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildRevenueMatrixBaseline(inst.bids, *inst.model));
  }
}
BENCHMARK(BM_MatrixBaselineTreeWalk)
    ->Args({1000, 8})
    ->Args({5000, 8})
    ->Args({5000, 15})
    ->Unit(benchmark::kMillisecond);

void BM_MatrixCompiled(benchmark::State& state) {
  const Instance inst = MakeInstance(static_cast<int>(state.range(0)),
                                     static_cast<int>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildRevenueMatrix(inst.bids, *inst.model));
  }
}
BENCHMARK(BM_MatrixCompiled)
    ->Args({1000, 8})
    ->Args({5000, 8})
    ->Args({5000, 15})
    ->Args({10000, 8})
    ->Args({100000, 8})
    ->Unit(benchmark::kMillisecond);

void BM_MatrixCompiledCached(benchmark::State& state) {
  const Instance inst = MakeInstance(static_cast<int>(state.range(0)),
                                     static_cast<int>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildRevenueMatrixCompiled(inst.view, *inst.model));
  }
}
BENCHMARK(BM_MatrixCompiledCached)
    ->Args({1000, 8})
    ->Args({5000, 8})
    ->Args({5000, 15})
    ->Args({10000, 8})
    ->Args({100000, 8})
    ->Unit(benchmark::kMillisecond);

void BM_MatrixCompiledParallel(benchmark::State& state) {
  const Instance inst = MakeInstance(static_cast<int>(state.range(0)),
                                     static_cast<int>(state.range(1)));
  ThreadPool pool(static_cast<int>(state.range(2)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        BuildRevenueMatrixCompiled(inst.view, *inst.model, &pool));
  }
}
BENCHMARK(BM_MatrixCompiledParallel)
    ->Args({5000, 8, 2})
    ->Args({5000, 8, 4})
    ->Args({5000, 15, 4})
    ->Args({10000, 8, 4})
    ->Args({100000, 8, 4})
    ->Unit(benchmark::kMillisecond);

/// CompiledBidsCache::Get for n one-row Click tables, the shape of the ROI
/// bidders' tables, one lookup per advertiser per iteration as in a
/// brute-force auction. moving = 1 alternates between two table sets whose
/// values differ by 1, so every value moves between lookups as ROI bids do;
/// moving = 0 re-emits the same tables.
void BM_CompiledBidsCacheGet(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int k = static_cast<int>(state.range(1));
  const bool moving = state.range(2) != 0;
  Rng rng(12345);
  std::vector<BidsTable> tables[2];
  for (int i = 0; i < n; ++i) {
    const Money value = static_cast<Money>(rng.UniformInt(1, 50));
    tables[0].emplace_back().AddBid(Formula::Click(), value);
    tables[1].emplace_back().AddBid(Formula::Click(), value + 1);
  }
  CompiledBidsCache cache;
  cache.Reserve(n);
  for (AdvertiserId i = 0; i < n; ++i) cache.Get(i, tables[0][i], k);
  int round = 0;
  for (auto _ : state) {
    const std::vector<BidsTable>& bids = tables[moving ? ++round & 1 : 0];
    for (AdvertiserId i = 0; i < n; ++i) {
      benchmark::DoNotOptimize(cache.Get(i, bids[i], k).values());
    }
  }
  state.counters["hit_ratio"] = static_cast<double>(cache.hits()) /
                                static_cast<double>(cache.hits() +
                                                    cache.misses());
}
BENCHMARK(BM_CompiledBidsCacheGet)
    ->ArgNames({"n", "k", "moving"})
    ->Args({10000, 15, 1})
    ->Args({10000, 15, 0})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ssa
