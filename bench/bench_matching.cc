// Ablation B: the two halves of the paper's RH bound O(nk log k + k^5) —
// per-slot top-k selection versus matching kernels — and the baselines.
// Shows (i) the classical cover-based Munkres ("H") scaling super-linearly
// in n, (ii) the JV kernel on the full graph, (iii) selection + reduced JV
// (the RH composition), (iv) the selection step alone, and (v) the reduced
// graph's matching alone, on the candidates' rows (the dense kernel) and on
// the per-slot top-k edges (the kernel RH runs).

#include <benchmark/benchmark.h>

#include "core/winner_determination.h"
#include "matching/hungarian.h"
#include "matching/munkres.h"
#include "test_util_bench.h"
#include "util/topk_heap.h"

namespace ssa {
namespace {

constexpr int kSlots = 15;

void BM_MunkresFull(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(1);
  const RevenueMatrix m = bench_util::RandomRevenue(n, kSlots, rng);
  const std::vector<double> w = MarginalWeights(m);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MunkresMatching(w, n, kSlots));
  }
}
BENCHMARK(BM_MunkresFull)->RangeMultiplier(2)->Range(250, 16000);

void BM_JvFull(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(1);
  const RevenueMatrix m = bench_util::RandomRevenue(n, kSlots, rng);
  const std::vector<double> w = MarginalWeights(m);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MaxWeightMatchingDense(w, n, kSlots));
  }
}
BENCHMARK(BM_JvFull)->RangeMultiplier(2)->Range(250, 16000);

void BM_TopKSelection(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(1);
  const RevenueMatrix m = bench_util::RandomRevenue(n, kSlots, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SelectTopPerSlotCandidates(m, kSlots));
  }
}
BENCHMARK(BM_TopKSelection)->RangeMultiplier(2)->Range(250, 16000);

void BM_ReducedHungarian(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(1);
  const RevenueMatrix m = bench_util::RandomRevenue(n, kSlots, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        DetermineWinners(m, WdMethod::kReducedHungarian));
  }
}
BENCHMARK(BM_ReducedHungarian)->RangeMultiplier(2)->Range(250, 16000);

// The k^5-ish root cost in isolation: reduced graph of k^2 candidates.
void BM_ReducedKernelOnly(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  Rng rng(2);
  const int m = k * k;
  std::vector<double> w(static_cast<size_t>(m) * k);
  for (double& x : w) x = rng.Uniform(0.0, 10.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MaxWeightMatchingDense(w, m, k));
  }
}
BENCHMARK(BM_ReducedKernelOnly)->DenseRange(5, 25, 5);

// The kernel RH runs: the same k^2 advertisers, matched on each slot's top-k
// edges only (MaxWeightMatchingTopK on the heaps, built once outside the
// loop as the engine's coordinator finds them), k^2 edges instead of k^3.
void BM_TopKEdgeKernelOnly(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  Rng rng(2);
  const int m = k * k;
  TopKHeapSet heaps;
  heaps.Reset(k, k);
  for (AdvertiserId i = 0; i < m; ++i) {
    for (SlotIndex j = 0; j < k; ++j) heaps.Offer(j, rng.Uniform(0.0, 10.0), i);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(MaxWeightMatchingTopK(heaps, m));
  }
}
BENCHMARK(BM_TopKEdgeKernelOnly)->DenseRange(5, 25, 5);

}  // namespace
}  // namespace ssa
