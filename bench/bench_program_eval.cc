// Ablation G: bidding-program evaluation cost — native C++ RoiStrategy
// versus the Figure 5 program (Section II-B language), which ProgramStrategy
// classifies and runs through its native bid step, and versus the same
// program interpreted. The interpreter's per-auction cost motivates both
// Section IV (evaluate fewer programs) and the native step.
//
// BM_HarnessShapedPrograms mirrors the capture step of a serving auction
// over 1,000 program bidders: 10 keywords whose formulas cycle Click /
// Click & Slot1 / Purchase, every strategy bidding on each query in turn
// (so each MakeBids touches a cold strategy, as in a real capture).
// It also reports the heap bytes each of those strategies holds (glibc
// only). BM_HarnessShapedInterpreter is the same capture with each
// strategy's plan run by lang::Interpreter::Fire on a copy of its tables,
// as MakeBids ran it before the native step. BM_ProgramCreate is the
// one-off set-up cost per program in such a
// population: strategies of one source share one compiled plan, so a
// Create() finds the plan and only builds the private tables.
// BM_ProgramParseOnly is what a source seen for the first time adds.
// BM_ProgramPeekBids is the read-only bid computation follower reads and
// what-if auctions use.

#include <cstddef>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "auction/workload.h"
#include "core/formula_parser.h"
#include "lang/interpreter.h"
#include "strategy/program_strategy.h"
#include "strategy/roi_strategy.h"
#include "util/rng.h"

#if defined(__GLIBC__) && \
    (__GLIBC__ > 2 || (__GLIBC__ == 2 && __GLIBC_MINOR__ >= 33))
#include <malloc.h>
#define SSA_HAVE_MALLINFO2 1
#endif

namespace ssa {
namespace {

/// Bytes currently allocated on the heap; 0 where glibc cannot say.
size_t HeapInUse() {
#ifdef SSA_HAVE_MALLINFO2
  return mallinfo2().uordblks;
#else
  return 0;
#endif
}

constexpr const char kEqualizeRoi[] = R"sql(
CREATE TRIGGER bid AFTER INSERT ON Query
{
  IF amtSpent < targetSpendRate * time THEN
    UPDATE Keywords SET bid = bid + 1
    WHERE roi = ( SELECT MAX( K.roi ) FROM Keywords K )
      AND relevance > 0 AND bid < maxbid;
  ELSEIF amtSpent > targetSpendRate * time THEN
    UPDATE Keywords SET bid = bid - 1
    WHERE roi = ( SELECT MIN( K.roi ) FROM Keywords K )
      AND relevance > 0 AND bid > 0;
  ENDIF;
  UPDATE Bids SET value =
    ( SELECT SUM( K.bid ) FROM Keywords K
      WHERE K.relevance > 0.7 AND K.formula = Bids.formula );
}
)sql";

constexpr int kKeywords = 10;

AdvertiserAccount MakeAccount(Rng& rng) {
  AdvertiserAccount a;
  a.value_per_click.resize(kKeywords);
  for (auto& v : a.value_per_click) {
    v = static_cast<Money>(rng.UniformInt(1, 50));
  }
  a.max_bid = a.value_per_click;
  a.value_gained.assign(kKeywords, 0.0);
  a.spent_per_keyword.assign(kKeywords, 0.0);
  a.target_spend_rate = rng.Uniform(1.0, 50.0);
  return a;
}

Query MakeQuery(Rng& rng, int64_t time) {
  Query q;
  q.keyword = static_cast<int>(rng.NextBounded(kKeywords));
  q.time = time;
  q.relevance.assign(kKeywords, 0.0);
  q.relevance[q.keyword] = 1.0;
  return q;
}

void BM_NativeRoiStrategy(benchmark::State& state) {
  Rng rng(1);
  AdvertiserAccount account = MakeAccount(rng);
  RoiStrategy strategy(std::vector<Formula>(kKeywords, Formula::Click()));
  BidsTable bids;
  int64_t t = 0;
  for (auto _ : state) {
    bids.Clear();
    strategy.MakeBids(MakeQuery(rng, ++t), account, &bids);
    benchmark::DoNotOptimize(bids);
  }
}
BENCHMARK(BM_NativeRoiStrategy);

void BM_Figure5Program(benchmark::State& state) {
  Rng rng(1);
  AdvertiserAccount account = MakeAccount(rng);
  std::vector<ProgramStrategy::KeywordSpec> specs;
  for (int kw = 0; kw < kKeywords; ++kw) {
    specs.push_back({"kw" + std::to_string(kw), Formula::Click()});
  }
  auto strategy = ProgramStrategy::Create(kEqualizeRoi, specs);
  SSA_CHECK(strategy.ok());
  BidsTable bids;
  int64_t t = 0;
  for (auto _ : state) {
    bids.Clear();
    (*strategy)->MakeBids(MakeQuery(rng, ++t), account, &bids);
    benchmark::DoNotOptimize(bids);
  }
}
BENCHMARK(BM_Figure5Program);

std::vector<ProgramStrategy::KeywordSpec> HarnessKeywords() {
  std::vector<ProgramStrategy::KeywordSpec> specs;
  for (int kw = 0; kw < kKeywords; ++kw) {
    const Formula f = kw % 3 == 0   ? Formula::Click()
                      : kw % 3 == 1 ? Formula::Click() && Formula::Slot(0)
                                    : Formula::Purchase();
    specs.push_back({"kw" + std::to_string(kw), f});
  }
  return specs;
}

void BM_HarnessShapedPrograms(benchmark::State& state) {
  constexpr int kStrategies = 1000;
  WorkloadConfig wc;
  wc.num_advertisers = kStrategies;
  wc.num_keywords = kKeywords;
  const Workload workload = MakePaperWorkload(wc);
  const std::vector<ProgramStrategy::KeywordSpec> specs = HarnessKeywords();
  std::vector<std::unique_ptr<ProgramStrategy>> strategies;
  strategies.reserve(kStrategies);
  const size_t heap_before = HeapInUse();
  for (int i = 0; i < kStrategies; ++i) {
    auto strategy = ProgramStrategy::Create(kEqualizeRoi, specs);
    SSA_CHECK(strategy.ok());
    strategies.push_back(*std::move(strategy));
  }
  state.counters["heap_bytes_per_strategy"] =
      static_cast<double>(HeapInUse() - heap_before) / kStrategies;
  Rng rng(1);
  BidsTable bids;
  int64_t t = 0;
  Query query = MakeQuery(rng, t);
  int next = 0;
  for (auto _ : state) {
    if (next == kStrategies) {  // every strategy has bid: next auction
      next = 0;
      query = MakeQuery(rng, ++t);
    }
    bids.Clear();
    strategies[next]->MakeBids(query, workload.accounts[next], &bids);
    benchmark::DoNotOptimize(bids);
    ++next;
  }
}
BENCHMARK(BM_HarnessShapedPrograms);

/// A strategy's plan and a copy of its tables, bid through the interpreter
/// the way ProgramStrategy::MakeBids does it, minus the native step.
struct InterpretedBidder {
  explicit InterpretedBidder(const ProgramStrategy& strategy)
      : plan(strategy.plan()) {
    for (int t = 0; t < strategy.tables().num_tables(); ++t) {
      const Table& table = *strategy.tables().table(t);
      *db.AddTable(table.name(), table.column_names()) = table;
    }
    const Table& bids = *db.table(1);
    for (int row = 0; row < bids.num_rows(); ++row) {
      row_formulas.push_back(*ParseFormula(bids.At(row, "formula").str()));
    }
  }

  void MakeBids(const Query& query, const AdvertiserAccount& account,
                BidsTable* out) {
    Table& keywords = *db.table(0);
    for (int kw = 0; kw < keywords.num_rows(); ++kw) {
      Value* row = keywords.MutableRow(kw);
      row[kMaxBidColumn] = Value::Number(account.max_bid[kw]);
      row[kRoiColumn] = Value::Number(account.Roi(kw));
      row[kRelevanceColumn] = Value::Number(query.relevance[kw]);
    }
    // Slots in ProgramStrategy's order: amtSpent, time, targetSpendRate,
    // queryKeyword, wonSlot.
    const std::optional<double> scalars[] = {
        account.amount_spent, static_cast<double>(query.time),
        account.target_spend_rate, static_cast<double>(query.keyword),
        std::nullopt};
    const Status status = lang::Interpreter::Fire(
        *plan, plan->FindEvent("Query"), &db, scalars, std::size(scalars));
    SSA_CHECK(status.ok());
    const Table& bids = *db.table(1);
    for (int row = 0; row < bids.num_rows(); ++row) {
      out->AddBid(row_formulas[row], bids.Row(row)[1].number());
    }
  }

  // Keywords(text, formula, maxbid, roi, bid, relevance).
  static constexpr int kMaxBidColumn = 2;
  static constexpr int kRoiColumn = 3;
  static constexpr int kRelevanceColumn = 5;

  std::shared_ptr<const lang::CompiledProgram> plan;
  Database db;
  std::vector<Formula> row_formulas;
};

void BM_HarnessShapedInterpreter(benchmark::State& state) {
  constexpr int kStrategies = 1000;
  WorkloadConfig wc;
  wc.num_advertisers = kStrategies;
  wc.num_keywords = kKeywords;
  const Workload workload = MakePaperWorkload(wc);
  const std::vector<ProgramStrategy::KeywordSpec> specs = HarnessKeywords();
  auto strategy = ProgramStrategy::Create(kEqualizeRoi, specs);
  SSA_CHECK(strategy.ok());
  std::vector<InterpretedBidder> bidders;
  bidders.reserve(kStrategies);
  for (int i = 0; i < kStrategies; ++i) bidders.emplace_back(**strategy);
  Rng rng(1);
  BidsTable bids;
  int64_t t = 0;
  Query query = MakeQuery(rng, t);
  int next = 0;
  for (auto _ : state) {
    if (next == kStrategies) {  // every bidder has bid: next auction
      next = 0;
      query = MakeQuery(rng, ++t);
    }
    bids.Clear();
    bidders[next].MakeBids(query, workload.accounts[next], &bids);
    benchmark::DoNotOptimize(bids);
    ++next;
  }
}
BENCHMARK(BM_HarnessShapedInterpreter);

void BM_ProgramCreate(benchmark::State& state) {
  const std::vector<ProgramStrategy::KeywordSpec> specs = HarnessKeywords();
  // A live strategy of the same source, as in a population.
  auto resident = ProgramStrategy::Create(kEqualizeRoi, specs);
  SSA_CHECK(resident.ok());
  for (auto _ : state) {
    auto strategy = ProgramStrategy::Create(kEqualizeRoi, specs);
    benchmark::DoNotOptimize(strategy);
  }
}
BENCHMARK(BM_ProgramCreate);

void BM_ProgramPeekBids(benchmark::State& state) {
  Rng rng(1);
  const AdvertiserAccount account = MakeAccount(rng);
  auto strategy = ProgramStrategy::Create(kEqualizeRoi, HarnessKeywords());
  SSA_CHECK(strategy.ok());
  BidsTable bids;
  int64_t t = 0;
  for (auto _ : state) {
    bids.Clear();
    (*strategy)->PeekBids(MakeQuery(rng, ++t), account, &bids);
    benchmark::DoNotOptimize(bids);
  }
}
BENCHMARK(BM_ProgramPeekBids);

void BM_ProgramParseOnly(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(lang::ParseProgram(kEqualizeRoi));
  }
}
BENCHMARK(BM_ProgramParseOnly);

}  // namespace
}  // namespace ssa
