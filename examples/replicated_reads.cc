// Replicated reads: a serving leader plus two read-only followers.
//
// The leader settles auctions and appends each one to its settlement log;
// followers tail that log, re-execute every record onto a private replica
// (bitwise-identical by the replay contract), and serve snapshot reads —
// price estimates, what-if auctions, account balances — without touching
// the leader's hot path. The leader's settled_seq() is the read-your-writes
// token: a client that just saw its auction settle passes the token as
// ReadOptions::min_seq and the router only answers from a follower that has
// caught up that far.

#include <cstdio>
#include <memory>
#include <vector>

#include "replication/follower.h"
#include "serving/auction_server.h"
#include "serving/read_replicas.h"
#include "strategy/roi_strategy.h"

using namespace ssa;

namespace {

constexpr uint64_t kWorkloadSeed = 11;
constexpr uint64_t kEngineSeed = 29;
constexpr char kLogPath[] = "/tmp/ssa_replicated_reads.log";

WorkloadConfig SmallWorkload() {
  WorkloadConfig config;
  config.num_advertisers = 100;
  config.num_slots = 5;
  config.num_keywords = 4;
  config.seed = kWorkloadSeed;
  return config;
}

std::vector<std::unique_ptr<BiddingStrategy>> Strategies(
    const Workload& workload) {
  std::vector<std::unique_ptr<BiddingStrategy>> strategies;
  for (int i = 0; i < workload.config.num_advertisers; ++i) {
    strategies.push_back(
        std::make_unique<RoiStrategy>(workload.keyword_formulas));
  }
  return strategies;
}

}  // namespace

int main() {
  std::remove(kLogPath);

  // --- The leader: a serving front-end with the settlement log on.
  ServerConfig config;
  config.engine.engine.seed = kEngineSeed;
  config.engine.num_shards = 2;
  config.durability.log_path = kLogPath;
  config.durability.writer.group_records = 8;

  Workload workload = MakePaperWorkload(SmallWorkload());
  AuctionServer leader(config, workload, Strategies(workload));
  if (!leader.Start().ok()) return 1;

  // --- Two followers tailing the leader's log. Each gets its own engine
  // replica (same seed/workload/strategies — the bitwise preconditions);
  // the shard layout is free to differ.
  ReadReplicaSetConfig replica_config;
  replica_config.num_followers = 2;
  replica_config.leader_seq = [&leader] { return leader.settled_seq(); };
  ReadReplicaSet replicas(replica_config, [&](int i) {
    FollowerConfig follower;
    follower.engine.engine.seed = kEngineSeed;
    follower.engine.num_shards = i + 1;
    follower.log_path = kLogPath;
    follower.leader_seq = [&leader] { return leader.settled_seq(); };
    Workload w = MakePaperWorkload(SmallWorkload());
    return std::make_unique<FollowerEngine>(follower, w, Strategies(w));
  });
  if (!replicas.Start().ok()) return 1;

  // --- Traffic: the leader settles 300 auctions while followers tail.
  QueryGenerator queries(SmallWorkload().num_keywords, kEngineSeed);
  for (int i = 0; i < 300; ++i) {
    leader.Submit(queries.Next());
  }
  leader.Stop();  // drain + flush — every settlement is now in the log

  // --- Read-your-writes: the settled_seq token gates the read.
  const uint64_t token = leader.settled_seq();
  ReadOptions read_options;
  read_options.consistency = ReadConsistency::kAtLeastSeq;
  read_options.min_seq = token;
  read_options.wait_timeout = std::chrono::milliseconds(5000);

  std::vector<Money> prices;
  uint64_t applied_at = 0;
  const Query probe = queries.Next();
  if (!replicas.EstimatePrices(read_options, probe, &prices, &applied_at)
           .ok()) {
    return 1;
  }
  std::printf("leader settled %llu auctions; follower answered at seq %llu\n",
              static_cast<unsigned long long>(token),
              static_cast<unsigned long long>(applied_at));
  std::printf("estimated clearing prices for keyword %d:", probe.keyword);
  for (Money p : prices) std::printf(" %.0f", p);
  std::printf("\n");

  // --- The replica really is the leader, bitwise.
  AdvertiserAccount account;
  if (!replicas.AccountSnapshot(read_options, 0, &account, nullptr).ok()) {
    return 1;
  }
  const AdvertiserAccount& truth = leader.engine().accounts()[0];
  const bool equal = truth.amount_spent == account.amount_spent;
  std::printf("advertiser 0 spend: leader=%.2f follower=%.2f (%s)\n",
              truth.amount_spent, account.amount_spent,
              equal ? "bitwise equal" : "DIVERGED");

  replicas.Stop();
  std::remove(kLogPath);
  return equal ? 0 : 1;
}
