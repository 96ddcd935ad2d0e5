#ifndef SSA_DURABILITY_RECOVERY_H_
#define SSA_DURABILITY_RECOVERY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "durability/checkpoint.h"
#include "durability/settlement_log.h"
#include "durability/wire.h"
#include "util/status.h"

namespace ssa {

/// How the recovering engine obtains replay queries.
enum class QueryStream {
  /// The engine generates its own stream (RunAuction): replay re-executes
  /// via RunAuction() so the generator advances in lockstep, and verifies
  /// each generated query against the logged one — a divergence means the
  /// checkpoint and log disagree about the trajectory.
  kInternal,
  /// Queries arrived externally (the serving path): replay feeds each logged
  /// query back through RunAuctionOn().
  kExternal,
};

struct RecoveryOptions {
  /// Checkpoint to rewind to. Empty or missing file = recover from the
  /// engine's current (freshly constructed) state, replaying the whole log.
  std::string checkpoint_path;
  std::string log_path;
  QueryStream stream = QueryStream::kInternal;
  /// Truncate the log file to its last intact record when the tail is torn
  /// or corrupt, so the next writer appends after clean frames.
  bool truncate_corrupt_tail = true;
};

struct RecoveryReport {
  /// Auction count the checkpoint rewound to (0 = no checkpoint).
  uint64_t checkpoint_seq = 0;
  /// Log records re-executed on top of the checkpoint.
  int64_t records_replayed = 0;
  /// Records at or below checkpoint_seq, already folded into the checkpoint.
  int64_t records_skipped = 0;
  /// Bytes of torn/corrupt log tail discarded (0 for a clean log).
  uint64_t truncated_bytes = 0;
  bool tail_truncated = false;
  /// Engine position after recovery == last durable auction.
  uint64_t recovered_seq = 0;
  /// Replayed auctions whose outcome differed from the logged record
  /// (always 0 when recovery succeeds).
  int64_t verify_mismatches = 0;
};

/// Restore-then-replay: rewinds `engine` to the checkpoint (if one exists),
/// then re-executes the settlement log's suffix, comparing every replayed
/// auction bitwise against its logged record (allocation, prices, events,
/// revenue) so divergence is a hard DataLoss error, never silent drift.
/// Because engines are bitwise-deterministic, re-execution reconstructs
/// accounts, RNG streams, revenue, and strategy state exactly — the engine
/// ends bitwise-identical to the uninterrupted run at the last durable
/// record, losing only the unsynced suffix a crash destroyed. Works for
/// AuctionEngine and ShardedAuctionEngine (any shard count).
///
/// Single-threaded by contract: the caller must be the only party touching
/// `engine` for the duration (the serving path runs it inside Start(),
/// before the executor launches). Replay re-executes records strictly in
/// log-sequence order — the same arrival order the executor settled in.
template <typename Engine>
Status RecoverEngine(Engine* engine, const RecoveryOptions& options,
                     RecoveryReport* report) {
  *report = RecoveryReport{};

  if (!options.checkpoint_path.empty() &&
      FileExists(options.checkpoint_path)) {
    EngineCheckpoint ckpt;
    SSA_RETURN_IF_ERROR(ReadCheckpointFile(options.checkpoint_path, &ckpt));
    SSA_RETURN_IF_ERROR(engine->RestoreCheckpoint(ckpt));
    report->checkpoint_seq = ckpt.seq;
  }

  std::vector<SettlementRecord> records;
  LogReadStats stats;
  SSA_RETURN_IF_ERROR(ReadSettlementLog(options.log_path, &records, &stats));
  report->tail_truncated = stats.tail_truncated();
  report->truncated_bytes = stats.corrupt_bytes;
  if (stats.tail_truncated() && options.truncate_corrupt_tail) {
    SSA_RETURN_IF_ERROR(TruncateFile(options.log_path, stats.valid_bytes));
  }

  uint64_t position = static_cast<uint64_t>(engine->auctions_run());
  for (const SettlementRecord& record : records) {
    if (record.seq <= position) {
      // Already folded into the checkpoint (checkpoints may trail or lead
      // individual log group commits).
      ++report->records_skipped;
      continue;
    }
    if (record.seq != position + 1) {
      return Status::DataLoss(
          "settlement log gap: engine at auction " + std::to_string(position) +
          ", next record is " + std::to_string(record.seq));
    }
    const AuctionOutcome* outcome = nullptr;
    if (options.stream == QueryStream::kInternal) {
      outcome = &engine->RunAuction();
      if (outcome->query.keyword != record.query.keyword ||
          outcome->query.time != record.query.time) {
        return Status::DataLoss(
            "replayed query diverges from log at auction " +
            std::to_string(record.seq));
      }
    } else {
      outcome = &engine->RunAuctionOn(record.query);
    }
    position = record.seq;
    ++report->records_replayed;
    if (!record.MatchesOutcome(*outcome)) {
      ++report->verify_mismatches;
      return Status::DataLoss(
          "replayed auction " + std::to_string(record.seq) +
          " diverges from its logged settlement");
    }
  }
  report->recovered_seq = position;
  return Status::Ok();
}

}  // namespace ssa

#endif  // SSA_DURABILITY_RECOVERY_H_
