#include "durability/recovery.h"

#include <vector>

#include "auction/sharded_engine.h"
#include "durability/checkpoint.h"
#include "durability/settlement_log.h"
#include "durability/wire.h"

namespace ssa {

Status RecoverEngine(ShardedAuctionEngine* engine,
                     const RecoveryOptions& options, RecoveryReport* report) {
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
  if (stats.tail_truncated()) {
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
    const AuctionOutcome& outcome = engine->RunAuctionOn(record.query);
    position = record.seq;
    ++report->records_replayed;
    if (!record.MatchesOutcome(outcome)) {
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
