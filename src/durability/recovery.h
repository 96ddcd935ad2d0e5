#ifndef SSA_DURABILITY_RECOVERY_H_
#define SSA_DURABILITY_RECOVERY_H_

#include <cstdint>
#include <string>

#include "util/status.h"

namespace ssa {

class ShardedAuctionEngine;

struct RecoveryOptions {
  /// Checkpoint to rewind to. Empty or missing file = recover from the
  /// engine's current (freshly constructed) state, replaying the whole log.
  std::string checkpoint_path;
  std::string log_path;
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
/// then re-executes the settlement log's suffix by feeding each logged query
/// back through RunAuctionOn, comparing every replayed auction bitwise
/// against its logged record (allocation, prices, events, revenue) so
/// divergence — a log from another trajectory than the checkpoint's
/// included — is a hard DataLoss error, never silent drift.
/// A torn or corrupt log tail is truncated to the last intact record, so
/// the next writer appends after clean frames.
/// Because engines are bitwise-deterministic, re-execution reconstructs
/// accounts, the user RNG, revenue, and strategy state exactly — the engine
/// ends bitwise-identical to the uninterrupted run at the last durable
/// record, losing only the unsynced suffix a crash destroyed, at any shard
/// count.
///
/// Single-threaded by contract: the caller must be the only party touching
/// `engine` for the duration (the serving path runs it inside Start(),
/// before the executor launches). Replay re-executes records strictly in
/// log-sequence order — the same arrival order the executor settled in.
Status RecoverEngine(ShardedAuctionEngine* engine,
                     const RecoveryOptions& options, RecoveryReport* report);

}  // namespace ssa

#endif  // SSA_DURABILITY_RECOVERY_H_
