#ifndef SSA_DURABILITY_CHECKPOINT_H_
#define SSA_DURABILITY_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "auction/account.h"
#include "util/status.h"

namespace ssa {

/// Complete serializable engine state at a settlement boundary — everything
/// a freshly constructed engine (same config, workload, and strategy
/// construction as the original) needs to continue bitwise-identically to
/// the uninterrupted run:
///   * per-advertiser accounts (spend, per-keyword value/spend — the state
///     whose loss Section II-B makes every later bid wrong);
///   * the user-behavior RNG plus the auction counter, so draws resume
///     mid-stream (queries are the caller's: recovery feeds the logged
///     ones back, so no query stream is saved);
///   * each strategy's private state blob (tentative bids, program tables).
/// It holds trajectory state only: no cache, scratch or shard layout, so
/// capturing right after a restore reproduces the restored image byte for
/// byte, and any K restores any checkpoint.
struct EngineCheckpoint {
  static constexpr uint32_t kVersion = 3;

  /// Settlement-log position: auctions settled when the checkpoint was
  /// taken. Recovery replays log records with seq > this.
  uint64_t seq = 0;
  double total_revenue = 0;
  uint64_t user_rng[4] = {0, 0, 0, 0};
  /// Workload shape, checked at restore: a checkpoint only restores into an
  /// engine built from the same population.
  int32_t num_advertisers = 0;
  int32_t num_slots = 0;
  int32_t num_keywords = 0;
  std::vector<AdvertiserAccount> accounts;
  /// One opaque blob per strategy (BiddingStrategy::SaveState).
  std::vector<std::string> strategy_state;
};

/// Serializes `ckpt` into the versioned checkpoint format:
///   "SSACKPT1" magic, u32 version, u64 payload_len, u32 crc32(payload),
///   payload.
void EncodeCheckpoint(const EngineCheckpoint& ckpt, std::string* out);

/// Decodes and validates (magic, version, length, CRC) a checkpoint image.
Status DecodeCheckpoint(std::string_view data, EngineCheckpoint* ckpt);

/// Writes atomically (tmp + fsync + rename): a crash mid-checkpoint leaves
/// the previous checkpoint intact, never a torn file.
Status WriteCheckpointFile(const std::string& path,
                           const EngineCheckpoint& ckpt);
Status ReadCheckpointFile(const std::string& path, EngineCheckpoint* ckpt);

}  // namespace ssa

#endif  // SSA_DURABILITY_CHECKPOINT_H_
