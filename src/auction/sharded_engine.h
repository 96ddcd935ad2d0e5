#ifndef SSA_AUCTION_SHARDED_ENGINE_H_
#define SSA_AUCTION_SHARDED_ENGINE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "auction/outcome.h"
#include "auction/pricing.h"
#include "auction/query.h"
#include "auction/roi_planner.h"
#include "auction/workload.h"
#include "core/bids_table.h"
#include "core/compiled_bids.h"
#include "core/expected_revenue.h"
#include "core/winner_determination.h"
#include "obs/trace.h"
#include "strategy/strategy.h"
#include "util/common.h"
#include "util/topk_heap.h"

namespace ssa {

class ThreadPool;
struct EngineCheckpoint;

/// Contiguous advertiser range [begin, end) owned by one shard.
struct ShardRange {
  AdvertiserId begin = 0;
  AdvertiserId end = 0;
};

inline bool operator==(const ShardRange& a, const ShardRange& b) {
  return a.begin == b.begin && a.end == b.end;
}
inline bool operator!=(const ShardRange& a, const ShardRange& b) {
  return !(a == b);
}

/// Configuration of the sharded engine: the base engine knobs (winner
/// determination, pricing, seed) plus the shard count and the pool the
/// shards run on.
struct ShardedEngineConfig {
  EngineConfig engine;
  /// Number of shards K the advertiser population is partitioned into:
  /// contiguous ranges of ~n/K advertisers, fixed at construction. Clamped
  /// to [1, max(1, n)].
  int num_shards = 1;
  /// Optional (non-owning) pool: shard tasks run concurrently on it. With
  /// nullptr the shards execute sequentially — the output is identical
  /// either way (shards share nothing until the merge).
  ThreadPool* pool = nullptr;
};

/// Horizontally partitioned auction engine: the advertiser population is
/// split across K shards, each owning its advertisers' bid tables and its
/// own compiled-bids cache. Per auction, the per-slot top-(k+1) candidates
/// come from one of two paths:
///
///  * **brute force**, per shard — share-nothing, in parallel on the
///    configured pool: run the bidding programs, compile or reuse their
///    truth tables, fill the shard's rows of the expected-revenue matrix and
///    offer every row into the shard's TopKHeapSet;
///  * **logical** (the paper's RHTALU, auction/roi_planner.h), once for the
///    engine: one planner covers every shard whose bidders all run Figure
///    5's Equalize-ROI rule (the RoiBidder view: native RoiStrategy, or a
///    classified Figure 5 ProgramStrategy). When the query has one relevant
///    keyword on which they all bid one formula that pays nothing without a
///    slot, and the engine runs reduced-Hungarian winner determination
///    (under any pricing rule), the planner fires its due triggers,
///    applies the O(1) logical bid update and selects its members' top
///    entries with the Threshold Algorithm, once per slot, straight into
///    the coordinator's merge — no capture, compile or matrix fill. Shards
///    it does not cover run the brute-force path alongside.
///
/// One coordinator serves both: it merges the brute shards' partial
/// top-(k+1) sets with the planner's entries (the top of a union equals the
/// top of the per-part tops under the strict (weight, id) order), runs
/// reduced-Hungarian winner determination on the merged heaps' per-slot
/// top-k edges (their own scores: no row is re-read), prices the allocation
/// from the merged top-(k+1) (GSP's reference price, VCG's pool), and
/// settles the auction (SettleAuction). It is the library's only auction
/// engine; K = 1 is the unsharded configuration.
///
/// Determinism contract: with equal seeds and workloads, every auction's
/// allocation, prices, user events, and account balances are bitwise
/// identical to the paper's serial eager loop (every program, the full
/// n x k matrix compiled fresh, then WD, pricing and settlement — the
/// test-only reference engine in tests/reference_engine.h), for any K, any
/// pool and either path — asserted by sharded_engine_test and
/// roi_planner_test. Strategies of different advertisers never share
/// mutable state (Section II-B), which is what makes the shard phase
/// embarrassingly parallel. The shard layout is fixed at construction;
/// checkpoints are layout-independent, so a different K is a restore into a
/// new engine.
///
/// The strategies stay the source of truth for checkpoints: the planner
/// writes its effective bids back into its strategies before any
/// path reads them (CaptureBids, a brute-force PlanAuction or
/// WhatIfAuction, CaptureCheckpoint, RestoreCheckpoint, a rebuild for a
/// time before the lists') and rebuilds its lists from them, at its next
/// logical plan or read, after any path moved them (CaptureBids,
/// RestoreCheckpoint).
///
/// Plan / settle split: PlanAuction plans one query against the current
/// account state and SettlePlanned applies it; the server plans and settles
/// each query before planning the next. Planning itself also splits into a
/// *sequential* half that runs the bidding programs (CaptureBids —
/// strategies may mutate private state) and a *pure* half (PlanCaptured —
/// compile, revenue matrix, candidate merge, winner determination, pricing)
/// that is const on the engine and reads only the captured bids plus a
/// PlanLane's scratch; the split halves always take the brute-force path.
/// Follower reads (WhatIfAuction) run PlanAuction's own body in read mode on
/// the engine's lane: the planner's bid step goes into an undo journal that
/// the read rolls back, and shards it does not cover peek their programs.
/// Compilation is a pure function of (table, num_slots), so a plan is
/// bitwise-identical on any lane, whatever its cache history.
class ShardedAuctionEngine {
 public:
  ShardedAuctionEngine(const ShardedEngineConfig& config, Workload workload,
                       std::vector<std::unique_ptr<BiddingStrategy>> strategies);

  /// Runs one complete auction on `query` and returns its record: exactly
  /// PlanAuction followed by SettlePlanned. Queries come from the caller (a
  /// user's search is the auction's input, not engine state); the Section V
  /// stream is a QueryGenerator the caller owns. The fused shard phase
  /// (program evaluation + compile + matrix rows + local top-k) and the
  /// planner's bid step + Threshold Algorithm are reported as
  /// program_eval_ms.
  const AuctionOutcome& RunAuctionOn(const Query& query);

  /// The provider-side half of one auction, detached from its settlement —
  /// the unit the micro-batching AuctionServer schedules. A plan holds
  /// everything settlement needs; it touches no account, strategy-outcome,
  /// or user-RNG state until SettlePlanned applies it.
  struct PlannedAuction {
    AuctionOutcome outcome;      // query, wd, per-phase timings; events empty
    std::vector<Money> prices;   // per-slot charges for the allocation
  };

  /// One auction's bid emission, snapshotted: entry i is advertiser i's
  /// BidsTable for the query, exactly as MakeBids (or PeekBids) produced
  /// it — the input of the pure planning half.
  using CapturedBids = std::vector<BidsTable>;

  /// Per-lane planning scratch: one population-wide compiled-bids cache,
  /// per-shard top-k heaps and phase timers, the coordinator merge heap, and
  /// an arena-reused revenue matrix. Opaque to callers — create with
  /// NewPlanLane(), hand to PlanCaptured. A lane must not be used by two
  /// threads at once; distinct lanes are fully independent.
  /// Every lane's shard phase fans out on the engine's config.pool.
  ///
  /// The cache is keyed by *global* advertiser id and sized to the
  /// population before the lane's first brute-force shard phase, so
  /// parallel shard tasks of one lane touch disjoint entries race-free. It
  /// is scratch, never checkpointed.
  class PlanLane {
    friend class ShardedAuctionEngine;
    struct ShardScratch {
      TopKHeapSet topk;  // local per-slot top-(k+1), reused
      /// Accumulated RunShardPhase wall time for this shard on this lane
      /// (exported as the counter engine_shard_phase_ns_total).
      int64_t phase_ns = 0;
    };
    /// Population-wide, global-id-keyed compiled-bids cache (see above).
    CompiledBidsCache cache;
    std::vector<ShardScratch> shards;
    /// The brute-force shards' tables of PlanAuction (MakeBids) or
    /// WhatIfAuction (PeekBids) on this lane, reused across auctions.
    std::vector<BidsTable> capture;
    TopKHeapSet merged_topk;     // coordinator scratch, reused
    std::vector<double> pool_rows;  // VCG pool's rows, reused
    RevenueMatrix revenue{0, 0};  // arena-reused across auctions
  };

  /// Creates an independent planning lane for PlanCaptured. Lanes may
  /// outlive nothing: the engine must outlive every lane created from it.
  std::unique_ptr<PlanLane> NewPlanLane() const;

  /// The sequential half of planning: runs every advertiser's bidding
  /// program for `query` against the *current* account state and snapshots
  /// the emitted tables into `*bids` (resized to the population). Shards'
  /// captures fan out on the configured pool (strategies of different
  /// advertisers share no state); distinct queries must be captured by one
  /// thread, strictly in arrival order, with no settlement in flight —
  /// MakeBids may mutate strategy-private state, which is exactly the
  /// per-query sequential dependency that cannot parallelize.
  void CaptureBids(const Query& query, CapturedBids* bids);

  /// The pure half of planning: compiles `bids` (via the lane's caches),
  /// fills the lane's revenue matrix, merges per-shard candidates, solves
  /// winner determination, and computes prices into `*plan`. Const on the
  /// engine and side-effect-free outside `lane`/`plan`: concurrent calls on
  /// distinct lanes are safe, and the result is a pure function of
  /// (query, bids, engine config) — bitwise-identical for any lane.
  void PlanCaptured(const Query& query, const CapturedBids& bids,
                    PlanLane* lane, PlannedAuction* plan) const;

  /// Phases 3/4/6-prep on `query` against the *current* account state, on
  /// the engine's internal lane: the planner plans its shards logically when
  /// it can, and every other shard captures and fills. Advances the
  /// strategies' bids (directly or through the planner's lists) and engine
  /// scratch; accounts, strategies' outcome state and the user RNG are
  /// untouched until the plan is settled. The plan equals CaptureBids +
  /// PlanCaptured bit for bit.
  ///
  /// `trace_seq` is the serving layer's sampled trace sequence: nonzero
  /// stamps per-shard capture and plan spans (and the planner's spans) into
  /// the attached tracer; 0 (the default) records nothing. Tracing only
  /// reads clocks and writes the span ring, so values are bitwise-unaffected
  /// at any sampling rate.
  void PlanAuction(const Query& query, PlannedAuction* plan,
                   uint64_t trace_seq = 0);

  /// One full what-if auction as a pure read: the plan PlanAuction would
  /// produce for `query` at the current state, bit for bit, with no value
  /// in the engine moved, so the real trajectory is unperturbed. It is
  /// PlanAuction's body in read mode on the engine's lane: the planner's
  /// Prepare (which may rebuild, as for a plan), then its bid step into an
  /// undo journal rolled back after pricing; shards it does not cover peek
  /// their programs (PeekBids: no strategy-private state advances). Without
  /// a logical plan the read falls back to brute force: the planner writes
  /// its bids back and every advertiser peeks. Reads count as logical or
  /// brute (logical_reads, brute_reads) and leave planner_stats() as they
  /// found it, but for Prepare's rebuild and the weight-order prefixes a
  /// read grows (ctr_extensions), which later plans share.
  ///
  /// The caller must hold the engine exclusively: a read moves the
  /// planner's lists and the lane's scratch while it runs (PeekBids'
  /// default also transiently mutates strategy state). The follower
  /// serializes reads against applies with its mutex.
  void WhatIfAuction(const Query& query, PlannedAuction* plan);

  /// Step 5/6 for a planned auction: simulates user actions (advancing the
  /// user RNG in plan order), charges winners, updates accounts, delivers
  /// outcome notifications, folds revenue into the engine totals, and lets
  /// the ROI planner reclassify the settled winners.
  /// Settling plans strictly in arrival order, each planned after its
  /// predecessor settled, reproduces the serial RunAuctionOn loop bitwise.
  const AuctionOutcome& SettlePlanned(PlannedAuction* plan);

  const std::vector<AdvertiserAccount>& accounts() const {
    return workload_.accounts;
  }
  const Workload& workload() const { return workload_; }
  int64_t auctions_run() const { return auctions_run_; }
  Money total_revenue() const { return total_revenue_; }
  int num_shards() const { return static_cast<int>(ranges_.size()); }
  /// Whether some shard can plan logically (the RHTALU planner exists).
  bool has_roi_planner() const;

  /// Attaches a span tracer (not owned; null detaches). Per-shard capture
  /// and plan slices of queries with a nonzero trace_seq are recorded into
  /// it. Set before any capture/plan is in flight; the tracer must outlive
  /// the engine's use of it.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  /// Per-shard observability: advertiser range, capture time, and
  /// accumulated shard-phase time on the internal lane (lanes from
  /// NewPlanLane() are scratch and report nothing). Reads count like plans.
  struct ShardStats {
    AdvertiserId begin = 0;
    AdvertiserId end = 0;
    /// Bid-capture wall time for the shard's range since construction
    /// (PlanAuction, CaptureBids and WhatIfAuction's peeks).
    int64_t capture_ns = 0;
    /// RunShardPhase wall time accumulated on the internal lane since
    /// construction. A logical auction runs neither phase on the planner's
    /// shards; its time is planner_ns().
    int64_t phase_ns = 0;
  };
  ShardStats shard_stats(int shard) const;
  /// The planner's work totals (zero without a planner).
  RoiPlannerStats planner_stats() const;
  /// WhatIfAuction calls the planner planned, and calls that fell back to
  /// brute force (no planner, a dense method, a query it cannot plan, or a
  /// state Prepare refuses).
  int64_t logical_reads() const { return logical_reads_; }
  int64_t brute_reads() const { return brute_reads_; }
  /// The planner's wall time since construction, reads included: list
  /// preparation, the bid step and the Threshold Algorithm.
  int64_t planner_ns() const { return planner_ns_; }
  /// Internal-lane cache hits/misses summed over all shards: one lookup per
  /// advertiser per brute-force auction or read (logical shards make none),
  /// a hit whenever the table's formulas are unchanged (its values may move).
  int64_t cache_hits() const;
  int64_t cache_misses() const;

  /// Durability hooks (src/durability/): snapshot / rewind the complete
  /// trajectory state — accounts, the user RNG, auction counter, revenue
  /// accumulator, strategy blobs — and nothing else (queries are the
  /// caller's). An engine restored from a checkpoint continues
  /// bitwise-identically to the uninterrupted run. Restore requires the
  /// same workload shape and strategy lineup and fails without partial
  /// effects on shape mismatches (strategy-blob errors surface per
  /// strategy). The checkpoint holds no shard layout, so
  /// an engine of any shard count restores one taken at any other. A restore
  /// leaves the compiled-bids caches as they are: a hit takes the new
  /// table's values, so a cache holding newer tables still returns a fresh
  /// compilation's bits. The RHTALU planner's lists are not checkpointed: a
  /// capture writes its bids back into the strategies first (logically
  /// const, so it must not overlap planning), and a restore leaves them to
  /// be rebuilt from the restored strategies. The file forms are versioned,
  /// CRC-guarded, and atomically replaced on write.
  void CaptureCheckpoint(EngineCheckpoint* ckpt) const;
  Status RestoreCheckpoint(const EngineCheckpoint& ckpt);
  Status WriteCheckpoint(const std::string& path) const;
  Status RestoreFromCheckpoint(const std::string& path);

 private:
  /// Runs body(s) for every shard s: fanned out on config.pool when there is
  /// one and more than one shard, else in shard order on the caller's
  /// thread. Shards share nothing, so the schedule never changes a value.
  void ForEachShard(const std::function<void(int)>& body) const;

  /// The one body of PlanAuction (`read` false) and WhatIfAuction (`read`
  /// true), on the internal lane.
  void Plan(const Query& query, bool read, PlannedAuction* plan,
            uint64_t trace_seq);

  /// Runs shard s's bidding programs for `query` into its range of `*bids`:
  /// MakeBids, timed into capture_ns_, or PeekBids when `read`. Callers sync
  /// the planner around a capture (SyncStrategies before, Invalidate after).
  void CaptureShard(int s, const Query& query, bool read, CapturedBids* bids,
                    uint64_t trace_seq);

  /// The share-nothing per-shard unit of the pure planning half: compiled-
  /// bids lookups (disjoint entries of the lane's shared cache),
  /// revenue-matrix rows, and the local per-slot top-(k+1). Reads the
  /// captured tables; writes only the lane's shard scratch, the shard's
  /// cache entries, and its disjoint matrix rows.
  void RunShardPhase(const ShardRange& range, CompiledBidsCache* cache,
                     PlanLane::ShardScratch* scratch, const CapturedBids& bids,
                     RevenueMatrix* revenue) const;

  /// Whether shard s ran the brute-force phase in an auction that `logical`
  /// planned (null: no logical plan, so every shard did).
  bool PlansBrute(int s, const RoiPlanner* logical) const {
    return logical == nullptr || !logical->Covers(ranges_[s].begin);
  }

  /// The coordinator shared by both paths: merges the brute shards' heaps
  /// into the lane's merged heap set (which the caller Reset, and into which
  /// `logical`, when not null, already offered its members' entries),
  /// solves winner determination (RH on the merged heaps' top-k edges, a
  /// dense method on `revenue`), and prices the allocation from the merged
  /// heaps; only VCG's pool reads rows (from `revenue`, or from `logical`
  /// on keyword `kw` for its members). `revenue` may be null only when
  /// `logical` covers every shard.
  void FinishPlan(PlanLane* lane, const RevenueMatrix* revenue,
                  const RoiPlanner* logical, int kw,
                  PlannedAuction* plan) const;

  /// Writes the planner's effective bids back into its strategies.
  void SyncStrategies() const;

  ShardedEngineConfig config_;
  Workload workload_;
  /// Span sink for per-shard capture/plan slices (not owned; null = off).
  Tracer* tracer_ = nullptr;
  std::vector<std::unique_ptr<BiddingStrategy>> strategies_;
  Rng user_rng_;
  /// Advertisers [begin, end) per shard, fixed at construction and shared
  /// read-only by every lane.
  std::vector<ShardRange> ranges_;
  /// Per-shard capture wall time, indexed like ranges_; the capture fan-out
  /// writes disjoint entries.
  std::vector<int64_t> capture_ns_;
  /// The RHTALU planner over every qualifying shard; null when no shard
  /// qualifies or the engine's method is a dense one.
  std::unique_ptr<RoiPlanner> planner_;
  int64_t planner_ns_ = 0;
  int64_t logical_reads_ = 0;
  int64_t brute_reads_ = 0;
  /// The engine's own lane (PlanAuction, RunAuctionOn and WhatIfAuction);
  /// its cache is the one cache_hits() reports.
  std::unique_ptr<PlanLane> internal_lane_;
  PlannedAuction plan_scratch_;   // RunAuctionOn's plan, reused
  AuctionOutcome outcome_;
  int64_t auctions_run_ = 0;
  Money total_revenue_ = 0;
};

}  // namespace ssa

#endif  // SSA_AUCTION_SHARDED_ENGINE_H_
