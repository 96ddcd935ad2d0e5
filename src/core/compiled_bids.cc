#include "core/compiled_bids.h"

#include <algorithm>
#include <utility>

namespace ssa {
namespace {

// 4-bit (click, purchase) masks, bit index b = (clicked << 1) | purchased.
constexpr uint8_t kAlways = 0xF;
constexpr uint8_t kNever = 0x0;
constexpr uint8_t kClickMask = 0xC;     // bits 2, 3: clicked
constexpr uint8_t kPurchaseMask = 0xA;  // bits 1, 3: purchased

/// Bottom-up truth-table construction: one recursive walk of the formula
/// tree, each node doing O(k) byte ops on (k + 1)-entry state vectors.
/// Intermediate results live in a caller-owned arena of "bands" (one
/// (k + 1)-byte table per recursion level, grown on demand); frames pass
/// band *indices* across calls and re-derive pointers afterwards, so arena
/// growth never leaves a dangling pointer and compilation performs no
/// per-node allocations once the arena is warm. `heavy_mask` non-null
/// resolves HeavyInSlot predicates to constants; null rejects them (the
/// Theorem 2 fast path requires 1-dependence on own placement).
class TruthCompiler {
 public:
  TruthCompiler(int num_slots, const uint32_t* heavy_mask,
                std::vector<uint8_t>* bands)
      : states_(num_slots + 1),  // k slots + unassigned
        num_slots_(num_slots),
        heavy_mask_(heavy_mask),
        bands_(bands) {}

  /// Writes the formula's truth table into out[0 .. num_slots], one 4-bit
  /// (click, purchase) mask per slot state.
  void CompileInto(const Formula& f, uint8_t* out) {
    Eval(f, 0);
    const uint8_t* result = Band(0);
    for (int s = 0; s < states_; ++s) out[s] = result[s];
  }

 private:
  /// Evaluates `f` into band `b` (bands below b hold ancestors' pending
  /// left operands).
  void Eval(const Formula& f, int b) {
    const size_t needed = static_cast<size_t>(b + 1) * states_;
    if (bands_->size() < needed) bands_->resize(needed);
    switch (f.op()) {
      case Formula::Op::kTrue:
        Fill(Band(b), kAlways);
        return;
      case Formula::Op::kFalse:
        Fill(Band(b), kNever);
        return;
      case Formula::Op::kSlot: {
        uint8_t* band = Band(b);
        Fill(band, kNever);
        if (f.slot_arg() >= 0 && f.slot_arg() < num_slots_) {
          band[f.slot_arg()] = kAlways;
        }
        return;
      }
      case Formula::Op::kClick:
        Fill(Band(b), kClickMask);
        return;
      case Formula::Op::kPurchase:
        Fill(Band(b), kPurchaseMask);
        return;
      case Formula::Op::kHeavyInSlot: {
        SSA_CHECK_MSG(heavy_mask_ != nullptr,
                      "heavyweight bids require CompileHeavy");
        // Mirrors Formula::Evaluate: slots >= 32 are never heavy.
        const bool heavy = f.slot_arg() < 32 &&
                           ((*heavy_mask_ >> f.slot_arg()) & 1u) != 0;
        Fill(Band(b), heavy ? kAlways : kNever);
        return;
      }
      case Formula::Op::kNot: {
        Eval(f.children()[0], b);
        uint8_t* band = Band(b);  // re-derive: child may have grown the arena
        for (int s = 0; s < states_; ++s) {
          band[s] = static_cast<uint8_t>(~band[s] & kAlways);
        }
        return;
      }
      case Formula::Op::kAnd:
      case Formula::Op::kOr: {
        Eval(f.children()[0], b);
        Eval(f.children()[1], b + 1);
        uint8_t* left = Band(b);
        const uint8_t* right = Band(b + 1);
        if (f.op() == Formula::Op::kAnd) {
          for (int s = 0; s < states_; ++s) left[s] &= right[s];
        } else {
          for (int s = 0; s < states_; ++s) left[s] |= right[s];
        }
        return;
      }
    }
    SSA_CHECK_MSG(false, "corrupt formula node");
  }

  uint8_t* Band(int b) {
    return bands_->data() + static_cast<size_t>(b) * states_;
  }

  void Fill(uint8_t* band, uint8_t value) {
    for (int s = 0; s < states_; ++s) band[s] = value;
  }

  const int states_;
  const int num_slots_;
  const uint32_t* heavy_mask_;
  std::vector<uint8_t>* bands_;
};

// ---------------------------------------------------------------------------
// The 4-bit mask kernel. For every slot state s, lane b accumulates
// value * ((mask >> b) & 1) over the rows strictly in row order, starting at
// 0.0; the lanes are then combined as sum_b prob[b] * lane[b] in b order
// over the terms with prob[b] != 0. That is exactly the tree walk's
// arithmetic (value * 1.0 == value, value * 0.0 == +0.0), so every state's
// result is bitwise ExpectedPayment's. The four lanes are independent, so
// they travel as two packed pairs: SIMD over the outcome axis, never
// reassociating any lane's sum.
// ---------------------------------------------------------------------------

/// Outcome lanes {b, b + 1} of one state, as a GCC/Clang vector: packed
/// where the target has 128-bit SIMD, lowered to scalar code otherwise.
/// Either way each element is a plain IEEE mul or add.
typedef double LanePair __attribute__((vector_size(16)));
/// The element-wise comparison result: all-ones where true, zero where not.
using LaneMask = decltype(LanePair{} != LanePair{});

/// 16-entry weight LUT: entry m is the (click, purchase) mask m expanded to
/// four {0.0, 1.0} lanes.
struct alignas(32) LaneLut {
  double w[16][4];
};
constexpr LaneLut MakeLaneLut() {
  LaneLut lut{};
  for (int m = 0; m < 16; ++m) {
    for (int b = 0; b < 4; ++b) lut.w[m][b] = ((m >> b) & 1) ? 1.0 : 0.0;
  }
  return lut;
}
constexpr LaneLut kLaneLut = MakeLaneLut();

inline LanePair LoadPair(const double* p) {
  LanePair v;
  __builtin_memcpy(&v, p, sizeof v);
  return v;
}

/// `x` where `keep` is all-ones, +0.0 (all bits clear) where it is zero.
inline LanePair KeepLanes(LanePair x, LaneMask keep) {
  LaneMask bits;
  __builtin_memcpy(&bits, &x, sizeof bits);
  bits &= keep;
  __builtin_memcpy(&x, &bits, sizeof x);
  return x;
}

/// States accumulated per walk of the rows: 16 covers a 15-slot page (plus
/// unassigned) in one walk; longer pages take one walk per block.
constexpr int kStateBlock = 16;

/// One state's expected payment from its lanes: sum_b p[b] * lane[b] in b
/// order over the terms with p[b] != 0. A skipped term enters as an exact
/// +0.0 instead of a branch: the sum starts at +0.0 and, under
/// round-to-nearest, x + y is -0.0 only if both are -0.0, so the sum is
/// never -0.0 and adding +0.0 leaves it unchanged bit for bit.
inline Money CombineLanes(const double* p, LanePair lane01, LanePair lane23) {
  const LanePair zero = {0.0, 0.0};
  const LanePair p01 = LoadPair(p);
  const LanePair p23 = LoadPair(p + 2);
  const LanePair t01 = KeepLanes(p01 * lane01, p01 != zero);
  const LanePair t23 = KeepLanes(p23 * lane23, p23 != zero);
  Money expected = 0;
  expected += t01[0];
  expected += t01[1];
  expected += t23[0];
  expected += t23[1];
  return expected;
}

/// Expected payment of one row of value `value` (>= 0) whose mask in the
/// state is `mask`, under the state's distribution `prob`: each lane is
/// 0.0 + value * w, combined straight away. The kernel's one-row tables and
/// OneFormulaPayment both run it.
inline Money OneRowPayment(uint8_t mask, double value, const double* prob) {
  const LanePair zero = {0.0, 0.0};
  const LanePair v = {value, value};
  const double* w = kLaneLut.w[mask & 0xF];
  return CombineLanes(prob, zero + v * LoadPair(w), zero + v * LoadPair(w + 2));
}

/// Expected payments of `count` (<= kStateBlock) consecutive states. `m` is
/// the first state's mask column (state s's masks start at m + s * rows),
/// `prob` holds 4 entries per state, and emit(s, payment) receives state
/// s's result. Forced inline so each caller's emit folds into the loop.
template <typename Emit>
__attribute__((always_inline)) inline void ExpectedPaymentBlock(
    const double* v, const uint8_t* m, size_t rows, int count,
    const double* prob, Emit emit) {
  if (rows == 1) {  // a plain Click bid, say
    for (int s = 0; s < count; ++s) {
      emit(s, OneRowPayment(m[s], v[0], prob + 4 * s));
    }
    return;
  }
  const LanePair zero = {0.0, 0.0};
  LanePair acc[kStateBlock][2];
  for (int s = 0; s < count; ++s) acc[s][0] = acc[s][1] = zero;
  for (size_t r = 0; r < rows; ++r) {
    const LanePair value = {v[r], v[r]};
    for (int s = 0; s < count; ++s) {
      const double* w = kLaneLut.w[m[s * rows + r] & 0xF];
      acc[s][0] += value * LoadPair(w);
      acc[s][1] += value * LoadPair(w + 2);
    }
  }
  for (int s = 0; s < count; ++s) {
    emit(s, CombineLanes(prob + 4 * s, acc[s][0], acc[s][1]));
  }
}

/// Whether `bids` has exactly the rows `formulas` holds, row for row.
bool SameFormulas(const std::vector<Formula>& formulas,
                  const BidsTable& bids) {
  if (formulas.size() != bids.size()) return false;
  for (size_t r = 0; r < formulas.size(); ++r) {
    if (!formulas[r].StructurallyEquals(bids.rows()[r].formula)) return false;
  }
  return true;
}

}  // namespace

void CompiledBids::CompileImpl(const BidsTable& bids, int num_slots,
                               const uint32_t* heavy_mask) {
  SSA_CHECK(num_slots >= 0);
  k_ = num_slots;
  resolves_heavy_ = heavy_mask != nullptr;
  heavy_mask_ = heavy_mask != nullptr ? *heavy_mask : 0;
  const size_t rows = bids.size();
  const int states = num_slots + 1;
  values_.clear();
  values_.reserve(rows);
  masks_.assign(static_cast<size_t>(states) * rows, kNever);
  // Reused across rows, tables and auctions (each pool worker has its own):
  // row_truth holds the current row's table, bands the compiler's operand
  // arena.
  thread_local std::vector<uint8_t> row_truth;
  thread_local std::vector<uint8_t> bands;
  if (row_truth.size() < static_cast<size_t>(states)) row_truth.resize(states);
  TruthCompiler compiler(num_slots, heavy_mask, &bands);
  for (size_t r = 0; r < rows; ++r) {
    const BidRow& row = bids.rows()[r];
    values_.push_back(row.value);
    compiler.CompileInto(row.formula, row_truth.data());
    for (int s = 0; s < states; ++s) {
      masks_[static_cast<size_t>(s) * rows + r] = row_truth[s];
    }
  }
}

void CompiledBids::CompileFrom(const BidsTable& bids, int num_slots) {
  // No DependsOnlyOnOwnPlacement() pre-walk: the compiler itself aborts on
  // any HeavyInSlot node when no mask is supplied (same invariant, checked
  // during the one walk compilation already does).
  CompileImpl(bids, num_slots, nullptr);
}

void CompiledBids::CompileHeavyFrom(const BidsTable& bids, int num_slots,
                                    uint32_t heavy_mask) {
  CompileImpl(bids, num_slots, &heavy_mask);
}

CompiledBids CompiledBids::Compile(const BidsTable& bids, int num_slots) {
  CompiledBids out;
  out.CompileFrom(bids, num_slots);
  return out;
}

CompiledBids CompiledBids::CompileHeavy(const BidsTable& bids, int num_slots,
                                        uint32_t heavy_mask) {
  CompiledBids out;
  out.CompileHeavyFrom(bids, num_slots, heavy_mask);
  return out;
}

Money CompiledBids::Payment(const AdvertiserOutcome& outcome) const {
  if (resolves_heavy_) {
    SSA_CHECK_MSG(outcome.heavy_slot_mask == heavy_mask_,
                  "outcome mask differs from the compiled heavy mask");
  }
  const uint8_t* m = MasksForSlot(outcome.slot);
  const int b = (outcome.clicked ? 2 : 0) | (outcome.purchased ? 1 : 0);
  Money total = 0;
  for (size_t r = 0; r < values_.size(); ++r) {
    // value * {0,1} then += keeps the sum bitwise equal to the tree walk's
    // conditional accumulation (values are non-negative, so no -0 hazards).
    total += values_[r] * static_cast<double>((m[r] >> b) & 1);
  }
  return total;
}

Money CompiledBids::ExpectedPayment(SlotIndex slot,
                                    const double prob[4]) const {
  Money expected = 0;
  ExpectedPaymentBlock(values_.data(), MasksForSlot(slot), values_.size(), 1,
                       prob, [&](int, Money x) { expected = x; });
  return expected;
}

void CompiledBids::ExpectedPayments(const double* prob, double* slot_out,
                                    double* unassigned_out) const {
  const size_t rows = values_.size();
  const int states = k_ + 1;
  for (int first = 0; first < states; first += kStateBlock) {
    ExpectedPaymentBlock(
        values_.data(), masks_.data() + static_cast<size_t>(first) * rows,
        rows, std::min(kStateBlock, states - first), prob + 4 * first,
        [first, k = k_, slot_out, unassigned_out](int s, Money x) {
          const int state = first + s;
          *(state < k ? slot_out + state : unassigned_out) = x;
        });
  }
}

Money OneFormulaPayment(uint8_t mask, Money value, const double prob[4]) {
  return OneRowPayment(mask, value, prob);
}

void CompiledBidsCache::Reserve(size_t n) {
  if (entries_.size() < n) entries_.resize(n);
}

const CompiledBids& CompiledBidsCache::Get(AdvertiserId i,
                                           const BidsTable& bids,
                                           int num_slots) {
  SSA_CHECK(i >= 0);
  if (static_cast<size_t>(i) >= entries_.size()) {
    entries_.resize(static_cast<size_t>(i) + 1);
  }
  Entry& entry = entries_[i];
  if (entry.num_slots == num_slots && SameFormulas(entry.formulas, bids)) {
    ++entry.hits;
    std::vector<double>& values = entry.compiled.values_;
    for (size_t r = 0; r < values.size(); ++r) values[r] = bids.rows()[r].value;
    return entry.compiled;
  }
  ++entry.misses;
  entry.compiled.CompileFrom(bids, num_slots);  // in place: reuses buffers
  entry.formulas.clear();
  for (const BidRow& row : bids.rows()) entry.formulas.push_back(row.formula);
  entry.num_slots = num_slots;
  return entry.compiled;
}

int64_t CompiledBidsCache::hits() const {
  int64_t total = 0;
  for (const Entry& entry : entries_) total += entry.hits;
  return total;
}

int64_t CompiledBidsCache::misses() const {
  int64_t total = 0;
  for (const Entry& entry : entries_) total += entry.misses;
  return total;
}

}  // namespace ssa
