#include "durability/checkpoint.h"

#include <cstring>

#include "durability/wire.h"

namespace ssa {
namespace {

constexpr char kMagic[8] = {'S', 'S', 'A', 'C', 'K', 'P', 'T', '1'};
/// Smallest encoded account (two doubles, four empty vector counts) and
/// strategy blob (an empty string's count): each decoded count is checked
/// against the bytes left before anything is sized from it.
constexpr size_t kMinAccountBytes = 2 * 8 + 4 * 4;
constexpr size_t kMinBlobBytes = 4;

void EncodeAccount(const AdvertiserAccount& account, WireWriter* w) {
  w->PutDouble(account.amount_spent);
  w->PutDouble(account.target_spend_rate);
  w->PutDoubleVector(account.value_per_click);
  w->PutDoubleVector(account.max_bid);
  w->PutDoubleVector(account.value_gained);
  w->PutDoubleVector(account.spent_per_keyword);
}

Status DecodeAccount(WireReader* r, AdvertiserAccount* account) {
  SSA_RETURN_IF_ERROR(r->GetDouble(&account->amount_spent));
  SSA_RETURN_IF_ERROR(r->GetDouble(&account->target_spend_rate));
  SSA_RETURN_IF_ERROR(r->GetDoubleVector(&account->value_per_click));
  SSA_RETURN_IF_ERROR(r->GetDoubleVector(&account->max_bid));
  SSA_RETURN_IF_ERROR(r->GetDoubleVector(&account->value_gained));
  SSA_RETURN_IF_ERROR(r->GetDoubleVector(&account->spent_per_keyword));
  return Status::Ok();
}

void EncodePayload(const EngineCheckpoint& ckpt, std::string* out) {
  WireWriter w(out);
  w.PutU64(ckpt.seq);
  w.PutDouble(ckpt.total_revenue);
  for (uint64_t s : ckpt.user_rng) w.PutU64(s);
  w.PutI32(ckpt.num_advertisers);
  w.PutI32(ckpt.num_slots);
  w.PutI32(ckpt.num_keywords);
  w.PutU32(static_cast<uint32_t>(ckpt.accounts.size()));
  for (const AdvertiserAccount& account : ckpt.accounts) {
    EncodeAccount(account, &w);
  }
  w.PutU32(static_cast<uint32_t>(ckpt.strategy_state.size()));
  for (const std::string& blob : ckpt.strategy_state) w.PutString(blob);
}

Status DecodePayload(std::string_view payload, EngineCheckpoint* ckpt) {
  WireReader r(payload);
  SSA_RETURN_IF_ERROR(r.GetU64(&ckpt->seq));
  SSA_RETURN_IF_ERROR(r.GetDouble(&ckpt->total_revenue));
  for (uint64_t& s : ckpt->user_rng) SSA_RETURN_IF_ERROR(r.GetU64(&s));
  SSA_RETURN_IF_ERROR(r.GetI32(&ckpt->num_advertisers));
  SSA_RETURN_IF_ERROR(r.GetI32(&ckpt->num_slots));
  SSA_RETURN_IF_ERROR(r.GetI32(&ckpt->num_keywords));
  // A forged count must not drive a giant allocation.
  uint32_t n = 0;
  SSA_RETURN_IF_ERROR(r.GetU32(&n));
  if (n > r.remaining() / kMinAccountBytes) {
    return Status::InvalidArgument("short read: account list");
  }
  ckpt->accounts.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    SSA_RETURN_IF_ERROR(DecodeAccount(&r, &ckpt->accounts[i]));
  }
  SSA_RETURN_IF_ERROR(r.GetU32(&n));
  if (n > r.remaining() / kMinBlobBytes) {
    return Status::InvalidArgument("short read: strategy state list");
  }
  ckpt->strategy_state.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    SSA_RETURN_IF_ERROR(r.GetString(&ckpt->strategy_state[i]));
  }
  if (r.remaining() != 0) {
    return Status::InvalidArgument("trailing bytes in checkpoint payload");
  }
  return Status::Ok();
}

}  // namespace

void EncodeCheckpoint(const EngineCheckpoint& ckpt, std::string* out) {
  std::string payload;
  EncodePayload(ckpt, &payload);
  out->append(kMagic, sizeof(kMagic));
  WireWriter w(out);
  w.PutU32(EngineCheckpoint::kVersion);
  w.PutU64(payload.size());
  w.PutU32(Crc32(payload));
  out->append(payload);
}

Status DecodeCheckpoint(std::string_view data, EngineCheckpoint* ckpt) {
  constexpr size_t kHeaderBytes = sizeof(kMagic) + 4 + 8 + 4;
  if (data.size() < kHeaderBytes) {
    return Status::InvalidArgument("checkpoint too short for header");
  }
  if (std::memcmp(data.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("bad checkpoint magic");
  }
  WireReader r(data.substr(sizeof(kMagic)));
  uint32_t version = 0, crc = 0;
  uint64_t payload_len = 0;
  SSA_RETURN_IF_ERROR(r.GetU32(&version));
  SSA_RETURN_IF_ERROR(r.GetU64(&payload_len));
  SSA_RETURN_IF_ERROR(r.GetU32(&crc));
  if (version != EngineCheckpoint::kVersion) {
    return Status::InvalidArgument("unsupported checkpoint version " +
                                   std::to_string(version));
  }
  const std::string_view payload = data.substr(kHeaderBytes);
  if (payload.size() != payload_len) {
    return Status::InvalidArgument("checkpoint payload length mismatch");
  }
  if (Crc32(payload) != crc) {
    return Status::InvalidArgument("checkpoint CRC mismatch");
  }
  return DecodePayload(payload, ckpt);
}

Status WriteCheckpointFile(const std::string& path,
                           const EngineCheckpoint& ckpt) {
  std::string data;
  EncodeCheckpoint(ckpt, &data);
  return AtomicWriteFile(path, data);
}

Status ReadCheckpointFile(const std::string& path, EngineCheckpoint* ckpt) {
  std::string data;
  SSA_RETURN_IF_ERROR(ReadFileToString(path, &data));
  return DecodeCheckpoint(data, ckpt);
}

}  // namespace ssa
