#include "workload.h"

#include <array>
#include <cmath>
#include <utility>

namespace rpcbench {

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

int64_t Rng::Range(int64_t lo, int64_t hi) {
  uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(Next() % span);
}

double Rng::Unit() { return static_cast<double>(Next() >> 11) * 0x1p-53; }

const char* OpName(OpKind kind) {
  switch (kind) {
    case OpKind::kAdd: return "add";
    case OpKind::kFlip: return "flip";
    case OpKind::kNorm: return "norm";
    case OpKind::kEcho: return "echo";
    case OpKind::kBlob: return "blob";
    case OpKind::kPost: return "post";
  }
  return "?";
}

namespace {

// Why each workload exists is in README.md; the numbers here are the
// workload definitions it documents.
const std::array<WorkloadSpec, 4> kWorkloads{{
    {"unary_tcp", "text", true, 1, 1, 1, 0},
    {"unary_inproc", "text", false, 1, 1, 1, 0},
    {"bulk_tcp", "hiop", true, 1, 1, 1, 0},
    {"fanin_tcp", "hiop", true, 4, 2, 4, 200},
}};

constexpr uint32_t kSlabBytes = 16 * 1024;  // IoBufPool::kSlabBytes
constexpr uint32_t kMaxPayload = 256 * 1024;
constexpr size_t kTextBytes = kMaxPayload + 64 * 1024;

// `count` sizes spread evenly over [lo, hi]: the same multiset on
// every seed.
void AddStratified(std::vector<Op>& ops, OpKind kind, int count, uint32_t lo,
                   uint32_t hi) {
  for (int i = 0; i < count; ++i) {
    Op op;
    op.kind = kind;
    op.size = lo + static_cast<uint32_t>(
                       (static_cast<uint64_t>(hi - lo) * i) /
                       static_cast<uint64_t>(count > 1 ? count - 1 : 1));
    ops.push_back(op);
  }
}

void AddPlain(std::vector<Op>& ops, OpKind kind, int count) {
  AddStratified(ops, kind, count, 0, 0);
}

}  // namespace

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& spec : kWorkloads) names.emplace_back(spec.name);
  return names;
}

Workload MakeWorkload(const WorkloadSpec& spec, uint64_t seed) {
  Workload w;
  w.spec = &spec;
  Rng rng(seed);
  static constexpr char kAlphabet[] =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
  w.text.resize(kTextBytes);
  for (char& c : w.text) c = kAlphabet[rng.Next() % (sizeof kAlphabet - 1)];
  w.reversed.assign(w.text.rbegin(), w.text.rend());

  std::vector<Op>& ops = w.ops;
  const std::string_view name = spec.name;
  if (name == "bulk_tcp") {
    // Half the payloads fit one pooled slab, half need a heap oversize
    // buffer: sizes stratified over [1 KiB, 16 KiB) and [16 KiB, 256 KiB].
    for (OpKind kind : {OpKind::kEcho, OpKind::kBlob}) {
      AddStratified(ops, kind, 128, 1024, kSlabBytes - 1);
      AddStratified(ops, kind, 128, kSlabBytes, kMaxPayload);
    }
  } else if (name == "fanin_tcp") {
    AddPlain(ops, OpKind::kAdd, 700);
    AddStratified(ops, OpKind::kEcho, 100, 64, 64);
    AddPlain(ops, OpKind::kNorm, 100);
    AddStratified(ops, OpKind::kPost, 100, 32, 32);
  } else {  // unary_tcp, unary_inproc: small control messages
    AddPlain(ops, OpKind::kAdd, 1000);
    AddPlain(ops, OpKind::kFlip, 1000);
    AddPlain(ops, OpKind::kNorm, 1000);
    AddStratified(ops, OpKind::kEcho, 1000, 8, 64);
  }
  for (Op& op : ops) {
    op.a = static_cast<int32_t>(rng.Range(-1000000, 1000000));
    op.b = static_cast<int32_t>(rng.Range(-1000000, 1000000));
    op.x = rng.Unit() * 2000.0 - 1000.0;
    op.y = rng.Unit() * 2000.0 - 1000.0;
    op.flag = (rng.Next() & 1) != 0;
    op.offset = static_cast<uint32_t>(
        rng.Range(0, static_cast<int64_t>(kTextBytes - op.size)));
  }
  for (size_t i = ops.size() - 1; i > 0; --i) {  // Fisher-Yates
    std::swap(ops[i], ops[static_cast<size_t>(rng.Range(0, static_cast<int64_t>(i)))]);
  }
  return w;
}

std::string_view PayloadOf(const Workload& w, const Op& op) {
  return std::string_view(w.text).substr(op.offset, op.size);
}

std::string_view ReversedPayloadOf(const Workload& w, const Op& op) {
  return std::string_view(w.reversed)
      .substr(w.text.size() - op.offset - op.size, op.size);
}

double NormOf(const Op& op) { return std::sqrt(op.x * op.x + op.y * op.y); }

uint64_t PayloadBytes(const Op& op) {
  switch (op.kind) {
    case OpKind::kAdd: return 2 * 4 + 4;
    case OpKind::kFlip: return 1 + 1;
    case OpKind::kNorm: return 2 * 8 + 8;
    case OpKind::kEcho:
    case OpKind::kBlob: return 2ull * op.size;
    case OpKind::kPost: return op.size;
  }
  return 0;
}

}  // namespace rpcbench
