// Seeded workload generation: which calls a run makes, with which
// arguments, and what each call must return.
//
// A workload is a fixed cycle of operations whose *multiset* is the
// same for every seed — exact operation proportions, stratified payload
// sizes — while the seed picks their order, their argument values and
// the payload bytes. Runs on different seeds therefore stress the same
// distribution and differ only in sequence, which keeps the
// run-to-run spread down without fixing the inputs.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace rpcbench {

// splitmix64: small, fast and identical on every platform (the
// standard <random> distributions are not), so a seed names the same
// inputs everywhere.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  // Uniform in [lo, hi] (inclusive).
  int64_t Range(int64_t lo, int64_t hi);
  double Unit();  // [0, 1)

 private:
  uint64_t state_;
};

enum class OpKind : uint8_t { kAdd, kFlip, kNorm, kEcho, kBlob, kPost };
const char* OpName(OpKind kind);

struct Op {
  OpKind kind = OpKind::kAdd;
  int32_t a = 0, b = 0;   // add
  double x = 0, y = 0;    // norm
  bool flag = false;      // flip
  uint32_t offset = 0;    // echo/blob/post: window into the payload text
  uint32_t size = 0;
};

struct WorkloadSpec {
  const char* name;
  const char* protocol;  // "text" or "hiop"
  bool tcp;              // false = the inproc transport
  int callers;           // caller threads
  int client_orbs;       // callers are spread evenly over these
  int window;            // calls in flight per caller; 1 = synchronous stub
  int norm_wait_us;      // servant wait inside norm (downstream stand-in)
};

// The four workloads, by name; nullptr for an unknown name.
const WorkloadSpec* FindWorkload(std::string_view name);
std::vector<std::string> WorkloadNames();

struct Workload {
  const WorkloadSpec* spec = nullptr;
  std::vector<Op> ops;   // the cycle; callers step through it
  std::string text;      // payload source: echo/blob/post windows
  std::string reversed;  // text reversed, to check blob byte for byte
};

Workload MakeWorkload(const WorkloadSpec& spec, uint64_t seed);

// The payload window an op sends (empty for non-payload ops).
std::string_view PayloadOf(const Workload& w, const Op& op);
// What blob must return for `op`: the window, byte-reversed.
std::string_view ReversedPayloadOf(const Workload& w, const Op& op);
// What norm must return for `op`.
double NormOf(const Op& op);
// Application payload bytes of one call, request plus reply, without
// framing (a oneway has no reply).
uint64_t PayloadBytes(const Op& op);

}  // namespace rpcbench
