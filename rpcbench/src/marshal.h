// The Echo interface's marshaling, written out once for the paths that
// bypass the demo stub: the fan-in callers (Orb::InvokeAsync) and the
// wire replay. Argument and result layouts match demo/stubs.cpp and
// demo/skels.cpp.
#pragma once

#include <cstdint>

#include "wire/call.h"
#include "wire/protocol.h"
#include "workload.h"

namespace rpcbench {

void PutArgs(heidi::wire::Call& call, const Workload& w, const Op& op);
// The reply the servant produces for `op`.
void PutResult(heidi::wire::Call& call, const Workload& w, const Op& op);
// Reads the arguments the way the skeleton does (views) and compares
// them with `op`.
bool ArgsMatch(heidi::wire::Call& call, const Workload& w, const Op& op);
// Reads the result the way the stub does and compares it with the
// expected value, byte for byte for echo and blob.
bool ResultMatches(heidi::wire::Call& reply, const Workload& w, const Op& op);

struct WireCost {
  double encode_ns_per_call = 0;  // request + reply: NewCall, Put*, EncodeCall
  double decode_ns_per_call = 0;  // request + reply: TryParseFrame, Get*
  uint64_t calls = 0;
  bool ok = true;  // every decoded value matched
};

// Replays the workload's own calls through the protocol's codec on this
// thread, with no I/O, for about `seconds` (at least one full cycle).
WireCost ReplayWire(const heidi::wire::Protocol& protocol, const Workload& w,
                    double seconds);

}  // namespace rpcbench
