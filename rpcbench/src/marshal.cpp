#include "marshal.h"

#include <cstring>
#include <memory>
#include <vector>

#include "net/inbound.h"
#include "spans.h"
#include "support/bytes.h"

namespace rpcbench {

using heidi::wire::Call;

void PutArgs(Call& call, const Workload& w, const Op& op) {
  switch (op.kind) {
    case OpKind::kAdd:
      call.PutLong(op.a);
      call.PutLong(op.b);
      break;
    case OpKind::kFlip: call.PutBoolean(op.flag); break;
    case OpKind::kNorm:
      call.PutDouble(op.x);
      call.PutDouble(op.y);
      break;
    case OpKind::kEcho:
    case OpKind::kPost: call.PutString(PayloadOf(w, op)); break;
    case OpKind::kBlob: call.PutBytes(PayloadOf(w, op)); break;
  }
}

void PutResult(Call& call, const Workload& w, const Op& op) {
  switch (op.kind) {
    case OpKind::kAdd: call.PutLong(op.a + op.b); break;
    case OpKind::kFlip: call.PutBoolean(!op.flag); break;
    case OpKind::kNorm: call.PutDouble(NormOf(op)); break;
    case OpKind::kEcho: call.PutString(PayloadOf(w, op)); break;
    case OpKind::kBlob: call.PutBytes(ReversedPayloadOf(w, op)); break;
    case OpKind::kPost: break;
  }
}

bool ArgsMatch(Call& call, const Workload& w, const Op& op) {
  switch (op.kind) {
    case OpKind::kAdd: {
      int32_t a = call.GetLong();
      int32_t b = call.GetLong();
      return a == op.a && b == op.b;
    }
    case OpKind::kFlip: return call.GetBoolean() == op.flag;
    case OpKind::kNorm: {
      double x = call.GetDouble();
      double y = call.GetDouble();
      return x == op.x && y == op.y;
    }
    case OpKind::kEcho:
    case OpKind::kPost: return call.GetStringView() == PayloadOf(w, op);
    case OpKind::kBlob: return call.GetBytesView() == PayloadOf(w, op);
  }
  return false;
}

bool ResultMatches(Call& reply, const Workload& w, const Op& op) {
  switch (op.kind) {
    case OpKind::kAdd: return reply.GetLong() == op.a + op.b;
    case OpKind::kFlip: return reply.GetBoolean() == !op.flag;
    case OpKind::kNorm: return reply.GetDouble() == NormOf(op);
    case OpKind::kEcho: return reply.GetString() == PayloadOf(w, op);
    case OpKind::kBlob: return reply.GetBytes() == ReversedPayloadOf(w, op);
    case OpKind::kPost: return true;
  }
  return false;
}

namespace {

constexpr size_t kBatchOps = 64;
constexpr size_t kBatchBytes = 1u << 20;

void Fill(heidi::net::IncomingBuffer& in, const heidi::bytes::BufferChain& chain) {
  for (const heidi::bytes::BufSlice& slice : chain.Slices()) {
    char* dst = in.WritePtr(slice.length);
    std::memcpy(dst, slice.Data(), slice.length);
    in.CommitWrite(slice.length);
  }
}

}  // namespace

// Encoding and decoding are each timed over a batch of calls, so the
// clock reads stay out of the per-call figure; copying the frames into
// the receive buffer (the recv) and destroying the calls are untimed.
WireCost ReplayWire(const heidi::wire::Protocol& protocol, const Workload& w,
                    double seconds) {
  WireCost cost;
  const std::string target = "rpcbench-replay";
  int64_t encode_ns = 0, decode_ns = 0;
  const int64_t deadline = spans::NowNs() + static_cast<int64_t>(seconds * 1e9);
  uint64_t call_id = 1;
  size_t next = 0;
  while (next < w.ops.size() || spans::NowNs() < deadline) {
    std::vector<const Op*> batch;
    size_t bytes = 0;
    while (batch.size() < kBatchOps && bytes < kBatchBytes) {
      const Op& op = w.ops[next++ % w.ops.size()];
      batch.push_back(&op);
      bytes += PayloadBytes(op);
    }
    std::vector<std::unique_ptr<Call>> built, parsed;
    heidi::bytes::BufferChain requests, replies;
    int64_t t0 = spans::NowNs();
    for (const Op* op : batch) {
      std::unique_ptr<Call> request = protocol.NewCall();
      request->SetKind(heidi::wire::CallKind::kRequest);
      request->SetCallId(call_id);
      request->SetTarget(target);
      request->SetOperation(OpName(op->kind));
      request->SetOneway(op->kind == OpKind::kPost);
      PutArgs(*request, w, *op);
      protocol.EncodeCall(requests, *request);
      built.push_back(std::move(request));
      if (op->kind == OpKind::kPost) continue;
      std::unique_ptr<Call> reply = protocol.NewCall();
      reply->SetKind(heidi::wire::CallKind::kReply);
      reply->SetCallId(call_id);
      reply->SetStatus(heidi::wire::CallStatus::kOk);
      PutResult(*reply, w, *op);
      protocol.EncodeCall(replies, *reply);
      built.push_back(std::move(reply));
      ++call_id;
    }
    int64_t t1 = spans::NowNs();
    heidi::net::IncomingBuffer request_in, reply_in;
    Fill(request_in, requests);
    Fill(reply_in, replies);
    auto request_decoder = protocol.NewFrameDecoder();
    auto reply_decoder = protocol.NewFrameDecoder();
    int64_t t2 = spans::NowNs();
    for (const Op* op : batch) {
      std::unique_ptr<Call> request = request_decoder->TryParseFrame(request_in);
      cost.ok = cost.ok && request != nullptr && ArgsMatch(*request, w, *op);
      parsed.push_back(std::move(request));
      if (op->kind == OpKind::kPost) continue;
      std::unique_ptr<Call> reply = reply_decoder->TryParseFrame(reply_in);
      cost.ok = cost.ok && reply != nullptr && ResultMatches(*reply, w, *op);
      parsed.push_back(std::move(reply));
    }
    int64_t t3 = spans::NowNs();
    encode_ns += t1 - t0;
    decode_ns += t3 - t2;
    cost.calls += batch.size();
  }
  cost.encode_ns_per_call =
      static_cast<double>(encode_ns) / static_cast<double>(cost.calls);
  cost.decode_ns_per_call =
      static_cast<double>(decode_ns) / static_cast<double>(cost.calls);
  return cost;
}

}  // namespace rpcbench
