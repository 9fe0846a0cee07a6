// The traced run's per-call split of the Fig 4/5 path into six spans
// that neither overlap nor leave gaps:
//
//   demo.stub_marshal     caller entry  -> PreInvoke
//   orb.request_transit   PreInvoke     -> PreDispatch
//   demo.skeleton         PreDispatch   -> PostDispatch, minus the servant
//   demo.servant          servant entry -> servant exit
//   orb.reply_transit     PostDispatch  -> PostInvoke
//   demo.stub_unmarshal   PostInvoke    -> caller return
//
// Every stamp comes from outside src/: the caller loop, the public
// interceptor hooks and the benchmark's servant subclass. A call is
// keyed by (client orb, wire call id), so stamps taken on different
// threads — and, under fan-in, for many calls in flight at once — meet
// in one slot.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "orb/interceptor.h"

namespace rpcbench::spans {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

constexpr int kSpans = 6;
extern const std::array<const char*, kSpans> kSpanNames;

// One stamp: a time and the wire call id it was taken for.
struct Stamp {
  std::atomic<uint64_t> call_id{0};
  std::atomic<int64_t> ns{0};
};

// One call's stamps. Relaxed atomics: writers and the reader sit on
// different threads, ordered by the RPC itself.
struct Stamps {
  Stamp entry;
  Stamp pre_invoke;
  Stamp pre_dispatch;
  Stamp post_dispatch;
  Stamp servant_ns;  // a duration, not a time
  Stamp post_invoke;
};

struct Split {
  std::array<int64_t, kSpans> ns{};
  int64_t total_ns = 0;  // caller return - caller entry
};

// The six spans of call `call_id`, which returned to its caller at
// `caller_return_ns`, and clears the slot so no later call can read its
// stamps again. They telescope, so their sum is exactly total_ns.
// Empty unless every stamp was taken for this call, the times are in
// call order (entry <= PreInvoke <= PreDispatch <= PostDispatch <=
// PostInvoke <= return) and the servant body fits inside the dispatch.
std::optional<Split> Consume(Stamps& s, uint64_t call_id, int64_t caller_return_ns);

// Slots for the calls in flight, per client orb. Call ids grow by one
// per request, so a ring far larger than the calls in flight never
// hands one slot to two live calls.
class Table {
 public:
  explicit Table(int clients);
  Stamps& Slot(int client, uint64_t call_id);

 private:
  static constexpr uint64_t kSlots = 4096;
  std::vector<std::unique_ptr<Stamps[]>> rings_;
};

// Caller side: the entry stamp of the call about to be made on this
// thread (PreInvoke copies it into the call's slot).
void MarkEntry(int64_t now_ns);
// The wire call id PreInvoke last saw on this thread — the synchronous
// stub path learns its call's id this way.
uint64_t LastCallId();
// Servant side: adds one servant body's duration to the dispatch now
// running on this thread (PostDispatch files it).
void AddServantNs(int64_t ns);

class ClientHooks : public heidi::orb::ClientInterceptor {
 public:
  ClientHooks(Table& table, int client) : table_(table), client_(client) {}
  void PreInvoke(const heidi::orb::ObjectRef& target,
                 const heidi::wire::Call& request) override;
  void PostInvoke(const heidi::orb::ObjectRef& target,
                  const heidi::wire::Call& reply) override;

 private:
  Table& table_;
  int client_;
};

// `targets[i]` is the stringified reference client orb i calls; a
// request's target names its client.
class ServerHooks : public heidi::orb::ServerInterceptor {
 public:
  ServerHooks(Table& table, std::vector<std::string> targets)
      : table_(table), targets_(std::move(targets)) {}
  void PreDispatch(const heidi::wire::Call& request) override;
  void PostDispatch(const heidi::wire::Call& request,
                    const heidi::wire::Call& reply) override;

 private:
  Stamps* SlotFor(const heidi::wire::Call& request);

  Table& table_;
  std::vector<std::string> targets_;
};

// Accumulates finished splits: per-span sums (for exact means) and
// samples (for medians).
class Recorder {
 public:
  void Add(const Split& split);
  void Merge(const Recorder& other);
  size_t Count() const { return totals_.size(); }
  double MeanNs(int span) const;
  double P50Ns(int span) const;
  double TotalMeanNs() const;
  // Sum of the six span means minus the mean call latency; 0 up to
  // floating-point rounding.
  double GapNs() const;

 private:
  std::array<int64_t, kSpans> sums_{};
  int64_t total_sum_ = 0;
  std::array<std::vector<int64_t>, kSpans> samples_;
  std::vector<int64_t> totals_;
};

}  // namespace rpcbench::spans
