#include "spans.h"

#include <utility>

#include "stats.h"
#include "wire/call.h"

namespace rpcbench::spans {

const std::array<const char*, kSpans> kSpanNames{
    "demo.stub_marshal", "orb.request_transit", "demo.skeleton",
    "demo.servant",      "orb.reply_transit",   "demo.stub_unmarshal"};

namespace {
thread_local int64_t tl_entry_ns = 0;
thread_local uint64_t tl_last_call_id = 0;
thread_local int64_t tl_servant_ns = 0;

void Put(Stamp& stamp, uint64_t call_id, int64_t ns) {
  stamp.call_id.store(call_id, std::memory_order_relaxed);
  stamp.ns.store(ns, std::memory_order_relaxed);
}

// The stamp's time if it was taken for `call_id`; clears it either way.
std::optional<int64_t> Pop(Stamp& stamp, uint64_t call_id) {
  const uint64_t id = stamp.call_id.exchange(0, std::memory_order_relaxed);
  const int64_t ns = stamp.ns.exchange(0, std::memory_order_relaxed);
  if (id != call_id) return std::nullopt;
  return ns;
}
}  // namespace

std::optional<Split> Consume(Stamps& s, uint64_t call_id, int64_t caller_return_ns) {
  const auto entry = Pop(s.entry, call_id), pre_invoke = Pop(s.pre_invoke, call_id),
             pre_dispatch = Pop(s.pre_dispatch, call_id),
             post_dispatch = Pop(s.post_dispatch, call_id),
             servant = Pop(s.servant_ns, call_id),
             post_invoke = Pop(s.post_invoke, call_id);
  if (!entry || !pre_invoke || !pre_dispatch || !post_dispatch || !servant ||
      !post_invoke) {
    return std::nullopt;
  }
  const bool ordered = 0 < *entry && *entry <= *pre_invoke &&
                       *pre_invoke <= *pre_dispatch &&
                       *pre_dispatch <= *post_dispatch &&
                       *post_dispatch <= *post_invoke &&
                       *post_invoke <= caller_return_ns && 0 <= *servant &&
                       *servant <= *post_dispatch - *pre_dispatch;
  if (!ordered) return std::nullopt;
  Split split;
  split.ns = {*pre_invoke - *entry,
              *pre_dispatch - *pre_invoke,
              *post_dispatch - *pre_dispatch - *servant,
              *servant,
              *post_invoke - *post_dispatch,
              caller_return_ns - *post_invoke};
  split.total_ns = caller_return_ns - *entry;
  return split;
}

Table::Table(int clients) {
  for (int i = 0; i < clients; ++i) {
    rings_.push_back(std::make_unique<Stamps[]>(kSlots));
  }
}

Stamps& Table::Slot(int client, uint64_t call_id) {
  return rings_[static_cast<size_t>(client)][call_id % kSlots];
}

void MarkEntry(int64_t now_ns) { tl_entry_ns = now_ns; }
uint64_t LastCallId() { return tl_last_call_id; }
void AddServantNs(int64_t ns) { tl_servant_ns += ns; }

void ClientHooks::PreInvoke(const heidi::orb::ObjectRef& /*target*/,
                            const heidi::wire::Call& request) {
  int64_t now = NowNs();
  const uint64_t id = request.CallId();
  Stamps& slot = table_.Slot(client_, id);
  Put(slot.entry, id, std::exchange(tl_entry_ns, 0));
  Put(slot.pre_invoke, id, now);
  tl_last_call_id = id;
}

void ClientHooks::PostInvoke(const heidi::orb::ObjectRef& /*target*/,
                             const heidi::wire::Call& reply) {
  int64_t now = NowNs();
  Put(table_.Slot(client_, reply.CallId()).post_invoke, reply.CallId(), now);
}

Stamps* ServerHooks::SlotFor(const heidi::wire::Call& request) {
  for (size_t i = 0; i < targets_.size(); ++i) {
    if (request.Target() == targets_[i]) {
      return &table_.Slot(static_cast<int>(i), request.CallId());
    }
  }
  return nullptr;
}

void ServerHooks::PreDispatch(const heidi::wire::Call& request) {
  int64_t now = NowNs();
  tl_servant_ns = 0;
  if (Stamps* slot = SlotFor(request)) Put(slot->pre_dispatch, request.CallId(), now);
}

void ServerHooks::PostDispatch(const heidi::wire::Call& request,
                               const heidi::wire::Call& /*reply*/) {
  int64_t now = NowNs();
  if (Stamps* slot = SlotFor(request)) {
    Put(slot->post_dispatch, request.CallId(), now);
    Put(slot->servant_ns, request.CallId(), tl_servant_ns);
  }
}

void Recorder::Add(const Split& split) {
  for (int i = 0; i < kSpans; ++i) {
    sums_[static_cast<size_t>(i)] += split.ns[static_cast<size_t>(i)];
    samples_[static_cast<size_t>(i)].push_back(split.ns[static_cast<size_t>(i)]);
  }
  total_sum_ += split.total_ns;
  totals_.push_back(split.total_ns);
}

void Recorder::Merge(const Recorder& other) {
  for (size_t i = 0; i < kSpans; ++i) {
    sums_[i] += other.sums_[i];
    samples_[i].insert(samples_[i].end(), other.samples_[i].begin(),
                       other.samples_[i].end());
  }
  total_sum_ += other.total_sum_;
  totals_.insert(totals_.end(), other.totals_.begin(), other.totals_.end());
}

double Recorder::MeanNs(int span) const {
  if (totals_.empty()) return 0;
  return static_cast<double>(sums_[static_cast<size_t>(span)]) /
         static_cast<double>(totals_.size());
}

double Recorder::P50Ns(int span) const {
  return static_cast<double>(
      Percentile(samples_[static_cast<size_t>(span)], 50));
}

double Recorder::TotalMeanNs() const {
  if (totals_.empty()) return 0;
  return static_cast<double>(total_sum_) /
         static_cast<double>(totals_.size());
}

double Recorder::GapNs() const {
  double sum = 0;
  for (int i = 0; i < kSpans; ++i) sum += MeanNs(i);
  return sum - TotalMeanNs();
}

}  // namespace rpcbench::spans
