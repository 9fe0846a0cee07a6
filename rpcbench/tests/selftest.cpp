// Tests of the benchmark's own code: seeded inputs, the percentile
// helper, the span arithmetic and the syscall shim. Exit code 0 when
// every check holds; each failed check prints one line.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "spans.h"
#include "stats.h"
#include "syscount.h"
#include "workload.h"

namespace {

int g_failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++g_failures;
  }
}

using Key = std::tuple<int, uint32_t>;  // (op kind, payload size)

std::vector<Key> Sequence(const rpcbench::Workload& w) {
  std::vector<Key> keys;
  for (const rpcbench::Op& op : w.ops) {
    keys.emplace_back(static_cast<int>(op.kind), op.size);
  }
  return keys;
}

bool SameOps(const rpcbench::Workload& a, const rpcbench::Workload& b) {
  if (a.ops.size() != b.ops.size() || a.text != b.text) return false;
  for (size_t i = 0; i < a.ops.size(); ++i) {
    const rpcbench::Op &x = a.ops[i], &y = b.ops[i];
    if (x.kind != y.kind || x.size != y.size || x.offset != y.offset ||
        x.a != y.a || x.b != y.b || x.x != y.x || x.y != y.y ||
        x.flag != y.flag) {
      return false;
    }
  }
  return true;
}

void TestSeeds() {
  for (const std::string& name : rpcbench::WorkloadNames()) {
    const rpcbench::WorkloadSpec& spec = *rpcbench::FindWorkload(name);
    rpcbench::Workload a = rpcbench::MakeWorkload(spec, 7);
    rpcbench::Workload b = rpcbench::MakeWorkload(spec, 7);
    rpcbench::Workload c = rpcbench::MakeWorkload(spec, 8);
    Check(SameOps(a, b), "the same seed gives the same ops and payloads");
    Check(Sequence(a) != Sequence(c), "another seed gives another op order");
    std::vector<Key> sa = Sequence(a), sc = Sequence(c);
    std::sort(sa.begin(), sa.end());
    std::sort(sc.begin(), sc.end());
    Check(sa == sc, "every seed draws the same multiset of ops and sizes");
    for (const rpcbench::Op& op : a.ops) {
      std::string_view p = rpcbench::PayloadOf(a, op);
      std::string_view r = rpcbench::ReversedPayloadOf(a, op);
      if (!std::equal(p.begin(), p.end(), r.rbegin(), r.rend())) {
        Check(false, "ReversedPayloadOf is the payload reversed");
        break;
      }
    }
  }
  // bulk_tcp: half the payloads below the 16 KiB pool slab, half above.
  rpcbench::Workload bulk =
      rpcbench::MakeWorkload(*rpcbench::FindWorkload("bulk_tcp"), 3);
  size_t small = 0;
  for (const rpcbench::Op& op : bulk.ops) {
    small += op.size < 16 * 1024 ? 1 : 0;
    Check(op.size >= 1024 && op.size <= 256 * 1024, "bulk sizes in range");
  }
  Check(small * 2 == bulk.ops.size(), "bulk sizes split evenly at 16 KiB");
  // fanin_tcp: 70/10/10/10 add/echo/norm/post.
  rpcbench::Workload fanin =
      rpcbench::MakeWorkload(*rpcbench::FindWorkload("fanin_tcp"), 3);
  std::map<rpcbench::OpKind, size_t> mix;
  for (const rpcbench::Op& op : fanin.ops) ++mix[op.kind];
  Check(mix[rpcbench::OpKind::kAdd] == 700 && mix[rpcbench::OpKind::kEcho] == 100 &&
            mix[rpcbench::OpKind::kNorm] == 100 &&
            mix[rpcbench::OpKind::kPost] == 100,
        "fan-in mix is 70/10/10/10");
}

void TestPercentile() {
  std::vector<int64_t> v{5, 1, 4, 2, 3};
  Check(rpcbench::Percentile(v, 50) == 3, "p50 of 1..5 is 3");
  Check(rpcbench::Percentile(v, 100) == 5, "p100 is the maximum");
  Check(rpcbench::Percentile(v, 1) == 1, "p1 of five samples is the minimum");
  std::vector<int64_t> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  Check(rpcbench::Percentile(hundred, 99) == 99, "p99 of 1..100 is 99");
  Check(rpcbench::Percentile(hundred, 50) == 50, "p50 of 1..100 is 50");
  Check(rpcbench::Percentile(std::vector<int64_t>{}, 50) == 0, "empty input gives 0");
  Check(rpcbench::Median({3.0, 1.0, 2.0}) == 2.0, "median of an odd count");
  Check(rpcbench::Median({4.0, 1.0, 2.0, 3.0}) == 2.5, "median of an even count");
}

// Fills `s` as call `id` would: every stamp tagged with its call id.
void Stamp(rpcbench::spans::Stamps& s, uint64_t id, int64_t entry,
           int64_t pre_invoke, int64_t pre_dispatch, int64_t servant,
           int64_t post_dispatch, int64_t post_invoke) {
  const std::array<std::pair<rpcbench::spans::Stamp*, int64_t>, 6> stamps{{
      {&s.entry, entry},
      {&s.pre_invoke, pre_invoke},
      {&s.pre_dispatch, pre_dispatch},
      {&s.servant_ns, servant},
      {&s.post_dispatch, post_dispatch},
      {&s.post_invoke, post_invoke},
  }};
  for (auto [stamp, ns] : stamps) {
    stamp->call_id = id;
    stamp->ns = ns;
  }
}

void TestSpans() {
  using rpcbench::spans::Consume;
  rpcbench::spans::Stamps s;
  Stamp(s, 9, 1000, 1300, 9000, 250, 9800, 17000);
  auto split = Consume(s, 9, 17400);
  const std::array<int64_t, 6> expect{300, 7700, 550, 250, 7200, 400};
  Check(split && split->ns == expect, "Consume splits the stamps into the six spans");
  Check(split && split->total_ns == 16400, "total is caller return minus entry");
  Check(!Consume(s, 9, 17400), "a consumed slot cannot be read again");

  Stamp(s, 9, 1000, 1300, 9000, 250, 9800, 17000);
  Check(!Consume(s, 4105, 17400), "stamps of another call id are rejected");
  Stamp(s, 9, 1000, 1300, 9000, 250, 9800, 17000);
  s.pre_dispatch.call_id = 9 + 4096;  // same ring slot, another call
  Check(!Consume(s, 9, 17400), "one stale stamp from a reused slot is rejected");
  Stamp(s, 9, 0, 1300, 9000, 250, 9800, 17000);
  Check(!Consume(s, 9, 17400), "a zero entry stamp is rejected");
  Stamp(s, 9, 1000, 1300, 9800, 250, 9000, 17000);
  Check(!Consume(s, 9, 17400), "PostDispatch before PreDispatch is rejected");
  Stamp(s, 9, 1000, 1300, 9000, 250, 9800, 17000);
  Check(!Consume(s, 9, 16999), "a return before PostInvoke is rejected");
  Stamp(s, 9, 1000, 1300, 9000, 900, 9800, 17000);
  Check(!Consume(s, 9, 17400), "a servant longer than its dispatch is rejected");
  Stamp(s, 9, 1000, 1300, 9000, -1, 9800, 17000);
  Check(!Consume(s, 9, 17400), "a negative servant time is rejected");

  rpcbench::spans::Recorder rec;
  rpcbench::Rng rng(11);
  for (uint64_t id = 1; id <= 1000; ++id) {
    rpcbench::spans::Stamps t;
    int64_t now = rng.Range(1, 1 << 30);
    const int64_t entry = now;
    const int64_t pre_invoke = now += rng.Range(0, 5000);
    const int64_t pre_dispatch = now += rng.Range(0, 50000);
    const int64_t servant = rng.Range(0, 3000);
    const int64_t post_dispatch = now += servant + rng.Range(0, 5000);
    const int64_t post_invoke = now += rng.Range(0, 50000);
    Stamp(t, id, entry, pre_invoke, pre_dispatch, servant, post_dispatch, post_invoke);
    auto one = Consume(t, id, now + rng.Range(0, 5000));
    Check(one.has_value(), "ordered stamps of the right call are accepted");
    if (one) rec.Add(*one);
  }
  double sum = 0;
  for (int i = 0; i < rpcbench::spans::kSpans; ++i) sum += rec.MeanNs(i);
  Check(rec.Count() == 1000, "recorder keeps every split");
  Check(std::abs(sum - rec.TotalMeanNs()) <= 1e-9 * rec.TotalMeanNs(),
        "the six span means sum to the mean call latency");
  Check(std::abs(rec.GapNs()) <= 1e-9 * rec.TotalMeanNs(), "GapNs is ~0");

  rpcbench::spans::Table table(2);
  Check(&table.Slot(0, 5) != &table.Slot(1, 5), "clients have separate slots");
  Check(&table.Slot(0, 5) == &table.Slot(0, 5), "a call id names one slot");
}

void TestShim() {
  Check(rpcbench::syscount::CountsExactly(1000),
        "1000 sendmsg/recv calls on a socketpair count as exactly 1000");
  Check(rpcbench::syscount::CountsExactly(1), "and one as exactly one");
}

}  // namespace

int main() {
  TestSeeds();
  TestPercentile();
  TestSpans();
  TestShim();
  std::printf("%s: %d failed checks\n", g_failures == 0 ? "PASS" : "FAIL",
              g_failures);
  return g_failures == 0 ? 0 : 1;
}
