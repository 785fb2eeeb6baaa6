// Self-test of the benchmark's own arithmetic, driven by obs::FakeClock so
// every expected value is exact. run.py runs it before every measurement;
// a failure stops the benchmark.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "core/accounting.h"
#include "core/stats.h"
#include "core/trace.h"
#include "obs/clock.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "selftest FAILED: %s\n", what.c_str());
  }
}

void ExpectNear(double got, double want, const std::string& what) {
  Expect(std::fabs(got - want) <= 1e-12 * std::max(1.0, std::fabs(want)),
         what + ": got " + std::to_string(got) + ", want " +
             std::to_string(want));
}

void Percentiles() {
  const std::vector<double> v = {4.0, 1.0, 3.0, 2.0};
  ExpectNear(Percentile(v, 0.0), 1.0, "p0");
  ExpectNear(Percentile(v, 0.5), 2.5, "p50 interpolates");
  ExpectNear(Percentile(v, 0.99), 3.97, "p99 interpolates");
  ExpectNear(Percentile(v, 1.0), 4.0, "p100");
  ExpectNear(Percentile({}, 0.5), 0.0, "empty");
  ExpectNear(Median({5.0, 1.0, 3.0}), 3.0, "odd median");
}

void Ranking() {
  ExpectNear(Auroc({0.1, 0.2, 0.8, 0.9}, {0, 0, 1, 1}), 1.0, "separable");
  ExpectNear(Auroc({0.9, 0.8, 0.2, 0.1}, {0, 0, 1, 1}), 0.0, "reversed");
  ExpectNear(Auroc({0.5, 0.5, 0.5, 0.5}, {0, 1, 0, 1}), 0.5, "all tied");
  // Positives 0.35 and 0.8 against negatives 0.1 and 0.4: 3 of 4 pairs.
  ExpectNear(Auroc({0.1, 0.4, 0.35, 0.8}, {0, 0, 1, 1}), 0.75, "one swap");
  // A tie between classes counts half: pairs (0.5>0.2)=1, (0.5=0.5)=0.5.
  ExpectNear(Auroc({0.2, 0.5, 0.5}, {0, 0, 1}), 0.75, "tie counts half");
  ExpectNear(Auroc({0.2, 0.5}, {1, 1}), 0.5, "one class");
}

void Schedules() {
  const std::vector<int64_t> a = PoissonArrivals(7, 1000.0, 10.0);
  Expect(a == PoissonArrivals(7, 1000.0, 10.0), "schedule is seeded");
  Expect(a != PoissonArrivals(8, 1000.0, 10.0), "seed changes schedule");
  Expect(a.size() > 9500 && a.size() < 10500, "Poisson count near rate*T");
  bool increasing = true;
  for (size_t i = 1; i < a.size(); ++i) increasing &= a[i] > a[i - 1];
  Expect(increasing && !a.empty() && a.front() >= 0 && a.back() < 10'000'000'000,
         "arrivals increase inside the phase");
  Expect(PoissonArrivals(7, 0.0, 10.0).empty(), "zero rate sends nothing");

  const std::vector<size_t> rows = UniformRows(3, 1000, 50);
  Expect(rows == UniformRows(3, 1000, 50), "rows are seeded");
  bool in_range = true;
  for (size_t r : rows) in_range &= r < 50;
  Expect(in_range, "rows stay in the pool");
  ExpectNear(RepeatShare({1, 2, 1, 3, 1}), 0.4, "repeat share");
  ExpectNear(RepeatShare({}), 0.0, "repeat share of nothing");

}

// Ten requests sent: eight answered in 1..8 ms, one answered in 50 ms, one
// rejected (infinite). The percentiles see the nine answers; the rejection
// and the 50 ms answer both miss a 10 ms limit.
void Latencies() {
  std::vector<double> ms = {1, 2, 3, 4, 5, 6, 7, 8, 50, INFINITY};
  const LatencyFigures f = SummarizeLatencies(ms, 10.0);
  Expect(f.completed == 9, "completed requests exclude the rejected one");
  ExpectNear(f.p50_ms, 5.0, "p50 of the answers");
  // Position 0.99 * 8 = 7.92 lies between 8 ms and 50 ms.
  ExpectNear(f.p99_ms, 8.0 + 0.92 * 42.0, "p99 of the answers");
  ExpectNear(f.attainment, 0.8, "rejections and slow answers miss");
  ExpectNear(SummarizeLatencies({}, 10.0).attainment, 0.0, "nothing sent");
}

// A generator that stalls: requests due at 0, 10 and 20 ms; the first one's
// submission blocks the generator until 15 ms, so the second goes out 5 ms
// late. Latency counts from the due time, so the stall shows in it.
void DueTimeLatency() {
  gnn4tdl::obs::FakeClock clock;
  std::vector<RequestTimes> t(3);
  const int64_t ms = 1'000'000;
  t[0].due_ns = 0;
  t[0].submit_ns = clock.NowNanos();
  clock.AdvanceNanos(15 * ms);  // the stall
  t[1].due_ns = 10 * ms;
  t[1].submit_ns = clock.NowNanos();
  clock.AdvanceNanos(5 * ms);
  t[2].due_ns = 20 * ms;
  t[2].submit_ns = clock.NowNanos();
  t[0].done_ns = 16 * ms;
  t[1].done_ns = 30 * ms;
  t[2].done_ns = 30 * ms;
  ExpectNear(LagMs(t[0]), 0.0, "on-time lag");
  ExpectNear(LagMs(t[1]), 5.0, "stalled lag");
  ExpectNear(LagMs(t[2]), 0.0, "caught-up lag");
  ExpectNear(LatencyMs(t[0]), 16.0, "latency from due");
  ExpectNear(LatencyMs(t[1]), 20.0, "stall counts against the late request");
  ExpectNear(LatencyMs(t[2]), 10.0, "latency of the batched request");
}

void SelfTime() {
  gnn4tdl::obs::FakeClock clock;
  SpanRecorder rec(&clock);
  const int64_t ms = 1'000'000;
  const size_t parent = rec.Begin("parent", -1, 9);
  clock.AdvanceNanos(10 * ms);
  const size_t a = rec.Begin("a", static_cast<int64_t>(parent), 9);
  clock.AdvanceNanos(10 * ms);  // 20
  const size_t b = rec.Begin("b", static_cast<int64_t>(parent), 9);
  clock.AdvanceNanos(10 * ms);  // 30
  rec.End(a);                   // a = [10, 30]
  clock.AdvanceNanos(20 * ms);  // 50
  rec.End(b);                   // b = [20, 50], overlaps a
  clock.AdvanceNanos(40 * ms);  // 90
  const size_t c = rec.Begin("c", static_cast<int64_t>(parent), 9);
  clock.AdvanceNanos(10 * ms);  // 100
  rec.End(parent);              // parent = [0, 100]
  clock.AdvanceNanos(20 * ms);  // 120
  rec.End(c);                   // c = [90, 120], runs past its parent
  const std::vector<double> self = rec.SelfMs();
  // Children cover [10, 50] and [90, 100] of the parent: 50 ms.
  ExpectNear(self[parent], 50.0, "parent self time");
  ExpectNear(self[a], 20.0, "leaf self time is its duration");
  ExpectNear(SpanRecorder::DurationMs(rec.spans()[c]), 30.0, "duration");
  Expect(rec.spans()[b].request == 9 && rec.spans()[b].parent == 0,
         "span keeps request id and parent");

  {
    ScopedSpan none(nullptr, "untraced");
    Expect(none.index() == -1, "null recorder records nothing");
  }
  {
    ScopedSpan scoped(&rec, "scoped", -1, 4);
    clock.AdvanceNanos(3 * ms);
  }
  ExpectNear(SpanRecorder::DurationMs(rec.spans().back()), 3.0,
             "scoped span closes at scope exit");
}

void Accounting() {
  Ledger ledger;
  for (int i = 0; i < 5; ++i) ledger.Send();
  ledger.Resolve(0, Outcome::kCompleted);
  ledger.Resolve(1, Outcome::kCompleted);
  ledger.Resolve(2, Outcome::kRejected);
  ledger.Resolve(3, Outcome::kFailed);  // refused before reaching the engine
  ledger.Resolve(4, Outcome::kFailed);  // failed while scoring
  Expect(ledger.sent() == 5 && ledger.completed() == 2 &&
             ledger.rejected() == 1 && ledger.failed() == 2,
         "counts");
  Expect(ledger.Check(3, 1, 1).empty(), "agreeing counters reconcile");
  Expect(!ledger.Check(2, 1, 1).empty(), "engine batched fewer rows");
  Expect(!ledger.Check(3, 0, 1).empty(), "engine rejected fewer");

  Ledger twice;
  twice.Send();
  twice.Resolve(0, Outcome::kCompleted);
  twice.Resolve(0, Outcome::kCompleted);
  Expect(!twice.Check(1, 0, 0).empty(), "double resolution is caught");
  Expect(twice.completed() == 1, "double resolution counts once");

  Ledger open;
  open.Send();
  open.Send();
  open.Resolve(0, Outcome::kCompleted);
  Expect(!open.Check(1, 0, 0).empty(), "an unresolved request is caught");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::Percentiles();
  perfbench::Ranking();
  perfbench::Schedules();
  perfbench::Latencies();
  perfbench::DueTimeLatency();
  perfbench::SelfTime();
  perfbench::Accounting();
  if (perfbench::failures != 0) {
    std::fprintf(stderr, "selftest: %d check(s) failed\n", perfbench::failures);
    return 1;
  }
  std::printf("selftest: all checks passed\n");
  return 0;
}
