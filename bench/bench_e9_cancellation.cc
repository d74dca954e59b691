// E9 — §"Query cancellation": cancel long-running queries (CPU-heavy and
// IO-wait-heavy) at random points; report the latency from Cancel() to
// query teardown. The paper's point: this must work under parallelism and
// asynchronous IO without leaking resources. The storm cancels Q1 at
// parallelism 1 and 2, a root join (orders x lineitem, whose probe
// clones are the root drain's chains) at parallelism 2, and Q3 at
// parallelism 2 and 4, a join inside a build side: the lineitem probe's
// Open runs the customer x orders build, whose chains' Opens run the
// customer build.
//
// Exits non-zero when a cancelled query returns anything but Cancelled or
// a query is left RUNNING after the storm.
#include <algorithm>
#include <functional>
#include <thread>

#include "bench_util.h"
#include "engine/session.h"
#include "tpch/tpch.h"

using namespace x100;

namespace {

/// Runs `plan()` with a cancel after `delay_ms`. Returns the latency from
/// the cancel to the query's return in seconds, -1 when the query
/// finished before the cancel fired, or -2 when it failed with anything
/// but Cancelled.
double CancelOnce(Session* session, Database* db, int delay_ms,
                  int parallelism, const std::function<AlgebraPtr()>& plan) {
  db->config().max_parallelism = parallelism;
  CancellationToken token;
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
    token.Cancel();
  });
  bench::Timer total;
  auto res = session->Execute(plan(), &token);
  const double done = total.Seconds();
  canceller.join();
  if (res.ok()) return -1;  // finished before the cancel fired
  if (!res.status().IsCancelled()) {
    std::printf("cancelled query returned %s\n",
                res.status().ToString().c_str());
    return -2;
  }
  return std::max(done - delay_ms / 1e3, 0.0);
}

AlgebraPtr RootJoinPlan() {
  return JoinNode(ScanNode("orders", {"o_orderkey", "o_orderpriority"}),
                  ScanNode("lineitem", {"l_orderkey", "l_extendedprice"}),
                  JoinType::kInner, {"o_orderkey"}, {"l_orderkey"});
}

}  // namespace

int main() {
  bench::Header("E9", "query cancellation latency");
  EngineConfig cfg;
  cfg.disk_bandwidth = 200ll << 20;  // force IO waits into the scan path
  cfg.buffer_pool_bytes = 4 * kDiskBlockBytes;  // almost no caching: every scan does IO
  Database db(cfg);
  if (!tpch::Generate(&db, 0.02).ok()) return 1;
  Session session(&db);

  struct Storm {
    const char* query;
    int parallelism;
    std::function<AlgebraPtr()> plan;
  };
  const auto q1 = [] { return tpch::Q1Plan(); };
  const auto q3 = [] { return tpch::Q3Plan(); };
  const Storm storms[] = {{"Q1", 1, q1},
                          {"Q1", 2, q1},
                          {"root join", 2, RootJoinPlan},
                          {"Q3", 2, q3},
                          {"Q3", 4, q3}};
  int wrong_status = 0;
  for (const Storm& storm : storms) {
    std::vector<double> lat;
    for (int run = 0; run < 12; run++) {
      const double l = CancelOnce(&session, &db, 5 + (run * 7) % 40,
                                  storm.parallelism, storm.plan);
      if (l == -2) wrong_status++;
      if (l >= 0) lat.push_back(l * 1e3);
    }
    if (lat.empty()) continue;
    std::sort(lat.begin(), lat.end());
    std::printf("%-9s parallelism=%d  cancels=%zu  p50=%.2fms  p95=%.2fms  "
                "max=%.2fms\n",
                storm.query, storm.parallelism, lat.size(),
                lat[lat.size() / 2], lat[lat.size() * 95 / 100], lat.back());
  }
  // Resource sanity: all queries must be in a terminal state.
  int running = 0;
  for (const auto& q : db.queries()->List()) {
    running += q.state == QueryState::kRunning;
  }
  std::printf("queries still RUNNING after the storm: %d (expected 0)\n",
              running);
  std::printf("cancelled queries that returned another error: %d "
              "(expected 0)\n", wrong_status);
  std::printf("\ncancellation is polled per vector and interrupts simulated"
              "-disk waits; every chain task is joined on teardown.\n");
  return running == 0 && wrong_status == 0 ? 0 : 1;
}
