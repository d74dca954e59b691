// E10 — §"NULL intricacies": NOT EXISTS (plain anti) vs NOT IN
// (null-aware anti): semantics demonstration + the cost of null-awareness,
// and the rewriter's downgrade when keys are provably non-NULL.
#include "bench_util.h"
#include "common/rng.h"
#include "exec/hash_join.h"
#include "exec/select_project.h"
#include "exec/values.h"

using namespace x100;

namespace {

std::vector<std::vector<Value>> MakeRows(int n, double null_frac,
                                         uint64_t seed, int64_t domain) {
  Rng rng(seed);
  std::vector<std::vector<Value>> rows;
  rows.reserve(n);
  for (int i = 0; i < n; i++) {
    rows.push_back({rng.Bernoulli(null_frac)
                        ? Value::Null(TypeId::kI64)
                        : Value::I64(rng.Uniform(0, domain))});
  }
  return rows;
}

int64_t RunJoin(JoinType type, const std::vector<std::vector<Value>>& build,
                const std::vector<std::vector<Value>>& probe, double* secs) {
  Schema s({Field("k", TypeId::kI64, true)});
  int64_t out_rows = 0;
  *secs = bench::MinTime(3, [&] {
    ExecContext ctx;
    // A serial join: one build chain, one probe operator.
    std::vector<OperatorPtr> build_chain;
    build_chain.push_back(std::make_unique<ValuesOp>(s, build));
    JoinProbeOp join(std::make_unique<ValuesOp>(s, probe),
                     std::make_shared<JoinBuildState>(std::move(build_chain),
                                                      std::vector<int>{0}),
                     {0}, type);
    auto res = CollectRows(&join, &ctx);
    if (!res.ok()) std::abort();
    out_rows = static_cast<int64_t>(res->rows.size());
  });
  return out_rows;
}

}  // namespace

int main() {
  bench::Header("E10", "anti-join NULL semantics: NOT EXISTS vs NOT IN");
  const int kProbe = 200000, kBuild = 20000;

  std::printf("%-22s %-18s %12s %10s\n", "data", "join flavor",
              "output rows", "time(ms)");
  struct Case {
    const char* name;
    double build_nulls, probe_nulls;
  };
  for (const Case& c : {Case{"no NULLs", 0, 0},
                        Case{"probe 1% NULL", 0, 0.01},
                        Case{"build has NULLs", 0.001, 0.01}}) {
    auto build = MakeRows(kBuild, c.build_nulls, 21, 1 << 20);
    auto probe = MakeRows(kProbe, c.probe_nulls, 22, 1 << 20);
    double t1, t2;
    const int64_t anti = RunJoin(JoinType::kAnti, build, probe, &t1);
    const int64_t nia = RunJoin(JoinType::kAntiNullAware, build, probe, &t2);
    std::printf("%-22s %-18s %12lld %10.2f\n", c.name, "NOT EXISTS (anti)",
                static_cast<long long>(anti), t1 * 1e3);
    std::printf("%-22s %-18s %12lld %10.2f\n", c.name,
                "NOT IN (null-aware)", static_cast<long long>(nia),
                t2 * 1e3);
  }
  std::printf(
      "\nsemantics: one build-side NULL empties NOT IN entirely; NULL probe"
      " keys survive NOT EXISTS but never NOT IN — the SQL intricacies the"
      " paper calls out. The rewriter downgrades NOT IN to the cheaper anti"
      " join when the key is provably non-NULL.\n");
  return 0;
}
