// serve_mix: kv(k i64, v f64) with 1M rows in 16,384-row groups (MinMax
// prunes a lookup to one group) plus TPC-H SF 0.05. An open loop: one
// generator thread sends Poisson arrivals at a fixed rate — 80% prepared
// point lookups (256 statements, Zipf-0.99), 19% ad-hoc SubmitSql lookups
// (uniform keys, full frontend), 1% the prepared fat aggregate — and one
// collector thread polls completions. Fixed per-query costs dominate:
// frontend, rewriter, plan cache, Build, task fan-out and quota. Latency
// is timed from each request's due time, so a stall also delays the
// requests queued behind it; the tail comes from the open loop.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <deque>
#include <mutex>
#include <set>
#include <thread>

#include "loop.h"
#include "queries.h"
#include "tpch/tpch.h"
#include "workloads.h"

namespace x100bench {
namespace {

enum Cls { kPoint = 0, kAdhoc = 1, kFat = 2, kNumCls = 3 };
const char* const kClsName[kNumCls] = {"point", "adhoc", "fat"};

/// Zipf over ranks 0..n-1 by inverse CDF.
class Zipf {
 public:
  Zipf(int n, double s) {
    double sum = 0;
    for (int i = 1; i <= n; i++) {
      sum += 1.0 / std::pow(i, s);
      cdf_.push_back(sum);
    }
    for (double& c : cdf_) c /= sum;
  }
  int Sample(x100::Rng* rng) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(),
                                     rng->NextDouble());
    return static_cast<int>(std::min<ptrdiff_t>(
        it - cdf_.begin(), static_cast<ptrdiff_t>(cdf_.size()) - 1));
  }

 private:
  std::vector<double> cdf_;
};

std::string PointSql(int64_t key) {
  return "SELECT v FROM kv WHERE k = " + std::to_string(key);
}

x100::Status LoadKv(x100::Database* db) {
  auto b = db->CreateTable(
      "kv",
      x100::Schema({x100::Field("k", x100::TypeId::kI64),
                    x100::Field("v", x100::TypeId::kF64)}),
      x100::Layout::kDsm, params::kKvGroupRows);
  for (int64_t k = 0; k < params::kKvRows; k++) {
    X100_RETURN_IF_ERROR(b->AppendRow(
        {x100::Value::I64(k), x100::Value::F64(static_cast<double>(k) * 0.5)}));
  }
  std::unique_ptr<x100::Table> table;
  X100_ASSIGN_OR_RETURN(table, b->Finish());
  return db->RegisterTable(std::move(table)).status();
}

/// One phase of the open loop: Poisson arrivals at `rate` for `seconds`,
/// or, with rate 0, a closed window of `window` requests in flight.
struct Phase {
  double rate = 0;
  double seconds = 0;
  int window = 0;
};

struct Request {
  x100::PendingQuery query;
  Clock::time_point due;
  int cls = kPoint;
  int64_t key = 0;
  int phase = 0;
  int64_t span_req = 0;  // 0 = untraced
  bool refused = false;  // Submit failed (admission cap or frontend error)
};

/// What the collector observed per phase. Latencies run from the due
/// time; a refused or failed request counts as +inf (it misses any limit).
struct PhaseStats {
  Samples ms[kNumCls];
  /// Traced runs trace every other request of the nominal phase; the two
  /// halves' medians give the tracing overhead.
  Samples traced_ms[kNumCls], untraced_ms[kNumCls];
  /// ok: completed with a right answer; the rest are outcomes that count
  /// as failed.
  int64_t ok = 0, failed = 0, refused = 0, wrong = 0;
  std::vector<double> backlog;  // in-flight count, sampled periodically
  double collector_cpu_s = 0;
};

class OpenLoop {
 public:
  OpenLoop(x100::Session* session, Tracer* tracer, LayerStats* layers,
           int nominal_phase, const std::vector<int64_t>& prepared_keys,
           std::vector<Row> fat_ref, uint64_t seed)
      : session_(session),
        db_(session->db()),
        tracer_(tracer),
        layers_(layers),
        nominal_phase_(nominal_phase),
        prepared_keys_(prepared_keys),
        fat_ref_(std::move(fat_ref)),
        zipf_(static_cast<int>(prepared_keys.size()), params::kZipfExponent),
        rng_(seed) {
    for (int64_t k : prepared_keys_) prepared_sql_.push_back(PointSql(k));
    for (size_t i = 0; i < prepared_keys_.size(); i++) rank_.push_back(i);
    for (size_t i = rank_.size(); i > 1; i--) {
      std::swap(rank_[i - 1], rank_[rng_.Uniform(0, i - 1)]);
    }
  }

  /// Runs the phases in order with an untimed drain after each; returns
  /// per-phase stats. Generator lateness and CPU go to `late_ms`/`cpu_s`.
  std::vector<PhaseStats> Run(const std::vector<Phase>& phases,
                              std::vector<Samples>* late_ms,
                              std::vector<double>* cpu_s,
                              std::vector<int64_t>* issued) {
    stats_.assign(phases.size(), PhaseStats());
    late_ms->assign(phases.size(), Samples());
    cpu_s->assign(phases.size(), 0);
    issued->assign(phases.size(), 0);
    std::thread collector([this] { Collect(); });
    for (size_t p = 0; p < phases.size(); p++) {
      const bool nominal = static_cast<int>(p) == nominal_phase_;
      current_phase_.store(static_cast<int>(p));
      // Counters are process-global and requests overlap, so the nominal
      // phase's counter figures are per-phase totals, not per-query
      // attribution.
      const EngineCounters c0 = EngineCounters::Read(db_);
      if (nominal) db_->memory()->ResetPeak();
      const double cpu0 = ProcessCpuSeconds();
      Generate(phases[p], static_cast<int>(p), &(*late_ms)[p],
               &(*issued)[p]);
      while (inflight_.load() > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      (*cpu_s)[p] = ProcessCpuSeconds() - cpu0;
      if (nominal) {
        layers_->peak_mb.Add(db_->memory()->peak() / 1e6);
        layers_->timed = EngineCounters::Read(db_) - c0;
      }
    }
    generating_done_.store(true);
    collector.join();
    return stats_;
  }

 private:
  void Generate(const Phase& phase, int p, Samples* late, int64_t* issued) {
    const Clock::time_point start = Clock::now();
    const auto end = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(phase.seconds));
    double offset = 0;
    while (true) {
      Clock::time_point due;
      if (phase.rate > 0) {
        offset += -std::log(1.0 - rng_.NextDouble()) / phase.rate;
        due = start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(offset));
        if (due >= end) break;
        std::this_thread::sleep_until(due);
      } else {
        if (Clock::now() >= end) break;
        while (inflight_.load() >= phase.window) {
          std::this_thread::sleep_for(
              std::chrono::microseconds(params::kPollMicros));
        }
        due = Clock::now();
      }
      late->Add(std::chrono::duration<double, std::milli>(Clock::now() - due)
                    .count());
      Issue(due, p);
      (*issued)++;
    }
  }

  void Issue(Clock::time_point due, int p) {
    Request req;
    req.due = due;
    req.phase = p;
    // Every other request of the nominal phase is traced.
    const bool traced =
        tracer_->enabled() && p == nominal_phase_ && next_req_++ % 2 == 0;
    req.span_req = traced ? tracer_->NewId() : 0;
    const double u = rng_.NextDouble();
    req.cls = u < params::kPointShare                         ? kPoint
              : u < params::kPointShare + params::kAdhocShare ? kAdhoc
                                                              : kFat;
    x100::Result<x100::PendingQuery> pending = x100::Status::OK();
    {
      ScopedSpan span(traced ? tracer_ : nullptr, db_, "submit",
                      req.span_req, req.span_req);
      if (req.cls == kAdhoc) {
        req.key = rng_.Uniform(0, params::kKvRows - 1);
        pending = session_->SubmitSql(PointSql(req.key));
      } else {
        // An application that does not keep statement handles: Prepare
        // per request, served by the plan cache.
        std::string sql = kFatSql;
        if (req.cls == kPoint) {
          const size_t i = rank_[zipf_.Sample(&rng_)];
          req.key = prepared_keys_[i];
          sql = prepared_sql_[i];
        }
        auto stmt = session_->Prepare(sql);
        pending = stmt.ok() ? session_->Submit(*stmt)
                            : x100::Result<x100::PendingQuery>(stmt.status());
      }
    }
    if (pending.ok()) {
      req.query = *pending;
    } else {
      req.refused = true;
      if (pending.status().code() == x100::StatusCode::kResourceExhausted &&
          p == nominal_phase_) {
        layers_->admission_rejects++;
      }
    }
    inflight_.fetch_add(1);
    std::lock_guard<std::mutex> lock(mu_);
    incoming_.push_back(std::move(req));
  }

  void Collect() {
    std::vector<Request> live;
    Clock::time_point next_sample = Clock::now();
    double cpu = ThreadCpuSeconds();
    while (!generating_done_.load() || !live.empty() || inflight_.load() > 0) {
      const double now_cpu = ThreadCpuSeconds();
      stats_[current_phase_.load()].collector_cpu_s += now_cpu - cpu;
      cpu = now_cpu;
      {
        std::lock_guard<std::mutex> lock(mu_);
        while (!incoming_.empty()) {
          live.push_back(std::move(incoming_.front()));
          incoming_.pop_front();
        }
      }
      for (size_t i = 0; i < live.size();) {
        if (!live[i].refused && !live[i].query.done()) {
          i++;
          continue;
        }
        Finish(&live[i]);
        live[i] = std::move(live.back());
        live.pop_back();
        inflight_.fetch_sub(1);
      }
      const Clock::time_point now = Clock::now();
      if (now >= next_sample) {
        stats_[current_phase_.load()].backlog.push_back(
            static_cast<double>(live.size()));
        layers_->min_share = std::min(layers_->min_share,
                                      db_->quota_controller()->current_share());
        next_sample = now + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(
                                    params::kBacklogSampleSeconds));
      }
      std::this_thread::sleep_for(
          std::chrono::microseconds(params::kPollMicros));
    }
  }

  void Finish(Request* req) {
    PhaseStats& st = stats_[req->phase];
    const Clock::time_point now = Clock::now();
    double ms = std::chrono::duration<double, std::milli>(now - req->due)
                    .count();
    if (req->refused) {
      st.refused++;
      st.ms[req->cls].Add(INFINITY);
      return;
    }
    auto res = req->query.Wait();
    if (!res.ok()) {
      st.failed++;
      ms = INFINITY;
    } else {
      bool right;
      if (req->cls == kFat) {
        right = SameRows(res->rows, fat_ref_);
      } else {
        right = res->rows.size() == 1 && res->rows[0].size() == 1 &&
                res->rows[0][0].AsF64() == static_cast<double>(req->key) * 0.5;
      }
      if (right) {
        st.ok++;
      } else {
        st.wrong++;
        std::fprintf(stderr, "x100bench: WRONG ANSWER from %s\n",
                     kClsName[req->cls]);
      }
      if (req->phase == nominal_phase_) layers_->CountTimed(res->profile);
    }
    st.ms[req->cls].Add(ms);
    if (tracer_->enabled() && req->phase == nominal_phase_) {
      (req->span_req != 0 ? st.traced_ms : st.untraced_ms)[req->cls].Add(ms);
    }
    if (req->span_req != 0) {
      Span span;
      span.name = kClsName[req->cls];
      span.id = req->span_req;
      span.req = req->span_req;
      span.start_us = tracer_->UsAt(req->due);
      span.end_us = tracer_->UsAt(now);
      span.tid = 1;
      tracer_->Add(span);
    }
  }

  x100::Session* session_;
  x100::Database* db_;
  Tracer* tracer_;
  LayerStats* layers_;
  const int nominal_phase_;
  const std::vector<int64_t> prepared_keys_;
  std::vector<std::string> prepared_sql_;
  const std::vector<Row> fat_ref_;
  const Zipf zipf_;
  x100::Rng rng_;
  std::vector<size_t> rank_;  // Zipf rank -> prepared statement
  int64_t next_req_ = 0;

  std::mutex mu_;
  std::deque<Request> incoming_;  // guarded by mu_
  std::atomic<int64_t> inflight_{0};
  std::atomic<bool> generating_done_{false};
  std::atomic<int> current_phase_{0};
  std::vector<PhaseStats> stats_;  // written by the collector only
};

double MeanOf(const std::vector<double>& v, size_t lo, size_t hi) {
  if (hi <= lo) return 0;
  double s = 0;
  for (size_t i = lo; i < hi; i++) s += v[i];
  return s / static_cast<double>(hi - lo);
}

/// A step's backlog grew when the mean in-flight count of its last third
/// exceeds that of its first third by more than kBacklogGrowth.
bool BacklogGrew(const std::vector<double>& backlog) {
  const size_t third = backlog.size() / 3;
  return MeanOf(backlog, backlog.size() - third, backlog.size()) -
             MeanOf(backlog, 0, third) >
         params::kBacklogGrowth;
}

/// The highest rate meeting the point p99 limit without a growing
/// backlog, interpolated (log p99 against rate) between the last passing
/// step and the first failing one. Past the ladder's top it reports the
/// top rate; below its bottom, the bottom rate scaled by limit/p99.
double MaxRate(const std::vector<double>& rates,
               const std::vector<double>& p99s,
               const std::vector<bool>& grew) {
  const double limit = params::kP99LimitMs;
  auto capped = [](double ms) { return std::min(ms, 1e6); };
  for (size_t k = 0; k < rates.size(); k++) {
    if (p99s[k] <= limit && !grew[k]) continue;
    if (k == 0) return rates[0] * std::min(1.0, limit / capped(p99s[0]));
    if (p99s[k] <= limit) return rates[k - 1];  // failed on backlog alone
    const double lo = std::log(capped(p99s[k - 1]));
    const double hi = std::log(capped(p99s[k]));
    const double f = hi > lo ? (std::log(limit) - lo) / (hi - lo) : 0;
    return rates[k - 1] + f * (rates[k] - rates[k - 1]);
  }
  return rates.back();
}

}  // namespace

bool RunServeMix(const Options& opt, Report* report, Tracer* tracer,
                 LayerStats* layers) {
  x100::Rng rng(opt.seed);
  x100::EngineConfig cfg = BaseConfig();
  cfg.buffer_pool_bytes = params::kServePoolBytes;
  cfg.admission_queue_cap = params::kAdmissionCap;
  auto built = TimedSetup(
      [&]() -> x100::Result<Built> {
        Built b = Open(cfg);
        X100_RETURN_IF_ERROR(LoadKv(b.db.get()));
        X100_RETURN_IF_ERROR(
            x100::tpch::Generate(b.db.get(), params::kServeSf));
        return b;
      },
      report, tracer, layers);
  if (!Check(built.status(), "serve_mix set-up")) return false;
  x100::Database* db = built->db.get();
  x100::Session session(db);

  std::set<int64_t> key_set;
  while (static_cast<int>(key_set.size()) < params::kPreparedStatements) {
    key_set.insert(rng.Uniform(0, params::kKvRows - 1));
  }
  const std::vector<int64_t> keys(key_set.begin(), key_set.end());
  for (int64_t k : keys) {
    if (!Check(session.Prepare(PointSql(k)).status(), "prepare")) {
      return false;
    }
  }
  auto fat_plan = session.CompileSql(kFatSql);
  if (!Check(fat_plan.status(), "fat aggregate")) return false;
  auto fat_ref = SerialReference(&session, *fat_plan);
  if (!Check(fat_ref.status(), "fat reference")) return false;

  // Phases: warm-up, nominal rate, saturation window, then the ladder.
  const int nominal = 1, saturated = 2, ladder = 3;
  std::vector<Phase> phases;
  phases.push_back({params::kRateNominal, params::kWarmupSeconds, 0});
  phases.push_back(
      {params::kRateNominal, opt.seconds * params::kNominalShare, 0});
  phases.push_back({0, opt.seconds * params::kSaturationShare,
                    params::kSaturationWindow});
  const double step_s = opt.seconds *
                        (1 - params::kNominalShare - params::kSaturationShare) /
                        params::kLadderSteps;
  for (int k = 0; k < params::kLadderSteps; k++) {
    phases.push_back(
        {params::kRateNominal * std::pow(params::kLadderRatio, k), step_s, 0});
  }
  std::vector<Samples> late;
  std::vector<double> cpu;
  std::vector<int64_t> issued;
  OpenLoop loop(&session, tracer, layers, nominal, keys, *fat_ref,
                opt.seed + 1);
  if (!ResetPeakRss()) return false;
  report->facts["rss_mb_at_warmup"] = std::to_string(PeakRssMb());
  const std::vector<PhaseStats> stats =
      loop.Run(phases, &late, &cpu, &issued);
  for (const PhaseStats& st : stats) report->wrong += st.wrong;

  // The ladder overloads the engine on purpose; its refusals are reported
  // on their own (ladder_refused), not as failures.
  const PhaseStats& nom = stats[nominal];
  for (int p : {nominal, saturated}) {
    report->attempted += issued[p];
    report->failed += stats[p].failed + stats[p].refused + stats[p].wrong;
  }
  std::vector<double> rates, p99s;
  std::vector<bool> grew;
  int64_t ladder_refused = 0;
  for (int k = 0; k < params::kLadderSteps; k++) {
    const PhaseStats& st = stats[ladder + k];
    rates.push_back(phases[ladder + k].rate);
    p99s.push_back(st.ms[kPoint].Percentile(99));
    grew.push_back(BacklogGrew(st.backlog));
    ladder_refused += st.refused;
    report->Class("ladder" + std::to_string(k) + "_point_p99_ms", p99s.back(),
                  "ms", st.ms[kPoint].size());
  }
  report->Class("ladder_refused", ladder_refused, "count", 1);
  report->Class("max_rate_qps", MaxRate(rates, p99s, grew), "1/s",
                params::kLadderSteps);
  // The percentile the limit L applies to, at R_nom.
  report->Class("point_p99_ms", nom.ms[kPoint].Percentile(99), "ms",
                nom.ms[kPoint].size());

  // The collector thread only polls and checks answers: its CPU is the
  // client's, not the engine's.
  std::map<std::string, Samples> class_ms;
  for (int c = 0; c < kNumCls; c++) class_ms[kClsName[c]] = nom.ms[c];
  ReportEndToEnd(report, class_ms,
                 stats[saturated].ok / phases[saturated].seconds,
                 (cpu[nominal] - nom.collector_cpu_s) * 1e3 /
                     std::max<int64_t>(1, nom.ok));

  layers->timed_wall_s = phases[nominal].seconds;
  layers->timed_cpu_s = cpu[nominal];
  layers->warmup_wall_s = phases[0].seconds;
  layers->warmup_cpu_s = cpu[0];
  layers->client_late_ms = late[nominal];
  layers->backlog_max = 0;
  for (double b : nom.backlog) {
    layers->backlog_max = std::max(layers->backlog_max, b);
  }
  std::map<std::string, Samples> traced, untraced;
  for (int c = 0; c < kNumCls; c++) {
    traced[kClsName[c]] = nom.traced_ms[c];
    untraced[kClsName[c]] = nom.untraced_ms[c];
  }
  layers->trace_overhead_pct = TraceOverheadPct(traced, untraced);

  if (tracer->enabled()) {
    ProbeSpec spec;
    spec.sql = {PointSql(keys.front()), kFatSql, Q6Sql(1994)};
    auto stmt = session.Prepare(PointSql(keys.front()));
    if (!Check(stmt.status(), "prepare")) return false;
    spec.overhead_stmt = *stmt;
    spec.num_orders = (*db->GetTable("orders"))->visible_rows();
    if (!Check(RunProbes(&session, spec, tracer, layers), "probes")) {
      return false;
    }
  }
  return true;
}

}  // namespace x100bench
