#include "harness.h"

#include <sys/resource.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <optional>
#include <thread>

namespace topofaq {
namespace e2e {

int Nproc() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

EngineOptions BenchEngineOptions() {
  EngineOptions o;
  o.parallelism = Nproc();
  o.encoding = EncodingMode::kAuto;
  o.simd = true;  // "auto": the vector kernels run wherever the CPU has AVX2
  o.page_budget = 8;
  o.dispatchers = 2;
  o.heavy_slots = 1;
  o.admission = AdmissionOptions{};
  o.trace_path.clear();
  return o;
}

uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  // splitmix64 finalizer over (seed, stream).
  uint64_t z = seed * 0x9e3779b97f4a7c15ull + stream + 0x632be59bd9b4e019ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Samples::Sum() const {
  double s = 0.0;
  for (double v : ms_) s += v;
  return s;
}

double Samples::Quantile(double q) const {
  if (ms_.empty()) return 0.0;
  std::vector<double> sorted = ms_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const size_t idx = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

void ClientLog::Merge(const ClientLog& o) {
  all.Merge(o.all);
  for (const auto& [k, v] : o.by_class) by_class[k].Merge(v);
  attempted += o.attempted;
  ok += o.ok;
  failed += o.failed;
  refused += o.refused;
  wrong += o.wrong;
  submit_ms.Merge(o.submit_ms);
  queue_ms.Merge(o.queue_ms);
  exec_ms.Merge(o.exec_ms);
  for (const auto& [k, v] : o.queue_by_class) queue_by_class[k].Merge(v);
  for (const auto& [k, v] : o.exec_by_class) exec_by_class[k].Merge(v);
  bound_ratio.Merge(o.bound_ratio);
  queries += o.queries;
  plan_hits += o.plan_hits;
}

PhaseResult RunClosedLoop(
    int clients, double seconds,
    const std::function<void(int client, int64_t i, ClientLog* log)>& step) {
  std::vector<ClientLog> logs(static_cast<size_t>(clients));
  std::vector<Clock::time_point> ends(static_cast<size_t>(clients));
  std::atomic<bool> go{false};
  Clock::time_point start;
  Clock::time_point deadline;
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c)
    threads.emplace_back([&, c] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      ClientLog* log = &logs[static_cast<size_t>(c)];
      for (int64_t i = 0; Clock::now() < deadline; ++i) {
        try {
          step(c, i, log);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "client %d: operation threw: %s\n", c, e.what());
          ++log->attempted;
          ++log->failed;
        }
      }
      ends[static_cast<size_t>(c)] = Clock::now();
    });
  start = Clock::now();
  deadline = start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();

  PhaseResult out;
  Clock::time_point last = start;
  for (size_t c = 0; c < logs.size(); ++c) {
    out.log.Merge(logs[c]);
    last = std::max(last, ends[c]);
  }
  out.wall_s = std::chrono::duration<double>(last - start).count();
  return out;
}

void RecordOutcome(ClientLog* log, const std::string& cls, double latency_ms,
                   bool ok, bool refused, bool digest_ok) {
  ++log->attempted;
  if (ok && digest_ok) {
    ++log->ok;
    log->all.Add(latency_ms);
    log->by_class[cls].Add(latency_ms);
  } else if (refused) {
    ++log->refused;
  } else if (!ok) {
    ++log->failed;
  } else {
    ++log->wrong;
    std::fprintf(stderr, "wrong answer: %s digest differs from the oracle\n",
                 cls.c_str());
  }
}

void TimedSolve(Engine& engine, const QueryRequest& req, uint64_t expect,
                const std::string& cls, ClientLog* log,
                obs::TraceSession* trace, uint32_t track) {
  QueryRequest copy = req;
  std::optional<Result<QueryResult>> r;
  double ms = 0.0;
  {
    obs::Span sp(trace, "client_op", track);
    const auto t0 = Clock::now();
    r.emplace(engine.Solve(std::move(copy)));
    ms = MsSince(t0);
  }
  const bool ok = r->ok();
  const bool refused =
      !ok && r->status().code() == StatusCode::kResourceExhausted;
  if (!ok)
    std::fprintf(stderr, "%s failed: %s\n", cls.c_str(),
                 r->status().ToString().c_str());
  RecordOutcome(log, cls, ms, ok, refused, ok && Digest((*r)->answer) == expect);
  if (ok) RecordEngineSplit(log, ms, **r, /*query=*/true);
}

void RecordEngineSplit(ClientLog* log, double latency_ms, const QueryResult& q,
                       bool query) {
  log->submit_ms.Add(std::max(0.0, latency_ms - q.queue_ms - q.exec_ms));
  log->queue_ms.Add(q.queue_ms);
  log->exec_ms.Add(q.exec_ms);
  log->queue_by_class[QueueClassName(q.klass)].Add(q.queue_ms);
  log->exec_by_class[QueueClassName(q.klass)].Add(q.exec_ms);
  if (!query) return;
  ++log->queries;
  if (q.plan_cache_hit) ++log->plan_hits;
  log->bound_ratio.Add(
      static_cast<double>(q.bounds.predicted_output_rows) /
      static_cast<double>(std::max<uint64_t>(1, q.observed_rows)));
}

void Report::Add(std::string name, double value, std::string unit,
                 int64_t samples) {
  for (Metric& m : metrics_)
    if (m.name == name) {
      m = Metric{std::move(name), value, std::move(unit), samples};
      return;
    }
  metrics_.push_back(Metric{std::move(name), value, std::move(unit), samples});
}

const Metric* Report::Find(const std::string& name) const {
  for (const Metric& m : metrics_)
    if (m.name == name) return &m;
  return nullptr;
}

void Report::Print() const {
  for (const Metric& m : metrics_)
    std::printf("METRIC %-30s %14.6f %-9s samples=%lld\n", m.name.c_str(),
                m.value, m.unit.c_str(), static_cast<long long>(m.samples));
}

std::string Report::ResultJson(const std::vector<MetricSpec>& specs,
                               bool correct, int64_t attempted,
                               int64_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[96];
  for (size_t i = 0; i < specs.size(); ++i) {
    const Metric* m = Find(specs[i].name);
    if (m == nullptr || !std::isfinite(m->value) || m->unit != specs[i].unit)
      return {};
    std::snprintf(buf, sizeof(buf), "%.17g", m->value);
    out += (i ? ", \"" : "\"") + m->name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + m->unit + "\"}";
  }
  out += "}}";
  return out;
}

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"throughput_ops", "ops/s"},
      {"latency_p50_ms", "ms"},
      {"latency_p95_ms", "ms"},
      {"peak_rss_mb", "MB"}};
  return specs;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"server.submit_ms", "ms"},
      {"server.queue_ms", "ms"},
      {"server.exec_ms", "ms"},
      {"server.assess_us", "us"},
      {"server.bound_ratio", "ratio"},
      {"server.plan_hit_ratio", "ratio"},
      {"ghd.plan_cold_ms", "ms"},
      {"faq.solve_ms.p1", "ms"},
      {"faq.solve_ms.pmax", "ms"},
      {"faq.bruteforce_ms", "ms"},
      {"faq.rows_in_per_output", "ratio"},
      {"relation.canonicalize_ms", "ms"},
      {"relation.join_ms", "ms"},
      {"relation.eliminate_ms", "ms"},
      {"relation.project_ms", "ms"},
      {"relation.multiway_share", "ratio"},
      {"relation.sorts", "count"},
      {"relation.sort_skip_ratio", "ratio"},
      {"relation.comparisons", "count"},
      {"relation.seeks", "count"},
      {"relation.simd_ratio", "ratio"},
      {"relation.morsels", "count"},
      {"relation.par_speedup", "ratio"},
      {"relation.peak_rows", "rows"},
      {"ivm.apply_share", "ratio"},
      {"ivm.ring_share", "ratio"},
      {"ivm.reuse_ratio", "ratio"},
      {"protocols.decompose_share", "ratio"},
      {"protocols.rounds", "rounds"},
      {"protocols.async_makespan", "sim_units"},
      {"protocols.rounds_over_lb", "ratio"},
      {"network.pages", "pages"},
      {"network.peak_inflight_pages", "pages"},
      {"network.bits_sent", "bits"},
      {"network.encoded_ratio", "ratio"},
      {"trace.coverage", "ratio"},
      {"trace.overhead", "ratio"}};
  return specs;
}

void ReportCommon(const PhaseResult& p, Report* r) {
  const ClientLog& l = p.log;
  r->Add("throughput_ops", static_cast<double>(l.ok) / std::max(1e-9, p.wall_s),
         "ops/s", l.ok);
  r->Add("latency_p50_ms", l.all.Quantile(0.50), "ms",
         static_cast<int64_t>(l.all.size()));
  r->Add("latency_p95_ms", l.all.Quantile(0.95), "ms",
         static_cast<int64_t>(l.all.size()));
  r->Add("error_rate",
         static_cast<double>(l.errors()) /
             static_cast<double>(std::max<int64_t>(1, l.attempted)),
         "ratio", l.attempted);
  for (const auto& [cls, s] : l.by_class)
    r->Add("class." + cls + ".p50_ms", s.Quantile(0.50), "ms",
           static_cast<int64_t>(s.size()));
}

void ReportServer(const ClientLog& l, Report* r) {
  auto n = [](const Samples& s) { return static_cast<int64_t>(s.size()); };
  r->Add("server.submit_ms", l.submit_ms.Quantile(0.5), "ms", n(l.submit_ms));
  r->Add("server.queue_ms", l.queue_ms.Quantile(0.5), "ms", n(l.queue_ms));
  r->Add("server.exec_ms", l.exec_ms.Quantile(0.5), "ms", n(l.exec_ms));
  for (const auto& [cls, s] : l.queue_by_class) {
    r->Add("server.queue_ms." + cls, s.Quantile(0.5), "ms", n(s));
    r->Add("server.queue_ms." + cls + ".p99", s.Quantile(0.99), "ms", n(s));
  }
  for (const auto& [cls, s] : l.exec_by_class)
    r->Add("server.exec_ms." + cls, s.Quantile(0.5), "ms", n(s));
  r->Add("server.bound_ratio", l.bound_ratio.Quantile(0.5), "ratio",
         n(l.bound_ratio));
  r->Add("server.plan_hit_ratio",
         l.queries > 0 ? static_cast<double>(l.plan_hits) / l.queries : 0.0,
         "ratio", l.queries);
}

}  // namespace e2e
}  // namespace topofaq
