// Shared machinery of the end-to-end benchmark (README.md): the fixed engine
// configuration, seeded input generators, answer digests, the closed-loop
// closed client loop, and the metric report whose last line is the machine-read
// result.
//
// Everything the benchmark measures goes through the library's public entry
// points (Engine::Solve / Subscribe / StandingSession::ApplyDelta, the
// protocol runners, and — in the traced run only — direct calls into each
// layer's public functions). Nothing here reaches into src/ internals.
#ifndef E2E_BENCH_HARNESS_H_
#define E2E_BENCH_HARNESS_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "obs/trace.h"
#include "server/engine.h"
#include "util/rng.h"

namespace topofaq {
namespace e2e {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Command line of one benchmark process (one workload per process).
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  /// Traced run: an untraced and a traced phase, then the layer probes.
  bool trace = false;
  /// Self-test sizes: every workload shrinks to a few hundred rows.
  bool tiny = false;
  /// Self-test: flip one bit of one oracle digest, which must surface as a
  /// wrong answer (error_rate > 0, non-zero exit) rather than pass.
  bool corrupt_oracle = false;
  /// Where the traced run writes its Chrome trace JSON (empty: not written).
  std::string trace_out;
};

/// Worker count the engine and every direct layer call use: all cores.
int Nproc();

/// The engine configuration every workload runs under, fixed here rather
/// than read from TOPOFAQ_* variables: parallelism = Nproc(), encoding auto,
/// SIMD auto (vector kernels wherever the CPU has them), 2 dispatchers, 1
/// heavy slot, tracing off.
EngineOptions BenchEngineOptions();

/// Mixes a workload seed with a stream id into an independent Rng seed, so
/// each generated relation has its own reproducible stream.
uint64_t StreamSeed(uint64_t seed, uint64_t stream);

/// Peak resident set of this process in MB (getrusage).
double PeakRssMb();

// --- Seeded inputs ----------------------------------------------------------

/// Annotation generators per semiring: small exact values, never zero.
template <CommutativeSemiring S>
typename S::Value RandomAnnot(Rng& rng) {
  if constexpr (std::is_same_v<S, BooleanSemiring>) {
    (void)rng;
    return 1;
  } else if constexpr (std::is_same_v<S, CountingSemiring>) {
    return 0.5 + static_cast<double>(rng.NextU64(1024)) / 1024.0;
  } else if constexpr (std::is_same_v<S, MinPlusSemiring>) {
    return static_cast<double>(rng.NextU64(1000));
  } else {
    return static_cast<typename S::Value>(rng.NextU64(100) + 1);
  }
}

/// n rows over `vars`, keys uniform in [0, dom), plus — when spike > 0 — a
/// hub: `spike` of the n rows carry key 0 in column `hub_col` and distinct
/// keys elsewhere (the shape of bench_multiway_join's SkewedRel).
/// Canonicalized through `ctx`.
template <CommutativeSemiring S>
Relation<S> RandomRel(const std::vector<VarId>& vars, size_t n, uint64_t dom,
                      uint64_t seed, ExecContext* ctx, size_t spike = 0,
                      int hub_col = -1) {
  Rng rng(seed);
  Relation<S> r{Schema(vars)};
  std::vector<Value> row(vars.size());
  const size_t base = n - std::min(n, spike);
  for (size_t i = 0; i < base; ++i) {
    for (Value& v : row) v = rng.NextU64(dom);
    r.Add(std::span<const Value>(row), RandomAnnot<S>(rng));
  }
  for (size_t i = 0; base + i < n; ++i) {
    for (size_t j = 0; j < row.size(); ++j)
      row[j] = static_cast<int>(j) == hub_col ? 0 : i + 1;
    r.Add(std::span<const Value>(row), RandomAnnot<S>(rng));
  }
  r.Canonicalize(ctx);
  return r;
}

/// One uniform relation per hyperedge of h, `n` rows each.
template <CommutativeSemiring S>
FaqQuery<S> RandomQuery(const Hypergraph& h, size_t n, uint64_t dom,
                        std::vector<VarId> free_vars, uint64_t seed,
                        ExecContext* ctx) {
  std::vector<Relation<S>> rels;
  for (int e = 0; e < h.num_edges(); ++e)
    rels.push_back(RandomRel<S>(h.edge(e), n, dom,
                                StreamSeed(seed, static_cast<uint64_t>(e)),
                                ctx));
  return MakeFaqSS<S>(h, std::move(rels), std::move(free_vars));
}

// --- Answer digests ---------------------------------------------------------

/// 64-bit FNV-1a over a relation's bytes: schema, row count, every decoded
/// column value, every annotation's bit pattern. Equal digests stand in for
/// the test suites' BytesEqual.
template <CommutativeSemiring S>
uint64_t Digest(const Relation<S>& r) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const void* p, size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  };
  for (VarId v : r.schema().vars()) mix(&v, sizeof(v));
  const uint64_t rows = r.size();
  mix(&rows, sizeof(rows));
  for (const std::vector<Value>& col : r.columns())
    mix(col.data(), col.size() * sizeof(Value));
  mix(r.annots().data(), r.annots().size() * sizeof(typename S::Value));
  return h;
}

inline uint64_t Digest(const AnyRelation& r) {
  return std::visit([](const auto& rel) { return Digest(rel); }, r);
}

// --- Samples and the closed loop ----------------------------------------------

/// Latency samples (ms) of one operation class.
class Samples {
 public:
  void Add(double ms) { ms_.push_back(ms); }
  void Merge(const Samples& o) { ms_.insert(ms_.end(), o.ms_.begin(), o.ms_.end()); }
  size_t size() const { return ms_.size(); }
  double Sum() const;
  double Mean() const { return ms_.empty() ? 0.0 : Sum() / ms_.size(); }
  /// Nearest-rank quantile (0 when empty).
  double Quantile(double q) const;

 private:
  std::vector<double> ms_;
};

/// What one client recorded during one phase. Each client owns its log; the
/// loop merges them after the join, so recording takes no lock.
struct ClientLog {
  /// Client-side call→return latency of every operation, and per class.
  Samples all;
  std::map<std::string, Samples> by_class;
  int64_t attempted = 0;
  int64_t ok = 0;
  int64_t failed = 0;   ///< the call returned an error
  int64_t refused = 0;  ///< admission refused it (ResourceExhausted)
  int64_t wrong = 0;    ///< answer digest differs from the oracle's
  /// Engine attribution from QueryResult (engine operations only).
  Samples submit_ms;  ///< client latency − queue_ms − exec_ms
  Samples queue_ms;
  Samples exec_ms;
  std::map<std::string, Samples> queue_by_class;  ///< keyed by QueueClass
  std::map<std::string, Samples> exec_by_class;
  Samples bound_ratio;  ///< predicted / observed output rows, per query
  int64_t queries = 0;      ///< engine queries answered
  int64_t plan_hits = 0;    ///< ... whose plan came from the plan cache

  void Merge(const ClientLog& o);
  int64_t errors() const { return failed + refused + wrong; }
};

struct PhaseResult {
  ClientLog log;
  double wall_s = 0.0;
};

/// Runs `clients` closed-loop clients for `seconds`: client c calls
/// step(c, i, log) for i = 0, 1, ... and issues its next operation only
/// when the previous one has returned. No operation starts after the
/// deadline; the phase ends when the last one returns.
PhaseResult RunClosedLoop(
    int clients, double seconds,
    const std::function<void(int client, int64_t i, ClientLog* log)>& step);

/// Records one call's outcome: `latency_ms` under `cls`, and whether the
/// answer digest matched `expect`.
void RecordOutcome(ClientLog* log, const std::string& cls, double latency_ms,
                   bool ok, bool refused, bool digest_ok);

/// One Engine::Solve as a client sees it: copies `req` (outside the timed
/// region), times Solve, checks the answer digest against `expect` (outside
/// the timed region), and records latency plus the engine's own queue/exec
/// split. When `trace` is set the call is wrapped in a "client_op" span.
void TimedSolve(Engine& engine, const QueryRequest& req, uint64_t expect,
                const std::string& cls, ClientLog* log,
                obs::TraceSession* trace = nullptr, uint32_t track = 0);

/// Records the engine's own split of one call's latency: submit (the rest),
/// queue wait and execution per QueueClass, and — for queries, not deltas —
/// the predicted / observed output-row ratio.
void RecordEngineSplit(ClientLog* log, double latency_ms, const QueryResult& q,
                       bool query);

// --- Report -----------------------------------------------------------------

/// A metric of the machine-read result: its name and fixed unit.
struct MetricSpec {
  const char* name;
  const char* unit;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  int64_t samples = 0;
};

/// Named metrics, printed one per line as
///   METRIC <name> <value> <unit> samples=<n>
/// followed (by main) by the one-line JSON result.
class Report {
 public:
  void Add(std::string name, double value, std::string unit, int64_t samples);
  const Metric* Find(const std::string& name) const;
  void Print() const;
  /// {"correct", "attempted", "failed", "metrics"} over exactly `specs`;
  /// a metric that is missing, not finite, or in another unit is an error
  /// (returned as the empty string).
  std::string ResultJson(const std::vector<MetricSpec>& specs, bool correct,
                         int64_t attempted, int64_t failed) const;

 private:
  std::vector<Metric> metrics_;
};

/// The end-to-end metrics every workload reports (BENCHMARK.json
/// "end_to_end").
const std::vector<MetricSpec>& EndToEndMetrics();
/// The per-layer metrics of the traced run (BENCHMARK.json "per_layer").
const std::vector<MetricSpec>& PerLayerMetrics();

/// Adds the end-to-end metrics common to every workload from one untraced
/// phase: throughput_ops, latency_p50_ms, latency_p95_ms, error_rate.
void ReportCommon(const PhaseResult& p, Report* r);

/// Adds the engine attribution of one (traced) phase: server.submit_ms,
/// server.queue_ms, server.exec_ms (also per class), server.bound_ratio,
/// server.plan_hit_ratio.
void ReportServer(const ClientLog& log, Report* r);

}  // namespace e2e
}  // namespace topofaq

#endif  // E2E_BENCH_HARNESS_H_
