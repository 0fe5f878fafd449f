// e2e_bench: one workload per process, end to end through the engine's
// public entry points. See README.md for the workloads, the metrics, and
// the layer → end-to-end map.
//
//   e2e_bench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out PATH] [--tiny] [--corrupt-oracle]
//
// --trace 0: setup (three times, median reported), oracle, one untraced
//   closed-loop phase of S seconds; prints every metric and, as the last
//   line, the JSON result over the end-to-end metrics.
// --trace 1: setup, oracle, an untraced phase of S/2 seconds, a traced
//   phase of S/2 seconds (engine tracing on, benchmark spans around every
//   client operation), then the layer probes; writes the Chrome trace to
//   --trace-out and ends with the JSON result over the per-layer metrics.
//
// Exit status: 0 when every answer matched its oracle digest, 1 on any
// wrong, failed or refused operation, 2 on a usage error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>

#include "relation/simd.h"
#include "workload.h"

namespace topofaq {
namespace e2e {
namespace {

constexpr int kSetupReps = 3;

int Usage(const char* msg) {
  std::fprintf(stderr,
               "e2e_bench: %s\nusage: e2e_bench --workload "
               "serve_mix|cyclic_skew|ivm_churn|protocol_sim --seed N "
               "--seconds S --trace 0|1 [--trace-out PATH] [--tiny] "
               "[--corrupt-oracle]\n",
               msg);
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--tiny") {
      a->tiny = true;
    } else if (flag == "--corrupt-oracle") {
      a->corrupt_oracle = true;
    } else if (flag == "--workload" && has_value) {
      a->workload = argv[++i];
    } else if (flag == "--seed" && has_value) {
      a->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--seconds" && has_value) {
      a->seconds = std::atof(argv[++i]);
    } else if (flag == "--trace" && has_value) {
      a->trace = std::strcmp(argv[++i], "0") != 0;
    } else if (flag == "--trace-out" && has_value) {
      a->trace_out = argv[++i];
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0.0;
}

std::unique_ptr<Workload> Make(const std::string& name) {
  if (name == "serve_mix") return MakeServeMix();
  if (name == "cyclic_skew") return MakeCyclicSkew();
  if (name == "ivm_churn") return MakeIvmChurn();
  if (name == "protocol_sim") return MakeProtocolSim();
  return nullptr;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

void PrintConfig(const Args& a) {
  const EngineOptions o = BenchEngineOptions();
  std::printf(
      "CONFIG workload=%s seed=%llu seconds=%g trace=%d tiny=%d "
      "build_type=%s parallelism=%d encoding=auto simd=auto(avx2=%d) "
      "dispatchers=%d heavy_slots=%d page_budget=%lld\n",
      a.workload.c_str(), static_cast<unsigned long long>(a.seed), a.seconds,
      a.trace ? 1 : 0, a.tiny ? 1 : 0, E2E_BUILD_TYPE, o.parallelism,
      CpuHasAvx2() ? 1 : 0, o.dispatchers, o.heavy_slots,
      static_cast<long long>(o.page_budget));
}

/// Spans that attribute a client operation's time to a named layer: the
/// engine's own pipeline stages, and the benchmark's spans around direct
/// layer calls that are themselves the operation.
double TraceCoverage(const obs::TraceSession& s) {
  static const std::set<std::string> kLayerSpans = {
      "submit",       "queue_wait",      "execute",
      "ivm.snapshot", "protocols.sync",  "protocols.async",
      "protocols.trivial_async"};
  double client = 0.0, layers = 0.0;
  for (const obs::TraceEvent& e : s.events()) {
    if (e.domain != obs::ClockDomain::kWall) continue;
    if (std::strcmp(e.name, "client_op") == 0)
      client += e.dur_us;
    else if (kLayerSpans.count(e.name) != 0)
      layers += e.dur_us;
  }
  return client > 0.0 ? layers / client : 0.0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage("bad arguments");
  if (Make(args.workload) == nullptr) return Usage("unknown workload");
  PrintConfig(args);

  // Setup, repeated: each repetition starts from a cold plan cache and a
  // fresh engine, and the last one is kept for the timed phases.
  std::vector<double> setup_s;
  std::unique_ptr<Workload> w;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    w.reset();
    PlanCache::Shared().Clear();
    std::unique_ptr<Workload> next = Make(args.workload);
    const auto t0 = Clock::now();
    next->Setup(args);
    setup_s.push_back(MsSince(t0) / 1000.0);
    w = std::move(next);
  }
  const auto oracle_t0 = Clock::now();
  w->BuildOracle();
  const double oracle_s = MsSince(oracle_t0) / 1000.0;
  if (args.corrupt_oracle) w->CorruptOracle();

  Report rep;
  rep.Add("setup_s", Median(setup_s), "s", kSetupReps);
  rep.Add("oracle_s", oracle_s, "s", 1);
  int64_t attempted = 0, failed = 0;
  const std::vector<MetricSpec>* specs = &EndToEndMetrics();

  if (!args.trace) {
    const PhaseResult p = w->Run(args.seconds, nullptr);
    ReportCommon(p, &rep);
    w->ReportPhase(p, &rep);
    attempted = p.log.attempted;
    failed = p.log.errors();
  } else {
    specs = &PerLayerMetrics();
    const PhaseResult base = w->Run(args.seconds / 2, nullptr);
    ReportCommon(base, &rep);
    w->ReportPhase(base, &rep);
    const double base_p50 = base.log.all.Quantile(0.5);

    Engine& engine = w->engine();
    engine.EnableTracing();
    const std::shared_ptr<obs::TraceSession> session = engine.trace();
    const PhaseResult traced = w->Run(args.seconds / 2, session.get());
    const double coverage = TraceCoverage(*session);

    LayerProbe probe(session.get(), args.tiny ? 1 : 3);
    w->Probe(&probe, traced, &rep);
    probe.Finish(&rep);
    engine.DisableTracing();
    if (!args.trace_out.empty() && !session->WriteChromeJson(args.trace_out))
      ++failed;

    if (rep.Find("server.submit_ms") == nullptr) ReportServer(traced.log, &rep);
    rep.Add("trace.coverage", coverage, "ratio",
            static_cast<int64_t>(traced.log.all.size()));
    rep.Add("trace.overhead",
            base_p50 > 0.0 ? traced.log.all.Quantile(0.5) / base_p50 : 0.0,
            "ratio", static_cast<int64_t>(traced.log.all.size()));
    rep.Add("trace.events", static_cast<double>(session->event_count()),
            "count", 1);
    // Layers this workload never enters (no deltas, no protocol runs)
    // report zero work.
    for (const MetricSpec& m : PerLayerMetrics())
      if (rep.Find(m.name) == nullptr) rep.Add(m.name, 0.0, m.unit, 0);
    attempted = base.log.attempted + traced.log.attempted + probe.checks();
    failed += base.log.errors() + traced.log.errors() + probe.mismatches();
  }
  rep.Add("peak_rss_mb", PeakRssMb(), "MB", 1);
  rep.Print();

  const bool correct = failed == 0;
  const std::string json = rep.ResultJson(*specs, correct, attempted, failed);
  if (json.empty()) {
    std::fprintf(stderr, "e2e_bench: a reported metric is missing or not finite\n");
    return 1;
  }
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace e2e
}  // namespace topofaq

int main(int argc, char** argv) { return topofaq::e2e::Main(argc, argv); }
