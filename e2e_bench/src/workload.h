// One benchmark workload: seeded inputs, an engine, an answer oracle, a
// closed-loop timed phase, and the traced run's layer probes. Each process
// runs exactly one workload (main.cc), so the process-wide PlanCache,
// metrics registry, and the encoding/SIMD knobs an Engine installs never
// carry over between workloads, and peak_rss_mb is the workload's own.
//
// Why each workload exists, and which layer metric should move which
// end-to-end metric on it, is recorded in README.md next to these
// definitions; the short version sits at the top of each workload's file.
#ifndef E2E_BENCH_WORKLOAD_H_
#define E2E_BENCH_WORKLOAD_H_

#include <memory>
#include <string>

#include "harness.h"
#include "layers.h"

namespace topofaq {
namespace e2e {

class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates and canonicalizes the inputs from args.seed, constructs the
  /// engine (BenchEngineOptions), subscribes, and warms up: everything
  /// setup_s measures.
  virtual void Setup(const Args& args) = 0;
  /// Computes the answer digests every timed answer is checked against, by
  /// a route independent of the timed one (serial direct solves, full
  /// recomputes). Not part of setup_s.
  virtual void BuildOracle() = 0;
  /// Self-test hook: flips one bit of one oracle digest.
  virtual void CorruptOracle() = 0;
  /// One closed-loop timed phase. `trace` is null in untraced phases; in the
  /// traced phase it is the engine's session, and every client operation is
  /// wrapped in a "client_op" span on the client's own track.
  virtual PhaseResult Run(double seconds, obs::TraceSession* trace) = 0;
  /// Adds the workload's class-specific end-to-end metrics (point_*,
  /// delta_*, protocol counts) for one phase.
  virtual void ReportPhase(const PhaseResult& p, Report* r) = 0;
  /// Traced run only: direct layer calls on the workload's queries, plus the
  /// workload's own layer metrics (ivm.*, protocols.*, network.*).
  virtual void Probe(LayerProbe* probe, const PhaseResult& traced,
                     Report* r) = 0;
  virtual Engine& engine() = 0;
};

std::unique_ptr<Workload> MakeServeMix();
std::unique_ptr<Workload> MakeCyclicSkew();
std::unique_ptr<Workload> MakeIvmChurn();
std::unique_ptr<Workload> MakeProtocolSim();

}  // namespace e2e
}  // namespace topofaq

#endif  // E2E_BENCH_WORKLOAD_H_
