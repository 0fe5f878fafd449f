// cyclic_skew — one closed-loop client issuing heavy cyclic cores through
// Engine::Solve, in a fixed 20-operation cycle: 12 triangles (3 × 1e5 rows),
// 4 Loomis–Whitney LW(4) instances (4 ternary × 1e5 rows) and 4 four-cycles
// (4 × 3e4 rows), half Boolean BCQs and half Counting-semiring counts. The
// triangle and 4-cycle inputs carry a hub spike (bench_multiway_join's
// SkewedRel shape: one key of degree min(n/32, 4000)).
//
// Requests name Strategy::kBruteForce, the worst-case-optimal route: at this
// revision kAuto runs a cyclic core through the GHD pass's pairwise joins,
// about 80× slower on the triangle, and the workload exists to measure the
// MultiwayJoin path.
//
// Why: time goes to MultiwayJoin leapfrog / seek / SIMD intersection and
// morsel parallelism under skew (the kHeavy queue, 1 slot). Inputs are
// canonical on arrival, so heavy/light splitting shows here and a sort
// change should not. The cycle's weights put latency_p50_ms inside the
// triangle mode and latency_p95_ms inside the 4-cycle mode.
#include <cmath>

#include "workload.h"

#include "hypergraph/generators.h"

namespace topofaq {
namespace e2e {
namespace {

enum Shape { kTriB, kTriC, kLwB, kLwC, kC4B, kC4C, kShapes };
constexpr Shape kSchedule[] = {kTriB, kTriC, kLwB, kTriB, kTriC, kC4B, kTriB,
                               kTriC, kLwC, kTriB, kTriC, kC4C, kTriB, kTriC,
                               kLwB, kTriB, kTriC, kC4B, kLwC, kC4C};
constexpr int kCycle = sizeof(kSchedule) / sizeof(kSchedule[0]);
const char* const kClassName[kShapes] = {"triangle", "triangle", "lw",
                                         "lw",       "cycle4",   "cycle4"};

template <CommutativeSemiring S>
FaqQuery<S> Triangle(size_t n, uint64_t seed, ExecContext* cx) {
  const uint64_t dom = std::max<uint64_t>(4, n / 4);
  const size_t spike = std::min<size_t>(n / 32, 4000);
  std::vector<Relation<S>> rels;
  rels.push_back(RandomRel<S>({0, 1}, n, dom, StreamSeed(seed, 0), cx, spike, 1));
  rels.push_back(RandomRel<S>({1, 2}, n, dom, StreamSeed(seed, 1), cx, spike, 0));
  rels.push_back(RandomRel<S>({0, 2}, n, dom, StreamSeed(seed, 2), cx));
  return MakeFaqSS<S>(CycleGraph(3), std::move(rels), {});
}

template <CommutativeSemiring S>
FaqQuery<S> Cycle4(size_t n, uint64_t seed, ExecContext* cx) {
  const uint64_t dom = std::max<uint64_t>(4, n / 4);
  const size_t spike = std::min<size_t>(n / 32, 4000);
  std::vector<Relation<S>> rels;
  rels.push_back(RandomRel<S>({0, 1}, n, dom, StreamSeed(seed, 0), cx, spike, 1));
  rels.push_back(RandomRel<S>({1, 2}, n, dom, StreamSeed(seed, 1), cx, spike, 0));
  rels.push_back(RandomRel<S>({2, 3}, n, dom, StreamSeed(seed, 2), cx));
  rels.push_back(RandomRel<S>({0, 3}, n, dom, StreamSeed(seed, 3), cx));
  return MakeFaqSS<S>(CycleGraph(4), std::move(rels), {});
}

template <CommutativeSemiring S>
FaqQuery<S> LoomisWhitney(size_t n, uint64_t seed, ExecContext* cx) {
  // dom ~ (4n)^{1/3} keeps the output near n (bench_multiway_join's sizing).
  const uint64_t dom = std::max<uint64_t>(
      4, static_cast<uint64_t>(std::cbrt(4.0 * static_cast<double>(n))));
  const std::vector<std::vector<VarId>> edges = {
      {0, 1, 2}, {1, 2, 3}, {0, 2, 3}, {0, 1, 3}};
  std::vector<Relation<S>> rels;
  for (size_t e = 0; e < edges.size(); ++e)
    rels.push_back(RandomRel<S>(edges[e], n, dom, StreamSeed(seed, e), cx));
  return MakeFaqSS<S>(Hypergraph(4, edges), std::move(rels), {});
}

class CyclicSkew : public Workload {
 public:
  void Setup(const Args& a) override {
    const size_t tri = a.tiny ? 300 : 100000;
    const size_t lw = a.tiny ? 300 : 100000;
    const size_t c4 = a.tiny ? 200 : 30000;
    ExecContext cx;
    cx.parallelism = Nproc();
    engine_ = std::make_unique<Engine>(BenchEngineOptions());
    reqs_.resize(kShapes);
    reqs_[kTriB].query = Triangle<BooleanSemiring>(tri, StreamSeed(a.seed, 10), &cx);
    reqs_[kTriC].query = Triangle<CountingSemiring>(tri, StreamSeed(a.seed, 11), &cx);
    reqs_[kLwB].query = LoomisWhitney<BooleanSemiring>(lw, StreamSeed(a.seed, 12), &cx);
    reqs_[kLwC].query = LoomisWhitney<CountingSemiring>(lw, StreamSeed(a.seed, 13), &cx);
    reqs_[kC4B].query = Cycle4<BooleanSemiring>(c4, StreamSeed(a.seed, 14), &cx);
    reqs_[kC4C].query = Cycle4<CountingSemiring>(c4, StreamSeed(a.seed, 15), &cx);
    for (int s = 0; s < kShapes; ++s) {
      reqs_[s].strategy = Strategy::kBruteForce;
      reqs_[s].tag = kClassName[s];
    }
    for (const QueryRequest& r : reqs_) (void)engine_->Solve(r);  // warm up
  }

  void BuildOracle() override {
    for (const QueryRequest& r : reqs_)
      digest_.push_back(SerialDigest<BooleanSemiring, CountingSemiring>(r));
  }

  void CorruptOracle() override { digest_[kTriB] ^= 1; }

  PhaseResult Run(double seconds, obs::TraceSession* trace) override {
    const uint32_t track =
        trace != nullptr ? trace->RegisterTrack("client 0") : 0;
    return RunClosedLoop(1, seconds, [&](int, int64_t i, ClientLog* log) {
      const Shape s = kSchedule[i % kCycle];
      TimedSolve(*engine_, reqs_[s], digest_[s], kClassName[s], log, trace,
                 track);
    });
  }

  void ReportPhase(const PhaseResult&, Report*) override {}

  void Probe(LayerProbe* probe, const PhaseResult&, Report*) override {
    int count[kShapes] = {};
    for (Shape s : kSchedule) ++count[s];
    for (int s = 0; s < kShapes; ++s) {
      const double w = static_cast<double>(count[s]) / kCycle;
      VisitAs<BooleanSemiring, CountingSemiring>(
          reqs_[s].query, [&](const auto& q) {
            probe->Query(q, Strategy::kBruteForce, /*point=*/false, w,
                         digest_[s]);
          });
    }
  }

  Engine& engine() override { return *engine_; }

 private:
  std::unique_ptr<Engine> engine_;
  std::vector<QueryRequest> reqs_;
  std::vector<uint64_t> digest_;
};

}  // namespace

std::unique_ptr<Workload> MakeCyclicSkew() {
  return std::make_unique<CyclicSkew>();
}

}  // namespace e2e
}  // namespace topofaq
