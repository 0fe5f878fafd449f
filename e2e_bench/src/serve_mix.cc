// serve_mix — two closed-loop clients, each issuing a seeded mix through
// Engine::Solve: four Boolean BCQ point lookups (path of 2 × 50k rows, keys
// in 2^20; classified kPoint, run serially) for every PGM variable marginal
// (Counting semiring, path of 4 factors × 2e5 rows, F = {0}; kGeneral).
//
// Why: time goes to the Yannakakis sort / Eliminate / Join path plus the
// submit/queue path, and MultiwayJoin is never touched. A sort change
// (radix sort) or the kAuto solver choice shows here; skew work should not.
// The 4:1 schedule is fixed per client, so latency_p50_ms sits inside the
// point-lookup mode and latency_p95_ms inside the marginal mode.
#include "workload.h"

#include "hypergraph/generators.h"

namespace topofaq {
namespace e2e {
namespace {

constexpr int kClients = 2;
constexpr int kPointInstances = 4;
constexpr int kMarginalInstances = 2;
constexpr int kCycle = 5;  // four points, then one marginal

class ServeMix : public Workload {
 public:
  void Setup(const Args& a) override {
    seed_ = a.seed;
    const size_t point_rows = a.tiny ? 300 : 50000;
    const size_t marginal_rows = a.tiny ? 400 : 200000;
    ExecContext cx;
    cx.parallelism = Nproc();
    engine_ = std::make_unique<Engine>(BenchEngineOptions());
    for (int i = 0; i < kPointInstances; ++i) {
      QueryRequest req;
      req.query = RandomQuery<BooleanSemiring>(
          PathGraph(2), point_rows, uint64_t{1} << 20, {},
          StreamSeed(a.seed, 100 + i), &cx);
      req.tag = "point";
      points_.push_back(std::move(req));
    }
    for (int i = 0; i < kMarginalInstances; ++i) {
      QueryRequest req;
      req.query = RandomQuery<CountingSemiring>(
          PathGraph(4), marginal_rows, marginal_rows, {0},
          StreamSeed(a.seed, 200 + i), &cx);
      req.tag = "marginal";
      marginals_.push_back(std::move(req));
    }
    // Warm up: every query once (plans cached, pages faulted in).
    for (const auto* set : {&points_, &marginals_})
      for (const QueryRequest& r : *set) (void)engine_->Solve(r);
  }

  void BuildOracle() override {
    for (const QueryRequest& r : points_) point_digest_.push_back(SerialDigest<BooleanSemiring>(r));
    for (const QueryRequest& r : marginals_)
      marginal_digest_.push_back(SerialDigest<CountingSemiring>(r));
  }

  void CorruptOracle() override { point_digest_[0] ^= 1; }

  PhaseResult Run(double seconds, obs::TraceSession* trace) override {
    std::vector<Rng> rngs;
    std::vector<uint32_t> tracks(kClients, 0);
    for (int c = 0; c < kClients; ++c) {
      rngs.emplace_back(StreamSeed(seed_, 300 + c + 10 * phase_));
      if (trace != nullptr)
        tracks[c] = trace->RegisterTrack("client " + std::to_string(c));
    }
    ++phase_;
    return RunClosedLoop(kClients, seconds, [&](int c, int64_t i, ClientLog* log) {
      if (i % kCycle == kCycle - 1) {
        const size_t m = static_cast<size_t>((i / kCycle + c) % kMarginalInstances);
        TimedSolve(*engine_, marginals_[m], marginal_digest_[m], "marginal", log,
                   trace, tracks[c]);
      } else {
        const size_t p = rngs[c].NextU64(kPointInstances);
        TimedSolve(*engine_, points_[p], point_digest_[p], "point", log, trace,
                   tracks[c]);
      }
    });
  }

  void ReportPhase(const PhaseResult& p, Report* r) override {
    const Samples& pts = p.log.by_class.count("point")
                             ? p.log.by_class.at("point")
                             : Samples();
    r->Add("point_p50_ms", pts.Quantile(0.50), "ms",
           static_cast<int64_t>(pts.size()));
    r->Add("point_p99_ms", pts.Quantile(0.99), "ms",
           static_cast<int64_t>(pts.size()));
  }

  void Probe(LayerProbe* probe, const PhaseResult&, Report*) override {
    for (size_t i = 0; i < points_.size(); ++i)
      probe->Query(std::get<FaqQuery<BooleanSemiring>>(points_[i].query),
                   Strategy::kAuto, /*point=*/true, 0.8 / kPointInstances,
                   point_digest_[i]);
    for (size_t i = 0; i < marginals_.size(); ++i)
      probe->Query(std::get<FaqQuery<CountingSemiring>>(marginals_[i].query),
                   Strategy::kAuto, /*point=*/false, 0.2 / kMarginalInstances,
                   marginal_digest_[i]);
  }

  Engine& engine() override { return *engine_; }

 private:
  uint64_t seed_ = 0;
  int phase_ = 0;
  std::unique_ptr<Engine> engine_;
  std::vector<QueryRequest> points_;
  std::vector<QueryRequest> marginals_;
  std::vector<uint64_t> point_digest_;
  std::vector<uint64_t> marginal_digest_;
};

}  // namespace

std::unique_ptr<Workload> MakeServeMix() { return std::make_unique<ServeMix>(); }

}  // namespace e2e
}  // namespace topofaq
