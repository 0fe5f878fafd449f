// protocol_sim — one closed-loop client running a fixed set of paper
// instances through the distributed protocols: Table-1-style BCQs and
// variable marginals on PaperH0..H3, path / star hypergraphs and a random
// d-degenerate hypergraph, over line, star, grid and clique topologies.
// Every instance runs the synchronous core-forest protocol, the async
// core-forest protocol and the async trivial protocol, at the engine's
// fixed page budget, with 1e5 rows per relation (a few tens of ms a run).
//
// Why: the only workload that reaches src/protocols and src/network. One
// protocol body over two transports must hold it level, and in-network
// aggregation would move async_makespan. Every answer is checked against
// Engine::Solve, and every run's round / makespan / page / bit counts must
// equal the setup run's exactly.
#include <cstdio>
#include <optional>

#include "workload.h"

#include "graphalg/topologies.h"
#include "hypergraph/generators.h"
#include "lowerbounds/bounds.h"
#include "protocols/async.h"
#include "protocols/distributed.h"

namespace topofaq {
namespace e2e {
namespace {

enum Protocol { kSync, kAsync, kTrivialAsync, kProtocols };
const char* const kProtocolClass[kProtocols] = {"sync", "async", "trivial_async"};

template <CommutativeSemiring S>
struct Instance {
  std::string name;
  DistInstance<S> dist;
  uint64_t digest = 0;                ///< Engine::Solve's answer
  ProtocolStats expected[kProtocols];  ///< the setup run's counts
  int64_t lower_bound = 0;            ///< ComputeBounds' (y + n2)·N / MinCut
};

bool SameCounts(const ProtocolStats& a, const ProtocolStats& b) {
  return a.rounds == b.rounds && a.total_bits == b.total_bits &&
         a.makespan == b.makespan && a.pages == b.pages &&
         a.max_in_flight_pages == b.max_in_flight_pages &&
         a.payload_bits_encoded == b.payload_bits_encoded &&
         a.payload_bits_plain == b.payload_bits_plain;
}

template <CommutativeSemiring S>
Result<ProtocolResult<S>> RunProtocol(const DistInstance<S>& inst, Protocol p,
                                      obs::TraceSession* trace,
                                      uint32_t track) {
  if (p == kSync) {
    obs::Span sp(trace, "protocols.sync", track);
    CoreForestOptions o;
    o.parallelism = Nproc();
    return RunCoreForestProtocol(inst, o);
  }
  AsyncProtocolOptions o;
  o.parallelism = Nproc();
  o.stream.node_page_budget = BenchEngineOptions().page_budget;
  o.trace = trace;  // simulated-time spans of the traced phase
  if (p == kAsync) {
    obs::Span sp(trace, "protocols.async", track);
    return RunCoreForestProtocolAsync(inst, o);
  }
  obs::Span sp(trace, "protocols.trivial_async", track);
  return RunTrivialProtocolAsync(inst, o);
}

template <CommutativeSemiring S>
Instance<S> MakeInstance(std::string name, Hypergraph h,
                         std::vector<VarId> free_vars, Graph topology, size_t n,
                         uint64_t seed, ExecContext* cx) {
  Instance<S> in;
  in.name = std::move(name);
  in.dist.query = RandomQuery<S>(h, n, std::max<uint64_t>(4, n), std::move(free_vars),
                                 seed, cx);
  in.dist.topology = std::move(topology);
  in.dist.owners = RoundRobinOwners(in.dist.query.hypergraph.num_edges(),
                                    in.dist.topology.num_nodes());
  in.dist.sink = 0;
  return in;
}

class ProtocolSim : public Workload {
 public:
  void Setup(const Args& a) override {
    const size_t n = a.tiny ? 300 : 100000;
    ExecContext cx;
    cx.parallelism = Nproc();
    engine_ = std::make_unique<Engine>(BenchEngineOptions());
    // The d-degenerate shape is fixed (its own generator seed); only the data
    // follows --seed, so every seed runs the same instance set.
    Rng shape_rng(0xd5);
    const Hypergraph degenerate = RandomHypergraph(8, 2, 3, &shape_rng);
    auto seed = [&](uint64_t k) { return StreamSeed(a.seed, 800 + k); };
    bcq_.push_back(MakeInstance<BooleanSemiring>("h0_line", PaperH0(), {},
                                                 LineTopology(4), n, seed(0), &cx));
    bcq_.push_back(MakeInstance<BooleanSemiring>("h1_star", PaperH1(), {},
                                                 StarTopology(5), n, seed(1), &cx));
    bcq_.push_back(MakeInstance<BooleanSemiring>("h2_grid", PaperH2(), {},
                                                 GridTopology(3, 3), n, seed(2), &cx));
    bcq_.push_back(MakeInstance<BooleanSemiring>("h3_clique", PaperH3(), {},
                                                 CliqueTopology(4), n, seed(3), &cx));
    bcq_.push_back(MakeInstance<BooleanSemiring>(
        "degenerate_grid", degenerate, {}, GridTopology(2, 3), n, seed(4), &cx));
    marginal_.push_back(MakeInstance<NaturalSemiring>(
        "h2_marginal_clique", PaperH2(), {0}, CliqueTopology(4), n, seed(5), &cx));
    marginal_.push_back(MakeInstance<NaturalSemiring>(
        "path_marginal_line", PathGraph(4), {0}, LineTopology(5), n, seed(6), &cx));
    marginal_.push_back(MakeInstance<NaturalSemiring>(
        "star_marginal_star", StarGraph(4), {0}, StarTopology(5), n, seed(7), &cx));
    // Warm up: one sync run per instance.
    ForEach([&](auto& in) { (void)RunProtocol(in.dist, kSync, nullptr, 0); });
  }

  void BuildOracle() override {
    ForEach([&](auto& in) {
      QueryRequest req;
      req.query = in.dist.query;
      auto r = engine_->Solve(std::move(req));
      in.digest = r.ok() ? Digest(r->answer) : 0;
      in.lower_bound =
          ComputeBounds(in.dist.query.hypergraph, in.dist.topology,
                        in.dist.Players(), in.dist.query.MaxRelationSize())
              .lower_bound;
      for (int p = 0; p < kProtocols; ++p) {
        auto run = RunProtocol(in.dist, static_cast<Protocol>(p), nullptr, 0);
        if (run.ok()) in.expected[p] = run->stats;
      }
    });
  }

  void CorruptOracle() override { bcq_[0].digest ^= 1; }

  PhaseResult Run(double seconds, obs::TraceSession* trace) override {
    const uint32_t track =
        trace != nullptr ? trace->RegisterTrack("client 0") : 0;
    const int64_t ops = static_cast<int64_t>(bcq_.size() + marginal_.size()) *
                        kProtocols;
    return RunClosedLoop(1, seconds, [&](int, int64_t i, ClientLog* log) {
      const size_t k = static_cast<size_t>((i % ops) / kProtocols);
      const auto p = static_cast<Protocol>(i % kProtocols);
      if (k < bcq_.size())
        RunOp(bcq_[k], p, log, trace, track);
      else
        RunOp(marginal_[k - bcq_.size()], p, log, trace, track);
    });
  }

  void ReportPhase(const PhaseResult&, Report* r) override {
    int64_t rounds = 0, instances = 0;
    double makespan = 0.0, worst = 0.0;
    ForEach([&](const auto& in) {
      ++instances;
      rounds += in.expected[kSync].rounds;
      makespan += in.expected[kAsync].makespan;
      if (in.lower_bound > 0)
        worst = std::max(worst, static_cast<double>(in.expected[kSync].rounds) /
                                    static_cast<double>(in.lower_bound));
    });
    r->Add("protocol_rounds", static_cast<double>(rounds), "rounds", instances);
    r->Add("async_makespan", makespan, "sim_units", instances);
    r->Add("rounds_over_lb", worst, "ratio", instances);
  }

  void Probe(LayerProbe* probe, const PhaseResult& traced, Report* r) override {
    const double w = 1.0 / static_cast<double>(bcq_.size() + marginal_.size());
    ClientLog engine_log;
    Samples decompose;
    int64_t pages = 0, peak_pages = 0, bits = 0, enc = 0, plain = 0;
    ForEach([&](const auto& in) {
      probe->Query(in.dist.query, Strategy::kAuto, /*point=*/false, w, in.digest);
      QueryRequest req;
      req.query = in.dist.query;
      for (int i = 0; i < probe->reps(); ++i)
        TimedSolve(*engine_, req, in.digest, "engine", &engine_log);
      decompose.Add(MedianMs(probe->reps(), probe->trace(), "protocols.decompose",
                             probe->track(), [&] {
        auto d = internal::CoreForestDecomposition(in.dist.query, 8, 0xfa0);
        if (!d.ok()) probe->Fail();
      }));
      for (Protocol p : {kAsync, kTrivialAsync}) {
        const ProtocolStats& s = in.expected[p];
        pages += s.pages;
        peak_pages = std::max(peak_pages, s.max_in_flight_pages);
        bits += s.total_bits;
        enc += s.payload_bits_encoded;
        plain += s.payload_bits_plain;
      }
    });
    ReportServer(engine_log, r);
    probe->Fail(engine_log.errors());

    auto mean = [&](const char* cls) {
      auto it = traced.log.by_class.find(cls);
      return it == traced.log.by_class.end() ? 0.0 : it->second.Mean();
    };
    const auto n = static_cast<int64_t>(decompose.size());
    r->Add("protocols.decompose_ms", decompose.Mean(), "ms", n);
    for (const char* cls : kProtocolClass)
      r->Add(std::string("protocols.") + cls + "_ms", mean(cls), "ms", n);
    r->Add("protocols.decompose_share",
           mean("sync") > 0.0 ? decompose.Mean() / mean("sync") : 0.0, "ratio", n);
    Report counts;
    ReportPhase(traced, &counts);
    r->Add("protocols.rounds", counts.Find("protocol_rounds")->value, "rounds", n);
    r->Add("protocols.async_makespan", counts.Find("async_makespan")->value,
           "sim_units", n);
    r->Add("protocols.rounds_over_lb", counts.Find("rounds_over_lb")->value,
           "ratio", n);
    r->Add("network.pages", static_cast<double>(pages), "pages", n);
    r->Add("network.peak_inflight_pages", static_cast<double>(peak_pages),
           "pages", n);
    r->Add("network.bits_sent", static_cast<double>(bits), "bits", n);
    r->Add("network.encoded_ratio",
           plain > 0 ? static_cast<double>(enc) / static_cast<double>(plain) : 0.0,
           "ratio", n);
  }

  Engine& engine() override { return *engine_; }

 private:
  template <typename F>
  void ForEach(F&& f) {
    for (auto& in : bcq_) f(in);
    for (auto& in : marginal_) f(in);
  }

  template <CommutativeSemiring S>
  void RunOp(const Instance<S>& in, Protocol p, ClientLog* log,
             obs::TraceSession* trace, uint32_t track) {
    std::optional<Result<ProtocolResult<S>>> r;
    double ms = 0.0;
    {
      obs::Span op(trace, "client_op", track);
      const auto t0 = Clock::now();
      r.emplace(RunProtocol(in.dist, p, trace, track));
      ms = MsSince(t0);
    }
    const bool ok = r->ok();
    if (!ok)
      std::fprintf(stderr, "%s/%s failed: %s\n", in.name.c_str(),
                   kProtocolClass[p], r->status().ToString().c_str());
    const bool exact =
        ok && Digest((*r)->answer) == in.digest &&
        SameCounts((*r)->stats, in.expected[p]);
    RecordOutcome(log, kProtocolClass[p], ms, ok, false, exact);
  }

  std::unique_ptr<Engine> engine_;
  std::vector<Instance<BooleanSemiring>> bcq_;
  std::vector<Instance<NaturalSemiring>> marginal_;
};

}  // namespace

std::unique_ptr<Workload> MakeProtocolSim() {
  return std::make_unique<ProtocolSim>();
}

}  // namespace e2e
}  // namespace topofaq
