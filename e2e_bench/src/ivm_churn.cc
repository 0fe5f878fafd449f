// ivm_churn — writes beside reads, two closed-loop clients on one engine.
//
// Setup subscribes two standing queries over 1e6-row bases: a Natural-
// semiring path (3 edges, F = {0}; the ring-propagation path) and a MinPlus
// star (3 leaves, F = {centre}; the affected-subtree recompute path).
//  * Writer: seeded 0.1% delta batches (half removes, half adds) through
//    StandingSession::ApplyDelta, alternating sessions. Each batch is one
//    half of a forward/inverse pair, so every session cycles through known
//    states; after every batch the writer checks Current() against the full
//    recompute of that state.
//  * Reader: serve_mix-style point lookups, and every fifth operation a
//    Current() snapshot, checked against the set of states its session can
//    be in.
//
// Why: the same kernel and queues as serve_mix, reached through
// ApplyDeltaToRelation and delta admission. A change that speeds reads but
// slows the splice, or one that starves points behind deltas, shows here.
#include <cstdio>
#include <optional>

#include "workload.h"

#include "hypergraph/generators.h"
#include "ivm/delta.h"

namespace topofaq {
namespace e2e {
namespace {

constexpr int kPointInstances = 2;
constexpr int kReaderCycle = 5;  // four point lookups, then one snapshot

/// One subscription and the delta pairs the writer cycles through.
template <CommutativeSemiring S>
struct Churn {
  struct Pair {
    int relation = 0;
    Delta<S> fwd;
    Delta<S> inv;  ///< restores the exact base bytes
  };
  FaqQuery<S> base;
  std::shared_ptr<StandingSession> session;
  std::vector<Pair> pairs;
  uint64_t base_digest = 0;
  std::vector<uint64_t> fwd_digest;  ///< full recompute after pairs[j].fwd
  int64_t applied = 0;               ///< batches applied so far (writer only)

  bool ValidState(uint64_t d) const {
    return d == base_digest ||
           std::find(fwd_digest.begin(), fwd_digest.end(), d) != fwd_digest.end();
  }
};

/// One forward/inverse pair per relation: `half` sampled base tuples
/// removed, `half` fresh tuples added whose leading key lies outside the
/// live domain (so the inverse's removes hit exactly them).
template <CommutativeSemiring S>
void MakePairs(Churn<S>* ch, size_t half, uint64_t dom, uint64_t seed) {
  for (size_t e = 0; e < ch->base.relations.size(); ++e) {
    const Relation<S>& r = ch->base.relations[e];
    Rng rng(StreamSeed(seed, e));
    typename Churn<S>::Pair p;
    p.relation = static_cast<int>(e);
    for (Delta<S>* d : {&p.fwd, &p.inv}) {
      d->removes = Relation<S>(r.schema());
      d->adds = Relation<S>(r.schema());
    }
    std::vector<Value> row(r.arity());
    for (uint64_t i : rng.Sample(r.size(), std::min<uint64_t>(half, r.size()))) {
      for (size_t j = 0; j < row.size(); ++j) row[j] = r.at(i, j);
      p.fwd.removes.Add(std::span<const Value>(row), S::One());
      p.inv.adds.Add(std::span<const Value>(row), r.annot(i));
    }
    for (size_t i = 0; i < half; ++i) {
      row[0] = dom + rng.NextU64(dom);
      for (size_t j = 1; j < row.size(); ++j) row[j] = rng.NextU64(dom);
      p.fwd.adds.Add(std::span<const Value>(row), RandomAnnot<S>(rng));
      p.inv.removes.Add(std::span<const Value>(row), S::One());
    }
    ch->pairs.push_back(std::move(p));
  }
}

template <CommutativeSemiring S>
void Subscribe(Engine& engine, Churn<S>* ch) {
  QueryRequest req;
  req.query = ch->base;
  req.tag = "standing";
  auto s = engine.Subscribe(std::move(req));
  if (!s.ok()) {
    std::fprintf(stderr, "subscribe failed: %s\n", s.status().ToString().c_str());
    std::abort();
  }
  ch->session = *std::move(s);
}

template <CommutativeSemiring S>
void BuildChurnOracle(Churn<S>* ch) {
  ExecContext cx;
  cx.parallelism = 1;
  auto base = YannakakisSolve(ch->base, &cx);
  ch->base_digest = base.ok() ? Digest(*base) : 0;
  cx.parallelism = Nproc();
  for (const auto& p : ch->pairs) {
    FaqQuery<S> q = ch->base;
    Status s = ApplyDeltaToRelation(&q.relations[p.relation], p.fwd, &cx);
    auto full = s.ok() ? YannakakisSolve(q, &cx) : Result<Relation<S>>(s);
    ch->fwd_digest.push_back(full.ok() ? Digest(*full) : 0);
  }
}

/// The writer's next batch on `ch`: forward and inverse halves alternate,
/// pair by pair. The session's state afterwards is known, so the check is
/// exact.
template <CommutativeSemiring S>
void ApplyNext(Churn<S>* ch, ClientLog* log, obs::TraceSession* trace,
               uint32_t track) {
  const size_t j = static_cast<size_t>(ch->applied / 2) % ch->pairs.size();
  const bool fwd = ch->applied % 2 == 0;
  const auto& pair = ch->pairs[j];
  Delta<S> d = fwd ? pair.fwd : pair.inv;
  std::optional<Result<QueryResult>> r;
  double ms = 0.0;
  {
    obs::Span sp(trace, "client_op", track);
    const auto t0 = Clock::now();
    r.emplace(ch->session->ApplyDelta(pair.relation, std::move(d)));
    ms = MsSince(t0);
  }
  const bool ok = r->ok();
  if (ok) ++ch->applied;  // a refused batch leaves the state unchanged
  else
    std::fprintf(stderr, "delta failed: %s\n", r->status().ToString().c_str());
  const uint64_t expect = fwd ? ch->fwd_digest[j] : ch->base_digest;
  const bool digest_ok =
      ok && Digest(ch->session->template Current<S>()) == expect;
  RecordOutcome(log, "delta", ms, ok,
                !ok && r->status().code() == StatusCode::kResourceExhausted,
                digest_ok);
  if (ok) RecordEngineSplit(log, ms, **r, /*query=*/false);
}

template <CommutativeSemiring S>
void Snapshot(const Churn<S>& ch, ClientLog* log, obs::TraceSession* trace,
              uint32_t track) {
  std::optional<Relation<S>> cur;
  double ms = 0.0;
  {
    obs::Span op(trace, "client_op", track);
    obs::Span sp(trace, "ivm.snapshot", track);
    const auto t0 = Clock::now();
    cur.emplace(ch.session->template Current<S>());
    ms = MsSince(t0);
  }
  RecordOutcome(log, "snapshot", ms, true, false, ch.ValidState(Digest(*cur)));
}

/// Replays one full cycle of the writer's batches on a replica through
/// StandingQuery::ApplyDelta directly; returns the per-batch ms.
template <CommutativeSemiring S>
std::vector<double> ReplicaApply(const Churn<S>& ch, LayerProbe* probe) {
  ExecContext cx;
  cx.parallelism = Nproc();
  auto sq = StandingQuery<S>::Create(ch.base, &cx);
  std::vector<double> ms;
  if (!sq.ok()) {
    probe->Fail();
    return ms;
  }
  for (size_t j = 0; j < ch.pairs.size(); ++j)
    for (bool fwd : {true, false}) {
      Delta<S> d = fwd ? ch.pairs[j].fwd : ch.pairs[j].inv;
      Status s;
      {
        obs::Span sp(probe->trace(), "ivm.apply", probe->track());
        const auto t0 = Clock::now();
        s = sq->ApplyDelta(ch.pairs[j].relation, std::move(d), &cx);
        ms.push_back(MsSince(t0));
      }
      const uint64_t expect = fwd ? ch.fwd_digest[j] : ch.base_digest;
      probe->Check(s.ok() ? Digest(sq->Current()) : ~expect, expect);
    }
  return ms;
}

class IvmChurn : public Workload {
 public:
  void Setup(const Args& a) override {
    seed_ = a.seed;
    const size_t base_rows = a.tiny ? 500 : 1000000;
    const size_t point_rows = a.tiny ? 300 : 50000;
    const uint64_t dom = std::max<uint64_t>(4, base_rows / 4);
    const size_t half = std::max<size_t>(1, base_rows / 2000);  // 0.1% per batch
    ExecContext cx;
    cx.parallelism = Nproc();
    engine_ = std::make_unique<Engine>(BenchEngineOptions());
    path_.base = RandomQuery<NaturalSemiring>(PathGraph(3), base_rows, dom, {0},
                                              StreamSeed(a.seed, 400), &cx);
    star_.base = RandomQuery<MinPlusSemiring>(StarGraph(3), base_rows, dom, {0},
                                              StreamSeed(a.seed, 500), &cx);
    MakePairs(&path_, half, dom, StreamSeed(a.seed, 410));
    MakePairs(&star_, half, dom, StreamSeed(a.seed, 510));
    Subscribe(*engine_, &path_);
    Subscribe(*engine_, &star_);
    for (int i = 0; i < kPointInstances; ++i) {
      QueryRequest req;
      req.query = RandomQuery<BooleanSemiring>(
          PathGraph(2), point_rows, uint64_t{1} << 20, {},
          StreamSeed(a.seed, 600 + i), &cx);
      req.tag = "point";
      points_.push_back(std::move(req));
    }
    for (const QueryRequest& r : points_) (void)engine_->Solve(r);  // warm up
  }

  void BuildOracle() override {
    for (const QueryRequest& r : points_)
      point_digest_.push_back(SerialDigest<BooleanSemiring>(r));
    BuildChurnOracle(&path_);
    BuildChurnOracle(&star_);
  }

  void CorruptOracle() override { path_.base_digest ^= 1; }

  PhaseResult Run(double seconds, obs::TraceSession* trace) override {
    uint32_t tracks[2] = {0, 0};
    if (trace != nullptr) {
      tracks[0] = trace->RegisterTrack("client 0 (writer)");
      tracks[1] = trace->RegisterTrack("client 1 (reader)");
    }
    Rng rng(StreamSeed(seed_, 700 + phase_++));
    return RunClosedLoop(2, seconds, [&](int c, int64_t i, ClientLog* log) {
      if (c == 0) {
        if (writes_++ % 2 == 0)
          ApplyNext(&path_, log, trace, tracks[0]);
        else
          ApplyNext(&star_, log, trace, tracks[0]);
      } else if (i % kReaderCycle == kReaderCycle - 1) {
        if ((i / kReaderCycle) % 2 == 0)
          Snapshot(path_, log, trace, tracks[1]);
        else
          Snapshot(star_, log, trace, tracks[1]);
      } else {
        const size_t p = rng.NextU64(kPointInstances);
        TimedSolve(*engine_, points_[p], point_digest_[p], "point", log, trace,
                   tracks[1]);
      }
    });
  }

  void ReportPhase(const PhaseResult& p, Report* r) override {
    auto cls = [&](const char* name) {
      auto it = p.log.by_class.find(name);
      return it == p.log.by_class.end() ? Samples() : it->second;
    };
    const Samples pts = cls("point"), deltas = cls("delta");
    r->Add("point_p50_ms", pts.Quantile(0.50), "ms", static_cast<int64_t>(pts.size()));
    r->Add("point_p99_ms", pts.Quantile(0.99), "ms", static_cast<int64_t>(pts.size()));
    r->Add("delta_p50_ms", deltas.Quantile(0.50), "ms",
           static_cast<int64_t>(deltas.size()));
    r->Add("delta_p95_ms", deltas.Quantile(0.95), "ms",
           static_cast<int64_t>(deltas.size()));
  }

  void Probe(LayerProbe* probe, const PhaseResult& traced, Report* r) override {
    for (size_t i = 0; i < points_.size(); ++i)
      probe->Query(std::get<FaqQuery<BooleanSemiring>>(points_[i].query),
                   Strategy::kAuto, /*point=*/true, 1.0 / kPointInstances,
                   point_digest_[i]);
    Samples apply;
    for (double ms : ReplicaApply(path_, probe)) apply.Add(ms);
    for (double ms : ReplicaApply(star_, probe)) apply.Add(ms);
    auto it = traced.log.by_class.find("delta");
    const double delta_mean = it == traced.log.by_class.end() ? 0.0 : it->second.Mean();
    const auto n = static_cast<int64_t>(apply.size());
    r->Add("ivm.apply_ms", apply.Mean(), "ms", n);
    r->Add("ivm.wait_ms", std::max(0.0, delta_mean - apply.Mean()), "ms", n);
    r->Add("ivm.apply_share", delta_mean > 0.0 ? apply.Mean() / delta_mean : 0.0,
           "ratio", n);
    StandingStats st;
    for (const StandingSession* s : {path_.session.get(), star_.session.get()}) {
      const StandingStats one = s->stats();
      st.deltas_applied += one.deltas_applied;
      st.ring_deltas += one.ring_deltas;
      st.nodes_updated += one.nodes_updated;
      st.nodes_reused += one.nodes_reused;
    }
    r->Add("ivm.ring_share",
           st.deltas_applied > 0
               ? static_cast<double>(st.ring_deltas) / st.deltas_applied
               : 0.0,
           "ratio", st.deltas_applied);
    const int64_t nodes = st.nodes_updated + st.nodes_reused;
    r->Add("ivm.reuse_ratio",
           nodes > 0 ? static_cast<double>(st.nodes_reused) / nodes : 0.0,
           "ratio", st.deltas_applied);
  }

  Engine& engine() override { return *engine_; }

 private:
  uint64_t seed_ = 0;
  int phase_ = 0;
  int64_t writes_ = 0;  ///< writer batches issued (alternates the sessions)
  std::unique_ptr<Engine> engine_;
  Churn<NaturalSemiring> path_;
  Churn<MinPlusSemiring> star_;
  std::vector<QueryRequest> points_;
  std::vector<uint64_t> point_digest_;
};

}  // namespace

std::unique_ptr<Workload> MakeIvmChurn() { return std::make_unique<IvmChurn>(); }

}  // namespace e2e
}  // namespace topofaq
