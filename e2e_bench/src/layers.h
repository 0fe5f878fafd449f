// The traced run's per-layer probes: direct calls into each layer's public
// functions on the workload's own queries, each wrapped in one of the
// benchmark's spans (no span is added inside src/). Every quantity is
// accumulated per workload operation — weighted by how often the workload
// issues that query — so a layer number reads as "ms of this layer per
// operation the client issued" and can be set against latency_p50_ms.
//
//   ghd.plan_cold_ms        PlanCache::PlanFor on a fresh cache
//   server.assess_us        AdmissionController::Assess
//   faq.solve_ms.p1/.pmax   the solver the request selects (YannakakisSolve
//                           for kAuto, BruteForceSolve for kBruteForce),
//                           with its own ExecContext at 1 / Nproc() workers
//   faq.bruteforce_ms       BruteForceSolve at Nproc() workers
//   relation.*              the request's plan replayed through the public
//                           operators (Join / Eliminate / Project /
//                           MultiwayJoin) at the engine's parallelism for the
//                           query's class; the replay's answer must be
//                           byte-equal to the oracle's
//   relation.canonicalize   Canonicalize of a shuffled copy of every input
#ifndef E2E_BENCH_LAYERS_H_
#define E2E_BENCH_LAYERS_H_

#include <algorithm>
#include <functional>
#include <numeric>
#include <vector>

#include "faq/solvers.h"
#include "harness.h"
#include "server/admission.h"

namespace topofaq {
namespace e2e {

/// Median wall ms of `reps` calls of f, each inside a span named `name`.
template <typename F>
double MedianMs(int reps, obs::TraceSession* tr, const char* name,
                uint32_t track, F&& f) {
  std::vector<double> ms;
  for (int i = 0; i < std::max(1, reps); ++i) {
    obs::Span sp(tr, name, track);
    const auto t0 = Clock::now();
    f();
    ms.push_back(MsSince(t0));
  }
  std::nth_element(ms.begin(), ms.begin() + ms.size() / 2, ms.end());
  return ms[ms.size() / 2];
}

/// Per-operation layer totals (weighted sums; divided by `weight` on
/// report).
struct LayerTotals {
  double weight = 0.0;
  double plan_cold_ms = 0.0;
  double assess_us = 0.0;
  double solve_p1_ms = 0.0;
  double solve_pmax_ms = 0.0;
  double brute_ms = 0.0;
  double canonicalize_ms = 0.0;
  double join_ms = 0.0;
  double eliminate_ms = 0.0;
  double project_ms = 0.0;
  double multiway_ms = 0.0;
  double replay_ms = 0.0;
  double sorts = 0.0;
  double sort_skips = 0.0;
  double comparisons = 0.0;
  double seeks = 0.0;
  double simd_blocks = 0.0;
  double scalar_fallbacks = 0.0;
  double morsels = 0.0;
  double rows_in = 0.0;
  double out_rows = 0.0;
  int64_t peak_rows = 0;
};

class LayerProbe {
 public:
  LayerProbe(obs::TraceSession* trace, int reps);

  /// Probes one query of the workload. `point`: the engine classifies it
  /// kPoint and runs it serially; `weight`: its share of the workload's
  /// operations; `expect`: the oracle digest every probed answer must match.
  template <CommutativeSemiring S>
  void Query(const FaqQuery<S>& q, Strategy strategy, bool point,
             double weight, uint64_t expect);

  /// Adds ghd.*, server.assess_us, faq.* and relation.* to the report.
  void Finish(Report* r) const;

  /// Counts one answer check; a digest differing from `expect` is an error.
  void Check(uint64_t got, uint64_t expect) {
    ++checks_;
    if (got != expect) ++mismatches_;
  }
  /// Counts `n` operations that failed outright as failed checks.
  void Fail(int64_t n = 1) {
    checks_ += n;
    mismatches_ += n;
  }
  int64_t checks() const { return checks_; }
  int64_t mismatches() const { return mismatches_; }
  obs::TraceSession* trace() const { return trace_; }
  uint32_t track() const { return track_; }
  int reps() const { return reps_; }

 private:
  template <CommutativeSemiring S>
  Relation<S> Replay(const FaqQuery<S>& q, Strategy strategy, ExecContext& cx,
                     LayerTotals* t);
  template <CommutativeSemiring S>
  Relation<S> ReplayGhd(const FaqQuery<S>& q, const Ghd& ghd, ExecContext& cx,
                        LayerTotals* t);
  template <CommutativeSemiring S>
  Relation<S> ReplayBruteForce(const FaqQuery<S>& q, ExecContext& cx,
                               LayerTotals* t);
  template <CommutativeSemiring S>
  Relation<S> TimedEliminate(Relation<S> r, const std::vector<VarId>& vars,
                             const FaqQuery<S>& q, ExecContext& cx,
                             LayerTotals* t);
  obs::TraceSession* trace_;
  uint32_t track_ = 0;
  int reps_;
  LayerTotals t_;
  int64_t checks_ = 0;
  int64_t mismatches_ = 0;
};

// --- Implementation -----------------------------------------------------------

template <CommutativeSemiring S>
Relation<S> UnitRel() {
  Relation<S> r{Schema(std::vector<VarId>{})};
  r.Add(std::initializer_list<Value>{}, S::One());
  r.Canonicalize();
  return r;
}

/// The solver the engine runs for `strategy` (Engine's kAuto: the GHD pass,
/// falling back to brute force when F ⊄ V(C(H))).
template <CommutativeSemiring S>
Result<Relation<S>> SolveAs(const FaqQuery<S>& q, Strategy strategy,
                            ExecContext* ctx) {
  if (strategy == Strategy::kBruteForce) return BruteForceSolve(q, ctx);
  Result<Relation<S>> r = YannakakisSolve(q, ctx);
  if (strategy == Strategy::kAuto && !r.ok() &&
      r.status().code() == StatusCode::kFailedPrecondition)
    return BruteForceSolve(q, ctx);
  return r;
}

/// Calls f on `q` as a FaqQuery<S> for the alternative S among Ss it holds
/// (false if none): a workload instantiates the kernel only for the
/// semirings it issues, not for all six of AnyQuery.
template <CommutativeSemiring... Ss, typename F>
bool VisitAs(const AnyQuery& q, F&& f) {
  return ((std::holds_alternative<FaqQuery<Ss>>(q) &&
           (f(std::get<FaqQuery<Ss>>(q)), true)) ||
          ...);
}

/// The oracle digest of a request: its solver at parallelism 1, called
/// directly (bit-identical to every parallelism by the determinism
/// contract, but sharing no engine code path). 0 if the solve fails.
template <CommutativeSemiring... Ss>
uint64_t SerialDigest(const QueryRequest& r) {
  uint64_t d = 0;
  VisitAs<Ss...>(r.query, [&](const auto& q) {
    ExecContext cx;
    cx.parallelism = 1;
    auto ans = SolveAs(q, r.strategy, &cx);
    if (ans.ok()) d = Digest(*ans);
  });
  return d;
}

template <CommutativeSemiring S>
void LayerProbe::Query(const FaqQuery<S>& q, Strategy strategy, bool point,
                       double weight, uint64_t expect) {
  obs::Span query_sp(trace_, "probe.query", track_);
  LayerTotals& t = t_;
  t.weight += weight;
  const int engine_par = point ? 1 : Nproc();

  // ghd: cold planning, one fresh cache per repetition.
  t.plan_cold_ms += weight * MedianMs(reps_, trace_, "ghd.plan_cold", track_, [&] {
    PlanCache fresh;
    auto w = fresh.PlanFor(q.hypergraph, q.free_vars);
    if (!w.ok()) fresh.Canonical(q.hypergraph);
  });

  // server: the admission bound evaluation alone.
  {
    std::vector<RelationProfile> profiles;
    for (const auto& r : q.relations) profiles.push_back(ProfileRelation(r));
    auto w = PlanCache::Shared().PlanFor(q.hypergraph, q.free_vars);
    const WidthResult width =
        w.ok() ? *std::move(w) : PlanCache::Shared().Canonical(q.hypergraph);
    const AdmissionController ac(BenchEngineOptions().admission);
    const uint64_t domain = q.DomainSize();
    constexpr int kAssessReps = 64;
    const double ms = MedianMs(reps_, trace_, "server.assess", track_, [&] {
      for (int i = 0; i < kAssessReps; ++i) {
        QueryBounds b = ac.Assess(q.hypergraph, profiles, q.free_vars.size(),
                                  domain, width);
        if (b.y < 0) std::abort();  // keeps the call observable
      }
    });
    t.assess_us += weight * ms * 1000.0 / kAssessReps;
  }

  // faq: the request's solver at 1 and Nproc() workers, then brute force.
  double p1 = 0.0, pmax = 0.0;
  for (int par : {1, Nproc()}) {
    ExecContext cx;
    cx.parallelism = par;
    uint64_t got = 0;
    const double ms = MedianMs(reps_, trace_, par == 1 ? "faq.solve_p1" : "faq.solve_pmax",
                               track_, [&] {
      cx.ResetStats();
      auto r = SolveAs(q, strategy, &cx);
      got = r.ok() ? Digest(*r) : ~expect;
      if (par == 1 && r.ok()) {
        const OpStats k = cx.Totals();
        t.rows_in += weight * static_cast<double>(k.rows_in) / reps_;
        t.out_rows += weight * static_cast<double>(std::max<size_t>(1, r->size())) / reps_;
      }
    });
    Check(got, expect);
    (par == 1 ? p1 : pmax) = ms;
  }
  t.solve_p1_ms += weight * p1;
  t.solve_pmax_ms += weight * pmax;
  {
    ExecContext cx;
    cx.parallelism = Nproc();
    t.brute_ms += weight * MedianMs(reps_, trace_, "faq.bruteforce", track_, [&] {
      auto r = BruteForceSolve(q, &cx);
      if (!r.ok()) Fail();
    });
  }

  // relation: the plan replayed operator by operator.
  {
    LayerTotals one;
    ExecContext cx;
    cx.parallelism = engine_par;
    uint64_t got = 0;
    for (int i = 0; i < std::max(1, reps_); ++i) {
      cx.ResetStats();
      obs::Span sp(trace_, "relation.replay", track_);
      const auto t0 = Clock::now();
      Relation<S> ans = Replay(q, strategy, cx, &one);
      one.replay_ms += MsSince(t0);
      got = Digest(ans);
    }
    Check(got, expect);
    const double inv = weight / std::max(1, reps_);
    t.join_ms += inv * one.join_ms;
    t.eliminate_ms += inv * one.eliminate_ms;
    t.project_ms += inv * one.project_ms;
    t.multiway_ms += inv * one.multiway_ms;
    t.replay_ms += inv * one.replay_ms;
    const OpStats k = cx.Totals();  // last repetition
    t.sorts += weight * static_cast<double>(k.sorts);
    t.sort_skips += weight * static_cast<double>(k.sort_skips);
    t.comparisons += weight * static_cast<double>(k.comparisons);
    t.seeks += weight * static_cast<double>(k.seeks);
    t.simd_blocks += weight * static_cast<double>(k.simd_blocks);
    t.scalar_fallbacks += weight * static_cast<double>(k.scalar_fallbacks);
    t.morsels += weight * static_cast<double>(k.morsels);
    t.peak_rows = std::max(t.peak_rows, k.peak_rows);
  }

  // relation: canonicalizing each input from a shuffled copy.
  {
    ExecContext cx;
    cx.parallelism = engine_par;
    double ms = 0.0;
    for (size_t e = 0; e < q.relations.size(); ++e) {
      const Relation<S>& src = q.relations[e];
      std::vector<size_t> order(src.size());
      std::iota(order.begin(), order.end(), size_t{0});
      Rng rng(StreamSeed(0x5eed, e));
      rng.Shuffle(&order);
      Relation<S> shuffled{src.schema()};
      std::vector<Value> row(src.arity());
      for (size_t i : order) {
        for (size_t j = 0; j < row.size(); ++j) row[j] = src.at(i, j);
        shuffled.Add(std::span<const Value>(row), src.annot(i));
      }
      ms += MedianMs(reps_, trace_, "relation.canonicalize", track_, [&] {
        Relation<S> copy = shuffled;
        copy.Canonicalize(&cx);
      });
    }
    t.canonicalize_ms += weight * ms;
  }
}

template <CommutativeSemiring S>
Relation<S> LayerProbe::TimedEliminate(Relation<S> r,
                                       const std::vector<VarId>& vars,
                                       const FaqQuery<S>& q, ExecContext& cx,
                                       LayerTotals* t) {
  std::vector<VarOp> ops;
  for (VarId v : vars) ops.push_back(q.OpFor(v));
  obs::Span sp(trace_, "relation.eliminate", track_);
  const auto t0 = Clock::now();
  Relation<S> out = Eliminate(std::move(r), vars, std::move(ops), &cx);
  t->eliminate_ms += MsSince(t0);
  return out;
}

/// Mirrors YannakakisSolveOn: the upward pass with per-node aggregate
/// push-down, then the root elimination and the projection onto F.
template <CommutativeSemiring S>
Relation<S> LayerProbe::ReplayGhd(const FaqQuery<S>& q, const Ghd& ghd,
                                  ExecContext& cx, LayerTotals* t) {
  std::vector<Relation<S>> state(ghd.num_nodes());
  for (int v = 0; v < ghd.num_nodes(); ++v) {
    const int e = ghd.node(v).edge_id;
    state[v] = e >= 0 ? q.relations[e] : UnitRel<S>();
  }
  for (int v : ghd.BottomUpOrder()) {
    for (int c : ghd.node(v).children) {
      obs::Span sp(trace_, "relation.join", track_);
      const auto t0 = Clock::now();
      state[v] = Join(state[v], state[c], &cx);
      t->join_ms += MsSince(t0);
    }
    if (v == ghd.root()) break;
    const auto& parent_chi = ghd.node(ghd.node(v).parent).chi;
    std::vector<VarId> private_vars;
    for (VarId x : state[v].schema().vars())
      if (!std::binary_search(parent_chi.begin(), parent_chi.end(), x))
        private_vars.push_back(x);
    state[v] = TimedEliminate(std::move(state[v]), private_vars, q, cx, t);
  }
  Relation<S>& root = state[ghd.root()];
  std::vector<VarId> bound;
  for (VarId v : root.schema().vars())
    if (std::find(q.free_vars.begin(), q.free_vars.end(), v) ==
        q.free_vars.end())
      bound.push_back(v);
  root = TimedEliminate(std::move(root), bound, q, cx, t);
  obs::Span sp(trace_, "relation.project", track_);
  const auto t0 = Clock::now();
  Relation<S> out = Project(root, q.free_vars, &cx);
  t->project_ms += MsSince(t0);
  return out;
}

/// Mirrors BruteForceSolve: per variable-connected component, MultiwayJoin
/// for three or more relations (pairwise Join otherwise), eliminate the
/// component's bound variables, cross-combine, project onto F.
template <CommutativeSemiring S>
Relation<S> LayerProbe::ReplayBruteForce(const FaqQuery<S>& q,
                                         ExecContext& cx, LayerTotals* t) {
  const size_t n = q.relations.size();
  std::vector<int> comp(n);
  std::iota(comp.begin(), comp.end(), 0);
  std::function<int(int)> find = [&](int x) {
    return comp[x] == x ? x : comp[x] = find(comp[x]);
  };
  std::map<VarId, int> first_part;
  for (size_t i = 0; i < n; ++i)
    for (VarId v : q.relations[i].schema().vars()) {
      auto [it, inserted] = first_part.emplace(v, static_cast<int>(i));
      if (!inserted) comp[find(static_cast<int>(i))] = find(it->second);
    }
  auto timed_join = [&](const Relation<S>& a, const Relation<S>& b) {
    obs::Span sp(trace_, "relation.join", track_);
    const auto t0 = Clock::now();
    Relation<S> out = Join(a, b, &cx);
    t->join_ms += MsSince(t0);
    return out;
  };
  Relation<S> acc = UnitRel<S>();
  for (size_t root = 0; root < n; ++root) {
    if (find(static_cast<int>(root)) != static_cast<int>(root)) continue;
    std::vector<Relation<S>> members;
    for (size_t i = 0; i < n; ++i)
      if (find(static_cast<int>(i)) == static_cast<int>(root))
        members.push_back(q.relations[i]);
    Relation<S> part;
    if (members.size() >= 3) {
      obs::Span sp(trace_, "relation.multiway", track_);
      const auto t0 = Clock::now();
      part = MultiwayJoin(std::move(members), &cx);
      t->multiway_ms += MsSince(t0);
    } else {
      part = UnitRel<S>();
      for (const Relation<S>& m : members) part = timed_join(part, m);
    }
    std::vector<VarId> bound;
    for (VarId v : part.schema().vars())
      if (std::find(q.free_vars.begin(), q.free_vars.end(), v) ==
          q.free_vars.end())
        bound.push_back(v);
    part = TimedEliminate(std::move(part), bound, q, cx, t);
    acc = timed_join(acc, part);
  }
  obs::Span sp(trace_, "relation.project", track_);
  const auto t0 = Clock::now();
  Relation<S> out = Project(acc, q.free_vars, &cx);
  t->project_ms += MsSince(t0);
  return out;
}

template <CommutativeSemiring S>
Relation<S> LayerProbe::Replay(const FaqQuery<S>& q, Strategy strategy,
                               ExecContext& cx, LayerTotals* t) {
  if (strategy != Strategy::kBruteForce) {
    auto w = PlanCache::Shared().PlanFor(q.hypergraph, q.free_vars);
    if (w.ok()) {
      const Ghd& ghd = w->decomposition.ghd;
      const auto& root_chi = ghd.node(ghd.root()).chi;
      bool covered = true;
      for (VarId v : q.free_vars)
        covered = covered &&
                  std::binary_search(root_chi.begin(), root_chi.end(), v);
      if (covered) return ReplayGhd(q, ghd, cx, t);
    }
  }
  return ReplayBruteForce(q, cx, t);
}

}  // namespace e2e
}  // namespace topofaq

#endif  // E2E_BENCH_LAYERS_H_
