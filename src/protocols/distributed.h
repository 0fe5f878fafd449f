// The paper's distributed protocols on the SyncNetwork round ledger:
//
//  * RunTrivialProtocol    — ship every relation to the sink and solve
//                            locally (Lemma 3.1, cost τ_MCF).
//  * RunCoreForestProtocol — the main upper bound (Theorems 4.1 / 5.2,
//                            Algorithms 1–3): process the GYO-GHD bottom-up;
//                            each star is one broadcast of the center
//                            relation plus one aggregated set-intersection
//                            over a packed family of edge-disjoint Steiner
//                            trees (Theorem 3.11); the leftover core is
//                            finished with the trivial protocol.
//
// Both run the one star-elimination body (protocols/star_elimination.h)
// over SyncTransport, which charges each exchange round by round with exact
// capacity accounting on one serial round clock: stars run one after
// another, and relation payloads are computed at the owning node exactly
// when the simulated transfer completes.
#ifndef TOPOFAQ_PROTOCOLS_DISTRIBUTED_H_
#define TOPOFAQ_PROTOCOLS_DISTRIBUTED_H_

#include <algorithm>
#include <utility>
#include <vector>

#include "network/primitives.h"
#include "network/simulator.h"
#include "protocols/star_elimination.h"

namespace topofaq {

/// Options for both synchronous protocols.
struct CoreForestOptions {
  /// Kernel parallelism for the simulated local computations (morsel-parallel
  /// operators, docs/kernel.md). 0 inherits the process default
  /// (TOPOFAQ_PARALLELISM, else 1); answers are bit-identical either way.
  int parallelism = 0;
};

namespace internal {

/// The round-ledger transport adapter of the star-elimination body. Every
/// operation completes at once; `round_` is the serial round clock.
template <CommutativeSemiring S>
class SyncTransport {
 public:
  SyncTransport(SyncNetwork* net, DistDerived d) : net_(net), d_(d) {}

  template <class Fn>
  void Compute(const char*, NodeId, size_t, Fn fn) { fn(); }

  // Algorithm 1/2/3 star step among K_star = the center owner and the leaf
  // owners. One Steiner-tree packing, every tree rooted at the center
  // owner, serves both phases: step 3's broadcast of the center relation
  // flows down the trees in chunks, and the Theorem 3.11 combine flows up
  // as a pipelined convergecast of the |R_center| aggregated values — which
  // is what carries the leaf messages, so Reply is free.
  template <class AtLeaf>
  void StarExchange(int center, NodeId owner, const Relation<S>& rel,
                    const std::vector<NodeId>& kid_owners, AtLeaf at_leaf) {
    std::vector<NodeId> k_star = kid_owners;
    k_star.push_back(owner);
    std::sort(k_star.begin(), k_star.end());
    k_star.erase(std::unique(k_star.begin(), k_star.end()), k_star.end());
    const int64_t n_items = static_cast<int64_t>(rel.size());
    if (k_star.size() > 1 && n_items > 0) {
      const Graph& g = net_->graph();
      const int64_t center_bits = rel.EncodedBits(d_.bits_per_attr);
      const int64_t star_bits = center_bits + n_items * S::kValueBits;
      IntersectionPlan plan = PlanIntersection(
          g, k_star, std::max<int64_t>(1, CeilDiv(star_bits, d_.capacity_bits)),
          kPlanSeed + center);
      std::vector<RootedTree> trees;
      for (const auto& t : plan.trees)
        trees.push_back(OrientTree(g, t.edges, owner));
      round_ = MultiTreeBroadcast(net_, trees, center_bits, round_);
      const int64_t chunk =
          CeilDiv(n_items, static_cast<int64_t>(trees.size()));
      int64_t finish = round_;
      for (const RootedTree& tree : trees)
        finish = std::max(finish, ConvergecastItems(net_, tree, chunk,
                                                    S::kValueBits, round_));
      round_ = finish;
    }
    for (size_t k = 0; k < kid_owners.size(); ++k) at_leaf(k);
  }

  template <class Done>
  void Reply(NodeId, NodeId, Relation<S> msg, Done done) {
    done(std::move(msg));
  }

  template <class Done>
  void Send(NodeId from, NodeId to, Relation<S> rel, Done done) {
    if (from != to)
      round_ = UnicastBits(
          net_, from, to,
          std::max<int64_t>(1, rel.EncodedBits(d_.bits_per_attr)), round_);
    done(std::move(rel));
  }

  template <class Done>
  void Gather(const std::vector<std::pair<NodeId, const Relation<S>*>>& parts,
              NodeId sink, std::vector<Relation<S>>* out, Done done) {
    std::vector<FlowDemand> demands;
    for (const auto& [owner, rel] : parts) {
      if (owner != sink)
        demands.push_back({owner, rel->EncodedBits(d_.bits_per_attr)});
      out->push_back(*rel);
    }
    if (!demands.empty()) round_ = GatherFlows(net_, demands, sink, round_);
    done();
  }

  void Run() {}

  void Fill(ProtocolStats* st) const {
    st->rounds = round_;
    st->total_bits = net_->total_bits();
  }

 private:
  SyncNetwork* net_;
  DistDerived d_;
  int64_t round_ = 0;
};

template <CommutativeSemiring S>
Result<ProtocolResult<S>> RunSync(const DistInstance<S>& inst, Plan plan,
                                  const CoreForestOptions& opts) {
  auto d = inst.Derived();
  if (!d.ok()) return d.status();
  auto ghd = PlanFor(inst.query, plan);
  if (!ghd.ok()) return ghd.status();
  auto net = SyncNetwork::Create(inst.topology, d->capacity_bits);
  if (!net.ok()) return net.status();
  SyncTransport<S> transport(&net.value(), *d);
  return StarElimination(inst, *ghd, &transport, opts.parallelism).Run();
}

}  // namespace internal

/// Lemma 3.1: gather all relations at the sink, solve centrally.
template <CommutativeSemiring S>
Result<ProtocolResult<S>> RunTrivialProtocol(
    const DistInstance<S>& inst, const CoreForestOptions& opts = {}) {
  return internal::RunSync(inst, internal::Plan::kGatherAll, opts);
}

/// The Theorem 4.1 / 5.2 protocol. Works for any assignment of relations to
/// players; requires F ⊆ V(C(H)) (Appendix G.5).
template <CommutativeSemiring S>
Result<ProtocolResult<S>> RunCoreForestProtocol(
    const DistInstance<S>& inst, const CoreForestOptions& opts = {}) {
  return internal::RunSync(inst, internal::Plan::kCoreForest, opts);
}

/// BCQ wrapper: runs the structured protocol, answer is satisfiability.
inline Result<bool> RunBcqProtocol(const DistInstance<BooleanSemiring>& inst,
                                   ProtocolStats* stats = nullptr,
                                   const CoreForestOptions& opts = {}) {
  auto r = RunCoreForestProtocol(inst, opts);
  if (!r.ok()) return r.status();
  if (stats != nullptr) *stats = r->stats;
  return !r->answer.empty();
}

}  // namespace topofaq

#endif  // TOPOFAQ_PROTOCOLS_DISTRIBUTED_H_
