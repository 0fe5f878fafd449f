// The one body of the paper's distributed protocols, written once and run
// over either transport (protocols/distributed.h: the SyncNetwork round
// ledger; protocols/async.h: the event-driven streaming simulator).
//
// The body is the Theorem 4.1 / 5.2 star elimination (Algorithms 1–3) over a
// decomposition: every internal GHD node below the root is one star, and a
// star can start once the stars of its internal children have folded their
// subtrees into them. A star gets its center relation to the leaf owners,
// each leaf computes its functional message — the leaf relation with its
// private bound variables aggregated out (Corollary G.2) — and ships it back,
// and the center folds the messages in kid order. The root is finished
// either as a star center (eliminate, project, ship the answer to the sink)
// or, for the synthetic core bag, by gathering the surviving relations at
// the sink and solving the residual core there (Lemma 4.2 / F.2).
//
// The trivial protocol (Lemma 3.1) is the same body on a decomposition with
// no stars: a synthetic root over one leaf per relation, so every relation
// is gathered to the sink and solved there.
//
// A transport adapter is a template parameter (no virtual dispatch) with
// these members; every continuation may run at once (sync) or later, from
// the adapter's event loop (async):
//
//   Compute(stage, node, rows, fn)     run node-local kernel work fn()
//   StarExchange(center, owner, rel, kid_owners, at_leaf)
//                                      get the center relation to the leaf
//                                      owners, then at_leaf(k) per kid k
//   Reply(from, to, msg, done)         leaf message back to the center
//   Send(from, to, rel, done)          root answer to the sink
//   Gather(parts, sink, out, done)     (owner, relation) parts into *out at
//                                      the sink, then done()
//   Run()                              drain pending continuations
//   Fill(stats)                        the transport's cost counters
//
// Both adapters feed the same kernel operations the same operands in the
// same order, so answers are bit-identical — per column and per annotation
// bit pattern, the columnar kernel's determinism contract (docs/kernel.md) —
// across transports and to the centralized solvers.
#ifndef TOPOFAQ_PROTOCOLS_STAR_ELIMINATION_H_
#define TOPOFAQ_PROTOCOLS_STAR_ELIMINATION_H_

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "faq/solvers.h"
#include "ghd/width.h"
#include "protocols/instance.h"

namespace topofaq {
namespace internal {

/// Decomposition search knobs of the structured protocol: width-minimization
/// restarts and the seed shared with the Steiner-tree packing.
inline constexpr int kWidthRestarts = 8;
inline constexpr uint64_t kPlanSeed = 0xfa0;

/// The decomposition the structured protocol runs on: width-minimized,
/// re-rooted so F ⊆ χ(root) when F is non-empty, with the Appendix G.5
/// precondition checked.
template <CommutativeSemiring S>
Result<WidthResult> CoreForestDecomposition(const FaqQuery<S>& q,
                                            int width_restarts,
                                            uint64_t seed) {
  WidthResult w;
  if (q.free_vars.empty()) {
    w = width_restarts > 0 ? MinimizeWidth(q.hypergraph, width_restarts, seed)
                           : ComputeWidth(q.hypergraph);
  } else {
    std::vector<VarId> f = q.free_vars;
    std::sort(f.begin(), f.end());
    auto rooted = MinimizeWidthWithRoot(q.hypergraph, f, width_restarts, seed);
    if (!rooted.ok()) return rooted.status();
    w = std::move(rooted.value());
  }
  const Ghd& ghd = w.decomposition.ghd;
  const auto& root_chi = ghd.node(ghd.root()).chi;
  for (VarId v : q.free_vars)
    if (!std::binary_search(root_chi.begin(), root_chi.end(), v))
      return Status::FailedPrecondition(
          "free variable outside V(C(H)) (Appendix G.5)");
  return w;
}

/// Which decomposition the body runs: the star-less gather-everything one
/// (the trivial protocol) or the core forest.
enum class Plan { kGatherAll, kCoreForest };

template <CommutativeSemiring S>
Result<Ghd> PlanFor(const FaqQuery<S>& q, Plan plan) {
  if (plan == Plan::kCoreForest) {
    auto w = CoreForestDecomposition(q, kWidthRestarts, kPlanSeed);
    if (!w.ok()) return w.status();
    return std::move(w->decomposition.ghd);
  }
  const Hypergraph& h = q.hypergraph;
  Ghd ghd;
  GhdNode node;
  node.chi = h.UsedVertices();
  ghd.set_root(ghd.AddNode(node));
  for (int e = 0; e < h.num_edges(); ++e) {
    node.chi = h.edge(e);
    node.edge_id = e;
    ghd.SetParent(ghd.AddNode(node), ghd.root());
  }
  return ghd;
}

template <CommutativeSemiring S, class Transport>
class StarElimination {
 public:
  /// With `parallelism` (or TOPOFAQ_PARALLELISM) > 1 every join and
  /// elimination a node computes fans out into morsels on the worker pool;
  /// answers are bit-identical either way.
  StarElimination(const DistInstance<S>& inst, const Ghd& ghd, Transport* net,
                  int parallelism)
      : inst_(inst), ghd_(ghd), net_(net) {
    if (parallelism > 0) ctx_.parallelism = parallelism;
  }

  ProtocolResult<S> Run() {
    // Each GHD node starts at its input relation, read in place until a
    // fold replaces it, held by that relation's player; the synthetic core
    // bag starts as the unit relation at the sink.
    const int n = ghd_.num_nodes();
    folded_.resize(n);
    rel_.resize(n);
    owner_.resize(n);
    for (int v = 0; v < n; ++v) {
      const int e = ghd_.node(v).edge_id;
      if (e < 0) folded_[v] = UnitRelation<S>();
      rel_[v] = e >= 0 ? &inst_.query.relations[e] : &folded_[v];
      owner_[v] = e >= 0 ? inst_.owners[e] : inst_.sink;
    }
    // The star DAG: BottomUpOrder creates every star after its child stars.
    std::vector<int> star_of(n, -1), ready;
    for (int center : ghd_.BottomUpOrder()) {
      if (center == ghd_.root() && ghd_.node(center).edge_id < 0) break;
      if (ghd_.node(center).children.empty()) continue;
      const int i = star_of[center] = static_cast<int>(stars_.size());
      Star& s = stars_.emplace_back();
      s.center = center;
      s.kids = ghd_.node(center).children;
      for (int c : s.kids)
        if (star_of[c] >= 0) {
          ++s.deps;
          stars_[star_of[c]].dependents.push_back(i);
        }
      if (s.deps == 0) ready.push_back(i);
    }
    if (stars_.empty()) Finish();
    for (int i : ready) StartStar(i);
    net_->Run();
    TOPOFAQ_CHECK_MSG(answer_.has_value(), "star elimination did not complete");
    ProtocolResult<S> out{std::move(*answer_), {}};
    net_->Fill(&out.stats);
    out.stats.kernel = ctx_.Totals();
    return out;
  }

 private:
  struct Star {
    int center = -1;
    std::vector<int> kids;
    int deps = 0;     // unfinished child stars
    int pending = 0;  // leaf messages not yet at the center owner
    std::vector<Relation<S>> messages;  // as delivered, kid order
    std::vector<int> dependents;        // stars waiting on this one
  };

  void StartStar(int i) {
    Star& s = stars_[i];
    s.pending = static_cast<int>(s.kids.size());
    s.messages.resize(s.kids.size());
    std::vector<NodeId> kid_owners;
    for (int c : s.kids) kid_owners.push_back(owner_[c]);
    net_->StarExchange(s.center, owner_[s.center], *rel_[s.center],
                       kid_owners, [this, i](size_t k) { LeafMessage(i, k); });
  }

  // Leaf side: aggregate out the private bound variables (Corollary G.2)
  // and reply to the center owner with the functional message.
  void LeafMessage(int i, size_t k) {
    const int c = stars_[i].kids[k];
    net_->Compute("compute_message", owner_[c], rel_[c]->size(),
                  [this, i, k, c] {
      const int center = stars_[i].center;
      const Schema& center_schema = rel_[center]->schema();
      std::vector<VarId> private_vars;
      for (VarId x : rel_[c]->schema().vars())
        if (!center_schema.Contains(x)) private_vars.push_back(x);
      net_->Reply(owner_[c], owner_[center],
                  EliminateAll(*rel_[c], private_vars, inst_.query, &ctx_),
                  [this, i, k](Relation<S> m) {
                    Star& s = stars_[i];
                    s.messages[k] = std::move(m);
                    if (--s.pending == 0) Fold(i);
                  });
    });
  }

  // Center side: R'_center = R_center ⊗ Π message_k in kid order (message
  // schemas are subsets of the center's), then release dependent stars.
  void Fold(int i) {
    const int center = stars_[i].center;
    size_t rows = rel_[center]->size();
    for (const Relation<S>& m : stars_[i].messages) rows += m.size();
    net_->Compute("star_join", owner_[center], rows, [this, i, center] {
      Star& s = stars_[i];
      for (const Relation<S>& m : s.messages) {
        folded_[center] = Join(*rel_[center], m, &ctx_);
        rel_[center] = &folded_[center];
      }
      s.messages.clear();
      if (++stars_done_ == stars_.size()) return Finish();
      for (int dep : s.dependents)
        if (--stars_[dep].deps == 0) StartStar(dep);
    });
  }

  void Finish() {
    const int root = ghd_.root();
    if (ghd_.node(root).edge_id >= 0) {
      // The root was the last star center (or the only bag): eliminate its
      // remaining bound variables locally and ship the answer to the sink.
      const NodeId ro = owner_[root];
      net_->Compute("finish", ro, rel_[root]->size(), [this, ro, root] {
        const std::vector<VarId>& f = inst_.query.free_vars;
        std::vector<VarId> bound;
        for (VarId v : rel_[root]->schema().vars())
          if (std::find(f.begin(), f.end(), v) == f.end()) bound.push_back(v);
        Relation<S> acc = EliminateAll(*rel_[root], bound, inst_.query, &ctx_);
        net_->Send(ro, inst_.sink, Project(acc, f, &ctx_),
                   [this](Relation<S> a) { answer_ = std::move(a); });
      });
      return;
    }
    // Synthetic core bag: gather the root's children at the sink and solve
    // the residual core there. JoinAndEliminate routes a cyclic core through
    // the worst-case-optimal MultiwayJoin, so the sink's local computation
    // stays within the core's output size.
    std::vector<std::pair<NodeId, const Relation<S>*>> parts;
    for (int c : ghd_.node(root).children)
      parts.emplace_back(owner_[c], rel_[c]);
    net_->Gather(parts, inst_.sink, &gathered_, [this] {
      size_t rows = 0;
      for (const Relation<S>& r : gathered_) rows += r.size();
      net_->Compute("solve", inst_.sink, rows, [this] {
        Relation<S> acc =
            JoinAndEliminate(std::move(gathered_), inst_.query, &ctx_);
        answer_ = Project(acc, inst_.query.free_vars, &ctx_);
      });
    });
  }

  const DistInstance<S>& inst_;
  const Ghd& ghd_;
  Transport* net_;
  ExecContext ctx_;  // one context for every local computation
  std::vector<const Relation<S>*> rel_;  // current relation per GHD node
  std::vector<Relation<S>> folded_;      // owned: folded centers, unit bag
  std::vector<NodeId> owner_;            // player holding *rel_[v]
  std::vector<Star> stars_;
  size_t stars_done_ = 0;
  std::vector<Relation<S>> gathered_;  // core-bag parts as received
  std::optional<Relation<S>> answer_;  // set once the sink holds it
};

}  // namespace internal
}  // namespace topofaq

#endif  // TOPOFAQ_PROTOCOLS_STAR_ELIMINATION_H_
