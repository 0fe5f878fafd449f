// Centralized FAQ solver tests: Yannakakis/GHD message passing vs brute
// force across semirings, query shapes and aggregate mixes; BCQ, natural
// join, semijoin and PGM-marginal specializations (Appendix G.1).
#include <gtest/gtest.h>

#include "faq/query.h"
#include "faq/solvers.h"
#include "hypergraph/generators.h"
#include "relation/reference_ops.h"
#include "util/rng.h"

namespace topofaq {
namespace {

template <CommutativeSemiring S>
Relation<S> RandomRelation(const std::vector<VarId>& vars, int tuples,
                           uint64_t domain, Rng* rng,
                           typename S::Value (*val)(Rng*)) {
  Relation<S> r{Schema(vars)};
  for (int i = 0; i < tuples; ++i) {
    std::vector<Value> row;
    for (size_t j = 0; j < vars.size(); ++j) row.push_back(rng->NextU64(domain));
    r.Add(row, val(rng));
  }
  r.Canonicalize();
  return r;
}

uint64_t NatVal(Rng* rng) { return rng->NextU64(4) + 1; }
uint8_t BoolVal(Rng*) { return 1; }
double CountVal(Rng* rng) { return static_cast<double>(rng->NextU64(4) + 1); }

template <CommutativeSemiring S>
FaqQuery<S> RandomFaqSS(const Hypergraph& h, int tuples, uint64_t domain,
                        Rng* rng, typename S::Value (*val)(Rng*),
                        std::vector<VarId> free_vars) {
  std::vector<Relation<S>> rels;
  for (int e = 0; e < h.num_edges(); ++e)
    rels.push_back(RandomRelation<S>(h.edge(e), tuples, domain, rng, val));
  return MakeFaqSS<S>(h, std::move(rels), std::move(free_vars));
}

TEST(BruteForce, TriangleCountingByHand) {
  // Count of triangles via (ℕ, +, ×): H = 3-cycle, F = ∅.
  Hypergraph h = CycleGraph(3);
  std::vector<Relation<NaturalSemiring>> rels;
  for (int e = 0; e < 3; ++e) {
    Relation<NaturalSemiring> r{Schema(h.edge(e))};
    // Complete bipartite-ish data on domain {0,1}: every pair present.
    r.Add({0, 0}, 1);
    r.Add({0, 1}, 1);
    r.Add({1, 0}, 1);
    r.Add({1, 1}, 1);
    rels.push_back(std::move(r));
  }
  auto q = MakeFaqSS<NaturalSemiring>(h, std::move(rels), {});
  auto res = BruteForceSolve(q);
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res->size(), 1u);
  EXPECT_EQ(res->annot(0), 8u);  // 2^3 assignments all satisfy
}

TEST(BruteForce, BcqDetectsEmptyJoin) {
  Hypergraph h = PathGraph(2);  // R(0,1), S(1,2)
  Relation<BooleanSemiring> r{Schema({0, 1})}, s{Schema({1, 2})};
  r.Add({1, 5});
  s.Add({6, 2});  // no shared B value
  auto q = MakeBcq(h, {r, s});
  auto res = BruteForceSolve(q);
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res->empty());
}

TEST(Yannakakis, MatchesBruteForceOnPaperH2) {
  Rng rng(31);
  for (int iter = 0; iter < 15; ++iter) {
    auto q = RandomFaqSS<NaturalSemiring>(PaperH2(), 12, 3, &rng, NatVal, {});
    auto bf = BruteForceSolve(q);
    auto yk = YannakakisSolve(q);
    ASSERT_TRUE(bf.ok() && yk.ok());
    EXPECT_TRUE(bf->EqualsAsFunction(*yk));
  }
}

TEST(Yannakakis, MatchesBruteForceOnStar) {
  Rng rng(32);
  for (int iter = 0; iter < 15; ++iter) {
    auto q = RandomFaqSS<NaturalSemiring>(StarGraph(4), 10, 3, &rng, NatVal, {});
    auto bf = BruteForceSolve(q);
    auto yk = YannakakisSolve(q);
    ASSERT_TRUE(bf.ok() && yk.ok());
    EXPECT_TRUE(bf->EqualsAsFunction(*yk));
  }
}

TEST(Yannakakis, HandlesCyclicCores) {
  Rng rng(33);
  for (int iter = 0; iter < 15; ++iter) {
    for (const Hypergraph& h : {CycleGraph(4), PaperH3(), CliqueGraph(4)}) {
      auto q = RandomFaqSS<NaturalSemiring>(h, 8, 3, &rng, NatVal, {});
      auto bf = BruteForceSolve(q);
      auto yk = YannakakisSolve(q);
      ASSERT_TRUE(bf.ok() && yk.ok());
      EXPECT_TRUE(bf->EqualsAsFunction(*yk)) << h.DebugString();
    }
  }
}

TEST(Yannakakis, FreeVariablesInsideCoreBag) {
  // F = the root-edge variables of a star (factor-marginal style).
  Rng rng(34);
  Hypergraph h = PaperH1();
  for (int iter = 0; iter < 10; ++iter) {
    auto q = RandomFaqSS<CountingSemiring>(h, 10, 3, &rng, CountVal, {0});
    auto bf = BruteForceSolve(q);
    auto yk = YannakakisSolve(q);
    ASSERT_TRUE(bf.ok() && yk.ok());
    EXPECT_TRUE(bf->EqualsAsFunction(*yk));
  }
}

TEST(Yannakakis, LeafPrivateFreeVariableWorksViaRerooting) {
  // F = {B} sits in the bag (A,B): the solver re-roots the join tree there
  // (MinimizeWidthWithRoot), extending the paper's F ⊆ V(C(H)) restriction
  // to any F covered by a single bag of an acyclic H.
  Rng rng(35);
  auto q = RandomFaqSS<NaturalSemiring>(PaperH1(), 8, 3, &rng, NatVal,
                                        /*free=*/{1});
  auto yk = YannakakisSolve(q);
  ASSERT_TRUE(yk.ok()) << yk.status().ToString();
  auto bf = BruteForceSolve(q);
  ASSERT_TRUE(bf.ok());
  EXPECT_TRUE(bf->EqualsAsFunction(*yk));
}

TEST(Yannakakis, RejectsFreeVariablesNoBagCovers) {
  // F = {B, C}: no hyperedge of H1 contains both, so no valid root exists
  // (Appendix G.5 restriction).
  Rng rng(41);
  auto q = RandomFaqSS<NaturalSemiring>(PaperH1(), 8, 3, &rng, NatVal,
                                        /*free=*/{1, 2});
  auto yk = YannakakisSolve(q);
  EXPECT_FALSE(yk.ok());
  EXPECT_EQ(yk.status().code(), StatusCode::kFailedPrecondition);
}

TEST(Yannakakis, GeneralFaqWithMixedAggregates) {
  // Bound variables carry kMax / kMin semiring aggregates (Eq. (4)): the
  // Theorem G.1 swap conditions hold over (ℝ≥0, ·), so GHD evaluation must
  // match the canonical innermost-first order.
  Rng rng(36);
  Hypergraph h = PaperH1();  // leaves B,C,D,E are degree-1
  for (int iter = 0; iter < 15; ++iter) {
    auto q = RandomFaqSS<CountingSemiring>(h, 10, 3, &rng, CountVal, {0});
    q.var_ops[1] = VarOp::kMax;
    q.var_ops[2] = VarOp::kMin;
    q.var_ops[3] = VarOp::kMax;
    auto bf = BruteForceSolve(q);
    auto yk = YannakakisSolve(q);
    ASSERT_TRUE(bf.ok() && yk.ok());
    EXPECT_TRUE(bf->EqualsAsFunction(*yk));
  }
}

TEST(Yannakakis, ProductAggregateOnBoundVariableIsRejected) {
  Rng rng(40);
  auto q = RandomFaqSS<CountingSemiring>(PaperH1(), 8, 3, &rng, CountVal, {0});
  q.var_ops[1] = VarOp::kProduct;
  auto res = YannakakisSolve(q);
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kUnimplemented);
}

TEST(Faq, PgmMarginalSumsToPartitionFunction) {
  // A chain PGM: marginalizing a factor and then summing it out equals the
  // partition function computed directly.
  Rng rng(37);
  Hypergraph h = PathGraph(3);
  std::vector<Relation<CountingSemiring>> rels;
  for (int e = 0; e < h.num_edges(); ++e)
    rels.push_back(
        RandomRelation<CountingSemiring>(h.edge(e), 6, 2, &rng, CountVal));
  auto marginal_q = MakeFactorMarginal(h, rels, /*marginal_edge=*/0);
  auto z_q = MakeFaqSS<CountingSemiring>(h, rels, {});
  auto marginal = BruteForceSolve(marginal_q);
  auto z = BruteForceSolve(z_q);
  ASSERT_TRUE(marginal.ok() && z.ok());
  double sum = 0;
  for (size_t i = 0; i < marginal->size(); ++i) sum += marginal->annot(i);
  double zval = z->empty() ? 0.0 : z->annot(0);
  EXPECT_NEAR(sum, zval, 1e-9 * std::max(1.0, zval));
}

TEST(Faq, NaturalJoinMatchesRelationalJoin) {
  Rng rng(38);
  Hypergraph h = PathGraph(2);
  for (int iter = 0; iter < 10; ++iter) {
    auto r0 = RandomRelation<BooleanSemiring>(h.edge(0), 10, 3, &rng, BoolVal);
    auto r1 = RandomRelation<BooleanSemiring>(h.edge(1), 10, 3, &rng, BoolVal);
    auto q = MakeNaturalJoin(h, {r0, r1});
    auto res = BruteForceSolve(q);
    ASSERT_TRUE(res.ok());
    auto expected = Project(Join(r0, r1), q.free_vars);
    EXPECT_TRUE(res->EqualsAsFunction(expected));
  }
}

TEST(Faq, SemijoinAsFaq) {
  // Appendix G.1: semijoin = FAQ with F = ar(R1) over the Boolean semiring.
  Rng rng(39);
  Hypergraph h(3, {{0, 1}, {1, 2}});
  auto r0 = RandomRelation<BooleanSemiring>(h.edge(0), 12, 3, &rng, BoolVal);
  auto r1 = RandomRelation<BooleanSemiring>(h.edge(1), 12, 3, &rng, BoolVal);
  auto q = MakeFaqSS<BooleanSemiring>(h, {r0, r1}, {0, 1});
  auto res = BruteForceSolve(q);
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res->EqualsAsFunction(reference::Semijoin(r0, r1)));
}

TEST(Faq, ValidateCatchesShapeErrors) {
  Hypergraph h = PathGraph(2);
  Relation<BooleanSemiring> wrong{Schema({0, 2})};  // wrong schema
  Relation<BooleanSemiring> right{Schema({1, 2})};
  auto q = MakeBcq(h, {wrong, right});
  EXPECT_FALSE(q.Validate().ok());
}

TEST(Faq, DomainSizeTracksData) {
  Hypergraph h = PathGraph(2);
  Relation<BooleanSemiring> a{Schema({0, 1})}, b{Schema({1, 2})};
  a.Add({0, 250});
  b.Add({250, 3});
  auto q = MakeBcq(h, {a, b});
  EXPECT_EQ(q.DomainSize(), 251u);
}

// Differential sweep: many random acyclic hypergraph queries across
// semirings; Yannakakis must equal brute force with F = ∅ and with the
// root-edge variables free.
class FaqDifferential : public ::testing::TestWithParam<int> {};

TEST_P(FaqDifferential, NaturalSemiringScalar) {
  Rng rng(4000 + GetParam());
  Hypergraph h = RandomAcyclicHypergraph(3 + GetParam() % 5, 3, &rng);
  auto q = RandomFaqSS<NaturalSemiring>(h, 8, 3, &rng, NatVal, {});
  auto bf = BruteForceSolve(q);
  auto yk = YannakakisSolve(q);
  ASSERT_TRUE(bf.ok() && yk.ok());
  EXPECT_TRUE(bf->EqualsAsFunction(*yk)) << h.DebugString();
}

TEST_P(FaqDifferential, BooleanScalar) {
  Rng rng(5000 + GetParam());
  Hypergraph h = RandomAcyclicHypergraph(3 + GetParam() % 5, 3, &rng);
  auto q = RandomFaqSS<BooleanSemiring>(h, 6, 2, &rng, BoolVal, {});
  auto bf = BruteForceSolve(q);
  auto yk = YannakakisSolve(q);
  ASSERT_TRUE(bf.ok() && yk.ok());
  EXPECT_TRUE(bf->EqualsAsFunction(*yk)) << h.DebugString();
}

TEST_P(FaqDifferential, RootEdgeFreeVariables) {
  Rng rng(6000 + GetParam());
  Hypergraph h = RandomAcyclicHypergraph(4, 3, &rng);
  WidthResult w = ComputeWidth(h);
  // Free vars: the root bag of the canonical decomposition.
  std::vector<VarId> f = w.decomposition.ghd.node(w.decomposition.ghd.root()).chi;
  auto q = RandomFaqSS<NaturalSemiring>(h, 8, 3, &rng, NatVal, f);
  auto bf = BruteForceSolve(q);
  auto yk = YannakakisSolveOn(q, w.decomposition);
  ASSERT_TRUE(bf.ok() && yk.ok());
  EXPECT_TRUE(bf->EqualsAsFunction(*yk)) << h.DebugString();
}

INSTANTIATE_TEST_SUITE_P(Sweep, FaqDifferential, ::testing::Range(0, 20));

}  // namespace
}  // namespace topofaq
