// Morsel-parallel kernel tests (docs/kernel.md, "Morsel-parallel
// execution"): the WorkerPool fork/join contract (concurrent callers
// sharing the pool included), key-aligned morsel cuts, the radix
// permutation sort against the comparator sort it replaced, and — the core
// guarantee — byte-identical canonical output across
// parallelism ∈ {1, 2, 7, hardware_concurrency} for Join / Project /
// Eliminate over four semirings, including empty, skewed, and
// single-key-run inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "bit_identity.h"
#include "faq/solvers.h"
#include "relation/exec.h"
#include "relation/ops.h"
#include "relation/parallel.h"
#include "util/rng.h"

namespace topofaq {
namespace {

// ---------------------------------------------------------------------------
// WorkerPool / cuts machinery
// ---------------------------------------------------------------------------

TEST(WorkerPool, RunsEveryTaskExactlyOnce) {
  WorkerPool& pool = WorkerPool::Shared();
  EXPECT_GE(pool.max_workers(), 4);  // floor of 3 extra threads + caller
  const size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h.store(0);
  pool.ParallelFor(pool.max_workers(), n,
                   [&](int, size_t t) { hits[t].fetch_add(1); });
  for (size_t t = 0; t < n; ++t) EXPECT_EQ(hits[t].load(), 1) << t;
}

TEST(WorkerPool, WorkerIdsStayInRange) {
  WorkerPool& pool = WorkerPool::Shared();
  const int workers = 3;
  std::atomic<bool> ok{true};
  pool.ParallelFor(workers, 256, [&](int w, size_t) {
    if (w < 0 || w >= workers) ok.store(false);
  });
  EXPECT_TRUE(ok.load());
}

TEST(WorkerPool, ZeroTasksAndSingleWorkerAreNoops) {
  WorkerPool& pool = WorkerPool::Shared();
  int calls = 0;
  pool.ParallelFor(4, 0, [&](int, size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.ParallelFor(1, 5, [&](int w, size_t) {
    EXPECT_EQ(w, 0);  // single worker = caller runs everything inline
    ++calls;
  });
  EXPECT_EQ(calls, 5);
}

TEST(WorkerPool, ConcurrentCallersDegradeInsteadOfDeadlocking) {
  // Two user threads hammer the shared pool at once; their jobs share the
  // pool threads (each caller always drains its own job, so neither can
  // wait on the other), and every task must still run exactly once.
  std::atomic<int> total{0};
  auto burst = [&] {
    for (int i = 0; i < 50; ++i)
      WorkerPool::Shared().ParallelFor(4, 64,
                                       [&](int, size_t) { total.fetch_add(1); });
  };
  std::thread a(burst), b(burst);
  a.join();
  b.join();
  EXPECT_EQ(total.load(), 2 * 50 * 64);
}

TEST(WorkerPool, ConcurrentCallersBothGetHelpersWithUniqueIds) {
  // Two callers post jobs on one 4-thread pool at once. Every task of both
  // jobs waits until each job has seen a helper (worker id > 0), so the test
  // passes only if idle pool threads split between the two jobs instead of
  // one job running on its caller alone. Within a job, each worker id must
  // belong to exactly one thread and stay below `workers`.
  WorkerPool pool(4);
  const int workers = 3;
  const size_t tasks = 64;
  std::atomic<bool> helped[2] = {false, false};
  struct Seen {
    std::mutex mu;
    std::vector<std::thread::id> owner = std::vector<std::thread::id>(8);
    std::vector<int> runs = std::vector<int>(64, 0);
    bool ids_ok = true;
  } seen[2];
  // One deadline for the whole test: a pool that never helps one of the
  // jobs fails the test after 10 s instead of hanging.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  auto caller = [&](int job) {
    pool.ParallelFor(workers, tasks, [&, job](int w, size_t t) {
      {
        std::lock_guard<std::mutex> lk(seen[job].mu);
        Seen& s = seen[job];
        if (w < 0 || w >= workers) {
          s.ids_ok = false;
        } else {
          const std::thread::id me = std::this_thread::get_id();
          if (s.owner[w] == std::thread::id()) s.owner[w] = me;
          if (s.owner[w] != me) s.ids_ok = false;
        }
        ++s.runs[t];
      }
      if (w > 0) helped[job].store(true);
      while (!(helped[0].load() && helped[1].load()) &&
             std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    });
  };
  std::thread a(caller, 0), b(caller, 1);
  a.join();
  b.join();
  for (int job = 0; job < 2; ++job) {
    SCOPED_TRACE("job " + std::to_string(job));
    EXPECT_TRUE(helped[job].load()) << "no pool thread joined this job";
    EXPECT_TRUE(seen[job].ids_ok);
    for (size_t t = 0; t < tasks; ++t) EXPECT_EQ(seen[job].runs[t], 1) << t;
  }
}

// ---------------------------------------------------------------------------
// RadixSortPerm vs the comparator sort it replaced
// ---------------------------------------------------------------------------

/// The pre-radix reference: std::stable_sort of the identity under the
/// lexicographic code comparator with the row-id tiebreak.
std::vector<size_t> ComparatorPerm(const std::vector<ColView>& keys, size_t n) {
  std::vector<size_t> perm(n);
  std::iota(perm.begin(), perm.end(), size_t{0});
  std::stable_sort(perm.begin(), perm.end(), [&](size_t x, size_t y) {
    for (const ColView& k : keys) {
      const uint64_t a = k.CodeAt(x);
      const uint64_t b = k.CodeAt(y);
      if (a != b) return a < b;
    }
    return x < y;
  });
  return perm;
}

/// Checks RadixSortPerm against ComparatorPerm at parallelism 1 and max.
void ExpectRadixMatches(const std::vector<ColView>& keys, size_t n,
                        const std::string& what) {
  const std::vector<size_t> want = ComparatorPerm(keys, n);
  for (int p : {1, WorkerPool::Shared().max_workers()}) {
    ExecContext cx;
    cx.parallelism = p;
    std::vector<size_t> got{7, 7, 7};  // stale contents must not leak
    RadixSortPerm(keys, n, cx, &got);
    EXPECT_EQ(got, want) << what << " n=" << n << " p=" << p;
  }
}

TEST(RadixSortPerm, MatchesComparatorSortOnEveryShape) {
  const uint64_t kMax = ~uint64_t{0};
  for (size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{1023},
                   size_t{1025}, size_t{100000}}) {
    Rng rng(900 + n);
    auto column = [&](auto gen) {
      std::vector<Value> c(n);
      for (Value& v : c) v = gen();
      return c;
    };
    auto plain = [](const std::vector<Value>& c) {
      return ColView{c.data(), nullptr, 0};
    };
    const std::vector<Value> a20 = column([&] { return rng.NextU64(1 << 20); });
    const std::vector<Value> b20 = column([&] { return rng.NextU64(1 << 20); });
    const std::vector<Value> zeros(n, 0);
    const std::vector<Value> wide = column([&] {
      const uint64_t r = rng.NextU64(4);
      return r == 0 ? kMax : (r == 1 ? Value{0} : rng.NextU64());
    });
    const std::vector<Value> c30 = column([&] { return rng.NextU64(1 << 30); });
    const std::vector<Value> dup = column([&] { return rng.NextU64(3); });
    const std::vector<Value> dup2 = column([&] { return rng.NextU64(2); });

    ExpectRadixMatches({plain(a20), plain(b20)}, n, "2 x 20-bit");
    ExpectRadixMatches({plain(zeros), plain(a20), plain(zeros)}, n,
                       "width-0 columns around a 20-bit one");
    ExpectRadixMatches({plain(zeros)}, n, "all-zero key");
    ExpectRadixMatches({plain(wide)}, n, "width-64 with UINT64_MAX");
    ExpectRadixMatches({plain(wide), plain(a20)}, n, "64 + 20 bits");
    ExpectRadixMatches({plain(c30), plain(wide), plain(c30)}, n,
                       "30 + 64 + 30 bits");
    ExpectRadixMatches({plain(c30), plain(b20), plain(c30)}, n,
                       "30 + 20 + 30 bits");
    ExpectRadixMatches({plain(dup), plain(dup2)}, n, "heavy duplicates");

    // Encoded views read codes, at a non-zero row offset into the column.
    const size_t off = 37;
    std::vector<Value> padded(off, 5);
    padded.insert(padded.end(), a20.begin(), a20.end());
    std::vector<Value> dict_vals = padded;
    std::sort(dict_vals.begin(), dict_vals.end());
    dict_vals.erase(std::unique(dict_vals.begin(), dict_vals.end()),
                    dict_vals.end());
    const EncodedColumn dict = EncodedColumn::Dict(padded, dict_vals);
    const EncodedColumn fr = EncodedColumn::For(
        padded, *std::min_element(padded.begin(), padded.end()),
        *std::max_element(padded.begin(), padded.end()));
    std::vector<Value> padded_dup(off, 1);
    padded_dup.insert(padded_dup.end(), dup.begin(), dup.end());
    const EncodedColumn dict_dup =
        EncodedColumn::Dict(padded_dup, std::vector<Value>{0, 1, 2});
    const ColView dv{nullptr, &dict, off};
    const ColView fv{nullptr, &fr, off};
    const ColView ddv{nullptr, &dict_dup, off};
    ExpectRadixMatches({dv, plain(b20)}, n, "dict + plain");
    ExpectRadixMatches({plain(dup), fv}, n, "plain + FOR");
    ExpectRadixMatches({ddv, fv, dv}, n, "dict dup + FOR + dict");
  }
}

TEST(KeyAlignedCuts, NeverSplitsARun) {
  // Keys with heavy runs: position t belongs to run t/7.
  const size_t n = 5000;
  auto starts = [](size_t t) { return t % 7 == 0; };
  std::vector<size_t> cuts = KeyAlignedCuts(n, 16, starts);
  ASSERT_GE(cuts.size(), 2u);
  EXPECT_EQ(cuts.front(), 0u);
  EXPECT_EQ(cuts.back(), n);
  for (size_t i = 1; i + 1 < cuts.size(); ++i) {
    EXPECT_LT(cuts[i - 1], cuts[i]);
    EXPECT_TRUE(starts(cuts[i])) << "cut " << cuts[i] << " inside a run";
  }
}

TEST(KeyAlignedCuts, SingleRunYieldsSingleMorsel) {
  std::vector<size_t> cuts =
      KeyAlignedCuts(4096, 8, [](size_t) { return false; });
  EXPECT_EQ(cuts, (std::vector<size_t>{0, 4096}));
}

// ---------------------------------------------------------------------------
// Operator determinism across parallelism levels
// ---------------------------------------------------------------------------

/// Nonzero annotation generator per semiring (bitwise-reproducible values).
template <CommutativeSemiring S>
typename S::Value MakeAnnot(uint64_t k);
template <>
NaturalSemiring::Value MakeAnnot<NaturalSemiring>(uint64_t k) {
  return k % 97 + 1;
}
template <>
CountingSemiring::Value MakeAnnot<CountingSemiring>(uint64_t k) {
  return 0.5 * static_cast<double>(k % 13 + 1);
}
template <>
MinPlusSemiring::Value MakeAnnot<MinPlusSemiring>(uint64_t k) {
  return static_cast<double>(k % 29);
}
template <>
Gf2Semiring::Value MakeAnnot<Gf2Semiring>(uint64_t) {
  return 1;
}

/// Random canonical relation. skew > 0 squashes the first column's domain so
/// key runs become long and unequal (the morsel balancing worst case).
template <CommutativeSemiring S>
Relation<S> RandomRel(std::vector<VarId> vars, size_t n, uint64_t dom,
                      int skew, uint64_t seed) {
  Rng rng(seed);
  Relation<S> r{Schema(std::move(vars))};
  std::vector<Value> row(r.arity());
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < row.size(); ++j) {
      uint64_t v = rng.NextU64(dom);
      if (j == 0 && skew > 0) v = (v * v) / (dom << skew);  // front-loaded
      row[j] = v;
    }
    r.Add(row, MakeAnnot<S>(rng.NextU64(1 << 20)));
  }
  r.Canonicalize();
  return r;
}

/// All-operators determinism check for one (left, right) input pair:
/// every parallelism level must reproduce the serial bytes, and the stats
/// rollup must keep rows_in/rows_out identical.
template <CommutativeSemiring S>
void CheckOpsDeterministic(const Relation<S>& left, const Relation<S>& right,
                           const char* what) {
  const int hw =
      std::max(2, static_cast<int>(std::thread::hardware_concurrency()));
  ExecContext serial;
  serial.parallelism = 1;
  const Relation<S> join1 = Join(left, right, &serial);
  const Relation<S> proj1 =
      left.arity() > 1
          ? Project(left, {left.schema().var(0)}, &serial)
          : Project(left, left.schema().vars(), &serial);
  const Relation<S> elim1 =
      left.arity() > 1
          ? Eliminate(left, {left.schema().var(left.arity() - 1)},
                      {VarOp::kSemiringSum}, &serial)
          : left;
  for (int p : {2, 7, hw}) {
    ExecContext ctx;
    ctx.parallelism = p;
    SCOPED_TRACE(std::string(what) + " @ parallelism " + std::to_string(p));
    EXPECT_TRUE(BytesEqual(Join(left, right, &ctx), join1));
    EXPECT_TRUE(BytesEqual(
        left.arity() > 1 ? Project(left, {left.schema().var(0)}, &ctx)
                         : Project(left, left.schema().vars(), &ctx),
        proj1));
    if (left.arity() > 1)
      EXPECT_TRUE(BytesEqual(
          Eliminate(left, {left.schema().var(left.arity() - 1)},
                    {VarOp::kSemiringSum}, &ctx),
          elim1));
    EXPECT_EQ(ctx.join.rows_out, serial.join.rows_out);
  }
}

template <CommutativeSemiring S>
void RunSemiringSuite(uint64_t seed) {
  const size_t n = 6000;  // comfortably above kParallelMinRows
  // Random sparse join: R(0,1) ⋈ S(1,2), probe path on the left (key is not
  // a left prefix).
  CheckOpsDeterministic<S>(RandomRel<S>({0, 1}, n, n, 0, seed),
                           RandomRel<S>({1, 2}, n, n, 0, seed + 1),
                           "sparse probe join");
  // Prefix-aligned monotone merge: R(0,1) ⋈ S(0,2).
  CheckOpsDeterministic<S>(RandomRel<S>({0, 1}, n, n / 2, 0, seed + 2),
                           RandomRel<S>({0, 2}, n, n / 2, 0, seed + 3),
                           "prefix merge join");
  // Heavy skew: long unequal key runs stress morsel balancing + alignment.
  CheckOpsDeterministic<S>(RandomRel<S>({0, 1}, n, 64, 2, seed + 4),
                           RandomRel<S>({0, 2}, n, 64, 2, seed + 5),
                           "skewed runs");
  // Empty sides.
  CheckOpsDeterministic<S>(Relation<S>{Schema({0, 1})},
                           RandomRel<S>({1, 2}, n, n, 0, seed + 6),
                           "empty left");
  CheckOpsDeterministic<S>(RandomRel<S>({0, 1}, n, n, 0, seed + 7),
                           Relation<S>{Schema({1, 2})}, "empty right");
  // Single key run: every shared key equal — one morsel, serial semantics.
  {
    RelationBuilder<S> bl{Schema({0, 1})}, br{Schema({0, 2})};
    for (size_t i = 0; i < 2048; ++i) {
      bl.Append({7, static_cast<Value>(i)}, MakeAnnot<S>(i));
      br.Append({7, static_cast<Value>(i * 3 % 64)}, MakeAnnot<S>(i + 5));
    }
    CheckOpsDeterministic<S>(bl.Build(), br.Build(), "single key run");
  }
}

TEST(ParallelDeterminism, NaturalSemiring) {
  RunSemiringSuite<NaturalSemiring>(101);
}
TEST(ParallelDeterminism, CountingSemiring) {
  RunSemiringSuite<CountingSemiring>(202);
}
TEST(ParallelDeterminism, MinPlusSemiring) {
  RunSemiringSuite<MinPlusSemiring>(303);
}
TEST(ParallelDeterminism, Gf2Semiring) { RunSemiringSuite<Gf2Semiring>(404); }

TEST(ParallelDeterminism, ParallelPathActuallyEngages) {
  // Guard against the whole suite silently running serial: a large probe
  // join at parallelism 4 must report morsel executions.
  auto l = RandomRel<NaturalSemiring>({0, 1}, 8000, 8000, 0, 9);
  auto r = RandomRel<NaturalSemiring>({1, 2}, 8000, 8000, 0, 10);
  ExecContext ctx;
  ctx.parallelism = 4;
  Join(l, r, &ctx);
  EXPECT_GT(ctx.join.morsels, 1);
  Eliminate(l, {1}, {VarOp::kSemiringSum}, &ctx);
  EXPECT_GT(ctx.eliminate.morsels, 1);
}

TEST(ParallelDeterminism, SmallInputsStaySerial) {
  auto l = RandomRel<NaturalSemiring>({0, 1}, 100, 100, 0, 11);
  auto r = RandomRel<NaturalSemiring>({1, 2}, 100, 100, 0, 12);
  ExecContext ctx;
  ctx.parallelism = 8;
  Join(l, r, &ctx);
  EXPECT_EQ(ctx.join.morsels, 0);
}

TEST(ParallelDeterminism, NonCanonicalDuplicatesStayBitIdentical) {
  // Duplicate tuples in an un-canonicalized float input: piece-local
  // canonicalization would fold their ⊕ in a different association than the
  // serial whole-output pass, so the parallel path must refuse (Join gates
  // on a canonical left) and every parallelism level must still return the
  // serial bits.
  Rng rng(77);
  Relation<CountingSemiring> l{Schema({0, 1})}, r{Schema({1, 2})};
  for (int i = 0; i < 6000; ++i) {
    const Value x = rng.NextU64(50), y = rng.NextU64(50);
    l.Add({x, y}, MakeAnnot<CountingSemiring>(rng.NextU64(100)));
    if (i % 3 == 0)  // heavy duplication, never canonicalized
      l.Add({x, y}, MakeAnnot<CountingSemiring>(rng.NextU64(100)));
    r.Add({rng.NextU64(50), rng.NextU64(50)},
          MakeAnnot<CountingSemiring>(rng.NextU64(100)));
  }
  ExecContext serial;
  serial.parallelism = 1;
  const auto want = Join(l, r, &serial);
  for (int p : {2, 7}) {
    ExecContext ctx;
    ctx.parallelism = p;
    EXPECT_TRUE(BytesEqual(Join(l, r, &ctx), want));
    EXPECT_EQ(ctx.join.morsels, 0);  // non-canonical left: serial fallback
  }
  // Canonical left + non-canonical right must still parallelize and agree.
  Relation<CountingSemiring> lc = l;
  lc.Canonicalize();
  ExecContext s2;
  s2.parallelism = 1;
  const auto want2 = Join(lc, r, &s2);
  ExecContext p2;
  p2.parallelism = 4;
  EXPECT_TRUE(BytesEqual(Join(lc, r, &p2), want2));
  EXPECT_GT(p2.join.morsels, 1);
}

TEST(ParallelDeterminism, MultiBatchEliminateAcrossOps) {
  // Mixed aggregates force multiple batches; each batch's group-by must be
  // deterministic under parallelism.
  auto r = RandomRel<CountingSemiring>({0, 1, 2, 3}, 6000, 32, 0, 21);
  ExecContext serial;
  serial.parallelism = 1;
  auto want = Eliminate(r, {1, 2, 3},
                        {VarOp::kMax, VarOp::kSemiringSum, VarOp::kMin},
                        &serial);
  for (int p : {2, 7}) {
    ExecContext ctx;
    ctx.parallelism = p;
    EXPECT_TRUE(BytesEqual(
        Eliminate(r, {1, 2, 3},
                  {VarOp::kMax, VarOp::kSemiringSum, VarOp::kMin}, &ctx),
        want));
  }
}

TEST(ParallelDeterminism, SolversMatchUnderParallelism) {
  // End-to-end: YannakakisSolve over a path query with a parallel context
  // equals the serial solve and the brute-force oracle.
  Hypergraph h(3, {{0, 1}, {1, 2}});
  Rng rng(5);
  std::vector<Relation<NaturalSemiring>> rels;
  for (int e = 0; e < 2; ++e) {
    Relation<NaturalSemiring> r{Schema(h.edge(e))};
    for (int i = 0; i < 4000; ++i)
      r.Add({rng.NextU64(800), rng.NextU64(800)}, rng.NextU64(5) + 1);
    r.Canonicalize();
    rels.push_back(std::move(r));
  }
  auto q = MakeFaqSS<NaturalSemiring>(h, rels, {0});
  ExecContext serial;
  serial.parallelism = 1;
  auto want = YannakakisSolve(q, &serial);
  ASSERT_TRUE(want.ok());
  ExecContext par;
  par.parallelism = 4;
  auto got = YannakakisSolve(q, &par);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(BytesEqual(*got, *want));
  auto oracle = BruteForceSolve(q);
  ASSERT_TRUE(oracle.ok());
  EXPECT_TRUE(got->EqualsAsFunction(*oracle));
}

}  // namespace
}  // namespace topofaq
