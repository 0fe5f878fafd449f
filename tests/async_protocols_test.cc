// Async-protocol differential tests: the event-driven protocols
// (protocols/async.h) must produce answers bit-identical — per column and
// per annotation bit pattern — to the synchronous round-ledger protocols on
// every instance, across semirings and parallelism levels, while obeying
// the streaming transport's page budget and reporting makespan/utilization.
//
// CI also runs this suite with TOPOFAQ_PAGE_BUDGET=2 (a hard per-node page
// budget far below the payload sizes below), which forces the
// larger-than-budget backpressure path through every differential case.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iterator>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bit_identity.h"
#include "graphalg/topologies.h"
#include "hypergraph/generators.h"
#include "protocols/async.h"
#include "protocols/distributed.h"
#include "server/options.h"
#include "util/rng.h"

namespace topofaq {
namespace {

/// Per-node page budget for the differential sweeps: the CI streaming job
/// pins it to a tiny value via TOPOFAQ_PAGE_BUDGET so the
/// larger-than-budget path is provably exercised. Read through the one env
/// parser (EngineOptions::FromEnv, server/options.cc).
int64_t BudgetFromEnv() { return EngineOptions::FromEnv().page_budget; }

template <CommutativeSemiring S>
typename S::Value RandomAnnot(Rng* rng) {
  const uint64_t u = rng->NextU64(100) + 1;
  if constexpr (std::is_same_v<typename S::Value, double>) {
    return static_cast<double>(u) * 0.5;
  } else if constexpr (sizeof(typename S::Value) == 1) {
    return S::One();  // Boolean/GF2: stay on the canonical {0,1} values
  } else {
    return static_cast<typename S::Value>(u % 3 + 1);
  }
}

template <CommutativeSemiring S>
Relation<S> RandomRelation(const std::vector<VarId>& vars, int tuples,
                           uint64_t domain, Rng* rng) {
  Relation<S> r{Schema(vars)};
  std::vector<Value> row(vars.size());
  for (int i = 0; i < tuples; ++i) {
    for (auto& v : row) v = rng->NextU64(domain);
    r.Add(row, RandomAnnot<S>(rng));
  }
  r.Canonicalize();
  return r;
}

template <CommutativeSemiring S>
DistInstance<S> RandomInstance(int seed, Graph g, int tuples = 12,
                               uint64_t domain = 4) {
  Rng rng(seed);
  Hypergraph h = RandomAcyclicHypergraph(4, 3, &rng);
  std::vector<Relation<S>> rels;
  for (int e = 0; e < h.num_edges(); ++e)
    rels.push_back(RandomRelation<S>(h.edge(e), tuples, domain, &rng));
  DistInstance<S> inst;
  inst.query = MakeFaqSS<S>(h, std::move(rels), {});
  inst.topology = std::move(g);
  inst.owners =
      RoundRobinOwners(h.num_edges(), inst.topology.num_nodes());
  inst.sink = inst.topology.num_nodes() - 1;
  return inst;
}

/// Small pages so even the 12-tuple relations above span several pages.
AsyncProtocolOptions SmallPageOptions(int parallelism = 0) {
  AsyncProtocolOptions opts;
  opts.stream.page_rows = 4;
  opts.stream.node_page_budget = BudgetFromEnv();
  opts.parallelism = parallelism;
  return opts;
}

// ------------------------------------------------------------- trivial async

TEST(TrivialAsync, MatchesSyncOnRandomInstances) {
  for (int seed = 0; seed < 8; ++seed) {
    auto inst = RandomInstance<BooleanSemiring>(400 + seed, LineTopology(4));
    auto sync = RunTrivialProtocol(inst);
    auto async = RunTrivialProtocolAsync(inst, SmallPageOptions());
    ASSERT_TRUE(sync.ok() && async.ok()) << seed;
    EXPECT_TRUE(BytesEqual(sync->answer, async->answer));
    EXPECT_GT(async->stats.makespan, 0.0);
    EXPECT_GT(async->stats.total_bits, 0);
    EXPECT_GT(async->stats.pages, 0);
    EXPECT_LE(async->stats.max_in_flight_pages,
              SmallPageOptions().stream.node_page_budget);
  }
}

TEST(TrivialAsync, NoCommunicationWhenSinkOwnsEverything) {
  auto inst = RandomInstance<BooleanSemiring>(410, LineTopology(3));
  for (auto& o : inst.owners) o = 2;
  inst.sink = 2;
  auto async = RunTrivialProtocolAsync(inst, SmallPageOptions());
  ASSERT_TRUE(async.ok());
  EXPECT_EQ(async->stats.total_bits, 0);
  EXPECT_EQ(async->stats.pages, 0);
  EXPECT_DOUBLE_EQ(async->stats.makespan, 0.0);
  auto sync = RunTrivialProtocol(inst);
  ASSERT_TRUE(sync.ok());
  EXPECT_TRUE(BytesEqual(sync->answer, async->answer));
}

TEST(TrivialAsync, EmptyRelationStreamsAndSolves) {
  auto inst = RandomInstance<NaturalSemiring>(420, LineTopology(4));
  inst.query.relations[1] = Relation<NaturalSemiring>{
      Schema(inst.query.hypergraph.edge(1))};
  inst.query.relations[1].Canonicalize();
  auto sync = RunTrivialProtocol(inst);
  auto async = RunTrivialProtocolAsync(inst, SmallPageOptions());
  ASSERT_TRUE(sync.ok() && async.ok());
  EXPECT_TRUE(BytesEqual(sync->answer, async->answer));
}

TEST(TrivialAsync, ParallelismKnobKeepsAnswersBitIdentical) {
  auto inst = RandomInstance<CountingSemiring>(430, CliqueTopology(4), 40, 6);
  CoreForestOptions p1{.parallelism = 1}, p2{.parallelism = 2};
  auto s1 = RunTrivialProtocol(inst, p1);
  auto s2 = RunTrivialProtocol(inst, p2);
  auto a2 = RunTrivialProtocolAsync(inst, SmallPageOptions(2));
  ASSERT_TRUE(s1.ok() && s2.ok() && a2.ok());
  EXPECT_TRUE(BytesEqual(s1->answer, s2->answer));
  EXPECT_TRUE(BytesEqual(s1->answer, a2->answer));
}

TEST(TrivialAsync, NonCanonicalInputIsRejectedWithStatus) {
  // The sync protocols accept unsorted listings; the streaming transport
  // cuts sorted pages, so the async protocols surface the requirement as a
  // Status instead of CHECK-crashing mid-simulation.
  auto inst = RandomInstance<NaturalSemiring>(440, LineTopology(3));
  Relation<NaturalSemiring> raw{Schema(inst.query.hypergraph.edge(0))};
  std::vector<Value> row(raw.arity(), 1);
  raw.Add(row, 2);
  row[0] = 0;
  raw.Add(row, 3);  // out of order: not canonical
  ASSERT_FALSE(raw.canonical());
  inst.query.relations[0] = std::move(raw);
  ASSERT_TRUE(RunTrivialProtocol(inst).ok());
  auto async = RunTrivialProtocolAsync(inst, SmallPageOptions());
  ASSERT_FALSE(async.ok());
  EXPECT_NE(async.status().message().find("Canonicalize"), std::string::npos);
  EXPECT_FALSE(RunCoreForestProtocolAsync(inst, SmallPageOptions()).ok());
}

// ---------------------------------------------------------- core-forest async

template <CommutativeSemiring S>
void CoreForestDifferential(int seed, Graph g, int parallelism) {
  auto inst = RandomInstance<S>(seed, std::move(g));
  CoreForestOptions sopts;
  sopts.parallelism = parallelism;
  AsyncProtocolOptions aopts = SmallPageOptions(parallelism);
  auto sync = RunCoreForestProtocol(inst, sopts);
  auto async = RunCoreForestProtocolAsync(inst, aopts);
  ASSERT_TRUE(sync.ok() && async.ok())
      << S::kName << " seed=" << seed << " p=" << parallelism;
  EXPECT_TRUE(BytesEqual(sync->answer, async->answer));
  EXPECT_LE(async->stats.max_in_flight_pages, aopts.stream.node_page_budget);
}

TEST(CoreForestAsync, BitIdenticalAcrossSemiringsAndParallelism) {
  const int hw =
      std::max(2, static_cast<int>(std::thread::hardware_concurrency()));
  for (int p : {1, 2, hw}) {
    for (int seed = 0; seed < 3; ++seed) {
      Graph topo = (seed % 2 == 0) ? Graph(LineTopology(5))
                                   : Graph(CliqueTopology(5));
      CoreForestDifferential<BooleanSemiring>(500 + seed, topo, p);
      CoreForestDifferential<NaturalSemiring>(520 + seed, topo, p);
      CoreForestDifferential<CountingSemiring>(540 + seed, topo, p);
      CoreForestDifferential<MinPlusSemiring>(560 + seed, topo, p);
    }
  }
}

TEST(CoreForestAsync, CyclicQueryMatchesSync) {
  Rng rng(600);
  Hypergraph h = CycleGraph(4);
  std::vector<Relation<BooleanSemiring>> rels;
  for (int e = 0; e < h.num_edges(); ++e)
    rels.push_back(RandomRelation<BooleanSemiring>(h.edge(e), 10, 3, &rng));
  DistInstance<BooleanSemiring> inst;
  inst.query = MakeBcq(h, std::move(rels));
  inst.topology = RingTopology(5);
  inst.owners = RoundRobinOwners(h.num_edges(), 5);
  inst.sink = 0;
  auto sync = RunCoreForestProtocol(inst);
  auto async = RunCoreForestProtocolAsync(inst, SmallPageOptions());
  ASSERT_TRUE(sync.ok() && async.ok());
  EXPECT_TRUE(BytesEqual(sync->answer, async->answer));
}

TEST(CoreForestAsync, FreeVariableMarginalMatchesSync) {
  Rng rng(610);
  Hypergraph h = PaperH2();
  std::vector<Relation<CountingSemiring>> rels;
  for (int e = 0; e < h.num_edges(); ++e)
    rels.push_back(RandomRelation<CountingSemiring>(h.edge(e), 10, 3, &rng));
  DistInstance<CountingSemiring> inst;
  inst.query = MakeFactorMarginal(h, std::move(rels), /*marginal_edge=*/0);
  inst.topology = BalancedTreeTopology(2, 2);
  inst.owners = RoundRobinOwners(h.num_edges(), inst.topology.num_nodes());
  inst.sink = 0;
  auto sync = RunCoreForestProtocol(inst);
  auto async = RunCoreForestProtocolAsync(inst, SmallPageOptions());
  ASSERT_TRUE(sync.ok() && async.ok());
  EXPECT_TRUE(BytesEqual(sync->answer, async->answer));
}

// ------------------------------------------------- acceptance: page budget

TEST(AsyncAcceptance, OversizedPayloadCompletesWithinPageBudget) {
  // Total payload far exceeds the budget: 4 relations x 200 rows at 4 rows
  // per page is ~200 pages against a per-source-node budget of 2. The run
  // must finish with bit-identical answers while no source ever has more
  // than 2 of its pages in flight (asserted via the ledger's high-water
  // mark; relays forward pages charged to their source on top of their own
  // budget).
  auto inst =
      RandomInstance<NaturalSemiring>(700, LineTopology(4), 200, 1 << 16);
  AsyncProtocolOptions opts;
  opts.stream.page_rows = 4;
  opts.stream.node_page_budget = 2;
  auto sync = RunTrivialProtocol(inst);
  auto async = RunTrivialProtocolAsync(inst, opts);
  ASSERT_TRUE(sync.ok() && async.ok());
  EXPECT_TRUE(BytesEqual(sync->answer, async->answer));
  EXPECT_GT(async->stats.pages, opts.stream.node_page_budget);
  EXPECT_LE(async->stats.max_in_flight_pages, opts.stream.node_page_budget);
  EXPECT_GE(async->stats.max_in_flight_pages, 1);
  EXPECT_GT(async->stats.makespan, 0.0);
  EXPECT_GT(async->stats.total_bits, 0);
}

TEST(AsyncAcceptance, UtilizationIsReportedPerEdge) {
  auto inst = RandomInstance<BooleanSemiring>(710, LineTopology(4), 64, 8);
  auto async = RunTrivialProtocolAsync(inst, SmallPageOptions());
  ASSERT_TRUE(async.ok());
  ASSERT_EQ(async->stats.edge_utilization.size(),
            static_cast<size_t>(inst.topology.num_edges()));
  EXPECT_GT(async->stats.max_edge_utilization, 0.0);
  for (double u : async->stats.edge_utilization) {
    EXPECT_GE(u, 0.0);
    EXPECT_LE(u, 1.0);
  }
}

// ------------------------------------------- high-capacity regime hand-off

TEST(HighCapacity, SyncProtocolsRejectAboveLedgerLimit) {
  auto inst = RandomInstance<BooleanSemiring>(720, LineTopology(4));
  inst.capacity_bits = int64_t{1} << 20;  // > SyncNetwork::kMaxCapacityBits
  auto trivial = RunTrivialProtocol(inst);
  ASSERT_FALSE(trivial.ok());
  EXPECT_NE(trivial.status().message().find("AsyncNetwork"),
            std::string::npos);
  auto forest = RunCoreForestProtocol(inst);
  ASSERT_FALSE(forest.ok());
}

TEST(HighCapacity, AsyncProtocolsTakeOver) {
  auto inst = RandomInstance<BooleanSemiring>(720, LineTopology(4));
  auto baseline = RunTrivialProtocol(inst);  // derived (small) capacity
  inst.capacity_bits = int64_t{1} << 20;
  auto async = RunTrivialProtocolAsync(inst, SmallPageOptions());
  auto forest = RunCoreForestProtocolAsync(inst, SmallPageOptions());
  ASSERT_TRUE(baseline.ok() && async.ok() && forest.ok());
  EXPECT_TRUE(BytesEqual(baseline->answer, async->answer));
  EXPECT_TRUE(BytesEqual(baseline->answer, forest->answer));
  // The fat pipe moves the same bits in (much) less simulated time.
  EXPECT_GT(async->stats.total_bits, 0);
  EXPECT_LT(async->stats.makespan,
            static_cast<double>(baseline->stats.rounds) + 1.0);
}

// ------------------------------------------------ invalid wire parameters

TEST(WireParameters, NegativePinsAreRejectedByEveryProtocol) {
  // A negative pinned budget or width must surface as InvalidArgument from
  // DistInstance::Derived(), not as a CHECK abort inside the async network.
  struct Pin {
    int bits_per_attr;
    int64_t capacity_bits;
  };
  for (Pin pin : {Pin{0, -5}, Pin{-3, 0}}) {
    auto inst = RandomInstance<BooleanSemiring>(730, LineTopology(4));
    inst.bits_per_attr = pin.bits_per_attr;
    inst.capacity_bits = pin.capacity_bits;
    EXPECT_EQ(RunTrivialProtocol(inst).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(RunCoreForestProtocol(inst).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(RunTrivialProtocolAsync(inst).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(RunCoreForestProtocolAsync(inst).status().code(),
              StatusCode::kInvalidArgument);
  }
}

// ------------------------------------------------------ golden cost counts

/// The four protocol entry points the golden table pins.
enum GoldenProtocol { kTrivialSync, kForestSync, kTrivialAsync, kForestAsync };

/// Exact cost observables of one run. A change to the protocol bodies or the
/// transport adapters that is meant to be behavior-preserving must leave
/// every one of these untouched — not just the answers.
struct GoldenCounts {
  int64_t rounds, total_bits;
  double makespan;
  int64_t pages, max_in_flight_pages, payload_bits_encoded, payload_bits_plain;
  std::vector<double> edge_utilization;
  bool operator==(const GoldenCounts&) const = default;
};

GoldenCounts CountsOf(const ProtocolStats& s) {
  return {s.rounds,
          s.total_bits,
          s.makespan,
          s.pages,
          s.max_in_flight_pages,
          s.payload_bits_encoded,
          s.payload_bits_plain,
          s.edge_utilization};
}

/// Table-row rendering of `c` (doubles round-trip at %.17g), printed on a
/// mismatch so an intended cost change shows the row to re-pin.
std::string GoldenRow(const std::string& name, int protocol,
                      const GoldenCounts& c) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"%s\", %d, {%lld, %lld, %.17g, %lld, %lld, %lld, %lld, {",
                name.c_str(), protocol, static_cast<long long>(c.rounds),
                static_cast<long long>(c.total_bits), c.makespan,
                static_cast<long long>(c.pages),
                static_cast<long long>(c.max_in_flight_pages),
                static_cast<long long>(c.payload_bits_encoded),
                static_cast<long long>(c.payload_bits_plain));
  std::string row = buf;
  for (size_t i = 0; i < c.edge_utilization.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%.17g", i ? ", " : "",
                  c.edge_utilization[i]);
    row += buf;
  }
  return row + "}}},";
}

template <CommutativeSemiring S>
DistInstance<S> GoldenInstance(Hypergraph h, std::vector<VarId> free_vars,
                               Graph g, NodeId sink, uint64_t seed) {
  Rng rng(seed);
  std::vector<Relation<S>> rels;
  for (int e = 0; e < h.num_edges(); ++e)
    rels.push_back(RandomRelation<S>(h.edge(e), 20, 5, &rng));
  DistInstance<S> inst;
  inst.query =
      MakeFaqSS<S>(std::move(h), std::move(rels), std::move(free_vars));
  inst.topology = std::move(g);
  inst.owners = RoundRobinOwners(inst.query.hypergraph.num_edges(),
                                 inst.topology.num_nodes());
  inst.sink = sink;
  return inst;
}

template <CommutativeSemiring S>
GoldenCounts RunGolden(const DistInstance<S>& inst, int protocol) {
  AsyncProtocolOptions aopts;
  aopts.stream.page_rows = 4;
  aopts.stream.node_page_budget = 3;
  Result<ProtocolResult<S>> r =
      protocol == kTrivialSync    ? RunTrivialProtocol(inst)
      : protocol == kForestSync   ? RunCoreForestProtocol(inst)
      : protocol == kTrivialAsync ? RunTrivialProtocolAsync(inst, aopts)
                                  : RunCoreForestProtocolAsync(inst, aopts);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? CountsOf(r->stats) : GoldenCounts{};
}

struct GoldenRowSpec {
  const char* instance;
  int protocol;
  GoldenCounts counts;
};

// Rounds, bits, makespans, pages and per-edge utilization of every entry
// point on fixed small instances: acyclic BCQs (root is a relation), cyclic
// cores (synthetic core bag gathered at the sink) and free-variable
// marginals, over line, star, grid and clique topologies.
const GoldenRowSpec kGoldenRows[] = {
    {"h0_line_bcq", kTrivialSync,
     {15, 120, 0, 0, 0, 0, 0, {}}},
    {"h0_line_bcq", kForestSync,
     {14, 78, 0, 0, 0, 0, 0, {}}},
    {"h0_line_bcq", kTrivialAsync,
     {0, 1272, 139, 6, 2, 60, 60,
      {0.57194244604316546, 0.38129496402877699, 0.1906474820143885}}},
    {"h0_line_bcq", kForestAsync,
     {0, 2835, 350.75, 13, 3, 121, 121,
      {0.18567355666429081, 0.3367783321454027, 0.4878831076265146}}},
    {"h1_star", kTrivialSync,
     {53, 6440, 0, 0, 0, 0, 0, {}}},
    {"h1_star", kForestSync,
     {28, 4952, 0, 0, 0, 0, 0, {}}},
    {"h1_star", kTrivialAsync,
     {0, 8936, 70.628571428571405, 15, 3, 3710, 3710,
      {0.13086569579288032, 0.13794498381877029, 0.11407766990291265,
       0.52083333333333337}}},
    {"h1_star", kForestAsync,
     {0, 8269, 74.899999999999963, 15, 3, 3522, 3522,
      {0.14228495136372316, 0.15782948693496099, 0.47320236505817292,
       0.015258439824527948}}},
    {"h3_grid_bcq", kTrivialSync,
     {40, 1424, 0, 0, 0, 0, 0, {}}},
    {"h3_grid_bcq", kForestSync,
     {63, 2217, 0, 0, 0, 0, 0, {}}},
    {"h3_grid_bcq", kTrivialAsync,
     {0, 5456, 163.40000000000001, 28, 3, 946, 946,
      {0.20807833537331702, 0, 0.20195838433292532, 0.61811505507955944, 0,
       0.34638922888616891, 0.14749082007343942, 0.14749082007343942, 0, 0,
       0, 0}}},
    {"h3_grid_bcq", kForestAsync,
     {0, 8678, 414.79999999999967, 40, 3, 1248, 1248,
      {0.081967213114754162, 0, 0.079556412729026096, 0.24349083895853446,
       0, 0.36981677917068506, 0.08365477338476382, 0.18756027000964337, 0,
       0, 0, 0}}},
    {"cycle_clique", kTrivialSync,
     {15, 2940, 0, 0, 0, 0, 0, {}}},
    {"cycle_clique", kForestSync,
     {15, 2940, 0, 0, 0, 0, 0, {}}},
    {"cycle_clique", kTrivialAsync,
     {0, 4092, 21.114285714285714, 12, 3, 2940, 2940,
      {0.43775372124492562, 0.46143437077131266, 0.48511502029769965, 0, 0,
       0}}},
    {"cycle_clique", kForestAsync,
     {0, 4092, 21.114285714285714, 12, 3, 2940, 2940,
      {0.43775372124492562, 0.46143437077131266, 0.48511502029769965, 0, 0,
       0}}},
    {"h2_clique_marginal", kTrivialSync,
     {20, 3970, 0, 0, 0, 0, 0, {}}},
    {"h2_clique_marginal", kForestSync,
     {32, 8804, 0, 0, 0, 0, 0, {}}},
    {"h2_clique_marginal", kTrivialAsync,
     {0, 5314, 26.821917808219176, 14, 3, 3970, 3970,
      {0.49540347293156284, 0, 0, 0.36618998978549544, 0.49540347293156284,
       0}}},
    {"h2_clique_marginal", kForestAsync,
     {0, 8944, 89.123287671232887, 25, 3, 6544, 6544,
      {0.24923147863510603, 0.18959422071933596, 0.24853980940670151, 0, 0,
       0}}},
    {"path_line_marginal", kTrivialSync,
     {29, 3920, 0, 0, 0, 0, 0, {}}},
    {"path_line_marginal", kForestSync,
     {89, 6432, 0, 0, 0, 0, 0, {}}},
    {"path_line_marginal", kTrivialAsync,
     {0, 5456, 40.228571428571428, 12, 3, 2940, 2940,
      {0.24218750000000003, 0.49680397727272735, 0.22975852272727276, 0}}},
    {"path_line_marginal", kForestAsync,
     {0, 6797, 97.914285714285697, 20, 3, 4350, 4350,
      {0.17639334695068576, 0.18149985409979577, 0.1379486431281004, 0}}},
    {"acyclic_grid", kTrivialSync,
     {69, 15204, 0, 0, 0, 0, 0, {}}},
    {"acyclic_grid", kForestSync,
     {36, 11709, 0, 0, 0, 0, 0, {}}},
    {"acyclic_grid", kTrivialAsync,
     {0, 20676, 101.52054794520552, 29, 3, 7769, 7769,
      {0.21798677641343941, 0, 0.33902307380920244, 0, 0.46990959384698411,
       0.12596140871677231, 0.24207259479152607}}},
    {"acyclic_grid", kForestAsync,
     {0, 18763, 124.83561643835621, 40, 3, 9447, 9447,
      {0.11439701525293532, 0, 0.18605289147371884, 0.47355426314056842, 0,
       0.12334028311203769, 0.1321189509491934}}},
};

TEST(GoldenCounts, AllEntryPointsMatchPinnedCosts) {
  // Wire sizes depend on the column-encoding policy; pin the default so the
  // TOPOFAQ_ENCODING CI legs compare against the same table.
  ScopedEncodingMode auto_encoding(EncodingMode::kAuto);
  std::vector<std::pair<std::string, std::function<GoldenCounts(int)>>> cases;
  auto add = [&](const char* name, auto inst) {
    cases.emplace_back(name, [inst](int p) { return RunGolden(inst, p); });
  };
  add("h0_line_bcq", GoldenInstance<BooleanSemiring>(PaperH0(), {},
                                                     LineTopology(4), 0, 900));
  add("h1_star", GoldenInstance<NaturalSemiring>(PaperH1(), {},
                                                 StarTopology(5), 4, 901));
  add("h3_grid_bcq", GoldenInstance<BooleanSemiring>(
                         PaperH3(), {}, GridTopology(3, 3), 4, 902));
  add("cycle_clique", GoldenInstance<CountingSemiring>(
                          CycleGraph(4), {}, CliqueTopology(4), 0, 903));
  add("h2_clique_marginal",
      GoldenInstance<CountingSemiring>(PaperH2(), {0, 1, 2}, CliqueTopology(4),
                                       1, 904));
  add("path_line_marginal", GoldenInstance<NaturalSemiring>(
                                PathGraph(4), {0}, LineTopology(5), 2, 905));
  {
    Rng shape(906);
    add("acyclic_grid", GoldenInstance<NaturalSemiring>(
                            RandomAcyclicHypergraph(7, 3, &shape), {},
                            GridTopology(2, 3), 5, 907));
  }
  size_t checked = 0;
  for (const auto& [name, run] : cases) {
    for (int p = kTrivialSync; p <= kForestAsync; ++p) {
      const GoldenCounts got = run(p);
      const GoldenRowSpec* want = nullptr;
      for (const GoldenRowSpec& row : kGoldenRows)
        if (name == row.instance && row.protocol == p) want = &row;
      if (want == nullptr) {
        ADD_FAILURE() << "no golden row; actual:\n" << GoldenRow(name, p, got);
        continue;
      }
      ++checked;
      EXPECT_TRUE(got == want->counts)
          << "pinned:\n"
          << GoldenRow(name, p, want->counts) << "\nactual:\n"
          << GoldenRow(name, p, got);
    }
  }
  EXPECT_EQ(checked, std::size(kGoldenRows));
}

}  // namespace
}  // namespace topofaq
