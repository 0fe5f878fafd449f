// Microbench for the SIMD sorted-key kernel on the multiway seek path
// (relation/simd.h): the gallop-closing lower bound, timed scalar-vs-SIMD
// on the same inputs in the same run. The "speedup" field of the row is
// scalar_ms / simd_ms — a machine-neutral ratio CI gates with an absolute
// floor (SIMD must beat the scalar twin by >= 1.2x; see ci.yml).
// reference_ms holds the scalar timing so the relative regression gate of
// check_bench_regression.py normalizes the same way as the other
// microbenches.
//
// The timed pair is also a differential check: scalar and SIMD results are
// compared and a mismatch aborts the bench.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "bench/bench_micro_common.h"
#include "relation/simd.h"

namespace topofaq {
namespace {

struct Row {
  std::string bench;
  size_t n = 0;
  size_t out_rows = 0;
  double simd_ms = 0;
  double scalar_ms = 0;
};

constexpr size_t kN = 1 << 17;  // array length; >= 1e5 so timing is signal

/// kN sorted values drawn uniformly from [0, 2^31).
std::vector<Value> MakeSorted(std::mt19937_64* rng) {
  std::uniform_int_distribution<uint64_t> dist(0, (1ull << 31) - 1);
  std::vector<Value> a(kN);
  for (auto& v : a) v = dist(*rng);
  std::sort(a.begin(), a.end());
  return a;
}

void Fatal(const char* what) {
  std::fprintf(stderr, "FATAL: SIMD output differs from scalar in %s\n", what);
  std::abort();
}

/// The gallop-closing shape: lower bounds over 128-wide windows, the span
/// at which TrieSeek hands its binary search to simd::LowerBoundU64.
void BenchGallop64(std::vector<Row>* rows, const std::vector<Value>& a,
                   const char* name, int reps, std::mt19937_64* rng) {
  constexpr size_t kWindow = 128;
  constexpr size_t kProbes = 1 << 16;
  std::vector<size_t> starts(kProbes);
  std::vector<Value> keys(kProbes);
  for (size_t p = 0; p < kProbes; ++p) {
    starts[p] = (*rng)() % (kN - kWindow);
    // Key inside the window so the probe does real work.
    keys[p] = a[starts[p] + (*rng)() % kWindow];
  }
  size_t hs = 0, hv = 0;
  const double scalar_ms = bench::TimeMs(reps, [&] {
    hs = 0;
    for (size_t p = 0; p < kProbes; ++p)
      hs += simd::ScalarLowerBoundU64(a.data(), starts[p],
                                      starts[p] + kWindow, keys[p], false);
  });
  const double simd_ms = bench::TimeMs(reps, [&] {
    hv = 0;
    for (size_t p = 0; p < kProbes; ++p)
      hv += simd::LowerBoundU64(a.data(), starts[p], starts[p] + kWindow,
                                keys[p], false, nullptr);
  });
  if (hs != hv) Fatal(name);
  rows->push_back({name, kN, kProbes, simd_ms, scalar_ms});
}

void WriteJson(const std::vector<Row>& rows, const char* path) {
  std::vector<std::string> lines;
  char buf[320];
  for (const Row& r : rows) {
    std::snprintf(buf, sizeof(buf),
                  "{\"bench\": \"%s\", \"n\": %zu, \"out_rows\": %zu, "
                  "\"kernel_ms\": %.4f, \"parallel_ms\": %.4f, "
                  "\"parallelism\": 1, \"reference_ms\": %.4f, "
                  "\"speedup\": %.3f, \"par_speedup\": 1.000, "
                  "\"bytes_resident\": 0}",
                  r.bench.c_str(), r.n, r.out_rows, r.simd_ms, r.simd_ms,
                  r.scalar_ms, r.scalar_ms / r.simd_ms);
    lines.emplace_back(buf);
  }
  bench::WriteJsonRows(lines, path);
}

}  // namespace
}  // namespace topofaq

int main(int argc, char** argv) {
  using namespace topofaq;
  const auto args =
      bench::ParseMicroBenchArgs(argc, argv, "BENCH_intersect.json");
  const int reps = args.quick ? 5 : 9;

  ScopedSimdMode force_on(true);
  if (!simd::Available())
    std::fprintf(stderr,
                 "warning: AVX2 unavailable; SIMD legs run the scalar body "
                 "(speedups will be ~1.0)\n");

  std::printf("%-18s %9s %9s %9s %10s %8s\n", "bench", "n", "out", "simd_ms",
              "scalar_ms", "speedup");
  std::mt19937_64 rng(0x70F0FA9u);
  std::vector<Row> rows;
  BenchGallop64(&rows, MakeSorted(&rng), "gallop64_w128", reps, &rng);
  for (const Row& r : rows)
    std::printf("%-18s %9zu %9zu %9.3f %10.3f %7.2fx\n", r.bench.c_str(), r.n,
                r.out_rows, r.simd_ms, r.scalar_ms, r.scalar_ms / r.simd_ms);
  WriteJson(rows, args.out_path);
  return 0;
}
