// Morsel-parallel execution for the sorted-relation kernel (docs/kernel.md,
// "Morsel-parallel execution").
//
// The operators in ops.h stay sort-merge kernels over canonical traversals;
// this header supplies the fork/join machinery that lets one operator call
// fan its traversal out across cores, and the one sort primitive beneath
// every canonical order:
//
//  * WorkerPool — a lazily-created process-wide pool of workers with a
//    work-stealing ParallelFor (atomic task counter per job). Concurrent
//    ParallelFor calls share the pool: each call posts a job, and an idle
//    pool thread joins the job with the fewest helpers. The calling thread
//    is always worker 0 and drains its own job, so a pool of zero threads
//    degrades to plain serial execution and parallelism never deadlocks.
//  * KeyAlignedCuts — splits a traversal range [0, n) into morsels whose
//    boundaries never land inside a key run. This is the invariant that
//    makes per-morsel outputs concatenate into the serial result byte for
//    byte: group folds and builder-level adjacent merges can never straddle
//    a cut.
//  * RadixSortPerm — the stable LSD radix sort of a row permutation that
//    Canonicalize, RowOrderPerm, and the operator key-order sorts all run
//    through. Stable from the identity means ties keep row-id order by
//    construction, so the permutation is the unique (key, row id) order at
//    every worker count.
//  * MorselRun — the shared fork/join scaffold: one RelationBuilder per
//    morsel, one worker-owned ExecContext per worker (ExecContext's arena),
//    concatenation through Relation::ConcatPieces, which certifies the
//    result canonical with no closing sort because morsels are disjoint key
//    ranges in traversal order.
//
// Determinism contract: for fixed inputs, operator output bytes (rows and
// annotations) are identical for every parallelism level, including 1 (the
// serial path). Only OpStats::comparisons/morsels may differ.
#ifndef TOPOFAQ_RELATION_PARALLEL_H_
#define TOPOFAQ_RELATION_PARALLEL_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "obs/trace.h"
#include "relation/exec.h"
#include "relation/relation.h"

namespace topofaq {

/// Persistent fork/join worker pool shared by concurrent callers. Every
/// ParallelFor posts a job; an idle pool thread joins the posted job with
/// the fewest helpers and takes that job's next worker slot, so two
/// operators running at once (two engine queries, or two morsel-parallel
/// calls from different user threads) split the pool between them instead
/// of one of them running serially.
class WorkerPool {
 public:
  /// The process-wide pool, created on first use with
  /// max(3, hardware_concurrency - 1) threads (the floor keeps multi-worker
  /// execution — and its TSan coverage — real even on tiny machines).
  static WorkerPool& Shared();

  explicit WorkerPool(int threads);
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Runs fn(worker, task) for every task in [0, n_tasks), on up to
  /// `workers` workers: the calling thread is worker 0 and up to workers-1
  /// pool threads join in, each under its own worker id in [1, workers) —
  /// ids are unique within one call, so fn may index per-worker state by
  /// them. Tasks are claimed through an atomic counter (work-stealing), so
  /// skewed morsels balance automatically. The caller claims tasks too and
  /// never waits for a helper to arrive, only for helpers already running a
  /// task to finish it. Blocks until every task has finished; the return
  /// establishes a happens-before edge with all task executions.
  void ParallelFor(int workers, size_t n_tasks,
                   const std::function<void(int, size_t)>& fn);

  /// Largest worker count ParallelFor can put to use (pool threads + 1).
  int max_workers() const { return static_cast<int>(threads_.size()) + 1; }

 private:
  /// One ParallelFor call in flight. Lives on the caller's stack; listed in
  /// jobs_ while helpers may still join it.
  struct Job {
    const std::function<void(int, size_t)>* fn = nullptr;
    size_t n_tasks = 0;
    std::atomic<size_t> next{0};  // next unclaimed task
    int max_helpers = 0;          // pool threads this job may use
    int helpers = 0;              // joined so far; slot ids 1..helpers
    int active = 0;               // helpers still inside the job
  };

  void WorkerLoop();
  /// The joinable job with the fewest helpers, or nullptr. Requires mu_.
  Job* PickJob();

  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::vector<Job*> jobs_;  // guarded by mu_
  bool stop_ = false;       // guarded by mu_
};

/// Inputs smaller than this stay on the serial path regardless of the
/// parallelism knob: below it, fork/join overhead dwarfs the morsel work.
inline constexpr size_t kParallelMinRows = 1024;

/// Morsels per worker. More than 1 lets the atomic task counter rebalance
/// skewed key distributions (a worker stuck on a heavy run stops claiming).
inline constexpr size_t kMorselsPerWorker = 4;

/// Workers a single operator call should fan out to: the context's knob,
/// capped by the pool, and 1 (serial) for inputs under kParallelMinRows.
inline int PlannedWorkers(const ExecContext& cx, size_t traversal_rows) {
  if (cx.parallelism <= 1 || traversal_rows < kParallelMinRows) return 1;
  return std::min(cx.parallelism, WorkerPool::Shared().max_workers());
}

/// Splits [0, n) into at most `want` contiguous morsels of roughly equal
/// size, each cut advanced to the next traversal position that starts a new
/// key run (`starts_run(t)` — t in [1, n) — must be true iff position t's key
/// differs from position t-1's). Returns cut points c0=0 < c1 < ... < ck=n.
/// Cuts depend only on the data and `want`, never on thread timing.
template <typename StartsRun>
std::vector<size_t> KeyAlignedCuts(size_t n, size_t want,
                                   StartsRun&& starts_run) {
  std::vector<size_t> cuts{0};
  if (n > 0 && want > 1) {
    const size_t step = std::max<size_t>(1, n / want);
    size_t c = step;
    while (c < n) {
      while (c < n && !starts_run(c)) ++c;
      if (c >= n) break;
      cuts.push_back(c);
      c += step;
    }
  }
  cuts.push_back(n);
  return cuts;
}

/// Fills `perm` with rows [0, n) ordered lexicographically by the key
/// columns `keys` (keys[0] most significant), ties in row-id order — the
/// one permutation sort of the kernel. Each view contributes its
/// order-preserving codes: raw values on plain views (less the column
/// minimum), dict/FOR codes on encoded ones (ColView::CodeAt), so a
/// column's bit width, not its type, sets its share of the passes, and a
/// constant column costs none. The codes are concatenated into one wide
/// key and sorted by a stable LSD radix sort of (key digits, row id)
/// words, starting from the identity: stability is the row-id tiebreak.
/// With PlannedWorkers(cx, n) > 1 each pass builds per-chunk histograms on
/// the WorkerPool, prefix-sums them in chunk order, and scatters chunks in
/// parallel; the result is the same unique permutation at every worker
/// count. Sort buffers are `cx`'s radix scratch. Defined in parallel.cc.
void RadixSortPerm(std::span<const ColView> keys, size_t n, ExecContext& cx,
                   std::vector<size_t>* perm);

/// The shared fork/join scaffold for morsel-parallel operators: splits the
/// traversal [0, n) at key-run boundaries, runs
/// `emit(worker_ctx, begin, end, builder)` per morsel on the pool (each
/// morsel gets its own RelationBuilder; each worker its own child context
/// for scratch and stats), and concatenates the per-morsel outputs — already
/// globally sorted because morsels are disjoint key ranges in traversal
/// order. Returns the canonical result and reports the morsel count in
/// `st->morsels`; callers roll worker stats up separately.
///
/// Cancellation (server/engine.h): the owning context's cancel token is
/// checked once per morsel, inside the ParallelFor task body, before the
/// morsel's emission runs. Once the token fires, remaining morsels become
/// no-ops (their builders stay empty), so a cancelled parallel operator
/// call returns within one morsel's worth of work. The (empty-ish) result
/// is still structurally canonical but semantically unspecified; solvers
/// check ExecContext::cancelled between operator calls and discard it,
/// surfacing Status::Cancelled instead.
template <CommutativeSemiring S, typename StartsRun, typename Emit>
Relation<S> MorselRun(ExecContext& cx, int workers, Schema schema, size_t n,
                      StartsRun&& starts_run, OpStats* st, Emit&& emit) {
  std::vector<size_t> cuts =
      KeyAlignedCuts(n, static_cast<size_t>(workers) * kMorselsPerWorker,
                     starts_run);
  const size_t m = cuts.size() - 1;
  std::vector<RelationBuilder<S>> builders;
  builders.reserve(m);
  for (size_t i = 0; i < m; ++i) {
    builders.emplace_back(schema);
    // Pieces are spliced by ConcatPieces, which decodes them anyway — only
    // the concatenated result runs the encoding policy.
    builders.back().set_encode(false);
  }
  // Materialize the worker arena before forking: lazy creation inside the
  // region would race on the arena vector.
  for (int w = 0; w < workers; ++w) cx.WorkerContext(w);
  WorkerPool::Shared().ParallelFor(
      std::min<int>(workers, static_cast<int>(m)), m, [&](int w, size_t t) {
        if (cx.cancelled()) return;  // morsel-boundary cancellation check
        ExecContext& wc = cx.WorkerContext(w);
        // One branch per morsel when tracing is off. When on, each slice
        // becomes a span on worker w's own track (registered by the
        // pre-fork WorkerContext pass above), so the timeline shows how the
        // key-aligned cuts actually balanced.
        if (wc.trace == nullptr) {
          emit(wc, cuts[t], cuts[t + 1], &builders[t]);
          return;
        }
        obs::Span sp(wc.trace, "morsel", wc.trace_track);
        emit(wc, cuts[t], cuts[t + 1], &builders[t]);
        char args[96];
        std::snprintf(args, sizeof(args),
                      "{\"task\":%zu,\"begin\":%zu,\"end\":%zu}", t, cuts[t],
                      cuts[t + 1]);
        sp.SetArgsJson(args);
      });
  st->morsels += static_cast<int64_t>(m);
  std::vector<Relation<S>> pieces;
  pieces.reserve(m);
  for (auto& b : builders) pieces.push_back(b.Build());
  return Relation<S>::ConcatPieces(std::move(schema), std::move(pieces));
}

}  // namespace topofaq

#endif  // TOPOFAQ_RELATION_PARALLEL_H_
