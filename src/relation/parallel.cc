#include "relation/parallel.h"

#include <bit>
#include <numeric>

namespace topofaq {

WorkerPool& WorkerPool::Shared() {
  // Floor of 3 extra threads so multi-worker execution (and its sanitizer
  // coverage) stays real on 1–2 core machines; morsel work-stealing keeps
  // mild oversubscription harmless.
  static WorkerPool pool(std::max(
      3, static_cast<int>(std::thread::hardware_concurrency()) - 1));
  return pool;
}

WorkerPool::WorkerPool(int threads) {
  threads_.reserve(static_cast<size_t>(std::max(0, threads)));
  for (int i = 0; i < threads; ++i)
    threads_.emplace_back([this] { WorkerLoop(); });
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

WorkerPool::Job* WorkerPool::PickJob() {
  Job* best = nullptr;
  for (Job* j : jobs_) {
    if (j->helpers >= j->max_helpers ||
        j->next.load(std::memory_order_relaxed) >= j->n_tasks)
      continue;
    if (best == nullptr || j->helpers < best->helpers) best = j;
  }
  return best;
}

void WorkerPool::WorkerLoop() {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    Job* job = nullptr;
    work_cv_.wait(lk, [&] { return stop_ || (job = PickJob()) != nullptr; });
    if (stop_) return;
    const int slot = ++job->helpers;  // unique within the job, < workers
    ++job->active;
    lk.unlock();
    for (;;) {
      const size_t t = job->next.fetch_add(1, std::memory_order_relaxed);
      if (t >= job->n_tasks) break;
      (*job->fn)(slot, t);
    }
    lk.lock();
    if (--job->active == 0) done_cv_.notify_all();
  }
}

void WorkerPool::ParallelFor(int workers, size_t n_tasks,
                             const std::function<void(int, size_t)>& fn) {
  if (n_tasks == 0) return;
  int extra = std::min<int>(static_cast<int>(threads_.size()), workers - 1);
  extra = static_cast<int>(
      std::min<size_t>(static_cast<size_t>(std::max(0, extra)), n_tasks - 1));
  if (extra == 0) {
    for (size_t t = 0; t < n_tasks; ++t) fn(0, t);
    return;
  }
  Job job;
  job.fn = &fn;
  job.n_tasks = n_tasks;
  job.max_helpers = extra;
  {
    std::lock_guard<std::mutex> lk(mu_);
    jobs_.push_back(&job);
  }
  work_cv_.notify_all();
  for (;;) {
    const size_t t = job.next.fetch_add(1, std::memory_order_relaxed);
    if (t >= n_tasks) break;
    fn(0, t);
  }
  // Every task is claimed: unlist the job so no helper joins late, then
  // wait only for helpers still running a task.
  std::unique_lock<std::mutex> lk(mu_);
  jobs_.erase(std::find(jobs_.begin(), jobs_.end(), &job));
  done_cv_.wait(lk, [&] { return job.active == 0; });
}

namespace {

// Sort words are row ids with key bits above them, held in size_t so that
// `perm` itself can serve as one of the two word buffers.
static_assert(sizeof(size_t) == sizeof(uint64_t), "64-bit sort words");

/// Widest digit one radix pass sorts: 2^11 counters per chunk (16 KiB)
/// stay cache-resident, and two 11-bit passes cover a 22-bit key.
constexpr int kMaxDigitBits = 11;

/// One key column's field inside the concatenated wide key.
struct KeyField {
  ColView view;
  Value min = 0;  // subtracted from plain values (codes start at 0)
  int width = 0;  // bits of (code - min)
  int off = 0;    // bit offset in the wide key; the last key column sits at 0
};

KeyField FieldOf(const ColView& v, size_t n) {
  KeyField f;
  f.view = v;
  if (v.encoded()) {
    const EncodedColumn& e = *v.enc;
    f.width = e.encoding == ColumnEncoding::kDict
                  ? std::bit_width(static_cast<uint64_t>(e.dict.size()) - 1)
                  : e.width;
    return f;
  }
  Value lo = v.plain[0], hi = v.plain[0];
  for (size_t i = 1; i < n; ++i) {
    lo = std::min(lo, v.plain[i]);
    hi = std::max(hi, v.plain[i]);
  }
  f.min = lo;
  f.width = std::bit_width(hi - lo);
  return f;
}

/// ORs bits [s, s + width(m)) of every row's code into the sort words
/// e[tb, te) at bit `dst`. `first` means the words do not exist yet (row id
/// = position: the identity start); `init` (the group's first field)
/// rewrites the word from its row id, dropping the previous group's bits.
template <typename Code>
void OrField(size_t* e, size_t tb, size_t te, bool first, bool init,
             uint64_t imask, int s, uint64_t m, int dst, Code code) {
  for (size_t t = tb; t < te; ++t) {
    const size_t row = first ? t : (e[t] & imask);
    const size_t bits = ((code(row) >> s) & m) << dst;
    e[t] = init ? (row | bits) : (e[t] | bits);
  }
}

/// Writes the sort words of positions [tb, te) for the wide-key bit range
/// [lo, hi): (key bits [lo, hi) << ib) | row id.
void BuildGroupWords(const std::vector<KeyField>& fields, int lo, int hi,
                     int ib, bool first, size_t* e, size_t tb, size_t te) {
  const uint64_t imask = PackMask(ib);
  bool init = true;
  for (const KeyField& f : fields) {
    const int a = std::max(lo, f.off);
    const int b = std::min(hi, f.off + f.width);
    if (a >= b) continue;
    const int s = a - f.off;
    const uint64_t m = PackMask(b - a);
    const int dst = a - lo + ib;
    if (f.view.encoded()) {
      const EncodedColumn& col = *f.view.enc;
      const size_t o = f.view.offset;
      OrField(e, tb, te, first, init, imask, s, m, dst,
              [&col, o](size_t r) { return col.CodeAt(o + r); });
    } else {
      OrField(e, tb, te, first, init, imask, s, m, dst,
              [p = f.view.plain, mn = f.min](size_t r) { return p[r] - mn; });
    }
    first = false;
    init = false;
  }
}

}  // namespace

void RadixSortPerm(std::span<const ColView> keys, size_t n, ExecContext& cx,
                   std::vector<size_t>* perm) {
  perm->resize(n);
  std::vector<KeyField> fields;  // least significant first
  int total = 0;
  if (n >= 2) {
    for (size_t j = keys.size(); j-- > 0;) {
      KeyField f = FieldOf(keys[j], n);
      if (f.width == 0) continue;  // constant column: orders nothing
      f.off = total;
      total += f.width;
      fields.push_back(f);
    }
  }
  if (total == 0) {
    std::iota(perm->begin(), perm->end(), size_t{0});
    return;
  }
  // Sort words carry the row id in their low `ib` bits and up to 64 - ib
  // key bits above it; a wider key is sorted group by group, least
  // significant group first, each group re-reading its key bits through
  // the row ids the previous groups left in place.
  const int ib = std::bit_width(static_cast<uint64_t>(n - 1));
  const uint64_t imask = PackMask(ib);
  const int group_bits = 64 - ib;
  const int digit_cap = std::clamp(ib - 2, 6, kMaxDigitBits);

  const int workers = PlannedWorkers(cx, n);
  const size_t chunks = static_cast<size_t>(workers);
  auto cut = [n, chunks](size_t c) { return c * n / chunks; };
  auto for_chunks = [&](const std::function<void(size_t)>& body) {
    if (chunks == 1) {
      body(0);
      return;
    }
    WorkerPool::Shared().ParallelFor(workers, chunks,
                                     [&](int, size_t c) { body(c); });
  };

  // The sort words ping-pong between `perm`'s own storage and one scratch
  // buffer of the context; the row ids end up in `perm` either way.
  cx.radix_words.resize(n);
  size_t* src = perm->data();
  size_t* dst = cx.radix_words.data();
  std::vector<size_t>& hist = cx.radix_hist;
  for (int lo = 0; lo < total; lo += group_bits) {
    const int hi = std::min(total, lo + group_bits);
    for_chunks([&](size_t c) {
      BuildGroupWords(fields, lo, hi, ib, lo == 0, src, cut(c), cut(c + 1));
    });
    const int passes = static_cast<int>(CeilDiv(hi - lo, digit_cap));
    const int bits = static_cast<int>(CeilDiv(hi - lo, passes));
    for (int p = 0; p < passes; ++p) {
      const int shift = ib + p * bits;
      const int pb = std::min(bits, hi - lo - p * bits);
      const size_t radix = size_t{1} << pb;
      const size_t dmask = radix - 1;
      hist.assign(chunks * radix, 0);
      for_chunks([&](size_t c) {
        size_t* h = hist.data() + c * radix;
        const size_t* s = src;
        for (size_t t = cut(c), te = cut(c + 1); t < te; ++t)
          ++h[(s[t] >> shift) & dmask];
      });
      // Exclusive prefix sum in (digit, chunk) order: chunk c's rows of
      // digit d land after every smaller digit and after chunks < c of d —
      // the stable order, whatever the chunk count.
      size_t run = 0;
      bool one_digit = false;
      for (size_t d = 0; d < radix; ++d) {
        const size_t before = run;
        for (size_t c = 0; c < chunks; ++c) {
          const size_t k = hist[c * radix + d];
          hist[c * radix + d] = run;
          run += k;
        }
        one_digit = one_digit || run - before == n;
      }
      if (one_digit) continue;  // every row shares this digit: order stands
      for_chunks([&](size_t c) {
        size_t* h = hist.data() + c * radix;
        const size_t* s = src;
        size_t* d = dst;
        for (size_t t = cut(c), te = cut(c + 1); t < te; ++t) {
          const size_t w = s[t];
          d[h[(w >> shift) & dmask]++] = w;
        }
      });
      std::swap(src, dst);
    }
  }
  size_t* out = perm->data();
  for_chunks([&](size_t c) {
    const size_t* s = src;
    for (size_t t = cut(c), te = cut(c + 1); t < te; ++t) out[t] = s[t] & imask;
  });
}

}  // namespace topofaq
