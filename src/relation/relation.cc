// Out-of-line pieces of the columnar relation storage (relation.h) that need
// the kernel seams: the canonicalization permutation sort is the kernel's
// radix sort (parallel.h), parallel on the WorkerPool when the ambient
// ExecContext allows, which relation.h itself must not include.
#include "relation/relation.h"

#include "relation/exec.h"
#include "relation/parallel.h"

namespace topofaq {
namespace detail {

void SortRowPerm(const std::vector<std::vector<Value>>& cols, size_t rows,
                 std::vector<size_t>* perm, ExecContext* ctx) {
  std::vector<ColView> keys;
  keys.reserve(cols.size());
  for (const std::vector<Value>& c : cols) keys.push_back({c.data(), nullptr, 0});
  RadixSortPerm(keys, rows, ExecContext::Resolve(ctx), perm);
}

}  // namespace detail
}  // namespace topofaq
