#include "layers.h"

namespace topofaq {
namespace e2e {

LayerProbe::LayerProbe(obs::TraceSession* trace, int reps)
    : trace_(trace), reps_(std::max(1, reps)) {
  if (trace_ != nullptr) track_ = trace_->RegisterTrack("layer probes");
}

void LayerProbe::Finish(Report* r) const {
  const LayerTotals& t = t_;
  const double w = std::max(1e-12, t.weight);
  const auto n = static_cast<int64_t>(reps_);
  r->Add("ghd.plan_cold_ms", t.plan_cold_ms / w, "ms", n);
  r->Add("server.assess_us", t.assess_us / w, "us", n);
  r->Add("faq.solve_ms.p1", t.solve_p1_ms / w, "ms", n);
  r->Add("faq.solve_ms.pmax", t.solve_pmax_ms / w, "ms", n);
  r->Add("faq.bruteforce_ms", t.brute_ms / w, "ms", n);
  r->Add("faq.rows_in_per_output", t.rows_in / std::max(1.0, t.out_rows),
         "ratio", n);
  r->Add("relation.canonicalize_ms", t.canonicalize_ms / w, "ms", n);
  r->Add("relation.join_ms", t.join_ms / w, "ms", n);
  r->Add("relation.eliminate_ms", t.eliminate_ms / w, "ms", n);
  r->Add("relation.project_ms", t.project_ms / w, "ms", n);
  r->Add("relation.multiway_ms", t.multiway_ms / w, "ms", n);
  r->Add("relation.replay_ms", t.replay_ms / w, "ms", n);
  r->Add("relation.multiway_share",
         t.replay_ms > 0.0 ? t.multiway_ms / t.replay_ms : 0.0, "ratio", n);
  r->Add("relation.sorts", t.sorts / w, "count", n);
  r->Add("relation.sort_skip_ratio",
         t.sorts + t.sort_skips > 0.0 ? t.sort_skips / (t.sorts + t.sort_skips)
                                      : 0.0,
         "ratio", n);
  r->Add("relation.comparisons", t.comparisons / w, "count", n);
  r->Add("relation.seeks", t.seeks / w, "count", n);
  r->Add("relation.simd_ratio",
         t.simd_blocks + t.scalar_fallbacks > 0.0
             ? t.simd_blocks / (t.simd_blocks + t.scalar_fallbacks)
             : 0.0,
         "ratio", n);
  r->Add("relation.morsels", t.morsels / w, "count", n);
  r->Add("relation.par_speedup",
         t.solve_pmax_ms > 0.0 ? t.solve_p1_ms / t.solve_pmax_ms : 0.0, "ratio",
         n);
  r->Add("relation.peak_rows", static_cast<double>(t.peak_rows), "rows", n);
}

}  // namespace e2e
}  // namespace topofaq
