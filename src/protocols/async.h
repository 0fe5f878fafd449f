// Event-driven execution mode of the paper's distributed protocols, on the
// AsyncNetwork + streaming relation transport (network/async.h,
// network/stream.h):
//
//  * RunTrivialProtocolAsync    — every relation is *streamed* to the sink
//                                 as fixed-size column-chunk pages under the
//                                 per-node page budget; the sink solves over
//                                 the reassembled relations.
//  * RunCoreForestProtocolAsync — the Theorem 4.1/5.2 star elimination as a
//                                 dependency DAG of simulated events. Stars
//                                 in disjoint subtrees overlap in simulated
//                                 time, and every transfer overlaps with
//                                 whatever local kernel work is ready — the
//                                 communication/computation overlap the
//                                 synchronous round ledger cannot express.
//
// Both run the same star-elimination body as the synchronous protocols
// (protocols/star_elimination.h) over AsyncTransport, and the transport's
// reassembly is bit-exact, so answers are bit-identical — per column and
// per annotation bit pattern — to RunTrivialProtocol / RunCoreForestProtocol
// at every parallelism level and page budget. What changes is the cost
// model: ProtocolStats reports a continuous makespan, actual transferred
// bits (pages + framing + credits), peak in-flight pages, and per-edge
// utilization instead of a round count. Every link has latency 1 and one
// synchronous round's budget (the instance's capacity_bits) per time unit,
// so makespans are directly comparable to the round ledger's round counts;
// local kernel work takes zero simulated time.
#ifndef TOPOFAQ_PROTOCOLS_ASYNC_H_
#define TOPOFAQ_PROTOCOLS_ASYNC_H_

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "network/async.h"
#include "network/stream.h"
#include "protocols/star_elimination.h"

namespace topofaq {

/// Options shared by both async protocols.
struct AsyncProtocolOptions {
  /// Streaming transport knobs (page size, per-node page budget, framing).
  StreamOptions stream;
  /// Kernel parallelism for the simulated local computations (same knob as
  /// CoreForestOptions::parallelism).
  int parallelism = 0;
  /// Span sink for the simulated timeline (obs/trace.h). When non-null, the
  /// run exports link transfers (via AsyncNetwork::set_trace) plus one
  /// zero-length span per compute task — stage name, on a per-player
  /// "node N" track, at its simulated schedule time — all in the simulated
  /// clock domain (pid 2 of the Chrome export). Borrowed; must outlive the
  /// call.
  obs::TraceSession* trace = nullptr;
};

namespace internal {

/// The streaming transport adapter of the star-elimination body: relations
/// move as paged streams, and every continuation runs from the event loop.
template <CommutativeSemiring S>
class AsyncTransport {
 public:
  AsyncTransport(const Graph& g, DistDerived d,
                 const AsyncProtocolOptions& opts)
      : net_(g, LinkParams{1.0, static_cast<double>(d.capacity_bits)}),
        streams_(&net_, opts.stream),
        bits_per_attr_(d.bits_per_attr),
        trace_(opts.trace) {
    if (trace_ != nullptr) {
      net_.set_trace(trace_);
      tracks_.assign(static_cast<size_t>(g.num_nodes()), 0);
    }
  }
  AsyncTransport(const AsyncTransport&) = delete;  // callbacks hold `this`
  AsyncTransport& operator=(const AsyncTransport&) = delete;

  // Node-local work, scheduled behind the events of this instant; the one
  // compute-span site (args = the task's input rows).
  template <class Fn>
  void Compute(const char* stage, NodeId node, size_t rows, Fn fn) {
    if (trace_ != nullptr) {
      uint32_t& slot = tracks_[static_cast<size_t>(node)];
      if (slot == 0)
        slot = trace_->RegisterTrack("node " + std::to_string(node),
                                     obs::ClockDomain::kSimulated) +
               1;
      char args[48];
      std::snprintf(args, sizeof(args), "{\"rows\":%zu}", rows);
      trace_->Emit(stage, slot - 1, obs::ClockDomain::kSimulated, net_.now(),
                   0.0, args);
    }
    net_.ScheduleAfter(0.0, std::move(fn));
  }

  // Algorithm 1 step 3 as actual paged bytes: one stream of the center
  // relation per remote leaf owner, after which that owner's leaves run.
  // Local leaves (and every leaf when the center is empty, where the round
  // ledger also skips the broadcast) start at once.
  template <class AtLeaf>
  void StarExchange(int, NodeId owner, const Relation<S>& rel,
                    const std::vector<NodeId>& kid_owners, AtLeaf at_leaf) {
    std::map<NodeId, std::vector<size_t>> by_owner;
    for (size_t k = 0; k < kid_owners.size(); ++k)
      by_owner[kid_owners[k]].push_back(k);
    for (auto& [leaf_owner, kids] : by_owner) {
      if (leaf_owner == owner || rel.empty()) {
        for (size_t k : kids) at_leaf(k);
        continue;
      }
      // The delivered copy only models the broadcast's bytes; leaves compute
      // their messages from their own state.
      streams_.SendRelation(owner, leaf_owner, rel, bits_per_attr_,
                            [at_leaf, kids = std::move(kids)](Relation<S>) {
                              for (size_t k : kids) at_leaf(k);
                            });
    }
  }

  template <class Done>
  void Reply(NodeId from, NodeId to, Relation<S> msg, Done done) {
    Send(from, to, std::move(msg), std::move(done));
  }

  // Streams `rel` (kept alive until delivered) unless it is already there.
  template <class Done>
  void Send(NodeId from, NodeId to, Relation<S> rel, Done done) {
    if (from == to) return done(std::move(rel));
    auto src = std::make_shared<const Relation<S>>(std::move(rel));
    streams_.SendRelation(from, to, *src, bits_per_attr_,
                          [src, done](Relation<S> r) { done(std::move(r)); });
  }

  template <class Done>
  void Gather(const std::vector<std::pair<NodeId, const Relation<S>*>>& parts,
              NodeId sink, std::vector<Relation<S>>* out, Done done) {
    // Stream completions never fire synchronously, so counting as we go is
    // safe.
    out->resize(parts.size());
    for (size_t i = 0; i < parts.size(); ++i) {
      const auto& [owner, rel] = parts[i];
      if (owner == sink) {
        (*out)[i] = *rel;
        continue;
      }
      ++gather_pending_;
      streams_.SendRelation(owner, sink, *rel, bits_per_attr_,
                            [this, out, i, done](Relation<S> r) {
                              (*out)[i] = std::move(r);
                              if (--gather_pending_ == 0) done();
                            });
    }
    if (gather_pending_ == 0) done();
  }

  void Run() { net_.Run(); }

  void Fill(ProtocolStats* st) const {
    st->makespan = net_.makespan();
    st->total_bits = net_.total_bits();
    st->pages = streams_.pages_shipped();
    st->max_in_flight_pages = streams_.max_in_flight_pages();
    st->payload_bits_encoded = streams_.payload_bits_encoded();
    st->payload_bits_plain = streams_.payload_bits_plain();
    st->edge_utilization = net_.EdgeUtilization();
    for (double u : st->edge_utilization)
      st->max_edge_utilization = std::max(st->max_edge_utilization, u);
  }

 private:
  AsyncNetwork net_;
  StreamNet<S> streams_;
  int bits_per_attr_;
  int gather_pending_ = 0;
  obs::TraceSession* trace_;
  std::vector<uint32_t> tracks_;  // per player: track id + 1; 0 = unregistered
};

/// The streaming transport cuts sorted pages from its sources, so the async
/// protocols require canonical input relations — surfaced as a Status here
/// rather than a CHECK crash mid-simulation. (The synchronous protocols
/// accept unsorted listings; they never page anything.)
template <CommutativeSemiring S>
Result<ProtocolResult<S>> RunAsync(const DistInstance<S>& inst, Plan plan,
                                   const AsyncProtocolOptions& opts) {
  auto d = inst.Derived();
  if (!d.ok()) return d.status();
  for (const Relation<S>& r : inst.query.relations)
    if (!r.canonical())
      return Status::InvalidArgument(
          "async protocols stream relations page by page and require "
          "canonical inputs — call Relation::Canonicalize() first (the "
          "synchronous protocols accept unsorted listings)");
  auto ghd = PlanFor(inst.query, plan);
  if (!ghd.ok()) return ghd.status();
  AsyncTransport<S> transport(inst.topology, *d, opts);
  return StarElimination(inst, *ghd, &transport, opts.parallelism).Run();
}

}  // namespace internal

/// Lemma 3.1, streaming edition: pages every remote relation to the sink
/// under the page budget, then solves over the reassembled inputs.
template <CommutativeSemiring S>
Result<ProtocolResult<S>> RunTrivialProtocolAsync(
    const DistInstance<S>& inst, const AsyncProtocolOptions& opts = {}) {
  return internal::RunAsync(inst, internal::Plan::kGatherAll, opts);
}

/// The Theorem 4.1 / 5.2 protocol as an event-driven star DAG, with
/// streaming transfers, per-node page budgets, and makespan accounting
/// instead of rounds.
template <CommutativeSemiring S>
Result<ProtocolResult<S>> RunCoreForestProtocolAsync(
    const DistInstance<S>& inst, const AsyncProtocolOptions& opts = {}) {
  return internal::RunAsync(inst, internal::Plan::kCoreForest, opts);
}

}  // namespace topofaq

#endif  // TOPOFAQ_PROTOCOLS_ASYNC_H_
