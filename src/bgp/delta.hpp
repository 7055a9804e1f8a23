// Incremental (baseline + delta) route propagation.
//
// A hijack campaign evaluates one victim against many adversaries. The full
// engine re-propagates both announcements from scratch per pair, but the
// victim-only part of that work is identical across every adversary: the
// victim's announcement carries a single origin role, so no comparison ever
// reaches the route-age coin and the baseline is independent of the
// per-pair tie-break salt. This engine propagates the victim's baseline
// once, then replays each adversary announcement as a delta — an
// event-driven UPDATE walk that re-runs the decision process only on the
// affected frontier of the AS graph and stops wherever the incumbent best
// route survives.
//
// The key identity making a per-node delta sufficient (DESIGN.md §11): under
// the engine's three ranked phases, the entire converged state of a node n
// is captured by two exports,
//   C(n) = best candidate among {self seeds, customer-learned routes},
//   D(n) = best candidate overall (the final best route),
// because n's contribution to any neighbor is a pure function of these:
// providers and peers of n receive C(n), customers receive D(n), each
// prepended with n's ASN and filtered by the receiver's loop/ROV checks.
//
// replay() eagerly recomputes only C' — ascending by customer rank from the
// adversary, enqueueing providers only when an export value actually
// changed; that frontier is the adversary's provider ancestry, which is
// tiny. D' is NOT swept: an equally-specific hijack flips the best route of
// roughly half the Internet, but a campaign pair only ever queries a few
// hundred nodes (the cloud backbones and their resolution cones), so D'(n)
// is evaluated lazily on first query — D'(n) = C'(n) when C'(n) exists,
// else a recompute whose provider inputs recurse through D'. Provider edges
// strictly increase customer rank, so the recursion is well-founded, and
// per-epoch memoization makes repeated queries O(1).
//
// Routes are held in a compact arena form — parent-linked paths, one node
// per prepend — so the replay hot path performs no heap allocation; real
// RouteCandidate vectors are materialized only at queried nodes (the cloud
// backbones). Materialized results are value-identical to the full engine's
// (same best route at every node, same Adj-RIB-In as a multiset), which a
// differential test enforces.
//
// The same machinery evaluates a prefix nobody else originates (the
// sub-prefix hijack's more-specific): over an empty baseline every base
// export is "no route", so replay() is an exact single-origin propagation
// whose eager cost is the adversary's provider ancestry and whose lazy
// cost is the queried cone (DESIGN.md §11).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "bgp/propagation.hpp"

namespace marcopolo::bgp {

class DeltaPropagation {
 public:
  /// Replay statistics for the last replay() call. The up numbers are
  /// final when replay() returns; the down numbers grow as queries lazily
  /// evaluate nodes.
  struct ReplayStats {
    std::uint64_t up_recomputed = 0;    ///< Nodes re-decided in the up phase.
    std::uint64_t down_recomputed = 0;  ///< Nodes lazily evaluated so far.
    std::uint64_t up_changed = 0;       ///< Up exports that actually changed.
    std::uint64_t down_changed = 0;     ///< Down exports that differ so far.
  };

  /// Propagate the victim-only baseline: `victim` originates `prefix` with
  /// an empty path and OriginRole::Victim. The result is independent of the
  /// config's tie-break fields (a single-role propagation never reaches the
  /// route-age step); roas/metrics/flight are honored. Reusable: rebinding
  /// to a new victim or graph recycles all storage.
  void set_victim_baseline(const AsGraph& graph, NodeId victim,
                           netsim::Ipv4Prefix prefix,
                           const PropagationConfig& config);

  /// Bind an empty baseline: no AS originates `prefix`, so a replay() over
  /// it is an exact single-origin propagation of the replayed announcement
  /// (the sub-prefix hijack's more-specific). Nothing is propagated here
  /// and nothing is recorded; victim() is invalid. Rebinding to the same
  /// (graph topology, prefix, roas, metrics, flight) is O(1), so a caller
  /// may call this before every replay.
  void set_empty_baseline(const AsGraph& graph, netsim::Ipv4Prefix prefix,
                          const PropagationConfig& config);

  /// Replay `ann` originated at `adversary` as a delta over the baseline.
  /// `cmp` must be the per-pair comparator (route-age salt included). The
  /// announcement must share the baseline prefix. Invalidates the previous
  /// replay's state.
  void replay(NodeId adversary, const Announcement& ann,
              const RouteComparator& cmp);

  /// Drop any replay: queries afterwards see the pure baseline (used for
  /// sub-prefix attacks, whose primary-prefix state IS the baseline).
  void replay_none();

  [[nodiscard]] bool has_baseline() const { return graph_ != nullptr; }
  /// The baseline's origin; invalid for an empty baseline.
  [[nodiscard]] NodeId victim() const { return victim_; }
  [[nodiscard]] netsim::Ipv4Prefix prefix() const { return prefix_; }
  [[nodiscard]] const AsGraph& graph() const { return *graph_; }
  [[nodiscard]] const ReplayStats& stats() const { return stats_; }

  /// Queries over the current state (baseline + last replay), all
  /// value-identical to a full two-origin propagation.
  [[nodiscard]] bool reachable(NodeId n) const;
  [[nodiscard]] std::optional<OriginRole> role_reached(NodeId n) const;

  /// Materialize node n's best route / full Adj-RIB-In as engine-style
  /// candidates (heap paths). `out` is recycled. The rib is the engine's up
  /// to delivery order (equal as a multiset).
  void materialize_best(NodeId n, std::optional<RouteCandidate>& out) const;
  void materialize_rib(NodeId n, std::vector<RouteCandidate>& out) const;

  /// Node n's best route in the victim-only baseline, regardless of any
  /// active replay (reads the baseline tables directly, touches no epoch
  /// state). This is what a route-leak adversary re-exports: the route it
  /// learned before its own announcement existed.
  void materialize_baseline_best(NodeId n,
                                 std::optional<RouteCandidate>& out) const;

 private:
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

  /// One AS-path element; paths share tails structurally (each export adds
  /// exactly one node for its prepended ASN).
  struct PathNode {
    Asn asn;
    std::uint32_t parent = kNone;
  };

  /// A route in compact form: everything the decision process compares,
  /// plus the arena path for loop checks and materialization.
  struct Compact {
    bool exists = false;
    RouteSource source = RouteSource::Self;
    OriginRole role = OriginRole::Victim;
    std::uint32_t len = 0;       ///< Path length as stored in the rib.
    NodeId from;                 ///< Advertising neighbor (invalid = self).
    Asn from_asn;                ///< 0 for self.
    PopId pop;                   ///< Ingress POP on the receiver's side.
    std::uint32_t head = kNone;  ///< Arena index of path front (kNone = empty).
    Asn origin;                  ///< path.back(); 0 for an empty path.
    Asn otc;                     ///< RFC 9234 OTC as stored (post-ingress).

    [[nodiscard]] RouteKey key() const {
      return RouteKey{source, len, role, from_asn, pop};
    }
  };

  [[nodiscard]] std::uint32_t intern(Asn asn, std::uint32_t parent) const {
    arena_.push_back(PathNode{asn, parent});
    return static_cast<std::uint32_t>(arena_.size() - 1);
  }
  [[nodiscard]] bool chain_contains(std::uint32_t head, Asn asn) const;
  [[nodiscard]] bool export_equal(const Compact& a, const Compact& b) const;
  [[nodiscard]] Compact make_seed(NodeId at, const Announcement& ann);
  void materialize_compact(const Compact& d,
                           std::optional<RouteCandidate>& out) const;

  /// Current (post-replay) up state, falling back to the baseline for
  /// nodes the replay never touched. Final once replay() returns.
  [[nodiscard]] const Compact& up_state(NodeId n) const {
    return up_mark_[n.value] == epoch_ ? up_delta_[n.value]
                                       : up_base_[n.value];
  }
  /// Current down state. With no active adversary this is the baseline;
  /// during a replay epoch it is evaluated lazily on first query (memoized
  /// recursion through provider edges, which strictly increase rank).
  [[nodiscard]] const Compact& down_state(NodeId n) const {
    if (down_mark_[n.value] == epoch_) return down_delta_[n.value];
    if (delta_seed_epoch_ != epoch_) return down_base_[n.value];
    return down_eval(n);
  }
  const Compact& down_eval(NodeId n) const;

  /// Re-run the decision process at n over the given candidate class.
  /// `customer_class` selects {seeds + customer contributions} (the up
  /// recurrence); otherwise {peer + provider contributions} (the down
  /// recurrence for nodes with no customer-class route).
  [[nodiscard]] Compact recompute(NodeId n, bool customer_class,
                                  const RouteComparator& cmp) const;

  /// Point the engine at (graph, victim, prefix, config) and reset every
  /// table to "no route anywhere", recycling storage.
  void bind(const AsGraph& graph, NodeId victim, netsim::Ipv4Prefix prefix,
            const PropagationConfig& config);
  void run_baseline(const RouteComparator& cmp);
  void flush_replay_metrics() const;

  const AsGraph* graph_ = nullptr;
  NodeId victim_;
  netsim::Ipv4Prefix prefix_;
  const RoaRegistry* roas_ = nullptr;
  const PropagationMetrics* metrics_ = nullptr;
  obs::FlightBuffer* flight_ = nullptr;
  std::shared_ptr<const AsGraph::RankOrder> ranks_;

  // The arena and down-side tables are mutated from const queries (lazy
  // down evaluation); a DeltaPropagation is single-owner state, not shared
  // across threads.
  mutable std::vector<PathNode> arena_;
  std::uint32_t baseline_watermark_ = 0;  ///< Arena size after the baseline.

  std::vector<Compact> up_base_, down_base_;
  std::vector<Compact> up_delta_;
  mutable std::vector<Compact> down_delta_;
  // Epoch stamps: a slot is valid for the current replay iff its mark
  // equals epoch_, so replays reset in O(touched) instead of O(n).
  std::uint32_t epoch_ = 0;
  std::vector<std::uint32_t> up_mark_;
  mutable std::vector<std::uint32_t> down_mark_;
  std::vector<std::uint32_t> up_queued_;

  // Replay scratch, recycled across replays.
  std::vector<std::vector<std::uint32_t>> up_buckets_;

  // The victim's origination (baseline) and the adversary seed of the
  // current replay (epoch-gated).
  Compact victim_seed_;
  NodeId delta_seed_at_;
  Compact delta_seed_;
  std::uint32_t delta_seed_epoch_ = kNone;
  /// Per-pair comparator of the active replay, used by lazy evaluation.
  RouteComparator replay_cmp_{TieBreakMode::VictimFirst, 0};

  mutable ReplayStats stats_;
  // Engine-equivalent instrumentation, accumulated continuously (the up
  // sweep plus lazy query-time evaluation) and drained into the metrics
  // sink at the next flush.
  struct Counts {
    std::uint64_t delivered = 0;
    std::uint64_t loop_dropped = 0;
    std::uint64_t rov_dropped = 0;
    std::uint64_t otc_dropped = 0;
    std::array<std::uint64_t, kDecisionStepCount> decided{};
  };
  mutable Counts counts_;
};

}  // namespace marcopolo::bgp
