// Differential oracle for the incremental (baseline + delta) engine: for
// randomized victim/adversary pairs — with and without ROV deployment —
// DeltaPropagation must answer every query exactly as a full two-origin
// propagation does: same reachability and role at every node, the same
// best route (full value equality), and the same Adj-RIB-In as a multiset.
// SubPrefixDelta.* holds the empty-baseline mode to the same standard
// against a full single-origin propagation of the forged-origin /25.
#include "bgp/delta.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "bgp/propagation.hpp"
#include "netsim/random.hpp"
#include "topo/internet.hpp"

namespace marcopolo::bgp {
namespace {

const netsim::Ipv4Prefix kPrefix = *netsim::Ipv4Prefix::parse("203.0.113.0/24");

bool candidate_eq(const RouteCandidate& a, const RouteCandidate& b) {
  return a.ann.prefix == b.ann.prefix && a.ann.as_path == b.ann.as_path &&
         a.ann.role == b.ann.role && a.ann.otc == b.ann.otc &&
         a.source == b.source && a.from == b.from &&
         a.from_asn == b.from_asn && a.ingress_pop == b.ingress_pop;
}

/// Sorts a rib into a canonical order so two deliveries of the same
/// multiset compare equal element-wise regardless of delivery order.
void canonicalize(std::vector<RouteCandidate>& rib) {
  std::sort(rib.begin(), rib.end(),
            [](const RouteCandidate& a, const RouteCandidate& b) {
              return std::tie(a.source, a.ann.role, a.ann.as_path, a.from_asn,
                              a.ingress_pop, a.from) <
                     std::tie(b.source, b.ann.role, b.ann.as_path, b.from_asn,
                              b.ingress_pop, b.from);
            });
}

/// Checks every node's state in `delta` (after a replay) against `full`.
void expect_state_matches(const AsGraph& g, const DeltaPropagation& delta,
                          const PropagationResult& full) {
  std::optional<RouteCandidate> best;
  std::vector<RouteCandidate> rib;
  for (std::uint32_t i = 0; i < g.size(); ++i) {
    const NodeId n{i};
    ASSERT_EQ(delta.reachable(n), full.reachable(n)) << "node " << i;
    ASSERT_EQ(delta.role_reached(n), full.role_reached(n)) << "node " << i;

    delta.materialize_best(n, best);
    ASSERT_EQ(best.has_value(), full.best[i].has_value()) << "node " << i;
    if (best.has_value()) {
      ASSERT_TRUE(candidate_eq(*best, *full.best[i]))
          << "best route diverges at node " << i << ": delta path ["
          << best->ann.path_string() << "] vs full ["
          << full.best[i]->ann.path_string() << "]";
    }

    delta.materialize_rib(n, rib);
    std::vector<RouteCandidate> expected = full.rib_in[i];
    canonicalize(rib);
    canonicalize(expected);
    ASSERT_EQ(rib.size(), expected.size()) << "rib size at node " << i;
    for (std::size_t k = 0; k < rib.size(); ++k) {
      ASSERT_TRUE(candidate_eq(rib[k], expected[k]))
          << "rib entry " << k << " diverges at node " << i;
    }
  }
}

/// Replays `adv_ann` over `delta`'s baseline and checks every node's state
/// against a from-scratch two-origin propagation under the same config.
void expect_matches_full(const AsGraph& g, DeltaPropagation& delta,
                         NodeId victim, NodeId adversary,
                         const Announcement& adv_ann,
                         const PropagationConfig& pc) {
  const auto full = propagate(
      g,
      {SeededRoute{victim, Announcement{kPrefix, {}, OriginRole::Victim}},
       SeededRoute{adversary, adv_ann}},
      pc);
  const RouteComparator cmp(pc.tie_break, pc.tie_break_seed);
  delta.replay(adversary, adv_ann, cmp);
  expect_state_matches(g, delta, full);
}

/// Small-but-real topology: every tier, peering mesh, geographic bias.
topo::Internet small_internet(std::uint64_t seed) {
  topo::InternetConfig cfg;
  cfg.seed = seed;
  cfg.num_tier1 = 6;
  cfg.num_tier2 = 24;
  cfg.num_tier3 = 60;
  cfg.num_stub = 110;
  return topo::Internet(cfg);
}

TEST(DeltaPropagation, RandomPairsMatchFullPropagation) {
  const topo::Internet net = small_internet(7);
  const AsGraph& g = net.graph();
  netsim::Rng rng(0xD1FF);

  for (int trial = 0; trial < 8; ++trial) {
    const NodeId victim{static_cast<std::uint32_t>(rng.index(g.size()))};
    NodeId adversary{static_cast<std::uint32_t>(rng.index(g.size()))};
    while (adversary == victim) {
      adversary = NodeId{static_cast<std::uint32_t>(rng.index(g.size()))};
    }
    // Per-pair salted comparator, as a campaign would use.
    PropagationConfig pc;
    pc.tie_break = TieBreakMode::Hashed;
    pc.tie_break_seed =
        netsim::hash_combine(0xCAFE, static_cast<std::uint64_t>(trial));

    DeltaPropagation delta;
    delta.set_victim_baseline(g, victim, kPrefix, pc);
    // Equally-specific origination, then a forged-origin prepend replayed
    // over the same baseline.
    expect_matches_full(g, delta, victim, adversary,
                        Announcement{kPrefix, {}, OriginRole::Adversary}, pc);
    expect_matches_full(
        g, delta, victim, adversary,
        Announcement{kPrefix, {g.asn_of(victim)}, OriginRole::Adversary}, pc);
  }
}

TEST(DeltaPropagation, RovTopologyMatchesFullPropagation) {
  topo::Internet net = small_internet(11);
  net.deploy_rov(0.5, 0xA2);
  const AsGraph& g = net.graph();
  RoaRegistry roas;
  netsim::Rng rng(0x5EED);

  for (int trial = 0; trial < 6; ++trial) {
    const NodeId victim{static_cast<std::uint32_t>(rng.index(g.size()))};
    NodeId adversary{static_cast<std::uint32_t>(rng.index(g.size()))};
    while (adversary == victim) {
      adversary = NodeId{static_cast<std::uint32_t>(rng.index(g.size()))};
    }
    // The victim holds the only ROA for the prefix: the adversary's plain
    // origination is Invalid at every enforcing AS, while its forged-origin
    // prepend stays Valid.
    roas.add(Roa{kPrefix, g.asn_of(victim), std::nullopt});

    PropagationConfig pc;
    pc.tie_break = TieBreakMode::Hashed;
    pc.tie_break_seed =
        netsim::hash_combine(0xBEEF, static_cast<std::uint64_t>(trial));
    pc.roas = &roas;

    DeltaPropagation delta;
    delta.set_victim_baseline(g, victim, kPrefix, pc);
    expect_matches_full(g, delta, victim, adversary,
                        Announcement{kPrefix, {}, OriginRole::Adversary}, pc);
    expect_matches_full(
        g, delta, victim, adversary,
        Announcement{kPrefix, {g.asn_of(victim)}, OriginRole::Adversary}, pc);

    roas.remove(kPrefix, g.asn_of(victim));
  }
}

TEST(DeltaPropagation, ManyReplaysOverOneBaseline) {
  // The campaign pattern: one victim baseline, every adversary replayed
  // over it in sequence (with a replay_none interleaved, as SubPrefix
  // attacks do). Each replay must be independent of its predecessors.
  const topo::Internet net = small_internet(23);
  const AsGraph& g = net.graph();

  const NodeId victim = net.stubs().front();
  PropagationConfig pc;
  pc.tie_break = TieBreakMode::Hashed;
  pc.tie_break_seed = 0xABCD;

  DeltaPropagation delta;
  delta.set_victim_baseline(g, victim, kPrefix, pc);

  netsim::Rng rng(99);
  for (int trial = 0; trial < 10; ++trial) {
    NodeId adversary{static_cast<std::uint32_t>(rng.index(g.size()))};
    while (adversary == victim) {
      adversary = NodeId{static_cast<std::uint32_t>(rng.index(g.size()))};
    }
    if (trial == 5) delta.replay_none();
    expect_matches_full(g, delta, victim, adversary,
                        Announcement{kPrefix, {}, OriginRole::Adversary}, pc);
    EXPECT_GT(delta.stats().up_recomputed, 0u);
  }
}

TEST(DeltaPropagation, ReplayNoneRestoresVictimOnlyBaseline) {
  const topo::Internet net = small_internet(31);
  const AsGraph& g = net.graph();
  const NodeId victim = net.tier3().front();
  const NodeId adversary = net.stubs().back();

  PropagationConfig pc;
  const auto victim_only = propagate(
      g, {SeededRoute{victim, Announcement{kPrefix, {}, OriginRole::Victim}}},
      pc);

  DeltaPropagation delta;
  delta.set_victim_baseline(g, victim, kPrefix, pc);
  const RouteComparator cmp(pc.tie_break, pc.tie_break_seed);
  delta.replay(adversary, Announcement{kPrefix, {}, OriginRole::Adversary},
               cmp);
  delta.replay_none();

  std::optional<RouteCandidate> best;
  for (std::uint32_t i = 0; i < g.size(); ++i) {
    const NodeId n{i};
    ASSERT_EQ(delta.reachable(n), victim_only.reachable(n)) << "node " << i;
    ASSERT_EQ(delta.role_reached(n), victim_only.role_reached(n))
        << "node " << i;
    delta.materialize_best(n, best);
    ASSERT_EQ(best.has_value(), victim_only.best[i].has_value());
    if (best.has_value()) {
      ASSERT_TRUE(candidate_eq(*best, *victim_only.best[i])) << "node " << i;
    }
  }
  EXPECT_EQ(delta.stats().up_recomputed, 0u)
      << "replay_none re-runs no decision process";
}

TEST(DeltaPropagation, RebindingRecyclesStorage) {
  // One engine object across victims, as a campaign worker uses it.
  const topo::Internet net = small_internet(47);
  const AsGraph& g = net.graph();
  PropagationConfig pc;
  pc.tie_break = TieBreakMode::Hashed;
  pc.tie_break_seed = 7;

  DeltaPropagation delta;
  for (const NodeId victim : {net.stubs()[0], net.stubs()[5], net.tier2()[1]}) {
    delta.set_victim_baseline(g, victim, kPrefix, pc);
    const NodeId adversary =
        victim == net.stubs()[0] ? net.stubs()[5] : net.stubs()[0];
    expect_matches_full(g, delta, victim, adversary,
                        Announcement{kPrefix, {}, OriginRole::Adversary}, pc);
  }
}

TEST(DeltaPropagation, GuardsAgainstMisuse) {
  const topo::Internet net = small_internet(3);
  const AsGraph& g = net.graph();
  const RouteComparator cmp(TieBreakMode::VictimFirst, 0);

  DeltaPropagation delta;
  EXPECT_THROW(delta.replay(net.stubs()[0],
                            Announcement{kPrefix, {}, OriginRole::Adversary},
                            cmp),
               std::logic_error);
  EXPECT_THROW(delta.replay_none(), std::logic_error);

  delta.set_victim_baseline(g, net.stubs()[0], kPrefix, PropagationConfig{});
  EXPECT_THROW(
      delta.replay(net.stubs()[0],
                   Announcement{kPrefix, {}, OriginRole::Adversary}, cmp),
      std::invalid_argument)
      << "adversary == victim";
  const netsim::Ipv4Prefix other = *netsim::Ipv4Prefix::parse("198.51.100.0/24");
  EXPECT_THROW(
      delta.replay(net.stubs()[1], Announcement{other, {}, OriginRole::Adversary},
                   cmp),
      std::invalid_argument)
      << "prefix mismatch";
}

// ------------------------------------------ sub-prefix over empty baseline

const netsim::Ipv4Prefix kSubPrefix = kPrefix.split().second;

/// The sub-prefix hijack's announcement: the adversary originates the upper
/// /25 with the victim's ASN forged as origin.
Announcement forged_sub_prefix(const AsGraph& g, NodeId victim) {
  return Announcement{kSubPrefix, {g.asn_of(victim)}, OriginRole::Adversary};
}

/// Replays the forged-origin /25 over an empty baseline and checks every
/// node against a full propagation of the same single seed. Returns how
/// many nodes the more-specific reached.
std::size_t expect_sub_prefix_matches_full(const AsGraph& g,
                                           DeltaPropagation& delta,
                                           NodeId victim, NodeId adversary,
                                           const PropagationConfig& pc) {
  const Announcement ann = forged_sub_prefix(g, victim);
  const auto full = propagate(g, {SeededRoute{adversary, ann}}, pc);
  delta.set_empty_baseline(g, kSubPrefix, pc);
  delta.replay(adversary, ann, RouteComparator(pc.tie_break,
                                               pc.tie_break_seed));
  expect_state_matches(g, delta, full);
  EXPECT_FALSE(delta.reachable(victim))
      << "the victim drops its own forged origin (loop prevention)";
  std::size_t reached = 0;
  for (std::uint32_t i = 0; i < g.size(); ++i) {
    if (full.reachable(NodeId{i})) ++reached;
  }
  return reached;
}

/// Random distinct (victim, adversary) pairs from a fixed stream.
std::vector<std::pair<NodeId, NodeId>> random_pairs(const AsGraph& g,
                                                    std::uint64_t seed,
                                                    int count) {
  netsim::Rng rng(seed);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (int i = 0; i < count; ++i) {
    const NodeId victim{static_cast<std::uint32_t>(rng.index(g.size()))};
    NodeId adversary{static_cast<std::uint32_t>(rng.index(g.size()))};
    while (adversary == victim) {
      adversary = NodeId{static_cast<std::uint32_t>(rng.index(g.size()))};
    }
    pairs.emplace_back(victim, adversary);
  }
  return pairs;
}

TEST(SubPrefixDelta, RandomPairsMatchSingleOriginPropagation) {
  const topo::Internet net = small_internet(7);
  const AsGraph& g = net.graph();
  PropagationConfig pc;
  pc.tie_break = TieBreakMode::Hashed;
  pc.tie_break_seed = 0x5AB;
  // One engine across every pair, as a campaign worker holds it: the
  // binding never changes here, so each set_empty_baseline is a no-op and
  // the replays must not leak state into each other.
  // Transit victims on every tier join the random pairs: wherever the
  // victim sits, it drops its own forged origin and its cone is shaped by
  // that.
  auto pairs = random_pairs(g, 0x5B, 10);
  for (const NodeId transit :
       {net.tier3()[2], net.tier2()[1], net.tier1()[0]}) {
    pairs.emplace_back(transit, net.stubs()[7]);
  }
  DeltaPropagation delta;
  for (const auto& [victim, adversary] : pairs) {
    expect_sub_prefix_matches_full(g, delta, victim, adversary, pc);
  }
  EXPECT_FALSE(delta.victim().valid());
}

TEST(SubPrefixDelta, StrictRoaMakesTheSubPrefixInvalid) {
  topo::Internet net = small_internet(11);
  net.deploy_rov(0.5, 0xA2);
  const AsGraph& g = net.graph();
  for (const auto& [victim, adversary] : random_pairs(g, 0x5EED, 6)) {
    // A per-victim ROA for the /24 without MAX_LEN: the /25 is Invalid at
    // every enforcing AS, forged origin or not.
    RoaRegistry roas;
    roas.add(Roa{kPrefix, g.asn_of(victim), std::nullopt});
    PropagationConfig pc;
    pc.roas = &roas;
    DeltaPropagation delta;
    const std::size_t with_rov =
        expect_sub_prefix_matches_full(g, delta, victim, adversary, pc);
    pc.roas = nullptr;
    const std::size_t without_rov =
        expect_sub_prefix_matches_full(g, delta, victim, adversary, pc);
    EXPECT_LE(with_rov, without_rov);
  }
}

TEST(SubPrefixDelta, MaxLenRoaLetsTheSubPrefixThrough) {
  topo::Internet net = small_internet(13);
  net.deploy_rov(0.5, 0xA3);
  const AsGraph& g = net.graph();
  for (const auto& [victim, adversary] : random_pairs(g, 0xFEED, 6)) {
    RoaRegistry roas;
    roas.add(Roa{kPrefix, g.asn_of(victim), 25});
    PropagationConfig pc;
    pc.roas = &roas;
    DeltaPropagation delta;
    expect_sub_prefix_matches_full(g, delta, victim, adversary, pc);
  }
}

TEST(SubPrefixDelta, MatchesUnderOtcDeployment) {
  topo::Internet net = small_internet(17);
  net.deploy_otc(0.5, 0x07C);
  const AsGraph& g = net.graph();
  PropagationConfig pc;
  pc.tie_break = TieBreakMode::Hashed;
  pc.tie_break_seed = 0x07C;
  DeltaPropagation delta;
  for (const auto& [victim, adversary] : random_pairs(g, 0x0C7, 8)) {
    expect_sub_prefix_matches_full(g, delta, victim, adversary, pc);
  }
}

TEST(SubPrefixDelta, TreeDependsOnTheVictimNotOnlyTheAdversary) {
  // adversary -> V1 -> T, with a stub S also under T. The adversary's
  // more-specific carries the victim's ASN as origin, so when V1 is the
  // victim it drops the route and T never hears it; when S is the victim,
  // T does. One adversary, same ROV validity (no ROAs), two different
  // trees: a cache keyed by (adversary, validity) would be wrong.
  AsGraph g;
  const NodeId adversary = g.add_as(Asn{100});
  const NodeId v1 = g.add_as(Asn{200});
  const NodeId t = g.add_as(Asn{300});
  const NodeId s = g.add_as(Asn{400});
  g.add_provider_customer(v1, adversary);
  g.add_provider_customer(t, v1);
  g.add_provider_customer(t, s);

  const PropagationConfig pc;
  DeltaPropagation delta;
  EXPECT_EQ(expect_sub_prefix_matches_full(g, delta, v1, adversary, pc), 1u);
  EXPECT_FALSE(delta.reachable(t)) << "transit victim V1 cuts T off";
  EXPECT_EQ(expect_sub_prefix_matches_full(g, delta, s, adversary, pc), 3u);
  EXPECT_TRUE(delta.reachable(t)) << "with S as victim, T routes to it";
}

TEST(SubPrefixDelta, RebindsWhenTheBindingChanges) {
  topo::Internet net = small_internet(29);
  net.deploy_rov(1.0, 0xA4);
  const AsGraph& g = net.graph();
  const NodeId victim = net.stubs()[0];
  const NodeId adversary = net.stubs()[4];
  PropagationConfig pc;
  DeltaPropagation delta;
  expect_sub_prefix_matches_full(g, delta, victim, adversary, pc);

  // A different prefix needs a rebind before a replay can use it.
  const Announcement lower{kPrefix.split().first, {g.asn_of(victim)},
                           OriginRole::Adversary};
  EXPECT_THROW(delta.replay(adversary, lower,
                            RouteComparator(pc.tie_break, pc.tie_break_seed)),
               std::invalid_argument);
  delta.set_empty_baseline(g, lower.prefix, pc);
  EXPECT_EQ(delta.prefix(), lower.prefix);
  expect_sub_prefix_matches_full(g, delta, victim, adversary, pc);

  // Only the ROA registry changes: validity does, so the rebind must
  // take the new registry.
  RoaRegistry roas;
  roas.add(Roa{kPrefix, g.asn_of(victim), std::nullopt});
  pc.roas = &roas;
  expect_sub_prefix_matches_full(g, delta, victim, adversary, pc);

  // Only the topology changes (same graph object, one more AS): the
  // engine must resize for it rather than reuse the stale binding.
  const NodeId late = net.graph().add_as(Asn{65000});
  net.graph().add_provider_customer(adversary, late);
  expect_sub_prefix_matches_full(g, delta, victim, adversary, pc);
  EXPECT_TRUE(delta.reachable(late)) << "non-enforcing customer of the seed";
  expect_sub_prefix_matches_full(g, delta, victim, late, pc);
}

}  // namespace
}  // namespace marcopolo::bgp
