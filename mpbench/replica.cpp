#include "replica.hpp"

#include <string>
#include <vector>

namespace mpbench {

using namespace marcopolo;

core::ResultStore traced_campaign(const core::Testbed& testbed,
                                  const core::FastCampaignConfig& config,
                                  Tracer& tracer, CampaignCounts& counts,
                                  const bgp::PropagationMetrics* metrics) {
  const auto& sites = testbed.sites();
  const auto& perspectives = testbed.perspectives();
  const std::vector<bgp::AttackType> attacks = config.attack_list();
  core::ResultStore store(sites.size(), perspectives.size(), attacks);
  const bgp::RoaRegistry* edge_roas =
      config.cloud_edge_rov ? config.roas : nullptr;

  const Tracer::NameId campaign_span = tracer.intern("core.campaign");
  const Tracer::NameId baseline_span = tracer.intern("bgp.baseline");
  const Tracer::NameId record_span = tracer.intern("core.record");
  std::vector<Tracer::NameId> replay_span;
  std::vector<Tracer::NameId> classify_span;
  for (const bgp::AttackType type : attacks) {
    replay_span.push_back(
        tracer.intern(std::string("bgp.replay.") + bgp::to_cstring(type)));
    classify_span.push_back(
        tracer.intern(std::string("cloud.classify.") + bgp::to_cstring(type)));
  }

  bgp::DeltaPropagation delta;
  bgp::HijackScenario scenario;
  bgp::PropagationWorkspace ws;
  std::vector<bgp::OriginReached> outcomes(perspectives.size());
  const bgp::PropagationConfig pc{config.tie_break, config.tie_break_seed,
                                  config.roas, metrics, nullptr};

  const auto campaign = tracer.span(campaign_span);
  for (std::size_t v = 0; v < sites.size(); ++v) {
    {
      const auto span = tracer.span(baseline_span);
      delta.set_victim_baseline(testbed.internet().graph(), sites[v].node,
                                config.victim_prefix(v), pc);
    }
    ++counts.baselines;
    for (std::size_t a = 0; a < sites.size(); ++a) {
      if (a == v) continue;
      for (std::size_t ai = 0; ai < attacks.size(); ++ai) {
        const auto plane = static_cast<std::size_t>(attacks[ai]);
        const bgp::ScenarioConfig sc{attacks[ai],   config.tie_break,
                                     config.tie_break_seed, config.roas,
                                     metrics,       nullptr};
        {
          const auto span = tracer.span(replay_span[ai]);
          scenario.reset_incremental(delta, sites[a].node, sc, ws);
        }
        ++counts.replays[plane];
        counts.up_nodes[plane] += delta.stats().up_recomputed;
        counts.up_changed[plane] += delta.stats().up_changed;
        {
          const auto span = tracer.span(classify_span[ai]);
          for (const core::PerspectiveRecord& rec : perspectives) {
            outcomes[rec.index] =
                testbed.perspective_outcome(rec.index, scenario, edge_roas);
          }
        }
        counts.verdicts += perspectives.size();
        counts.down_nodes[plane] += delta.stats().down_recomputed;
        {
          const auto span = tracer.span(record_span);
          for (const core::PerspectiveRecord& rec : perspectives) {
            store.record_unsynchronized(ai, static_cast<core::SiteIndex>(v),
                                        static_cast<core::SiteIndex>(a),
                                        rec.index, outcomes[rec.index]);
          }
        }
        ++counts.rows_recorded;
      }
    }
  }
  return store;
}

}  // namespace mpbench
