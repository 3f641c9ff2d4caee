// Observability parity between single-index and sharded engines
// (DESIGN.md §14-15): a query over a sharded index runs the same
// pipeline after clustering, so it must feed the same sama_query_*
// and sama_search_* series, the slow-query log and the profile ring
// exactly like a single-index query does.

#include <gtest/gtest.h>

#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "datasets/govtrack.h"
#include "graph/data_graph.h"
#include "index/path_index.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "shard/sharded_index.h"
#include "text/thesaurus.h"

namespace sama {
namespace {

// Every sama_query*/sama_search* series: counter values and histogram
// observation counts. Latencies differ between runs; how many times
// each series moved, and the deterministic search counters, must not.
std::map<std::string, double> QuerySeries(MetricsRegistry* registry) {
  std::map<std::string, double> out;
  for (const MetricSample& s : registry->Collect()) {
    if (s.name.rfind("sama_quer", 0) != 0 &&
        s.name.rfind("sama_search_", 0) != 0) {
      continue;
    }
    out[s.Key()] = s.kind == MetricKind::kHistogram
                       ? static_cast<double>(s.count)
                       : s.value;
  }
  return out;
}

// Names of the phase spans directly under the profile's "query" root.
std::vector<std::string> TopLevelPhases(const QueryProfile& profile) {
  std::vector<std::string> out;
  for (size_t root : profile.roots()) {
    for (size_t child : profile.nodes()[root].children) {
      out.push_back(profile.nodes()[child].name);
    }
  }
  return out;
}

const ProfileNode* FindNode(const QueryProfile& profile,
                            const std::string& name) {
  for (const ProfileNode& node : profile.nodes()) {
    if (node.name == name) return &node;
  }
  return nullptr;
}

TEST(ShardedObsTest, ShardedQueryFeedsTheSameSignalsAsSingleIndex) {
  DataGraph graph = DataGraph::FromTriples(GovTrackFigure1Triples());
  Thesaurus thesaurus = Thesaurus::BuiltinEnglish();
  PathIndex single_index;
  ASSERT_TRUE(single_index.Build(graph, PathIndexOptions()).ok());
  std::string dir = testing::TempDir() + "/sharded_obs_parity";
  std::filesystem::remove_all(dir);
  ShardedIndexOptions shard_options;
  shard_options.num_shards = 2;
  ASSERT_TRUE(BuildShardedIndex(graph, dir, shard_options).ok());
  ShardedIndex sharded_index;
  ASSERT_TRUE(sharded_index.Open(&graph, dir, /*strict=*/true).ok());

  MetricsRegistry single_registry, sharded_registry;
  auto options_for = [](MetricsRegistry* registry) {
    EngineOptions options;
    options.obs.registry = registry;
    options.obs.profile = true;
    // The smallest threshold the log accepts (<= 0 disables it): every
    // query qualifies.
    options.obs.slow_query_millis = std::numeric_limits<double>::min();
    return options;
  };
  SamaEngine single(&graph, &single_index, &thesaurus,
                    options_for(&single_registry));
  SamaEngine sharded(&graph, &sharded_index, &thesaurus,
                     options_for(&sharded_registry));

  QueryGraph query = single.BuildQueryGraph(GovTrackQuery1Patterns());
  QueryStats single_stats, sharded_stats;
  ASSERT_TRUE(single.Execute(query, 5, &single_stats).ok());
  ASSERT_TRUE(sharded.Execute(query, 5, &sharded_stats).ok());

  // Metrics: the same series, moved the same number of times.
  std::map<std::string, double> want = QuerySeries(&single_registry);
  EXPECT_EQ(want["sama_queries_total"], 1);
  EXPECT_EQ(want["sama_query_latency_millis"], 1);
  EXPECT_EQ(want["sama_query_phase_millis{phase=\"clustering\"}"], 1);
  EXPECT_EQ(want["sama_query_phase_millis{phase=\"search\"}"], 1);
  EXPECT_EQ(QuerySeries(&sharded_registry), want);
  // The shard-specific signal that remains, on the sharded engine only.
  EXPECT_EQ(sharded_registry.GetGauge("sama_shard_degraded", "")->Value(),
            0.0);
  EXPECT_EQ(sharded_stats.shards_degraded, 0u);

  // Slow-query log: one record each.
  ASSERT_NE(single.slow_query_log(), nullptr);
  ASSERT_NE(sharded.slow_query_log(), nullptr);
  EXPECT_EQ(single.slow_query_log()->total_recorded(), 1u);
  EXPECT_EQ(sharded.slow_query_log()->total_recorded(), 1u);
  EXPECT_EQ(sharded.slow_query_log()->Snapshot().at(0).search_expansions,
            single.slow_query_log()->Snapshot().at(0).search_expansions);

  // Profiles: the same phases, and the same search work inside them.
  ASSERT_NE(single_stats.profile, nullptr);
  ASSERT_NE(sharded_stats.profile, nullptr);
  EXPECT_EQ(TopLevelPhases(*sharded_stats.profile),
            TopLevelPhases(*single_stats.profile));
  for (const char* phase : {"clustering", "search"}) {
    const ProfileNode* a = FindNode(*single_stats.profile, phase);
    const ProfileNode* b = FindNode(*sharded_stats.profile, phase);
    ASSERT_NE(a, nullptr) << phase;
    ASSERT_NE(b, nullptr) << phase;
    EXPECT_EQ(b->counters.search_expansions, a->counters.search_expansions)
        << phase;
  }
  // The sharded clustering phase shows one child span per shard.
  for (const char* shard_span : {"shard-0.cluster", "shard-1.cluster"}) {
    EXPECT_NE(FindNode(*sharded_stats.profile, shard_span), nullptr)
        << shard_span;
  }
  ASSERT_NE(sharded.profile_log(), nullptr);
  EXPECT_EQ(sharded.profile_log()->Snapshot().size(), 1u);
}

}  // namespace
}  // namespace sama
