// A brute-force reference for ForestSearch. The reference walks the
// full cartesian product of the clusters, checks χ(pi, pj) > 0 on every
// intersection-query-graph edge by merging node sets, scores Λ + Ψ,
// dedups per binding tuple and ranks by (score, enum_key). It shares no
// code with the search's forest edges, row intersection or pruning, so
// it checks them rather than restating them.
//
// The clusters are synthetic and seeded. They are built to hit the
// cases the forest edges must get right: a hub node that many
// candidates share (rows shared between candidates), a join position
// that completes two or more IG edges (row intersection), prefixes
// whose rows intersect to nothing, and an empty cluster.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "core/forest_search.h"
#include "core/intersection_graph.h"
#include "core/score.h"
#include "query/query_graph.h"

namespace sama {
namespace {

constexpr size_t kTopK[] = {0, 1, 5};
constexpr size_t kHub = 0;

Term Var(const std::string& name) { return Term::Variable(name); }
Term Pred(const std::string& name) { return Term::Iri("http://o/" + name); }

struct Fixture {
  std::string name;
  QueryGraph query;
  std::vector<Cluster> clusters;
};

// Candidates for every query path: 2-4 distinct nodes out of
// `universe`, the hub with probability 0.4, λ in steps of 0.25 (ties
// included) and φ binding the path's variables to one of three values,
// so bindings conflict and dedup tuples collide.
std::vector<Cluster> MakeClusters(const QueryGraph& query,
                                  const std::vector<size_t>& sizes,
                                  size_t universe, uint64_t seed) {
  Random rng(seed);
  std::vector<Cluster> clusters(sizes.size());
  for (size_t qi = 0; qi < sizes.size(); ++qi) {
    const Path& q = query.paths()[qi];
    Cluster& cluster = clusters[qi];
    cluster.query_path_index = qi;
    for (size_t j = 0; j < sizes[qi]; ++j) {
      ScoredPath sp;
      const size_t length = static_cast<size_t>(rng.UniformInt(2, 4));
      if (rng.Bernoulli(0.4)) sp.path.nodes.push_back(kHub);
      while (sp.path.nodes.size() < length) {
        NodeId n = static_cast<NodeId>(rng.UniformInt(1, universe - 1));
        if (std::find(sp.path.nodes.begin(), sp.path.nodes.end(), n) ==
            sp.path.nodes.end()) {
          sp.path.nodes.push_back(n);
        }
      }
      sp.path.node_labels.assign(length, 0);
      sp.path.edge_labels.assign(length - 1, 0);
      sp.alignment.lambda = 0.25 * static_cast<double>(rng.UniformInt(0, 8));
      for (TermId label : q.node_labels) {
        const Term& t = query.dict().term(label);
        if (!t.is_variable()) continue;
        const std::string value = "http://d/v" + std::to_string(rng.Uniform(3));
        sp.alignment.phi.Bind(t.value(), Term::Iri(value));
      }
      cluster.paths.push_back(std::move(sp));
    }
    std::stable_sort(cluster.paths.begin(), cluster.paths.end(),
                     [](const ScoredPath& a, const ScoredPath& b) {
                       return a.lambda() < b.lambda();
                     });
    for (size_t j = 0; j < cluster.paths.size(); ++j) {
      cluster.paths[j].id = static_cast<PathId>(qi * 1000 + j);
    }
  }
  return clusters;
}

// `arms` paths out of ?x: every pair shares ?x, so the IG is complete
// and every join position after the second completes two or more edges.
QueryGraph StarQuery(size_t arms) {
  std::vector<Triple> patterns;
  for (size_t i = 0; i < arms; ++i) {
    const std::string arm = std::to_string(i);
    patterns.push_back(Triple{Var("x"), Pred("p" + arm), Var("a" + arm)});
  }
  return QueryGraph::FromPatterns(patterns);
}

// Paths x-y-z, w-y-z and x-v: the first two share two nodes (|χ| = 2),
// the first and the last share one, the last two nothing.
QueryGraph ChainQuery() {
  return QueryGraph::FromPatterns({
      Triple{Var("x"), Pred("p1"), Var("y")},
      Triple{Var("y"), Pred("p2"), Var("z")},
      Triple{Var("w"), Pred("p3"), Var("y")},
      Triple{Var("x"), Pred("p4"), Var("v")},
  });
}

std::vector<Fixture> Fixtures() {
  std::vector<Fixture> out;
  auto add = [&](std::string name, QueryGraph query,
                 std::vector<size_t> sizes, size_t universe, uint64_t seed) {
    Fixture f{std::move(name), std::move(query), {}};
    EXPECT_EQ(f.query.paths().size(), sizes.size()) << f.name;
    f.clusters = MakeClusters(f.query, sizes, universe, seed);
    out.push_back(std::move(f));
  };
  add("star3", StarQuery(3), {18, 20, 22}, 24, 11);
  add("star3-sparse", StarQuery(3), {9, 10, 11}, 40, 12);
  add("star4", StarQuery(4), {6, 7, 8, 9}, 30, 13);
  add("chain", ChainQuery(), {17, 19, 21}, 20, 14);
  add("chain-empty", ChainQuery(), {12, 14, 0}, 20, 15);
  return out;
}

size_t Chi(const Path& a, const Path& b) {
  std::vector<NodeId> x = a.nodes, y = b.nodes;
  std::sort(x.begin(), x.end());
  std::sort(y.begin(), y.end());
  x.erase(std::unique(x.begin(), x.end()), x.end());
  y.erase(std::unique(y.begin(), y.end()), y.end());
  std::vector<NodeId> both;
  std::set_intersection(x.begin(), x.end(), y.begin(), y.end(),
                        std::back_inserter(both));
  return both.size();
}

// The documented join rule (forest_search.cc): the smallest non-empty
// cluster first, then the one with the most IG links to those already
// placed, smaller size on ties. Returns cluster indices.
std::vector<size_t> JoinOrder(const IntersectionQueryGraph& ig,
                              const std::vector<Cluster>& clusters) {
  std::vector<size_t> active;
  for (size_t i = 0; i < clusters.size(); ++i) {
    if (!clusters[i].empty()) active.push_back(i);
  }
  std::vector<size_t> order;
  size_t first = active[0];
  for (size_t c : active) {
    if (clusters[c].size() < clusters[first].size()) first = c;
  }
  order.push_back(first);
  while (order.size() < active.size()) {
    size_t best = clusters.size();
    size_t best_links = 0;
    for (size_t c : active) {
      if (std::find(order.begin(), order.end(), c) != order.end()) continue;
      size_t links = 0;
      for (size_t placed : order) {
        if (ig.ChiQ(c, placed) > 0) ++links;
      }
      if (best == clusters.size() || links > best_links ||
          (links == best_links && clusters[c].size() < clusters[best].size())) {
        best = c;
        best_links = links;
      }
    }
    order.push_back(best);
  }
  return order;
}

std::string TupleKey(const Answer& a, const std::vector<std::string>& vars) {
  std::string key;
  for (const Term& t : a.BindingTuple(vars)) key += t.ToString() + '\x1f';
  return key;
}

bool RankBefore(const Answer& a, const Answer& b) {
  if (a.score != b.score) return a.score < b.score;
  return a.enum_key < b.enum_key;
}

// Every combination of one candidate per non-empty cluster, scored and
// ranked without any of the search's machinery. Sums run in join
// order, as the search's do, so scores match bit for bit.
std::vector<Answer> Reference(const Fixture& f, const ScoreParams& params,
                              const ForestSearchOptions& options) {
  const QueryGraph& query = f.query;
  const std::vector<Cluster>& clusters = f.clusters;
  IntersectionQueryGraph ig(query);
  double empty_penalty = 0;
  for (const Cluster& c : clusters) {
    if (!c.empty()) continue;
    const Path& q = query.paths()[c.query_path_index];
    empty_penalty += params.a() * static_cast<double>(q.node_labels.size()) +
                     params.c() * static_cast<double>(q.edge_labels.size());
  }
  double empty_psi = 0;
  for (const IntersectionQueryGraph::SharedEdge& e : ig.edges()) {
    if (clusters[e.qi].empty() || clusters[e.qj].empty()) {
      empty_psi += PsiCost(e.shared.size(), 0, params);
    }
  }
  const std::vector<size_t> order = JoinOrder(ig, clusters);
  const size_t m = order.size();
  std::vector<size_t> position_of(clusters.size(), m);
  for (size_t pos = 0; pos < m; ++pos) position_of[order[pos]] = pos;

  std::vector<Answer> all;
  std::vector<uint32_t> pick(m, 0);
  while (true) {
    bool connected = true;
    double lambda_sum = 0;
    double psi_sum = 0;
    for (size_t pos = 0; pos < m; ++pos) {
      const ScoredPath& sp = clusters[order[pos]].paths[pick[pos]];
      lambda_sum = pos == 0 ? sp.lambda() : lambda_sum + sp.lambda();
      double psi_here = 0;
      for (const IntersectionQueryGraph::SharedEdge& e : ig.edges()) {
        size_t a = position_of[e.qi], b = position_of[e.qj];
        if (a >= m || b >= m) continue;
        if (a > b) std::swap(a, b);
        if (b != pos) continue;
        size_t chi_p = Chi(clusters[order[a]].paths[pick[a]].path, sp.path);
        if (chi_p == 0 && options.require_connected) connected = false;
        psi_here += PsiCost(e.shared.size(), chi_p, params);
      }
      psi_sum += psi_here;
    }
    if (connected) {
      Answer answer;
      answer.lambda_total = empty_penalty + lambda_sum;
      answer.psi_total = empty_psi + psi_sum;
      answer.score = answer.lambda_total + answer.psi_total;
      answer.enum_key = pick;
      std::vector<size_t> active = order;
      std::sort(active.begin(), active.end());
      std::vector<const ScoredPath*> by_lambda;
      for (size_t c : active) {
        const ScoredPath& sp = clusters[c].paths[pick[position_of[c]]];
        answer.parts.push_back(sp);
        answer.query_path_index.push_back(c);
        by_lambda.push_back(&sp);
      }
      std::stable_sort(by_lambda.begin(), by_lambda.end(),
                       [](const ScoredPath* a, const ScoredPath* b) {
                         return a->lambda() < b->lambda();
                       });
      for (const ScoredPath* sp : by_lambda) {
        if (!answer.binding.Merge(sp->alignment.phi)) answer.consistent = false;
      }
      all.push_back(std::move(answer));
    }
    size_t pos = m;
    while (pos-- > 0) {
      if (++pick[pos] < clusters[order[pos]].size()) break;
      pick[pos] = 0;
    }
    if (pos > m) break;  // Wrapped past position 0: every combination seen.
  }

  if (!options.dedup_vars.empty()) {
    std::map<std::string, Answer> best;
    for (Answer& a : all) {
      std::string key = TupleKey(a, options.dedup_vars);
      auto it = best.find(key);
      if (it == best.end()) {
        best.emplace(key, std::move(a));
      } else if (RankBefore(a, it->second)) {
        it->second = std::move(a);
      }
    }
    all.clear();
    for (auto& [key, a] : best) all.push_back(std::move(a));
  }
  std::sort(all.begin(), all.end(), RankBefore);
  if (options.k != 0 && all.size() > options.k) all.resize(options.k);
  return all;
}

// Lossless: scores via %.17g, the enumeration key, the chosen path per
// query path, consistency and the merged bindings.
std::string Signature(const std::vector<Answer>& answers) {
  std::string out;
  char buf[96];
  for (const Answer& a : answers) {
    std::snprintf(buf, sizeof(buf), "%.17g|%.17g|%.17g|", a.score,
                  a.lambda_total, a.psi_total);
    out += buf;
    for (uint32_t k : a.enum_key) out += std::to_string(k) + '.';
    out += '|';
    for (size_t i = 0; i < a.parts.size(); ++i) {
      out += std::to_string(a.query_path_index[i]) + ':' +
             std::to_string(a.parts[i].id) + ',';
    }
    std::map<std::string, std::string> bindings;
    for (const auto& [var, term] : a.binding.bindings()) {
      bindings[var] = term.ToString();
    }
    for (const auto& [var, term] : bindings) out += var + '=' + term + ' ';
    out += a.consistent ? ";ok\n" : ";inconsistent\n";
  }
  return out;
}

TEST(ForestOracleTest, FixturesHitSharedRowsIntersectionsAndEmptyRows) {
  bool shared_row = false;
  bool multi_edge = false;
  bool empty_intersection = false;
  for (const Fixture& f : Fixtures()) {
    IntersectionQueryGraph ig(f.query);
    const std::vector<size_t> order = JoinOrder(ig, f.clusters);
    for (size_t pos = 1; pos < order.size(); ++pos) {
      const Cluster& later = f.clusters[order[pos]];
      std::vector<size_t> back;
      for (size_t a = 0; a < pos; ++a) {
        if (ig.ChiQ(order[a], order[pos]) > 0) back.push_back(a);
      }
      if (back.size() >= 2) multi_edge = true;
      // Row of candidate `i` at position `a`: the later candidates
      // sharing a node with it.
      auto row = [&](size_t a, size_t i) {
        std::vector<size_t> r;
        for (size_t k = 0; k < later.size(); ++k) {
          if (Chi(f.clusters[order[a]].paths[i].path, later.paths[k].path) >
              0) {
            r.push_back(k);
          }
        }
        return r;
      };
      for (size_t a : back) {
        // A shared row: two candidates with the same non-empty node set
        // inside the later cluster (the hub alone is the usual one).
        std::map<std::vector<NodeId>, size_t> seen;
        for (const ScoredPath& sp : f.clusters[order[a]].paths) {
          std::vector<NodeId> in_later;
          for (NodeId n : sp.path.nodes) {
            for (const ScoredPath& other : later.paths) {
              if (std::count(other.path.nodes.begin(), other.path.nodes.end(),
                             n) != 0) {
                in_later.push_back(n);
                break;
              }
            }
          }
          std::sort(in_later.begin(), in_later.end());
          if (!in_later.empty() && ++seen[in_later] >= 2) shared_row = true;
        }
      }
      if (back.size() < 2) continue;
      const Cluster& c0 = f.clusters[order[back[0]]];
      const Cluster& c1 = f.clusters[order[back[1]]];
      for (size_t i = 0; i < c0.size() && !empty_intersection; ++i) {
        for (size_t j = 0; j < c1.size() && !empty_intersection; ++j) {
          if (ig.ChiQ(order[back[0]], order[back[1]]) > 0 &&
              Chi(c0.paths[i].path, c1.paths[j].path) == 0) {
            continue;  // Not a connected prefix.
          }
          std::vector<size_t> r0 = row(back[0], i), r1 = row(back[1], j);
          std::vector<size_t> both;
          std::set_intersection(r0.begin(), r0.end(), r1.begin(), r1.end(),
                                std::back_inserter(both));
          if (!r0.empty() && !r1.empty() && both.empty()) {
            empty_intersection = true;
          }
        }
      }
    }
  }
  EXPECT_TRUE(shared_row);
  EXPECT_TRUE(multi_edge);
  EXPECT_TRUE(empty_intersection);
}

TEST(ForestOracleTest, SearchMatchesBruteForce) {
  ThreadPool pool(2);  // With the caller: 3 threads.
  size_t compared = 0;
  for (const Fixture& f : Fixtures()) {
    IntersectionQueryGraph ig(f.query);
    for (bool connected : {true, false}) {
      for (bool dedup : {false, true}) {
        for (size_t k : kTopK) {
          ForestSearchOptions options;
          options.k = k;
          options.require_connected = connected;
          if (dedup) options.dedup_vars = {"x", "y"};
          options.max_expansions = 10000000;
          ScoreParams params;
          const std::string want = Signature(Reference(f, params, options));
          for (bool prune : {true, false}) {
            params.prune_search = prune;
            for (ThreadPool* threads : {static_cast<ThreadPool*>(nullptr),
                                        &pool}) {
              ForestSearchStats fstats;
              auto got = ForestSearch(f.query, ig, f.clusters, params,
                                      options, threads, nullptr, &fstats);
              ASSERT_TRUE(got.ok()) << got.status();
              EXPECT_FALSE(fstats.truncated);
              EXPECT_EQ(Signature(*got), want)
                  << f.name << " connected=" << connected
                  << " dedup=" << dedup << " k=" << k << " prune=" << prune
                  << " threads=" << (threads == nullptr ? 1 : 3);
              ++compared;
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(compared, 5u * 2 * 2 * 3 * 2 * 2);
}

}  // namespace
}  // namespace sama
