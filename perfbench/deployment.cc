#include "deployment.h"

#include <cstdio>
#include <filesystem>
#include <string>
#include <unordered_set>
#include <utility>

#include "common/random.h"
#include "common/zipf.h"
#include "datasets/govtrack.h"
#include "datasets/lubm.h"
#include "datasets/queries.h"
#include "query/sparql.h"

namespace perfbench {
namespace {

using sama::Triple;

// Distinct anchored queries generated for tail-serve. Far more than the
// caches hold, and each client draws uniformly, so few texts repeat.
constexpr size_t kTailPoolSize = 8000;

// Insert/delete candidates generated for read-write.
constexpr size_t kUpdateTriples = 256;

const char kUbPrefix[] = "PREFIX ub: <http://lubm.example.org/univ-bench#>\n";
const char kGovPrefix[] = "PREFIX gov: <http://gov.example.org/>\n";

std::string Entity(const std::string& local) {
  return "<http://lubm.example.org/data/" + local + ">";
}

void Add(std::vector<MixQuery>* mix, std::string name, std::string sparql,
         uint32_t k) {
  MixQuery q;
  q.name = std::move(name);
  q.request.sparql = std::move(sparql);
  q.request.k = k;
  mix->push_back(std::move(q));
}

void AssignZipf(std::vector<MixQuery>* mix) {
  std::vector<std::string> names;
  for (const MixQuery& q : *mix) names.push_back(q.name);
  std::vector<double> weights = sama::ZipfWeights(names, 1.1);
  for (size_t i = 0; i < mix->size(); ++i) (*mix)[i].weight = weights[i];
}

void AddLubmQueries(std::vector<MixQuery>* mix, size_t first, size_t last,
                    uint32_t k) {
  for (const sama::BenchmarkQuery& q : sama::MakeLubmQueries()) {
    size_t number = std::stoul(q.name.substr(1));
    if (number >= first && number <= last) Add(mix, q.name, q.sparql, k);
  }
}

// Selective templates over LUBM, each query path anchored on one
// seeded constant (department, course, professor or university).
std::vector<MixQuery> TailPool(const sama::LubmConfig& config, uint64_t seed,
                               uint32_t k) {
  sama::Random rng(seed * 0x9e3779b97f4a7c15ULL + 17);
  std::vector<MixQuery> mix;
  std::unordered_set<std::string> seen;
  while (mix.size() < kTailPoolSize) {
    std::string univ = std::to_string(rng.Uniform(config.universities));
    std::string dept = "Department" +
                       std::to_string(rng.Uniform(
                           config.departments_per_university)) +
                       "_Univ" + univ;
    std::string course =
        "Course" + std::to_string(rng.Uniform(config.courses_per_department)) +
        "_" + dept;
    std::string prof =
        "Professor" +
        std::to_string(rng.Uniform(config.professors_per_department)) + "_" +
        dept;
    std::string name;
    std::string body;
    switch (rng.Uniform(7)) {
      case 0:
        name = "worksFor:" + dept;
        body = "SELECT ?x WHERE { ?x ub:worksFor " + Entity(dept) + " }";
        break;
      case 1:
        name = "memberOf:" + dept;
        body = "SELECT ?s WHERE { ?s ub:memberOf " + Entity(dept) + " }";
        break;
      case 2:
        name = "takesCourse:" + course;
        body = "SELECT ?s WHERE { ?s ub:takesCourse " + Entity(course) + " }";
        break;
      case 3:
        name = "teacherOf:" + course;
        body = "SELECT ?p WHERE { ?p ub:teacherOf " + Entity(course) + " }";
        break;
      case 4:
        name = "advisor:" + prof;
        body = "SELECT ?s WHERE { ?s ub:advisor " + Entity(prof) + " }";
        break;
      case 5:
        name = "author:" + prof;
        body = "SELECT ?pub WHERE { ?pub ub:publicationAuthor " +
               Entity(prof) + " }";
        break;
      default:
        name = "subOrganizationOf:University" + univ;
        body = "SELECT ?x ?d WHERE { ?x ub:worksFor ?d . "
               "?d ub:subOrganizationOf " +
               Entity("University" + univ) + " }";
        break;
    }
    if (seen.insert(name).second) Add(&mix, name, kUbPrefix + body, k);
  }
  return mix;
}

// takesCourse/advisor statements between existing entities of
// University0 that the generated data does not contain, alternating, so
// every seed inserts the same share of each (an advisor edge adds
// several paths, a takesCourse edge one).
std::vector<Triple> UpdateTriples(const std::vector<Triple>& triples,
                                  const sama::LubmConfig& config,
                                  uint64_t seed) {
  std::unordered_set<std::string> present;
  for (const Triple& t : triples) present.insert(t.ToString());
  sama::Random rng(seed * 0xbf58476d1ce4e5b9ULL + 29);
  std::unordered_set<std::string> chosen;
  std::vector<Triple> out;
  const std::string ub = "http://lubm.example.org/univ-bench#";
  const std::string data = "http://lubm.example.org/data/";
  while (out.size() < kUpdateTriples) {
    std::string dept =
        "Department" +
        std::to_string(rng.Uniform(config.departments_per_university)) +
        "_Univ0";
    std::string student =
        "Student" + std::to_string(rng.Uniform(config.students_per_department)) +
        "_" + dept;
    Triple t;
    t.subject = sama::Term::Iri(data + student);
    if (out.size() % 2 == 0) {
      t.predicate = sama::Term::Iri(ub + "takesCourse");
      t.object = sama::Term::Iri(
          data + "Course" +
          std::to_string(rng.Uniform(config.courses_per_department)) + "_" +
          dept);
    } else {
      t.predicate = sama::Term::Iri(ub + "advisor");
      t.object = sama::Term::Iri(
          data + "Professor" +
          std::to_string(rng.Uniform(config.professors_per_department)) +
          "_" + dept);
    }
    std::string line = t.ToString();
    if (present.count(line) == 0 && chosen.insert(line).second) {
      out.push_back(std::move(t));
    }
  }
  return out;
}

}  // namespace

bool FindWorkload(const std::string& name, WorkloadSpec* spec) {
  WorkloadSpec s;
  s.name = name;
  if (name == "point-serve") {
    s.pick = Pick::kZipf;
    s.setups = 15;
  } else if (name == "tail-serve") {
    s.on_disk = true;
    s.universities = 200;
    s.pick = Pick::kUniform;
    s.setups = 3;
  } else if (name == "heavy-search") {
    s.universities = 1;
    s.pick = Pick::kRoundRobin;
    s.setups = 15;
    s.idle_poll = false;
  } else if (name == "read-write") {
    s.on_disk = true;
    s.updates = true;
    s.universities = 1;
    s.pick = Pick::kZipf;
    s.setups = 15;
  } else {
    return false;
  }
  *spec = s;
  return true;
}

WorkloadInputs GenerateInputs(const WorkloadSpec& spec, uint64_t seed) {
  WorkloadInputs in;
  if (spec.universities == 0) {
    in.triples = sama::GovTrackFigure1Triples();
    const std::string p = kGovPrefix;
    Add(&in.mix, "D1",
        p + "SELECT ?b WHERE { ?b gov:subject \"Health Care\" }", spec.k);
    Add(&in.mix, "D2", p + "SELECT ?a ?b WHERE { ?a gov:aTo ?b }", spec.k);
    Add(&in.mix, "D3",
        p + "SELECT ?v1 ?v2 WHERE { gov:CarlaBunes gov:sponsor ?v1 . "
            "?v1 gov:aTo ?v2 }",
        spec.k);
    Add(&in.mix, "D4",
        p + "SELECT ?p ?a WHERE { ?p gov:sponsor ?a . ?a gov:aTo gov:B0045 }",
        spec.k);
    AssignZipf(&in.mix);
    return in;
  }
  // The data is the generator's standard instance at this scale; the
  // seed drives the query and update streams. Seeded data moved the
  // work per query by up to 40% between seeds on LUBM x1 (expansions of
  // the Q1-Q5 mix ranged 2768-3847), which no engine change explains.
  sama::LubmConfig config;
  config.universities = spec.universities;
  in.triples = sama::GenerateLubm(config);
  if (spec.name == "tail-serve") {
    in.mix = TailPool(config, seed, spec.k);
  } else if (spec.name == "heavy-search") {
    AddLubmQueries(&in.mix, 6, 12, spec.k);
  } else {
    AddLubmQueries(&in.mix, 1, 5, spec.k);
    AssignZipf(&in.mix);
  }
  if (spec.updates) in.update_triples = UpdateTriples(in.triples, config, seed);
  return in;
}

Deployment::~Deployment() {
  if (server) server->Stop();
  server.reset();
  engine.reset();
  index.reset();
  if (!dir.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
}

bool Deployment::RestartServer(bool traced) {
  if (server) server->Stop();
  sama::BinaryQueryServer::Options options;
  options.num_workers = 2;
  options.max_connections = 16;
  options.default_k = 5;
  options.trace_requests = traced;
  options.trace_capacity = 1024;
  options.registry = &registry;
  server = std::make_unique<sama::BinaryQueryServer>(engine.get(), options);
  sama::Status s = server->Start();
  if (!s.ok()) {
    std::fprintf(stderr, "server start failed: %s\n", s.ToString().c_str());
    return false;
  }
  return true;
}

std::unique_ptr<Deployment> CreateDeployment(
    const WorkloadSpec& spec, const std::vector<sama::Triple>& triples,
    const std::string& dir) {
  auto dep = std::make_unique<Deployment>();
  dep->graph = std::make_unique<sama::DataGraph>(
      sama::DataGraph::FromTriples(triples));
  dep->index = std::make_unique<sama::PathIndex>();
  sama::PathIndexOptions index_options;
  if (spec.on_disk) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    dep->dir = dir;
    index_options.dir = dir;
  }
  sama::Status s = dep->index->Build(*dep->graph, index_options);
  if (!s.ok()) {
    std::fprintf(stderr, "index build failed: %s\n", s.ToString().c_str());
    return nullptr;
  }
  dep->thesaurus = sama::Thesaurus::BuiltinEnglish();
  sama::EngineOptions engine_options;
  engine_options.num_threads = 2;
  engine_options.obs.registry = &dep->registry;
  dep->engine = std::make_unique<sama::SamaEngine>(
      dep->graph.get(), dep->index.get(), &dep->thesaurus, engine_options);
  if (spec.updates) {
    sama::UpdateOptions update_options;
    update_options.checkpoint_every = 1024;
    update_options.registry = &dep->registry;
    s = dep->engine->EnableUpdates(dep->graph.get(), dep->index.get(),
                                   update_options);
    if (!s.ok()) {
      std::fprintf(stderr, "EnableUpdates failed: %s\n",
                   s.ToString().c_str());
      return nullptr;
    }
  }
  if (!dep->RestartServer(false)) return nullptr;
  return dep;
}

bool DirectPass(Deployment* dep, std::vector<MixQuery>* mix, size_t limit,
                std::string* error) {
  sama::EngineOptions options;
  options.num_threads = 1;
  options.search = dep->engine->options().search;
  options.obs.metrics = false;
  sama::SamaEngine direct(dep->graph.get(), dep->index.get(),
                          &dep->thesaurus, options);
  for (size_t i = 0; i < mix->size() && i < limit; ++i) {
    MixQuery& q = (*mix)[i];
    auto parsed = sama::ParseSparql(q.request.sparql);
    if (!parsed.ok()) {
      *error = q.name + " does not parse: " + parsed.status().ToString();
      return false;
    }
    sama::BufferPool::Stats before = dep->index->cache_stats();
    sama::QueryStats stats;
    auto answers = direct.ExecuteSparql(*parsed, q.request.k, &stats);
    if (!answers.ok()) {
      *error = q.name + " failed: " + answers.status().ToString();
      return false;
    }
    sama::BufferPool::Stats after = dep->index->cache_stats();
    q.expected = sama::EncodeQueryResult(sama::MakeQueryResultWire(
        *answers, parsed->select_vars, stats.search_truncated));
    q.truncated = stats.search_truncated;
    q.expansions = stats.search_expansions;
    q.candidate_paths = stats.num_candidate_paths;
    q.pool_fetches = after.fetches - before.fetches;
  }
  return true;
}

TracedPass DirectTracedPass(const Deployment& dep,
                            const std::vector<MixQuery>& mix, size_t limit,
                            SpanBuffer* spans) {
  TracedPass out;
  for (size_t i = 0; i < mix.size() && i < limit; ++i) {
    const MixQuery& q = mix[i];
    uint64_t parse = spans->Begin("ParseSparql", 0, 0);
    auto parsed = sama::ParseSparql(q.request.sparql);
    spans->End(parse);
    if (!parsed.ok()) {
      ++out.mismatches;
      continue;
    }
    sama::QueryStats stats;
    uint64_t execute = spans->Begin("ExecuteSparql", 0, 0);
    auto answers = dep.engine->ExecuteSparql(*parsed, q.request.k, &stats);
    spans->End(execute);
    if (!answers.ok()) {
      ++out.mismatches;
      continue;
    }
    uint64_t encode = spans->Begin("EncodeQueryResult", 0, 0);
    std::string payload = sama::EncodeQueryResult(sama::MakeQueryResultWire(
        *answers, parsed->select_vars, stats.search_truncated));
    spans->End(encode);
    if (payload != q.expected) ++out.mismatches;
    out.search_busy_ms += stats.search_busy_millis;
    out.search_ms += stats.search_millis;
  }
  return out;
}

}  // namespace perfbench
