// Workload definitions and the served deployment they run against.
//
// A Deployment is one in-process sama stack: generated triples, a
// DataGraph, a PathIndex (in memory or on disk), a SamaEngine with
// num_threads=2 and a BinaryQueryServer with 2 workers on loopback.
// Everything the program sees is generated from the workload seed:
// the triples and the SPARQL text.
#ifndef PERFBENCH_DEPLOYMENT_H_
#define PERFBENCH_DEPLOYMENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "graph/data_graph.h"
#include "index/path_index.h"
#include "obs/metrics.h"
#include "rdf/triple.h"
#include "server/binary_server.h"
#include "server/protocol.h"
#include "spans.h"
#include "text/thesaurus.h"

namespace perfbench {

// How query clients pick the next query from the mix.
enum class Pick {
  kZipf,        // Zipf(s=1.1) over the mix by canonical name rank.
  kRoundRobin,  // Fixed cyclic order, each client from its own offset.
  kUniform,     // Uniform over a large pool of distinct queries.
};

struct WorkloadSpec {
  std::string name;
  bool on_disk = false;
  bool updates = false;   // A third connection sends INSERT/DELETE pairs.
  size_t universities = 0;  // 0 = GovTrack Figure-1 demo data.
  Pick pick = Pick::kZipf;
  size_t setups = 3;      // Deployments built per run (setup_s median).
  bool idle_poll = true;  // Keep idle CPUs polling (see IdlePollers).
  uint32_t k = 5;
};

// Returns false for an unknown workload name.
bool FindWorkload(const std::string& name, WorkloadSpec* spec);

// One distinct query of the mix, with what a direct engine run of the
// same text returned and the deterministic work it did.
struct MixQuery {
  std::string name;
  sama::QueryRequest request;
  double weight = 0;          // Zipf only.
  std::string expected;       // EncodeQueryResult of a direct run.
  bool truncated = false;
  uint64_t expansions = 0;
  uint64_t candidate_paths = 0;
  uint64_t pool_fetches = 0;
};

// The generated inputs of one run: triples, the query mix and (for
// read-write) the triples the update connection inserts and deletes.
struct WorkloadInputs {
  std::vector<sama::Triple> triples;
  std::vector<MixQuery> mix;
  std::vector<sama::Triple> update_triples;  // Absent from `triples`.
};

WorkloadInputs GenerateInputs(const WorkloadSpec& spec, uint64_t seed);

struct Deployment {
  sama::MetricsRegistry registry;
  std::unique_ptr<sama::DataGraph> graph;
  std::unique_ptr<sama::PathIndex> index;
  sama::Thesaurus thesaurus;
  std::unique_ptr<sama::SamaEngine> engine;
  std::unique_ptr<sama::BinaryQueryServer> server;
  std::string dir;  // On-disk index directory; empty in memory.

  ~Deployment();
  // Replaces the running server with one whose trace_requests is
  // `traced` (the option is fixed at construction).
  bool RestartServer(bool traced);
};

// Builds the deployment from `triples` and starts its server. The
// returned time covers graph construction, index build, engine
// construction (plus WAL enablement) and server start; the caller adds
// input generation.
std::unique_ptr<Deployment> CreateDeployment(
    const WorkloadSpec& spec, const std::vector<sama::Triple>& triples,
    const std::string& dir);

// Runs the first `limit` mix queries once, directly and in order, on a
// fresh single-threaded engine over the deployment's index: fills
// `expected` and the work counters of each MixQuery. Deterministic for
// a given seed. Returns false (with a message) if a query fails.
bool DirectPass(Deployment* dep, std::vector<MixQuery>* mix, size_t limit,
                std::string* error);

// Runs `mix` through the deployment's serving engine with the
// benchmark's own spans around ParseSparql, ExecuteSparql and
// EncodeQueryResult, checking each payload against `expected`.
// Accumulates the search busy/elapsed totals and returns the number of
// mismatches.
struct TracedPass {
  size_t mismatches = 0;
  double search_busy_ms = 0;
  double search_ms = 0;
};
TracedPass DirectTracedPass(const Deployment& dep,
                            const std::vector<MixQuery>& mix, size_t limit,
                            SpanBuffer* spans);

}  // namespace perfbench

#endif  // PERFBENCH_DEPLOYMENT_H_
