// Closed- and open-loop load harness for the binary query server
// (DESIGN.md "Serving"). An in-process BinaryQueryServer is driven over
// real sockets by C client connections issuing a Zipfian query mix, and
// every response payload is compared byte-for-byte against a direct
// SamaEngine::Execute of the same query — the serving determinism
// contract, enforced under load rather than in a unit test.
//
//   closed loop (default): each client sends the next request the
//     moment the previous response arrives. Reported throughput is the
//     server's sustainable QPS at that concurrency.
//   open loop: requests are launched on a fixed schedule (--rate=QPS
//     split across clients) regardless of response progress, and
//     latency is measured from the *scheduled* send time, so queueing
//     delay under overload is charged to the server, not silently
//     absorbed (no coordinated omission).
//
// Latency percentiles (P50/P95/P99) come from the full per-request
// sample set. --json=FILE writes a bench ledger (bench_util.h) gated by
// tools/check_bench_regression.py: zero protocol errors and mismatches
// and a 1000 QPS floor on any machine; QPS and P99 bands only against
// a baseline with the same fingerprint.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "common/zipf.h"
#include "core/engine.h"
#include "datasets/berlin.h"
#include "datasets/govtrack.h"
#include "datasets/queries.h"
#include "datasets/scale_free.h"
#include "obs/metrics.h"
#include "query/sparql.h"
#include "server/binary_server.h"
#include "server/client.h"

namespace sama {
namespace bench {
namespace {

using Clock = std::chrono::steady_clock;

double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Options {
  std::string mode = "closed";   // closed | open
  std::string dataset = "lubm";  // demo | lubm | berlin | scale-free
  size_t clients = 4;
  size_t workers = 1;
  double duration_s = 5.0;
  size_t requests = 0;   // 0 = duration-bounded.
  double rate = 2000.0;  // Open loop: total scheduled QPS.
  uint32_t k = 5;
  double zipf_s = 1.1;
  // Drops workload queries whose |Q| group exceeds this (the Figure-9
  // [5,10] and [11,17] groups run for seconds per query — a serving
  // mix is dominated by the cheap ones; 0 keeps everything).
  int max_group = 4;
  uint64_t seed = 42;
  // Comma-separated query names restricting the mix. Selection is a
  // set: listing the same names in a different order runs the exact
  // same workload (weights follow canonical name rank, not list order).
  std::string mix;
  std::string json_path;
};

// One distinct query in the mix, with the byte-exact response payload a
// conforming server must produce for it.
struct MixEntry {
  std::string name;
  QueryRequest request;
  double weight = 0;
  std::string expected_payload;
};

// A served dataset: the engine plus the SPARQL workload over it.
struct ServeEnv {
  std::unique_ptr<DataGraph> graph;
  std::unique_ptr<PathIndex> index;
  Thesaurus thesaurus;
  std::unique_ptr<SamaEngine> engine;
  std::vector<MixEntry> mix;
  ZipfSampler sampler;
};

void AddQuery(ServeEnv* env, const std::string& name,
              const std::string& sparql) {
  MixEntry entry;
  entry.name = name;
  entry.request.sparql = sparql;
  env->mix.push_back(std::move(entry));
}

void BuildEngine(ServeEnv* env, std::vector<Triple> triples) {
  env->graph = std::make_unique<DataGraph>(
      DataGraph::FromTriples(std::move(triples)));
  env->index = std::make_unique<PathIndex>();
  PathIndexOptions options;  // In-memory.
  Status s = env->index->Build(*env->graph, options);
  if (!s.ok()) {
    std::fprintf(stderr, "index build failed: %s\n", s.ToString().c_str());
    std::exit(1);
  }
  env->thesaurus = Thesaurus::BuiltinEnglish();
  EngineOptions engine_options;
  engine_options.num_threads = 1;
  env->engine = std::make_unique<SamaEngine>(
      env->graph.get(), env->index.get(), &env->thesaurus, engine_options);
}

void AddBenchmarkQueries(ServeEnv* env,
                         const std::vector<BenchmarkQuery>& queries,
                         int max_group) {
  for (const BenchmarkQuery& q : queries) {
    if (max_group > 0 && q.group_high > max_group) continue;
    AddQuery(env, q.name, q.sparql);
  }
}

// Restricts env->mix to the comma-separated query names in `spec`
// (empty keeps everything). Unknown names are a hard error — a typo
// silently running the full mix would invalidate the measurement.
void ApplyMixFilter(ServeEnv* env, const std::string& spec) {
  if (spec.empty()) return;
  std::vector<std::string> want;
  for (size_t pos = 0; pos <= spec.size();) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    if (comma > pos) want.push_back(spec.substr(pos, comma - pos));
    pos = comma + 1;
  }
  std::vector<MixEntry> kept;
  for (const std::string& name : want) {
    bool known = false;
    for (const MixEntry& entry : env->mix) {
      if (entry.name == name) {
        known = true;
        break;
      }
    }
    if (!known) {
      std::fprintf(stderr, "--mix names unknown query '%s'\n", name.c_str());
      std::exit(2);
    }
  }
  // Keep catalogue order regardless of the order names were listed in;
  // weights are order-independent anyway, but this keeps reports stable.
  for (MixEntry& entry : env->mix) {
    if (std::find(want.begin(), want.end(), entry.name) != want.end()) {
      kept.push_back(std::move(entry));
    }
  }
  env->mix = std::move(kept);
}

ServeEnv MakeEnv(const Options& options) {
  ServeEnv env;
  if (options.dataset == "demo") {
    BuildEngine(&env, GovTrackFigure1Triples());
    AddQuery(&env, "D1",
             "PREFIX gov: <http://gov.example.org/>\n"
             "SELECT ?b WHERE { ?b gov:subject \"Health Care\" }");
    AddQuery(&env, "D2",
             "PREFIX gov: <http://gov.example.org/>\n"
             "SELECT ?a ?b WHERE { ?a gov:aTo ?b }");
    AddQuery(&env, "D3",
             "PREFIX gov: <http://gov.example.org/>\n"
             "SELECT ?v1 ?v2 WHERE { gov:CarlaBunes gov:sponsor ?v1 . "
             "?v1 gov:aTo ?v2 }");
    AddQuery(&env, "D4",
             "PREFIX gov: <http://gov.example.org/>\n"
             "SELECT ?p ?a WHERE { ?p gov:sponsor ?a . "
             "?a gov:aTo gov:B0045 }");
  } else if (options.dataset == "lubm") {
    LubmConfig config;
    config.universities = 1;
    BuildEngine(&env, GenerateLubm(config));
    AddBenchmarkQueries(&env, MakeLubmQueries(), options.max_group);
  } else if (options.dataset == "berlin") {
    BuildEngine(&env, GenerateBerlin(BerlinConfig{}));
    AddBenchmarkQueries(&env, MakeBerlinQueries(), options.max_group);
  } else if (options.dataset == "scale-free") {
    BuildEngine(&env, GenerateScaleFree(PBlogProfile(0.02 * EnvScale())));
    AddQuery(&env, "S1",
             "PREFIX rel: <http://pblog.example.org/rel#>\n"
             "SELECT ?a WHERE { ?a rel:topic \"politics\" }");
    AddQuery(&env, "S2",
             "PREFIX rel: <http://pblog.example.org/rel#>\n"
             "SELECT ?a WHERE { ?a rel:linksTo "
             "<http://pblog.example.org/Blog0> }");
    AddQuery(&env, "S3",
             "PREFIX rel: <http://pblog.example.org/rel#>\n"
             "SELECT ?a ?b WHERE { ?a rel:linksTo ?b . "
             "?b rel:topic \"tech\" }");
  } else {
    std::fprintf(stderr, "unknown dataset '%s'\n", options.dataset.c_str());
    std::exit(1);
  }
  ApplyMixFilter(&env, options.mix);
  if (env.mix.empty()) {
    std::fprintf(stderr, "query mix is empty (max-group too low?)\n");
    std::exit(1);
  }
  return env;
}

// Zipfian popularity over the mix: with s≈1 the head query dominates
// the way a real serving workload's hot queries do. Weights follow the
// CANONICAL rank of a query (names sorted lexicographically), so
// reordering --mix or the catalogue declaration cannot silently
// reshape the distribution, and draws go through ZipfSampler's clamped
// cumulative walk so floating-point round-off at the top of the
// distribution cannot index off the end.
void AssignZipfWeights(ServeEnv* env, double s) {
  std::vector<std::string> names;
  names.reserve(env->mix.size());
  for (const MixEntry& entry : env->mix) names.push_back(entry.name);
  std::vector<double> weights = ZipfWeights(names, s);
  for (size_t i = 0; i < env->mix.size(); ++i) {
    env->mix[i].weight = weights[i];
  }
  env->sampler = ZipfSampler(weights);
}

// The byte-exact payload a conforming server must return: the same
// shared wire encoder over a direct engine run. Also warms the engine
// caches so the timed phase measures steady state.
void PrecomputeExpected(ServeEnv* env, uint32_t k) {
  for (MixEntry& entry : env->mix) {
    auto parsed = ParseSparql(entry.request.sparql);
    if (!parsed.ok()) {
      std::fprintf(stderr, "query %s does not parse: %s\n",
                   entry.name.c_str(),
                   parsed.status().ToString().c_str());
      std::exit(1);
    }
    entry.request.k = k;
    QueryStats stats;
    auto answers = env->engine->ExecuteSparql(*parsed, k, &stats);
    if (!answers.ok()) {
      std::fprintf(stderr, "query %s failed directly: %s\n",
                   entry.name.c_str(),
                   answers.status().ToString().c_str());
      std::exit(1);
    }
    entry.expected_payload = EncodeQueryResult(MakeQueryResultWire(
        *answers, parsed->select_vars, stats.search_truncated));
  }
}

// Per-client tallies, merged after the run.
struct ClientResult {
  std::vector<double> latencies_ms;
  std::vector<size_t> per_query_requests;
  size_t ok = 0;
  size_t shed = 0;
  size_t mismatches = 0;
  size_t protocol_errors = 0;
};

// Classifies one response frame against the expectation for query
// `qi`. Returns false on a protocol-level error (the connection is no
// longer trustworthy).
bool RecordResponse(const ServeEnv& env, const Frame& frame,
                    uint64_t want_id, size_t qi, ClientResult* result) {
  if (frame.request_id != want_id) {
    ++result->protocol_errors;
    return false;
  }
  if (frame.type == FrameType::kError) {
    ErrorBody error;
    if (DecodeErrorBody(frame.payload, &error) &&
        error.code == WireStatus::kShed) {
      ++result->shed;
      return true;
    }
    ++result->protocol_errors;
    return false;
  }
  if (frame.type != FrameType::kResult) {
    ++result->protocol_errors;
    return false;
  }
  if (frame.payload != env.mix[qi].expected_payload) {
    ++result->mismatches;
    return true;  // Wrong answer, but the protocol itself is intact.
  }
  ++result->ok;
  return true;
}

// ---- Closed loop: send, block for the response, repeat.
ClientResult RunClosedClient(const ServeEnv& env, const Options& options,
                             const std::string& host, uint16_t port,
                             size_t client_index, Clock::time_point end,
                             std::atomic<size_t>* budget) {
  ClientResult result;
  result.per_query_requests.assign(env.mix.size(), 0);
  Random rng(options.seed + 1000003 * (client_index + 1));
  BinaryClient client;
  Status s = client.Connect(host, port);
  if (!s.ok()) {
    ++result.protocol_errors;
    return result;
  }
  uint64_t id = client_index << 32;
  while (Clock::now() < end) {
    if (options.requests > 0 &&
        budget->fetch_add(1, std::memory_order_relaxed) >=
            options.requests) {
      break;
    }
    size_t qi = env.sampler.Sample(&rng);
    ++result.per_query_requests[qi];
    ++id;
    Clock::time_point t0 = Clock::now();
    if (!client.SendQuery(env.mix[qi].request, id).ok()) {
      ++result.protocol_errors;
      break;
    }
    auto frame = client.ReadFrame();
    if (!frame.ok()) {
      ++result.protocol_errors;
      break;
    }
    result.latencies_ms.push_back(MillisBetween(t0, Clock::now()));
    if (!RecordResponse(env, *frame, id, qi, &result)) break;
  }
  return result;
}

// ---- Open loop: a sender thread launches requests on the fixed
// schedule while a receiver thread drains responses from the same
// socket (full-duplex: one writer, one reader). Latency runs from the
// *scheduled* send time.
ClientResult RunOpenClient(const ServeEnv& env, const Options& options,
                           const std::string& host, uint16_t port,
                           size_t client_index, Clock::time_point start,
                           Clock::time_point end) {
  ClientResult result;
  result.per_query_requests.assign(env.mix.size(), 0);
  Random rng(options.seed + 1000003 * (client_index + 1));
  BinaryClient client;
  Status s = client.Connect(host, port);
  if (!s.ok()) {
    ++result.protocol_errors;
    return result;
  }

  struct Pending {
    uint64_t id;
    size_t qi;
    Clock::time_point scheduled;
  };
  std::mutex mu;
  std::deque<Pending> pending;
  std::atomic<bool> sender_done{false};
  std::atomic<bool> receiver_dead{false};

  const double per_client_rate = options.rate / options.clients;
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / per_client_rate));

  std::thread receiver([&] {
    while (true) {
      Pending head;
      {
        std::lock_guard<std::mutex> lock(mu);
        if (pending.empty()) {
          if (sender_done.load(std::memory_order_acquire)) return;
          head.id = 0;
        } else {
          head = pending.front();
          pending.pop_front();
        }
      }
      if (head.id == 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        continue;
      }
      auto frame = client.ReadFrame();
      if (!frame.ok()) {
        ++result.protocol_errors;
        receiver_dead.store(true, std::memory_order_release);
        return;
      }
      result.latencies_ms.push_back(
          MillisBetween(head.scheduled, Clock::now()));
      if (!RecordResponse(env, *frame, head.id, head.qi, &result)) {
        receiver_dead.store(true, std::memory_order_release);
        return;
      }
    }
  });

  uint64_t id = client_index << 32;
  size_t send_failures = 0;
  Clock::time_point next = start;
  while (next < end && !receiver_dead.load(std::memory_order_acquire)) {
    std::this_thread::sleep_until(next);
    size_t qi = env.sampler.Sample(&rng);
    ++result.per_query_requests[qi];
    ++id;
    {
      std::lock_guard<std::mutex> lock(mu);
      pending.push_back({id, qi, next});
    }
    if (!client.SendQuery(env.mix[qi].request, id).ok()) {
      // Retract the entry unless the receiver raced us to it.
      std::lock_guard<std::mutex> lock(mu);
      if (!pending.empty() && pending.back().id == id) pending.pop_back();
      ++send_failures;
      break;
    }
    next += period;
  }
  sender_done.store(true, std::memory_order_release);
  receiver.join();
  result.protocol_errors += send_failures;
  return result;
}

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  size_t rank = static_cast<size_t>(p * (sorted.size() - 1) + 0.5);
  return sorted[std::min(rank, sorted.size() - 1)];
}

struct Summary {
  double elapsed_s = 0;
  size_t requests = 0;
  size_t ok = 0;
  size_t shed = 0;
  size_t mismatches = 0;
  size_t protocol_errors = 0;
  double qps = 0;
  double mean_ms = 0;
  double p50_ms = 0;
  double p95_ms = 0;
  double p99_ms = 0;
};

void WriteJson(const std::string& path, const Options& options,
               const ServeEnv& env, const Summary& summary,
               const std::vector<size_t>& per_query_requests) {
  Ledger ledger("serve");
  ledger.Config("mode", options.mode);
  ledger.Config("dataset", options.dataset);
  ledger.Config("clients", options.clients);
  ledger.Config("workers", options.workers);
  ledger.Config("duration_s", options.duration_s);
  ledger.Config("requests", options.requests);
  ledger.Config("rate", options.rate);
  ledger.Config("k", options.k);
  ledger.Config("zipf_s", options.zipf_s);
  ledger.Config("max_group", options.max_group);
  ledger.Config("seed", options.seed);
  ledger.Config("mix", options.mix);
  // Wrong bytes or malformed frames fail whatever the latency says.
  ledger.Metric("protocol_errors", summary.protocol_errors, "zero");
  ledger.Metric("mismatches", summary.mismatches, "zero");
  // A per-core floor (one worker) on any machine, plus a band against
  // a baseline from the same machine.
  ledger.Metric("qps", summary.qps, "min:1000 higher:0.2");
  ledger.Metric("p99_ms", summary.p99_ms, "lower:0.2");
  ledger.Metric("elapsed_s", summary.elapsed_s);
  ledger.Metric("requests", summary.requests);
  ledger.Metric("ok", summary.ok);
  ledger.Metric("shed", summary.shed);
  ledger.Metric("mean_ms", summary.mean_ms);
  ledger.Metric("p50_ms", summary.p50_ms);
  ledger.Metric("p95_ms", summary.p95_ms);
  for (size_t i = 0; i < env.mix.size(); ++i) {
    ledger.Metric(env.mix[i].name + ".weight", env.mix[i].weight);
    ledger.Metric(env.mix[i].name + ".requests", per_query_requests[i]);
  }
  ledger.Write(path);
}

int Run(const Options& options) {
  std::fprintf(stderr, "building %s dataset...\n", options.dataset.c_str());
  ServeEnv env = MakeEnv(options);
  AssignZipfWeights(&env, options.zipf_s);
  PrecomputeExpected(&env, options.k);

  MetricsRegistry registry;
  BinaryQueryServer::Options server_options;
  server_options.num_workers = options.workers;
  server_options.max_connections = options.clients + 8;
  server_options.max_queue =
      std::max<size_t>(128, 4 * options.clients);
  server_options.registry = &registry;
  BinaryQueryServer server(env.engine.get(), server_options);
  Status s = server.Start();
  if (!s.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 s.ToString().c_str());
    return 1;
  }

  // One warm round trip per distinct query through the real socket
  // path before the clock starts.
  {
    BinaryClient warm;
    if (!warm.Connect(server.host(), server.port()).ok()) {
      std::fprintf(stderr, "warmup connect failed\n");
      return 1;
    }
    for (size_t i = 0; i < env.mix.size(); ++i) {
      auto r = warm.Query(env.mix[i].request, i + 1);
      if (!r.ok() || r->status != WireStatus::kOk) {
        std::fprintf(stderr, "warmup query %s failed\n",
                     env.mix[i].name.c_str());
        return 1;
      }
    }
  }

  std::fprintf(stderr, "running %s loop: clients=%zu workers=%zu "
               "duration=%.1fs...\n",
               options.mode.c_str(), options.clients, options.workers,
               options.duration_s);
  std::atomic<size_t> budget{0};
  std::vector<ClientResult> results(options.clients);
  Clock::time_point start = Clock::now();
  Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(options.duration_s));
  {
    std::vector<std::thread> threads;
    for (size_t c = 0; c < options.clients; ++c) {
      threads.emplace_back([&, c] {
        results[c] =
            options.mode == "open"
                ? RunOpenClient(env, options, server.host(),
                                server.port(), c, start, end)
                : RunClosedClient(env, options, server.host(),
                                  server.port(), c, end, &budget);
      });
    }
    for (std::thread& t : threads) t.join();
  }
  double elapsed_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  server.Stop();

  Summary summary;
  summary.elapsed_s = elapsed_s;
  std::vector<double> latencies;
  std::vector<size_t> per_query_requests(env.mix.size(), 0);
  for (const ClientResult& r : results) {
    latencies.insert(latencies.end(), r.latencies_ms.begin(),
                     r.latencies_ms.end());
    summary.ok += r.ok;
    summary.shed += r.shed;
    summary.mismatches += r.mismatches;
    summary.protocol_errors += r.protocol_errors;
    for (size_t i = 0; i < env.mix.size(); ++i) {
      per_query_requests[i] += r.per_query_requests[i];
    }
  }
  summary.requests =
      summary.ok + summary.shed + summary.mismatches;
  std::sort(latencies.begin(), latencies.end());
  double total_ms = 0;
  for (double v : latencies) total_ms += v;
  summary.mean_ms =
      latencies.empty() ? 0 : total_ms / latencies.size();
  summary.p50_ms = Percentile(latencies, 0.50);
  summary.p95_ms = Percentile(latencies, 0.95);
  summary.p99_ms = Percentile(latencies, 0.99);
  summary.qps = elapsed_s > 0 ? summary.ok / elapsed_s : 0;

  std::printf("mode=%s dataset=%s clients=%zu workers=%zu\n",
              options.mode.c_str(), options.dataset.c_str(),
              options.clients, options.workers);
  std::printf("requests=%zu ok=%zu shed=%zu mismatches=%zu "
              "protocol_errors=%zu\n",
              summary.requests, summary.ok, summary.shed,
              summary.mismatches, summary.protocol_errors);
  std::printf("qps=%.1f mean=%.3fms p50=%.3fms p95=%.3fms p99=%.3fms\n",
              summary.qps, summary.mean_ms, summary.p50_ms,
              summary.p95_ms, summary.p99_ms);
  for (size_t i = 0; i < env.mix.size(); ++i) {
    std::printf("  %-4s weight=%.3f requests=%zu\n",
                env.mix[i].name.c_str(), env.mix[i].weight,
                per_query_requests[i]);
  }

  if (!options.json_path.empty()) {
    WriteJson(options.json_path, options, env, summary,
              per_query_requests);
  }
  // Correctness failures are a non-zero exit even without the JSON
  // gate: a load test that returns wrong bytes must not look green.
  return (summary.mismatches == 0 && summary.protocol_errors == 0) ? 0
                                                                   : 1;
}

}  // namespace
}  // namespace bench
}  // namespace sama

int main(int argc, char** argv) {
  sama::bench::Options options;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      size_t n = std::strlen(prefix);
      return std::strncmp(arg, prefix, n) == 0 ? arg + n : nullptr;
    };
    if (const char* v = value("--mode=")) {
      options.mode = v;
    } else if (const char* v = value("--dataset=")) {
      options.dataset = v;
    } else if (const char* v = value("--clients=")) {
      options.clients = std::strtoul(v, nullptr, 10);
    } else if (const char* v = value("--workers=")) {
      options.workers = std::strtoul(v, nullptr, 10);
    } else if (const char* v = value("--duration-s=")) {
      options.duration_s = std::atof(v);
    } else if (const char* v = value("--requests=")) {
      options.requests = std::strtoul(v, nullptr, 10);
    } else if (const char* v = value("--rate=")) {
      options.rate = std::atof(v);
    } else if (const char* v = value("--k=")) {
      options.k = static_cast<uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (const char* v = value("--zipf-s=")) {
      options.zipf_s = std::atof(v);
    } else if (const char* v = value("--max-group=")) {
      options.max_group = std::atoi(v);
    } else if (const char* v = value("--seed=")) {
      options.seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--mix=")) {
      options.mix = v;
    } else if (const char* v = value("--json=")) {
      options.json_path = v;
    } else {
      std::fprintf(
          stderr,
          "usage: %s [--mode=closed|open] "
          "[--dataset=demo|lubm|berlin|scale-free] [--clients=N] "
          "[--workers=N] [--duration-s=S] [--requests=N] [--rate=QPS] "
          "[--k=N] [--zipf-s=S] [--max-group=N] [--seed=N] "
          "[--mix=NAME,NAME,...] [--json=FILE]\n",
          argv[0]);
      return 2;
    }
  }
  if (options.clients == 0 || options.mode.empty() ||
      (options.mode != "closed" && options.mode != "open")) {
    std::fprintf(stderr, "invalid --mode/--clients\n");
    return 2;
  }
  return sama::bench::Run(options);
}
