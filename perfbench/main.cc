// perfbench: the served-workload benchmark (see README.md).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --work-dir DIR [--trace-out FILE]
//
// Builds one in-process deployment per setup round, checks its direct
// answers and deterministic work counters, then drives the real
// BinaryQueryServer over loopback with closed-loop clients for S
// seconds. Prints one JSON object on the last line of stdout; run.py
// turns it into the benchmark result.
#include <immintrin.h>
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "common/zipf.h"
#include "deployment.h"
#include "server/client.h"
#include "spans.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double MillisSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;
  std::string trace_out;
};

// ---------------------------------------------------------------- JSON

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Num(double v) {
  if (!(v == v) || v > 1e300 || v < -1e300) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// A metric value with its unit, in insertion order.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += Quote(metrics[i].name) + ": {\"value\": " +
           Num(metrics[i].value) + ", \"unit\": " + Quote(metrics[i].unit) +
           "}";
  }
  return out + "}";
}

std::string MapJson(const std::vector<std::pair<std::string, std::string>>& kv) {
  std::string out = "{";
  for (size_t i = 0; i < kv.size(); ++i) {
    if (i > 0) out += ", ";
    out += Quote(kv[i].first) + ": " + kv[i].second;
  }
  return out + "}";
}

// --------------------------------------------------------- fingerprint

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

std::string FingerprintJson() {
  return MapJson({
      {"nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN))},
      {"cpu_model", Quote(CpuModel())},
      {"compiler", Quote(std::string("g++ ") + __VERSION__)},
      {"build_type", Quote(PERFBENCH_BUILD_TYPE)},
  });
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

// ---------------------------------------------------------- idle poll

// One SCHED_IDLE thread per CPU that spins while the benchmark runs, so
// no CPU ever enters its idle state: the user-space equivalent of
// booting with idle=poll. Any runnable thread of the deployment
// preempts a poller at once. On a virtual machine a halted vCPU can
// take milliseconds to wake when the host is busy, and that wake-up
// latency, not sama, would otherwise set the served latencies of the
// mostly idle workloads and make them swing between runs. Workloads
// that keep the CPUs busy (heavy-search) run without pollers, which
// there only take CPU time from the search.
class IdlePollers {
 public:
  explicit IdlePollers(bool enabled) {
    if (!enabled) return;
    long cpus = sysconf(_SC_NPROCESSORS_ONLN);
    for (long cpu = 0; cpu < cpus; ++cpu) {
      threads_.emplace_back([this, cpu] {
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(cpu, &set);
        pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
        sched_param param{};
        pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
        while (!stop_.load(std::memory_order_relaxed)) _mm_pause();
      });
    }
  }
  ~IdlePollers() {
    stop_.store(true);
    for (std::thread& t : threads_) t.join();
  }

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

// ------------------------------------------------------- registry view

// The registry series and buffer-pool counters the per-layer metrics
// are computed from, read as plain numbers so two reads subtract.
using Snapshot = std::map<std::string, double>;

Snapshot TakeSnapshot(Deployment* dep) {
  sama::MetricsRegistry& reg = dep->registry;
  Snapshot s;
  auto counter = [&](const std::string& key, const char* name,
                     sama::MetricLabels labels = {}) {
    sama::Counter* c = reg.GetCounter(name, "", std::move(labels));
    s[key] = c == nullptr ? 0 : static_cast<double>(c->Value());
  };
  auto histogram = [&](const std::string& key, const char* name,
                       sama::MetricLabels labels = {}) {
    sama::Histogram* h = reg.GetHistogram(
        name, "", sama::Histogram::LatencyBucketsMillis(), std::move(labels));
    s[key + ".sum"] = h == nullptr ? 0 : h->Sum();
    s[key + ".count"] = h == nullptr ? 0 : static_cast<double>(h->Count());
  };
  counter("queries", "sama_queries_total");
  for (const char* phase : {"preprocess", "clustering", "search"}) {
    histogram(std::string("phase.") + phase, "sama_query_phase_millis",
              {{"phase", phase}});
  }
  counter("expansions", "sama_search_expansions_total");
  counter("bound_pruned", "sama_search_bound_pruned_total");
  counter("roots_pruned", "sama_search_roots_pruned_total");
  counter("truncated", "sama_search_truncated_total");
  counter("epoch_retired", "sama_epoch_retired_total");
  for (const char* cache : {"postings", "path_lookups", "path_records",
                            "label_matches", "alignment_memo"}) {
    std::string key = std::string("cache.") + cache;
    counter(key + ".hits", "sama_cache_hits_total", {{"cache", cache}});
    counter(key + ".misses", "sama_cache_misses_total", {{"cache", cache}});
    counter(key + ".evictions", "sama_cache_evictions_total",
            {{"cache", cache}});
  }
  histogram("server.queue_wait", "sama_server_queue_wait_millis");
  counter("server.bytes_read", "sama_server_bytes_read_total");
  counter("server.bytes_written", "sama_server_bytes_written_total");
  counter("server.shed", "sama_server_shed_total");
  counter("server.query_requests", "sama_server_requests_total",
          {{"type", "query"}});
  counter("server.update_requests", "sama_server_requests_total",
          {{"type", "update"}});
  counter("wal.bytes", "sama_wal_appended_bytes_total");
  sama::BufferPool::Stats pool = dep->index->cache_stats();
  s["pool.fetches"] = static_cast<double>(pool.fetches);
  s["pool.misses"] = static_cast<double>(pool.misses);
  s["pool.hits"] = static_cast<double>(pool.hits);
  s["pool.bytes_read"] = static_cast<double>(pool.bytes_read);
  return s;
}

Snapshot Delta(const Snapshot& before, const Snapshot& after) {
  Snapshot d;
  for (const auto& [key, value] : after) {
    auto it = before.find(key);
    d[key] = value - (it == before.end() ? 0 : it->second);
  }
  return d;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// ---------------------------------------------------------------- load

// Round trips of one connection over a window cut into kSlices equal
// time slices. Per slice it keeps the exact number of responses and of
// OK ones, and a uniform reservoir sample of at most kReservoir round
// trips (every one of them while the slice has no more). The memory is
// fixed, so the benchmark's own bookkeeping does not move peak_rss_mb
// with throughput.
class SampleLog {
 public:
  static constexpr size_t kSlices = 20;
  static constexpr size_t kReservoir = 4096;

  SampleLog() = default;
  SampleLog(double window_s, uint64_t seed)
      : slice_s_(window_s / kSlices), rng_(seed) {
    for (Slice& slice : slices_) slice.ms.reserve(kReservoir);
  }
  // `end_s`: when the response completed, in seconds into the window.
  void Add(double end_s, double ms, bool ok) {
    Slice& slice = slices_[std::min(
        kSlices - 1, static_cast<size_t>(std::max(0.0, end_s / slice_s_)))];
    ++slice.count;
    if (ok) ++slice.ok;
    if (slice.ms.size() < kReservoir) {
      slice.ms.push_back(ms);
    } else if (uint64_t j = rng_.Uniform(slice.count); j < kReservoir) {
      slice.ms[j] = ms;
    }
  }
  void Append(const SampleLog& other) {
    if (other.count() > 0) slice_s_ = other.slice_s_;
    for (size_t i = 0; i < kSlices; ++i) {
      slices_[i].count += other.slices_[i].count;
      slices_[i].ok += other.slices_[i].ok;
      slices_[i].ms.insert(slices_[i].ms.end(), other.slices_[i].ms.begin(),
                           other.slices_[i].ms.end());
    }
  }
  uint64_t count() const {
    uint64_t n = 0;
    for (const Slice& slice : slices_) n += slice.count;
    return n;
  }

  // The window regrouped into `groups` (a divisor of kSlices) equal
  // parts: each part's sampled round trips and OK responses per second.
  struct Part {
    std::vector<double> ms;
    double ok_per_s = 0;
  };
  std::vector<Part> Regroup(size_t groups) const {
    std::vector<Part> parts(groups);
    const size_t per = kSlices / groups;
    for (size_t i = 0; i < kSlices; ++i) {
      Part& part = parts[i / per];
      part.ms.insert(part.ms.end(), slices_[i].ms.begin(),
                     slices_[i].ms.end());
      part.ok_per_s += slices_[i].ok / (slice_s_ * per);
    }
    return parts;
  }

 private:
  struct Slice {
    uint64_t count = 0;
    uint64_t ok = 0;
    std::vector<double> ms;
  };
  double slice_s_ = 1;
  sama::Random rng_;
  Slice slices_[kSlices];
};

// Everything one window of load produced.
struct Window {
  double elapsed_s = 0;
  SampleLog queries;
  SampleLog updates;
  uint64_t attempted = 0;
  uint64_t ok = 0;  // OK query responses (exact or truncated).
  uint64_t exact = 0;
  uint64_t updates_ok = 0;
  uint64_t errors = 0;
  uint64_t shed = 0;
  uint64_t mismatches = 0;
  uint64_t protocol_errors = 0;
  uint64_t update_failures = 0;  // Non-OK ack, wrong durability, LSN gap.
  std::vector<Span> spans;
  // Server traces of traced updates (queries come through the sink).
  std::vector<std::shared_ptr<const sama::QueryTrace>> server_traces;

  uint64_t failed() const {
    return errors + shed + mismatches + protocol_errors + update_failures;
  }
  void Merge(Window&& other) {
    queries.Append(other.queries);
    updates.Append(other.updates);
    attempted += other.attempted;
    ok += other.ok;
    exact += other.exact;
    updates_ok += other.updates_ok;
    errors += other.errors;
    shed += other.shed;
    mismatches += other.mismatches;
    protocol_errors += other.protocol_errors;
    update_failures += other.update_failures;
    for (Span& s : other.spans) spans.push_back(std::move(s));
    server_traces.insert(server_traces.end(), other.server_traces.begin(),
                         other.server_traces.end());
  }
};

struct LoadPlan {
  const WorkloadSpec* spec;
  Deployment* dep;
  const std::vector<MixQuery>* mix;
  const std::vector<sama::Triple>* update_triples;
  uint64_t seed = 0;
  bool traced = false;
};

// Read-write's update stream state, carried across windows so LSNs
// stay dense and the triple cycle continues.
struct UpdateCursor {
  uint64_t last_lsn = 0;
  size_t next = 0;
};

// Closed loop: send one query, wait for the whole response, repeat.
Window QueryClient(const LoadPlan& plan, size_t client, uint64_t round,
                   Clock::time_point start, Clock::time_point end) {
  Window w;
  SpanBuffer spans(plan.traced);
  const std::vector<MixQuery>& mix = *plan.mix;
  sama::Random rng(plan.seed * 1000003 + round * 7919 + client + 1);
  std::vector<double> weights;
  for (const MixQuery& q : mix) weights.push_back(q.weight);
  sama::ZipfSampler zipf(weights);
  size_t cursor = (plan.seed + 3 * client) % mix.size();
  size_t cycle_pos = 0;
  const bool verify = !plan.spec->updates;

  const double window_s = std::chrono::duration<double>(end - start).count();
  w.queries = SampleLog(window_s, plan.seed + client);
  sama::BinaryClient conn;
  if (!conn.Connect(plan.dep->server->host(), plan.dep->server->port()).ok()) {
    ++w.attempted;
    ++w.protocol_errors;
    return w;
  }
  uint64_t id = (client + 1) << 40 | round << 32;
  while (Clock::now() < end) {
    size_t qi = 0;
    switch (plan.spec->pick) {
      case Pick::kZipf:
        qi = zipf.Sample(&rng);
        break;
      case Pick::kRoundRobin:
        // Every connection runs the whole mix once per cycle, but
        // connection c starts each cycle c queries further on. The pairs
        // of queries that run side by side then rotate through every
        // offset, instead of locking into one for the whole run.
        qi = cursor;
        cursor = (cursor + 1) % mix.size();
        if (++cycle_pos == mix.size()) {
          cycle_pos = 0;
          cursor = (cursor + client) % mix.size();
        }
        break;
      case Pick::kUniform:
        qi = rng.Uniform(mix.size());
        break;
    }
    ++id;
    ++w.attempted;
    Clock::time_point t0 = Clock::now();
    uint64_t root = spans.Begin("client.request", 0, id);
    uint64_t send = spans.Begin("client.send", root, id);
    sama::Status sent = conn.SendQuery(mix[qi].request, id);
    spans.End(send);
    uint64_t read = spans.Begin("client.read", root, id);
    sama::Result<sama::Frame> frame =
        sent.ok() ? conn.ReadFrame() : sama::Result<sama::Frame>(sent);
    spans.End(read);
    spans.End(root);
    double ms = MillisSince(t0);
    if (!frame.ok() || frame->request_id != id) {
      ++w.protocol_errors;
      break;  // The connection can no longer be trusted.
    }
    const double end_s = MillisSince(start) / 1000.0;
    if (frame->type == sama::FrameType::kError) {
      sama::ErrorBody error;
      if (sama::DecodeErrorBody(frame->payload, &error) &&
          error.code == sama::WireStatus::kShed) {
        ++w.shed;
      } else {
        ++w.errors;
      }
      w.queries.Add(end_s, ms, false);
      continue;
    }
    sama::QueryResultWire result;
    if (frame->type != sama::FrameType::kResult ||
        !sama::DecodeQueryResult(frame->payload, &result)) {
      ++w.protocol_errors;
      break;
    }
    if (verify && frame->payload != mix[qi].expected) {
      ++w.mismatches;
      w.queries.Add(end_s, ms, false);
      continue;
    }
    ++w.ok;
    if (!result.truncated) ++w.exact;
    w.queries.Add(end_s, ms, true);
  }
  w.spans = std::move(spans.spans());
  return w;
}

// The update connection waits at least this long between the sends of
// two updates (a closed loop with think time): a fixed write load of up
// to 250 updates/s, so the number of updates, WAL bytes and checkpoints
// in a window does not depend on how fast the host happens to be, and
// neither does the memory the index grows by under the churn.
constexpr auto kUpdateInterval = std::chrono::milliseconds(4);

// Group commit: every kDurableEvery-th update asks for durability, and
// its fsync also covers the deferred updates journalled before it. The
// event loop applies updates inline, so each fsync stalls the queries
// behind it; one every 256 ms keeps those stalls past the queries' p99.
constexpr size_t kDurableEvery = 64;

// INSERT then DELETE of the same absent triple, pair after pair; a pair
// is always finished, so the data is unchanged after the window. Every
// ack must be OK, durable exactly when asked, and one LSN past the last.
// Traced, each update carries its own trace context, and the server's
// trace of it (request > wal.append / wal.fsync / wal.apply) is looked
// up in the server's TraceStore once the ack is in.
Window UpdateClient(const LoadPlan& plan, UpdateCursor* cursor,
                    Clock::time_point start, Clock::time_point end) {
  Window w;
  SpanBuffer spans(plan.traced);
  w.updates = SampleLog(std::chrono::duration<double>(end - start).count(),
                        plan.seed + 99);
  sama::BinaryClient conn;
  if (!conn.Connect(plan.dep->server->host(), plan.dep->server->port()).ok()) {
    ++w.attempted;
    ++w.protocol_errors;
    return w;
  }
  uint64_t id = uint64_t{0xff} << 40 | cursor->next;
  Clock::time_point next_send = Clock::now();
  const std::vector<sama::Triple>& triples = *plan.update_triples;
  while (Clock::now() < end) {
    const sama::Triple& triple = triples[cursor->next % triples.size()];
    ++cursor->next;
    for (uint8_t op : {sama::UpdateRequest::kOpInsert,
                       sama::UpdateRequest::kOpDelete}) {
      sama::UpdateRequest request;
      request.op = op;
      request.statement = triple.ToString();
      const bool durable = (cursor->next * 2 + op) % kDurableEvery == 0;
      if (!durable) request.flags = sama::UpdateRequest::kFlagNonDurable;
      ++id;
      ++w.attempted;
      sama::TraceContext trace;
      if (plan.traced) {
        trace.trace_id_hi = 0x7065726662656e63ULL;  // "perfbenc"
        trace.trace_id_lo = id;
        conn.set_trace(trace);
      }
      std::this_thread::sleep_until(next_send);
      Clock::time_point t0 = Clock::now();
      next_send = t0 + kUpdateInterval;
      uint64_t root = spans.Begin("client.update", 0, id);
      uint64_t send = spans.Begin("client.send", root, id);
      sama::Status sent = conn.SendUpdate(request, id);
      spans.End(send);
      uint64_t read = spans.Begin("client.read", root, id);
      sama::Result<sama::Frame> frame =
          sent.ok() ? conn.ReadFrame() : sama::Result<sama::Frame>(sent);
      spans.End(read);
      spans.End(root);
      double ms = MillisSince(t0);
      if (!frame.ok() || frame->request_id != id) {
        ++w.protocol_errors;
        w.spans = std::move(spans.spans());
        return w;
      }
      sama::UpdateResultWire ack;
      const bool ok = frame->type == sama::FrameType::kUpdateResult &&
                      sama::DecodeUpdateResult(frame->payload, &ack) &&
                      ack.status == sama::WireStatus::kOk &&
                      ack.durable == durable &&
                      ack.lsn == cursor->last_lsn + 1;
      ++(ok ? w.updates_ok : w.update_failures);
      w.updates.Add(MillisSince(start) / 1000.0, ms, ok);
      if (ack.lsn != 0) cursor->last_lsn = ack.lsn;
      if (plan.traced) {
        auto server_trace =
            plan.dep->server->trace_store().Find(trace.TraceIdHex());
        if (server_trace != nullptr) w.server_traces.push_back(server_trace);
      }
    }
  }
  w.spans = std::move(spans.spans());
  return w;
}

// Runs 2 query connections (plus the update connection on read-write)
// for `seconds`. A traced window also polls the server's request
// traces into `sink`.
Window RunWindow(const LoadPlan& plan, double seconds, uint64_t round,
                 UpdateCursor* cursor, ServerTraceSink* sink) {
  Clock::time_point start = Clock::now();
  Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  constexpr size_t kQueryClients = 2;
  std::vector<Window> results(kQueryClients + 1);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kQueryClients; ++c) {
    threads.emplace_back(
        [&, c] { results[c] = QueryClient(plan, c, round, start, end); });
  }
  if (plan.spec->updates) {
    threads.emplace_back([&] {
      results[kQueryClients] = UpdateClient(plan, cursor, start, end);
    });
  }
  if (sink != nullptr) {
    while (Clock::now() < end) {
      sink->Poll(plan.dep->server->request_traces());
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  for (std::thread& t : threads) t.join();
  Window w;
  w.elapsed_s = std::chrono::duration<double>(Clock::now() - start).count();
  if (sink != nullptr) sink->Poll(plan.dep->server->request_traces());
  for (Window& r : results) w.Merge(std::move(r));
  return w;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(p * (values.size() - 1) + 0.5);
  return values[std::min(rank, values.size() - 1)];
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

// Latency and throughput of a window, robust to bursts of interference
// from outside the process: each figure is the median over equal parts
// of the window (20, 10, 5, 2 or 1 of them). Throughput, p50 and p90 use
// parts of at least 100 responses, p99 parts of at least 1000, so each
// part's p90 or p99 has ten samples beyond it.
struct Served {
  double per_s = 0;  // OK responses per second.
  double p50_ms = 0;
  double p90_ms = 0;
  double p99_ms = 0;
};

size_t Parts(uint64_t responses, uint64_t per_part) {
  for (size_t parts : {20, 10, 5, 2}) {
    if (responses >= parts * per_part) return parts;
  }
  return 1;
}

Served Summarize(const SampleLog& samples) {
  Served out;
  if (samples.count() == 0) return out;
  std::vector<double> per_s, p50, p90, p99;
  for (const SampleLog::Part& part :
       samples.Regroup(Parts(samples.count(), 100))) {
    per_s.push_back(part.ok_per_s);
    p50.push_back(Percentile(part.ms, 0.50));
    p90.push_back(Percentile(part.ms, 0.90));
  }
  for (const SampleLog::Part& part :
       samples.Regroup(Parts(samples.count(), 1000))) {
    p99.push_back(Percentile(part.ms, 0.99));
  }
  out.per_s = Median(per_s);
  out.p50_ms = Median(p50);
  out.p90_ms = Median(p90);
  out.p99_ms = Median(p99);
  return out;
}

// ------------------------------------------------------------ counters

// Deterministic work of one direct pass over the distinct queries.
struct WorkCounters {
  uint64_t queries = 0;
  uint64_t truncated = 0;
  uint64_t expansions = 0;
  uint64_t candidate_paths = 0;
  uint64_t pool_fetches = 0;
  uint64_t wal_bytes_per_update = 0;  // read-write only.
  uint64_t digest = 0;  // Order-sensitive hash of the per-query values.

  bool operator==(const WorkCounters& o) const {
    return queries == o.queries && truncated == o.truncated &&
           expansions == o.expansions &&
           candidate_paths == o.candidate_paths &&
           pool_fetches == o.pool_fetches &&
           wal_bytes_per_update == o.wal_bytes_per_update &&
           digest == o.digest;
  }
  std::string Json() const {
    return MapJson({
        {"queries", std::to_string(queries)},
        {"truncated", std::to_string(truncated)},
        {"expansions", std::to_string(expansions)},
        {"candidate_paths", std::to_string(candidate_paths)},
        {"pool_fetches", std::to_string(pool_fetches)},
        {"wal_bytes_per_update", std::to_string(wal_bytes_per_update)},
        {"digest", std::to_string(digest)},
    });
  }
};

// The last kPassRounds setup rounds run the direct pass; all but the
// last over this many queries only. Their counters must agree.
constexpr size_t kPassRounds = 3;
constexpr size_t kRepeatPrefix = 400;

// Counters of the first `n` mix queries.
WorkCounters Count(const std::vector<MixQuery>& mix, size_t n) {
  WorkCounters c;
  uint64_t h = 1469598103934665603ULL;
  auto mixin = [&h](uint64_t v) { h = (h ^ v) * 1099511628211ULL; };
  for (size_t i = 0; i < n && i < mix.size(); ++i) {
    const MixQuery& q = mix[i];
    ++c.queries;
    c.truncated += q.truncated ? 1 : 0;
    c.expansions += q.expansions;
    c.candidate_paths += q.candidate_paths;
    c.pool_fetches += q.pool_fetches;
    mixin(q.expansions);
    mixin(q.candidate_paths);
    mixin(q.pool_fetches);
    mixin(std::hash<std::string>()(q.expected));
  }
  c.digest = h;
  return c;
}

// Applies insert/delete pairs of the first update triples directly
// (untimed) and returns the WAL bytes written per update. Fails on a
// non-dense LSN.
bool WalBytesPass(Deployment* dep, const std::vector<sama::Triple>& triples,
                  uint64_t* bytes_per_update, SpanBuffer* spans) {
  constexpr size_t kPairs = 16;
  sama::Counter* bytes =
      dep->registry.GetCounter("sama_wal_appended_bytes_total", "");
  uint64_t before = bytes->Value();
  uint64_t lsn = dep->engine->last_update_lsn();
  for (size_t i = 0; i < kPairs; ++i) {
    for (auto op : {sama::TripleUpdate::Op::kInsert,
                    sama::TripleUpdate::Op::kDelete}) {
      sama::TripleUpdate update;
      update.op = op;
      update.triple = triples[i % triples.size()];
      uint64_t span = spans->Begin("ApplyUpdate", 0, 0);
      sama::Result<uint64_t> applied = dep->engine->ApplyUpdate(update);
      spans->End(span);
      if (!applied.ok() || *applied != lsn + 1) return false;
      lsn = *applied;
    }
  }
  *bytes_per_update = (bytes->Value() - before) / (2 * kPairs);
  return true;
}

// Each mix query over the wire must return `expected` exactly.
uint64_t WireCheck(Deployment* dep, const std::vector<MixQuery>& mix,
                   uint64_t* attempted) {
  sama::BinaryClient conn;
  if (!conn.Connect(dep->server->host(), dep->server->port()).ok()) {
    ++*attempted;
    return 1;
  }
  uint64_t failed = 0;
  for (size_t i = 0; i < mix.size(); ++i) {
    ++*attempted;
    sama::Status sent = conn.SendQuery(mix[i].request, i + 1);
    auto frame = sent.ok() ? conn.ReadFrame() : sama::Result<sama::Frame>(sent);
    if (!frame.ok() || frame->type != sama::FrameType::kResult ||
        frame->payload != mix[i].expected) {
      ++failed;
    }
  }
  return failed;
}

// ---------------------------------------------------------------- run

int Run(const Options& options) {
  WorkloadSpec spec;
  if (!FindWorkload(options.workload, &spec)) {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }
  std::filesystem::create_directories(options.work_dir);
  IdlePollers pollers(spec.idle_poll);

  // ---- Setup rounds: each builds the whole deployment from fresh
  // inputs; the direct pass after it (untimed) yields the expected
  // payloads and the work counters, which must agree across rounds.
  std::vector<double> setup_s;
  std::vector<WorkCounters> prefix_counters;
  WorkCounters counters;
  std::unique_ptr<Deployment> dep;
  WorkloadInputs inputs;
  SpanBuffer bench_spans(options.trace);
  uint64_t counter_mismatches = 0;
  for (size_t round = 0; round < spec.setups; ++round) {
    dep.reset();
    Clock::time_point t0 = Clock::now();
    inputs = GenerateInputs(spec, options.seed);
    dep = CreateDeployment(spec, inputs.triples,
                           options.work_dir + "/index");
    if (dep == nullptr) return 1;
    setup_s.push_back(MillisSince(t0) / 1000.0);
    // The last round computes every expected payload; the two rounds
    // before it repeat a prefix of the pass, the others only time setup.
    const bool last = round + 1 == spec.setups;
    if (!last && round + kPassRounds < spec.setups) continue;
    const size_t limit = last ? inputs.mix.size() : kRepeatPrefix;
    std::string error;
    if (!DirectPass(dep.get(), &inputs.mix, limit, &error)) {
      std::fprintf(stderr, "direct pass failed: %s\n", error.c_str());
      return 1;
    }
    WorkCounters c = Count(inputs.mix, std::min(limit, kRepeatPrefix));
    if (spec.updates &&
        !WalBytesPass(dep.get(), inputs.update_triples,
                      &c.wal_bytes_per_update, &bench_spans)) {
      std::fprintf(stderr, "direct updates failed or LSNs not dense\n");
      return 1;
    }
    if (!prefix_counters.empty() && !(c == prefix_counters.front())) {
      ++counter_mismatches;
    }
    prefix_counters.push_back(c);
    if (last) {
      counters = Count(inputs.mix, inputs.mix.size());
      counters.wal_bytes_per_update = c.wal_bytes_per_update;
    }
  }
  std::fprintf(stderr, "[%s] setup rounds done (median %.3f s)\n",
               spec.name.c_str(), Median(setup_s));
  const double setup_rss_mb = PeakRssMb();
  const std::string sizes = MapJson({
      {"triples", std::to_string(inputs.triples.size())},
      {"paths", std::to_string(dep->index->path_count())},
      {"index_disk_bytes", std::to_string(dep->index->stats().disk_bytes)},
      {"distinct_queries", std::to_string(inputs.mix.size())},
      {"peak_rss_after_setup_mb", Num(setup_rss_mb)},
  });

  LoadPlan plan;
  plan.spec = &spec;
  plan.dep = dep.get();
  plan.mix = &inputs.mix;
  plan.update_triples = &inputs.update_triples;
  plan.seed = options.seed;
  UpdateCursor cursor;
  cursor.last_lsn = dep->engine->last_update_lsn();
  cursor.next = 16;  // Past the pairs WalBytesPass applied.

  // ---- Warm-up load (not reported, but checked).
  Window warm = RunWindow(plan, std::min(1.0, options.seconds / 4), 0,
                          &cursor, nullptr);

  Window untraced;
  Window traced;
  Snapshot layer_delta;
  ServerTraceSink sink(20000);
  double measure_s = options.trace ? options.seconds / 2 : options.seconds;
  untraced = RunWindow(plan, measure_s, 1, &cursor, nullptr);
  if (options.trace) {
    if (!dep->RestartServer(true)) return 1;
    plan.traced = true;
    Snapshot before = TakeSnapshot(dep.get());
    traced = RunWindow(plan, measure_s, 2, &cursor, &sink);
    layer_delta = Delta(before, TakeSnapshot(dep.get()));
  }

  // ---- Post-run checks. Read-write: every insert has been deleted, so
  // the mix must answer with its pre-run bytes.
  uint64_t attempted = warm.attempted + untraced.attempted + traced.attempted;
  uint64_t post_failures = 0;
  if (spec.updates) post_failures = WireCheck(dep.get(), inputs.mix, &attempted);
  TracedPass pass;
  if (options.trace) {
    pass = DirectTracedPass(*dep, inputs.mix, 200, &bench_spans);
    attempted += std::min<size_t>(inputs.mix.size(), 200);
  }
  const uint64_t failed = warm.failed() + untraced.failed() +
                          traced.failed() + post_failures + pass.mismatches +
                          counter_mismatches;

  // ---- Metrics.
  const Window& main_window = options.trace ? traced : untraced;
  auto qps = [](const Window& w) {
    return Summarize(w.queries).per_s;
  };
  const Served served_queries =
      Summarize(untraced.queries);
  std::vector<Metric> end_to_end = {
      {"setup_s", Median(setup_s), "s"},
      {"qps", served_queries.per_s, "1/s"},
      {"query_p50_ms", served_queries.p50_ms, "ms"},
      {"query_p90_ms", served_queries.p90_ms, "ms"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
  auto served = [](const Window& w) {
    const Served updates = Summarize(w.updates);
    std::vector<Metric> m = {
        {"query_p99_ms", Summarize(w.queries).p99_ms, "ms"},
        {"update_p50_ms", updates.p50_ms, "ms"},
        {"update_p99_ms", updates.p99_ms, "ms"},
        {"updates_per_s", updates.per_s, "1/s"},
        {"failed_share", Ratio(w.failed(), w.attempted), "ratio"},
        {"exact_share", Ratio(w.exact, w.ok), "ratio"},
    };
    return m;
  };

  std::vector<Metric> per_layer;
  std::map<std::string, LayerTime> self_times;
  if (options.trace) {
    std::vector<Span> spans = std::move(traced.spans);
    std::vector<std::shared_ptr<const sama::QueryTrace>> server_traces =
        sink.traces();
    server_traces.insert(server_traces.end(), traced.server_traces.begin(),
                         traced.server_traces.end());
    std::vector<Span> server_spans =
        ImportServerTraces(server_traces, spans, "client.read");
    spans.insert(spans.end(), server_spans.begin(), server_spans.end());
    for (Span& s : bench_spans.spans()) spans.push_back(std::move(s));
    self_times = SelfTimes(spans);

    // Round trip minus the server's execute span, per matched request.
    std::unordered_map<uint64_t, double> round_trip;
    for (const Span& s : spans) {
      if (s.name == "client.request") round_trip[s.request_id] = s.duration_us();
    }
    double overhead_us = 0;
    uint64_t matched = 0;
    for (const Span& s : spans) {
      if (s.name != "srv.execute") continue;
      auto it = round_trip.find(s.request_id);
      if (it == round_trip.end()) continue;
      overhead_us += it->second - s.duration_us();
      ++matched;
    }
    auto mean_us = [&](const char* name) {
      auto it = self_times.find(name);
      return it == self_times.end() ? 0.0
                                    : Ratio(it->second.total_us,
                                            it->second.count);
    };
    const Snapshot& d = layer_delta;
    auto at = [&](const std::string& key) {
      auto it = d.find(key);
      return it == d.end() ? 0.0 : it->second;
    };
    auto hit_rate = [&](const char* cache) {
      std::string k = std::string("cache.") + cache;
      return Ratio(at(k + ".hits"), at(k + ".hits") + at(k + ".misses"));
    };
    auto phase_ms = [&](const char* phase) {
      std::string k = std::string("phase.") + phase;
      return Ratio(at(k + ".sum"), at(k + ".count"));
    };
    const double queries = at("queries");
    const double updates = at("server.update_requests");
    const double requests = at("server.query_requests") + updates;
    const double skipped = at("bound_pruned") + at("roots_pruned");
    uint64_t candidates = 0;
    for (const MixQuery& q : inputs.mix) candidates += q.candidate_paths;

    per_layer = {
        {"server.queue_wait_ms",
         Ratio(at("server.queue_wait.sum"), at("server.queue_wait.count")),
         "ms"},
        {"server.overhead_ms", Ratio(overhead_us, matched) / 1000.0, "ms"},
        {"server.encode_us", mean_us("srv.encode"), "us"},
        {"server.bytes_per_request",
         Ratio(at("server.bytes_read") + at("server.bytes_written"), requests),
         "B"},
        {"server.shed", at("server.shed"), "count"},
        {"query.parse_us", mean_us("ParseSparql"), "us"},
        {"core.preprocess_ms", phase_ms("preprocess"), "ms"},
        {"core.clustering_ms", phase_ms("clustering"), "ms"},
        {"core.candidate_paths", Ratio(candidates, inputs.mix.size()),
         "count"},
        {"cache.path_record_hit_rate", hit_rate("path_records"), "ratio"},
        {"cache.path_record_evictions", at("cache.path_records.evictions"),
         "count"},
        {"cache.path_lookup_hit_rate", hit_rate("path_lookups"), "ratio"},
        {"cache.label_match_hit_rate", hit_rate("label_matches"), "ratio"},
        {"cache.posting_hit_rate", hit_rate("postings"), "ratio"},
        {"storage.pool_fetches_per_query", Ratio(at("pool.fetches"), queries),
         "count"},
        {"storage.pool_miss_rate",
         Ratio(at("pool.misses"), at("pool.hits") + at("pool.misses")),
         "ratio"},
        {"storage.pool_bytes_read", at("pool.bytes_read"), "B"},
        {"core.search_ms", phase_ms("search"), "ms"},
        {"core.search_expansions", Ratio(at("expansions"), queries), "count"},
        {"core.search_pruned_share",
         Ratio(skipped, skipped + at("expansions")), "ratio"},
        {"core.search_parallel_speedup",
         Ratio(pass.search_busy_ms, pass.search_ms), "ratio"},
        {"core.truncated_share", Ratio(at("truncated"), queries), "ratio"},
        {"cache.alignment_memo_hit_rate", hit_rate("alignment_memo"),
         "ratio"},
        {"storage.wal_append_ms", mean_us("srv.wal.append") / 1000.0, "ms"},
        {"storage.wal_fsync_ms", mean_us("srv.wal.fsync") / 1000.0, "ms"},
        {"storage.wal_apply_ms", mean_us("srv.wal.apply") / 1000.0, "ms"},
        {"storage.checkpoint_ms", mean_us("srv.wal.checkpoint") / 1000.0,
         "ms"},
        {"storage.wal_bytes_per_update", Ratio(at("wal.bytes"), updates), "B"},
        {"epoch.retired", at("epoch_retired"), "count"},
        {"obs.trace_overhead_ratio", Ratio(qps(traced), qps(untraced)),
         "ratio"},
    };
    for (Metric& m : served(traced)) per_layer.push_back(m);

    if (!options.trace_out.empty() && !WriteSpans(options.trace_out, spans)) {
      std::fprintf(stderr, "cannot write %s\n", options.trace_out.c_str());
    }
  }

  // ---- Human-readable summary on stderr, one JSON line on stdout.
  std::fprintf(stderr,
               "[%s] seed=%llu %.1fs: %llu queries (%llu ok), %llu updates, "
               "failed=%llu\n",
               spec.name.c_str(), static_cast<unsigned long long>(options.seed),
               main_window.elapsed_s,
               static_cast<unsigned long long>(main_window.queries.count()),
               static_cast<unsigned long long>(main_window.ok),
               static_cast<unsigned long long>(main_window.updates.count()),
               static_cast<unsigned long long>(failed));
  if (!self_times.empty()) {
    std::fprintf(stderr, "  %-22s %9s %12s %12s\n", "span", "count",
                 "mean_us", "self_us");
    for (const auto& [name, t] : self_times) {
      std::fprintf(stderr, "  %-22s %9llu %12.2f %12.2f\n", name.c_str(),
                   static_cast<unsigned long long>(t.count),
                   Ratio(t.total_us, t.count), Ratio(t.self_us, t.count));
    }
  }
  std::vector<std::pair<std::string, std::string>> self_json;
  for (const auto& [name, t] : self_times) {
    self_json.push_back(
        {name, MapJson({{"count", std::to_string(t.count)},
                        {"self_ms", Num(t.self_us / 1000.0)},
                        {"total_ms", Num(t.total_us / 1000.0)}})});
  }
  std::string setups = "[";
  for (size_t i = 0; i < setup_s.size(); ++i) {
    setups += (i ? ", " : "") + Num(setup_s[i]);
  }
  setups += "]";
  std::printf(
      "%s\n",
      MapJson({
          {"workload", Quote(spec.name)},
          {"seed", std::to_string(options.seed)},
          {"trace", options.trace ? "1" : "0"},
          {"fingerprint", FingerprintJson()},
          {"counters", counters.Json()},
          {"correct", failed == 0 ? "true" : "false"},
          {"attempted", std::to_string(attempted)},
          {"failed", std::to_string(failed)},
          {"failures",
           MapJson({
               {"errors", std::to_string(untraced.errors + traced.errors +
                                         warm.errors)},
               {"shed",
                std::to_string(untraced.shed + traced.shed + warm.shed)},
               {"mismatches", std::to_string(untraced.mismatches +
                                             traced.mismatches +
                                             warm.mismatches +
                                             pass.mismatches)},
               {"protocol_errors",
                std::to_string(untraced.protocol_errors +
                               traced.protocol_errors +
                               warm.protocol_errors)},
               {"update_failures",
                std::to_string(untraced.update_failures +
                               traced.update_failures +
                               warm.update_failures)},
               {"post_run_mismatches", std::to_string(post_failures)},
               {"counter_mismatches", std::to_string(counter_mismatches)},
           })},
          {"samples", MapJson({{"queries", std::to_string(
                                               untraced.queries.count())},
                               {"updates", std::to_string(
                                               untraced.updates.count())}})},
          {"setup_rounds_s", setups},
          {"sizes", sizes},
          {"end_to_end", MetricsJson(end_to_end)},
          {"served", MetricsJson(served(untraced))},
          {"per_layer", MetricsJson(per_layer)},
          {"self_time", MapJson(self_json)},
      })
          .c_str());
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (argc % 2 == 0 || options.workload.empty() || options.work_dir.empty() ||
      !(options.seconds > 0)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
                 "--work-dir DIR [--trace-out FILE]\n",
                 argv[0]);
    return 2;
  }
  return perfbench::Run(options);
}
