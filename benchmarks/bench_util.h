#ifndef SAMA_BENCH_BENCH_UTIL_H_
#define SAMA_BENCH_BENCH_UTIL_H_

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "datasets/lubm.h"
#include "index/path_index.h"
#include "text/thesaurus.h"

#ifndef SAMA_BUILD_TYPE
#define SAMA_BUILD_TYPE "unknown"
#endif

namespace sama {
namespace bench {

// JSON has no literal for inf/nan; fprintf would happily emit "inf"
// and break every downstream consumer (json.load in the regression
// checker rejects it). Clamp every ratio before it reaches a %.4f.
// Trivial queries make this real: a near-zero denominator pushes the
// raw ratio to inf even when both operands are "guarded" against 0.
inline double FiniteOr(double v, double fallback = 0.0) {
  return std::isfinite(v) ? v : fallback;
}

// The one artifact shape every gated harness writes (--json=FILE) and
// tools/check_bench_regression.py reads:
//
//   {"bench": NAME,
//    "fingerprint": {"nproc", "cpu", "compiler", "build_type"},
//    "config": {KEY: VALUE, ...},
//    "metrics": [{"name", "value", "gate"}, ...]}
//
// A gate is a space-separated list of clauses; the checker applies the
// committed baseline's gates, in three tiers:
//   zero, exact         deterministic counters, on any machine
//   min:X, max:X        same-run ratios and hard floors, on any machine
//   lower:T, higher:T   absolute ms and rates within T of the baseline,
//                       only when both fingerprints match
//   none                recorded for the reader, never gated
// `config` must match the baseline's exactly: every option that moves
// a counter or changes what a number means belongs in it.
class Ledger {
 public:
  explicit Ledger(std::string bench) : bench_(std::move(bench)) {}

  void Config(const std::string& key, double value) {
    config_.emplace_back(key, Number(value));
  }
  void Config(const std::string& key, const std::string& value) {
    config_.emplace_back(key, Quote(value));
  }
  void Metric(const std::string& name, double value,
              const char* gate = "none") {
    metrics_.push_back("{\"name\": " + Quote(name) +
                       ", \"value\": " + Number(value) +
                       ", \"gate\": " + Quote(gate) + "}");
  }

  // Exits 1 when the file cannot be written: a missing artifact must
  // fail the CI step that asked for it.
  void Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      std::exit(1);
    }
    std::fprintf(f,
                 "{\"bench\": %s,\n \"fingerprint\": {\"nproc\": %ld, "
                 "\"cpu\": %s, \"compiler\": %s, \"build_type\": %s},\n"
                 " \"config\": {",
                 Quote(bench_).c_str(), sysconf(_SC_NPROCESSORS_ONLN),
                 Quote(CpuModel()).c_str(), Quote(Compiler()).c_str(),
                 Quote(SAMA_BUILD_TYPE).c_str());
    for (size_t i = 0; i < config_.size(); ++i) {
      std::fprintf(f, "%s%s: %s", i ? ", " : "",
                   Quote(config_[i].first).c_str(),
                   config_[i].second.c_str());
    }
    std::fprintf(f, "},\n \"metrics\": [");
    for (size_t i = 0; i < metrics_.size(); ++i) {
      std::fprintf(f, "%s\n  %s", i ? "," : "", metrics_[i].c_str());
    }
    std::fprintf(f, "\n]}\n");
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
  }

 private:
  // %.15g keeps every integer below 10^15 exact, so `exact` counters
  // round-trip.
  static std::string Number(double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.15g", FiniteOr(v));
    return buf;
  }
  static std::string Quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) >= 0x20) {
        out += c;
      }
    }
    return out + "\"";
  }
  static std::string CpuModel() {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
      size_t colon = line.find(':');
      if (line.rfind("model name", 0) == 0 && colon != std::string::npos) {
        size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
    return "unknown";
  }
  static std::string Compiler() {
#if defined(__clang__)
    return "clang " __clang_version__;
#else
    return "gcc " __VERSION__;
#endif
  }

  std::string bench_;
  std::vector<std::pair<std::string, std::string>> config_;
  std::vector<std::string> metrics_;
};

// Global size multiplier: SAMA_BENCH_SCALE=1 approximates the paper's
// dataset sizes (hours of indexing); the default keeps every harness
// within a few minutes on one machine while preserving the *shapes* the
// paper reports.
inline double EnvScale() {
  const char* s = std::getenv("SAMA_BENCH_SCALE");
  if (s == nullptr) return 1.0;
  double v = std::atof(s);
  return v > 0 ? v : 1.0;
}

// A ready-to-query LUBM environment with a disk-backed index.
struct LubmEnv {
  std::unique_ptr<DataGraph> graph;
  std::unique_ptr<PathIndex> index;
  Thesaurus thesaurus;
  std::unique_ptr<SamaEngine> engine;
  std::string dir;
};

// `num_threads` configures intra-query parallelism (0 = hardware
// concurrency); answers are identical for every value.
inline LubmEnv MakeLubmEnv(size_t universities, bool on_disk,
                           const std::string& tag, size_t num_threads = 1) {
  LubmEnv env;
  LubmConfig config;
  config.universities = universities;
  env.graph = std::make_unique<DataGraph>(
      DataGraph::FromTriples(GenerateLubm(config)));
  env.index = std::make_unique<PathIndex>();
  PathIndexOptions options;
  if (on_disk) {
    env.dir = (std::filesystem::temp_directory_path() /
               ("sama_bench_" + tag))
                  .string();
    std::filesystem::create_directories(env.dir);
    options.dir = env.dir;
  }
  Status s = env.index->Build(*env.graph, options);
  if (!s.ok()) {
    std::fprintf(stderr, "index build failed: %s\n", s.ToString().c_str());
    std::exit(1);
  }
  env.thesaurus = Thesaurus::BuiltinEnglish();
  EngineOptions engine_options;
  engine_options.num_threads = num_threads;
  env.engine = std::make_unique<SamaEngine>(env.graph.get(),
                                            env.index.get(),
                                            &env.thesaurus,
                                            engine_options);
  return env;
}

// Least-squares fit of y = a·x² + b·x + c (the Figure-7 trendlines).
struct QuadraticFit {
  double a = 0;
  double b = 0;
  double c = 0;
};

inline QuadraticFit FitQuadratic(const std::vector<double>& x,
                                 const std::vector<double>& y) {
  // Normal equations for the 3-parameter least-squares system.
  double s0 = static_cast<double>(x.size());
  double s1 = 0, s2 = 0, s3 = 0, s4 = 0;
  double t0 = 0, t1 = 0, t2 = 0;
  for (size_t i = 0; i < x.size(); ++i) {
    double xi = x[i], xi2 = xi * xi;
    s1 += xi;
    s2 += xi2;
    s3 += xi2 * xi;
    s4 += xi2 * xi2;
    t0 += y[i];
    t1 += y[i] * xi;
    t2 += y[i] * xi2;
  }
  // Solve the symmetric 3x3 system by Cramer's rule.
  double m[3][3] = {{s4, s3, s2}, {s3, s2, s1}, {s2, s1, s0}};
  double rhs[3] = {t2, t1, t0};
  auto det3 = [](double a[3][3]) {
    return a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1]) -
           a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0]) +
           a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0]);
  };
  double d = det3(m);
  QuadraticFit fit;
  if (d == 0) return fit;
  for (int col = 0; col < 3; ++col) {
    double mm[3][3];
    for (int r = 0; r < 3; ++r) {
      for (int cc = 0; cc < 3; ++cc) mm[r][cc] = m[r][cc];
    }
    for (int r = 0; r < 3; ++r) mm[r][col] = rhs[r];
    double value = det3(mm) / d;
    if (col == 0) fit.a = value;
    if (col == 1) fit.b = value;
    if (col == 2) fit.c = value;
  }
  return fit;
}

}  // namespace bench
}  // namespace sama

#endif  // SAMA_BENCH_BENCH_UTIL_H_
