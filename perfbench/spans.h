// In-memory span recording for the traced benchmark run.
//
// The benchmark records its own spans around the public calls it makes
// (client send/read, ParseSparql, ExecuteSparql, EncodeQueryResult,
// ApplyUpdate) and imports the spans the server already records when
// BinaryQueryServer::Options::trace_requests is on. Everything stays in
// memory until the run ends; then self time per layer is computed and
// the spans are written out as JSON lines.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

// Microseconds on the benchmark's steady clock, from process start.
double NowMicros();

struct Span {
  std::string name;
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root.
  uint64_t request_id = 0;
  double start_us = 0;
  double end_us = 0;
  double duration_us() const { return end_us - start_us; }
};

// Thread-compatible span buffer: one per recording thread, merged with
// Append once the thread is done. Ids are process-unique.
class SpanBuffer {
 public:
  explicit SpanBuffer(bool enabled = true) : enabled_(enabled) {}

  // Opens a span and returns its id (0 when disabled).
  uint64_t Begin(const char* name, uint64_t parent, uint64_t request_id);
  void End(uint64_t id);

  std::vector<Span>& spans() { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::map<uint64_t, size_t> open_;  // id -> index in spans_.
};

// Collects server request traces while a traced window runs. Poll()
// reads BinaryQueryServer::request_traces() and keeps traces it has
// not seen yet, up to `capacity` of them.
class ServerTraceSink {
 public:
  explicit ServerTraceSink(size_t capacity) : capacity_(capacity) {}
  void Poll(const std::vector<std::shared_ptr<const sama::QueryTrace>>& recent);
  const std::vector<std::shared_ptr<const sama::QueryTrace>>& traces() const {
    return traces_;
  }

 private:
  size_t capacity_;
  std::vector<std::shared_ptr<const sama::QueryTrace>> last_;
  std::vector<std::shared_ptr<const sama::QueryTrace>> traces_;
};

// Converts collected server traces into benchmark spans. Each server
// "request" span is attached under the client span of the same request
// id named `attach_to` (client.read). The two clocks are not shared,
// so the server tree is centred inside that client span; durations
// and nesting inside the server tree are exact. Server span names get
// the "srv." prefix. Traces without a matching client span are kept
// as roots.
std::vector<Span> ImportServerTraces(
    const std::vector<std::shared_ptr<const sama::QueryTrace>>& traces,
    const std::vector<Span>& client_spans, const std::string& attach_to);

struct LayerTime {
  uint64_t count = 0;
  double total_us = 0;  // Sum of span durations.
  double self_us = 0;   // Sum of durations minus time covered by children.
};

// Self time per span name: a span's duration minus the union of its
// children's intervals (clipped to the span).
std::map<std::string, LayerTime> SelfTimes(const std::vector<Span>& spans);

// Writes one JSON object per span.
bool WriteSpans(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
