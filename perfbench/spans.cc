#include "spans.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace perfbench {
namespace {

const std::chrono::steady_clock::time_point kAnchor =
    std::chrono::steady_clock::now();

std::atomic<uint64_t> next_span_id{1};

uint64_t NewSpanId() {
  return next_span_id.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

double NowMicros() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - kAnchor)
      .count();
}

uint64_t SpanBuffer::Begin(const char* name, uint64_t parent,
                           uint64_t request_id) {
  if (!enabled_) return 0;
  Span span;
  span.name = name;
  span.id = NewSpanId();
  span.parent = parent;
  span.request_id = request_id;
  span.start_us = NowMicros();
  span.end_us = span.start_us;
  open_[span.id] = spans_.size();
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void SpanBuffer::End(uint64_t id) {
  if (id == 0) return;
  auto it = open_.find(id);
  if (it == open_.end()) return;
  spans_[it->second].end_us = NowMicros();
  open_.erase(it);
}

void ServerTraceSink::Poll(
    const std::vector<std::shared_ptr<const sama::QueryTrace>>& recent) {
  // request_traces() is oldest-first; everything after the newest trace
  // of the previous poll is new. If that trace already aged out, the
  // whole snapshot is new (some traces in between were missed, which
  // only thins the sample).
  size_t first_new = 0;
  if (!last_.empty()) {
    const sama::QueryTrace* newest_seen = last_.back().get();
    for (size_t i = recent.size(); i > 0; --i) {
      if (recent[i - 1].get() == newest_seen) {
        first_new = i;
        break;
      }
    }
  }
  for (size_t i = first_new; i < recent.size(); ++i) {
    if (traces_.size() >= capacity_) break;
    traces_.push_back(recent[i]);
  }
  last_ = recent;
}

std::vector<Span> ImportServerTraces(
    const std::vector<std::shared_ptr<const sama::QueryTrace>>& traces,
    const std::vector<Span>& client_spans, const std::string& attach_to) {
  std::unordered_map<uint64_t, const Span*> by_request;
  for (const Span& span : client_spans) {
    if (span.name == attach_to) by_request[span.request_id] = &span;
  }
  std::vector<Span> out;
  for (const auto& trace : traces) {
    std::vector<sama::TraceSpan> spans = trace->Snapshot();
    // One trace per request: its root is the "request" span.
    const sama::TraceSpan* root = nullptr;
    for (const sama::TraceSpan& s : spans) {
      if (s.name == "request" && s.duration_millis >= 0) {
        root = &s;
        break;
      }
    }
    if (root == nullptr) continue;
    uint64_t request_id = 0;
    for (const auto& [key, value] : root->attrs) {
      if (key == "request_id") request_id = std::stoull(value);
    }
    auto client = by_request.find(request_id);
    const double root_start_us = root->start_millis * 1000.0;
    const double root_us = root->duration_millis * 1000.0;
    double offset = -root_start_us;
    uint64_t root_parent = 0;
    if (client != by_request.end()) {
      const Span& c = *client->second;
      offset = c.start_us + std::max(0.0, c.duration_us() - root_us) / 2 -
               root_start_us;
      root_parent = c.id;
    }
    std::unordered_map<uint64_t, uint64_t> ids;
    for (const sama::TraceSpan& s : spans) ids[s.id] = NewSpanId();
    for (const sama::TraceSpan& s : spans) {
      if (s.duration_millis < 0) continue;  // Still open: not ours.
      Span span;
      span.name = "srv." + s.name;
      span.id = ids[s.id];
      auto parent = ids.find(s.parent);
      span.parent = s.id == root->id ? root_parent
                    : parent != ids.end() ? parent->second
                                          : 0;
      span.request_id = request_id;
      span.start_us = s.start_millis * 1000.0 + offset;
      span.end_us = span.start_us + s.duration_millis * 1000.0;
      out.push_back(std::move(span));
    }
  }
  return out;
}

std::map<std::string, LayerTime> SelfTimes(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, std::vector<const Span*>> children;
  for (const Span& span : spans) {
    if (span.parent != 0) children[span.parent].push_back(&span);
  }
  std::map<std::string, LayerTime> layers;
  std::vector<std::pair<double, double>> covered;
  for (const Span& span : spans) {
    covered.clear();
    auto it = children.find(span.id);
    if (it != children.end()) {
      for (const Span* child : it->second) {
        double lo = std::max(child->start_us, span.start_us);
        double hi = std::min(child->end_us, span.end_us);
        if (hi > lo) covered.emplace_back(lo, hi);
      }
    }
    std::sort(covered.begin(), covered.end());
    double child_us = 0;
    double reach = span.start_us;
    for (const auto& [lo, hi] : covered) {
      double from = std::max(lo, reach);
      if (hi > from) child_us += hi - from;
      reach = std::max(reach, hi);
    }
    LayerTime& layer = layers[span.name];
    ++layer.count;
    layer.total_us += span.duration_us();
    layer.self_us += std::max(0.0, span.duration_us() - child_us);
  }
  return layers;
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                 "\"request_id\":%llu,\"start_us\":%.3f,\"end_us\":%.3f}\n",
                 s.name.c_str(), static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request_id), s.start_us,
                 s.end_us);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
