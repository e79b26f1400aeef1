#include "telemetry/snapshot.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "common/table.h"

namespace ros2::telemetry {
namespace {

std::uint64_t DoubleBits(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double BitsDouble(std::uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string FormatMicros(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", seconds * 1e6);
  return buf;
}

Result<MetricKind> ParseKind(const std::string& name) {
  for (MetricKind kind :
       {MetricKind::kCounter, MetricKind::kGauge, MetricKind::kTimestamp,
        MetricKind::kHistogram}) {
    if (name == MetricKindName(kind)) return kind;
  }
  return InvalidArgument("unknown metric kind: " + name);
}

}  // namespace

const MetricValue* TelemetrySnapshot::Find(const std::string& path) const {
  auto it = std::lower_bound(
      metrics.begin(), metrics.end(), path,
      [](const MetricValue& m, const std::string& p) { return m.path < p; });
  if (it == metrics.end() || it->path != path) return nullptr;
  return &*it;
}

std::uint64_t TelemetrySnapshot::ValueOr(const std::string& path,
                                         std::uint64_t fallback) const {
  const MetricValue* m = Find(path);
  if (m == nullptr) return fallback;
  switch (m->kind) {
    case MetricKind::kCounter:
    case MetricKind::kTimestamp:
      return m->value;
    case MetricKind::kGauge:
      return std::uint64_t(m->gauge);
    case MetricKind::kHistogram:
      return m->count;
  }
  return fallback;
}

void TelemetrySnapshot::EncodeTo(rpc::Encoder& enc) const {
  enc.U32(std::uint32_t(metrics.size()));
  for (const MetricValue& m : metrics) {
    enc.Str(m.path).U8(std::uint8_t(m.kind));
    switch (m.kind) {
      case MetricKind::kCounter:
      case MetricKind::kTimestamp:
        enc.U64(m.value);
        break;
      case MetricKind::kGauge:
        enc.U64(std::uint64_t(m.gauge));
        break;
      case MetricKind::kHistogram:
        enc.U64(m.count)
            .U64(DoubleBits(m.sum))
            .U64(DoubleBits(m.min))
            .U64(DoubleBits(m.max))
            .U64(DoubleBits(m.p50))
            .U64(DoubleBits(m.p99))
            .U64(DoubleBits(m.p999));
        break;
    }
  }
  enc.U32(std::uint32_t(traces.size()));
  for (const TraceRecord& t : traces) {
    enc.U64(t.trace_id).U32(t.opcode).U64(t.queue_ns).U64(t.exec_ns).U64(
        t.total_ns);
  }
}

Result<TelemetrySnapshot> TelemetrySnapshot::DecodeFrom(rpc::Decoder& dec) {
  TelemetrySnapshot snap;
  ROS2_ASSIGN_OR_RETURN(const std::uint32_t n_metrics, dec.U32());
  snap.metrics.reserve(n_metrics);
  for (std::uint32_t i = 0; i < n_metrics; ++i) {
    MetricValue m;
    ROS2_ASSIGN_OR_RETURN(m.path, dec.Str());
    ROS2_ASSIGN_OR_RETURN(const std::uint8_t kind, dec.U8());
    if (kind > std::uint8_t(MetricKind::kHistogram)) {
      return InvalidArgument("telemetry snapshot: bad metric kind");
    }
    m.kind = MetricKind(kind);
    switch (m.kind) {
      case MetricKind::kCounter:
      case MetricKind::kTimestamp: {
        ROS2_ASSIGN_OR_RETURN(m.value, dec.U64());
        break;
      }
      case MetricKind::kGauge: {
        ROS2_ASSIGN_OR_RETURN(const std::uint64_t bits, dec.U64());
        m.gauge = std::int64_t(bits);
        break;
      }
      case MetricKind::kHistogram: {
        ROS2_ASSIGN_OR_RETURN(m.count, dec.U64());
        ROS2_ASSIGN_OR_RETURN(const std::uint64_t sum, dec.U64());
        ROS2_ASSIGN_OR_RETURN(const std::uint64_t min, dec.U64());
        ROS2_ASSIGN_OR_RETURN(const std::uint64_t max, dec.U64());
        ROS2_ASSIGN_OR_RETURN(const std::uint64_t p50, dec.U64());
        ROS2_ASSIGN_OR_RETURN(const std::uint64_t p99, dec.U64());
        ROS2_ASSIGN_OR_RETURN(const std::uint64_t p999, dec.U64());
        m.sum = BitsDouble(sum);
        m.min = BitsDouble(min);
        m.max = BitsDouble(max);
        m.p50 = BitsDouble(p50);
        m.p99 = BitsDouble(p99);
        m.p999 = BitsDouble(p999);
        break;
      }
    }
    snap.metrics.push_back(std::move(m));
  }
  ROS2_ASSIGN_OR_RETURN(const std::uint32_t n_traces, dec.U32());
  snap.traces.reserve(n_traces);
  for (std::uint32_t i = 0; i < n_traces; ++i) {
    TraceRecord t;
    ROS2_ASSIGN_OR_RETURN(t.trace_id, dec.U64());
    ROS2_ASSIGN_OR_RETURN(t.opcode, dec.U32());
    ROS2_ASSIGN_OR_RETURN(t.queue_ns, dec.U64());
    ROS2_ASSIGN_OR_RETURN(t.exec_ns, dec.U64());
    ROS2_ASSIGN_OR_RETURN(t.total_ns, dec.U64());
    snap.traces.push_back(t);
  }
  return snap;
}

bench::Json TelemetrySnapshot::ToJson() const {
  bench::Json root = bench::Json::Object();
  root["schema"] = bench::Json("ros2-telemetry-v1");
  bench::Json metric_array = bench::Json::Array();
  for (const MetricValue& m : metrics) {
    bench::Json j = bench::Json::Object();
    j["path"] = bench::Json(m.path);
    j["kind"] = bench::Json(MetricKindName(m.kind));
    switch (m.kind) {
      case MetricKind::kCounter:
      case MetricKind::kTimestamp:
        j["value"] = bench::Json(m.value);
        break;
      case MetricKind::kGauge:
        j["value"] = bench::Json(std::int64_t(m.gauge));
        break;
      case MetricKind::kHistogram:
        j["count"] = bench::Json(m.count);
        j["sum"] = bench::Json(m.sum);
        j["min"] = bench::Json(m.min);
        j["max"] = bench::Json(m.max);
        j["p50"] = bench::Json(m.p50);
        j["p99"] = bench::Json(m.p99);
        j["p999"] = bench::Json(m.p999);
        break;
    }
    metric_array.Append(std::move(j));
  }
  root["metrics"] = std::move(metric_array);
  bench::Json trace_array = bench::Json::Array();
  for (const TraceRecord& t : traces) {
    bench::Json j = bench::Json::Object();
    j["trace_id"] = bench::Json(t.trace_id);
    j["opcode"] = bench::Json(std::uint64_t(t.opcode));
    j["queue_ns"] = bench::Json(t.queue_ns);
    j["exec_ns"] = bench::Json(t.exec_ns);
    j["total_ns"] = bench::Json(t.total_ns);
    trace_array.Append(std::move(j));
  }
  root["traces"] = std::move(trace_array);
  return root;
}

Result<TelemetrySnapshot> TelemetrySnapshot::FromJson(const bench::Json& json) {
  if (!json.is_object()) return InvalidArgument("telemetry json: not an object");
  const bench::Json* schema = json.Find("schema");
  if (schema == nullptr || schema->AsString() != "ros2-telemetry-v1") {
    return InvalidArgument("telemetry json: missing/unknown schema");
  }
  TelemetrySnapshot snap;
  const bench::Json* metric_array = json.Find("metrics");
  if (metric_array == nullptr || !metric_array->is_array()) {
    return InvalidArgument("telemetry json: missing metrics array");
  }
  for (const bench::Json& j : metric_array->elements()) {
    const bench::Json* path = j.Find("path");
    const bench::Json* kind = j.Find("kind");
    if (path == nullptr || kind == nullptr) {
      return InvalidArgument("telemetry json: metric missing path/kind");
    }
    MetricValue m;
    m.path = path->AsString();
    ROS2_ASSIGN_OR_RETURN(m.kind, ParseKind(kind->AsString()));
    switch (m.kind) {
      case MetricKind::kCounter:
      case MetricKind::kTimestamp: {
        const bench::Json* v = j.Find("value");
        m.value = std::uint64_t(v ? v->AsNumber() : 0.0);
        break;
      }
      case MetricKind::kGauge: {
        const bench::Json* v = j.Find("value");
        m.gauge = std::int64_t(v ? v->AsNumber() : 0.0);
        break;
      }
      case MetricKind::kHistogram: {
        const bench::Json* c = j.Find("count");
        m.count = std::uint64_t(c ? c->AsNumber() : 0.0);
        auto num = [&j](const char* key) {
          const bench::Json* v = j.Find(key);
          return v ? v->AsNumber() : 0.0;
        };
        m.sum = num("sum");
        m.min = num("min");
        m.max = num("max");
        m.p50 = num("p50");
        m.p99 = num("p99");
        m.p999 = num("p999");
        break;
      }
    }
    snap.metrics.push_back(std::move(m));
  }
  const bench::Json* trace_array = json.Find("traces");
  if (trace_array != nullptr && trace_array->is_array()) {
    for (const bench::Json& j : trace_array->elements()) {
      auto num = [&j](const char* key) {
        const bench::Json* v = j.Find(key);
        return std::uint64_t(v ? v->AsNumber() : 0.0);
      };
      TraceRecord t;
      t.trace_id = num("trace_id");
      t.opcode = std::uint32_t(num("opcode"));
      t.queue_ns = num("queue_ns");
      t.exec_ns = num("exec_ns");
      t.total_ns = num("total_ns");
      snap.traces.push_back(t);
    }
  }
  return snap;
}

std::string TelemetrySnapshot::RenderTable() const {
  AsciiTable table({"metric", "kind", "value", "p50_us", "p99_us", "max_us"});
  for (const MetricValue& m : metrics) {
    switch (m.kind) {
      case MetricKind::kCounter:
      case MetricKind::kTimestamp:
        table.AddRow({m.path, MetricKindName(m.kind), std::to_string(m.value),
                      "-", "-", "-"});
        break;
      case MetricKind::kGauge:
        table.AddRow({m.path, MetricKindName(m.kind), std::to_string(m.gauge),
                      "-", "-", "-"});
        break;
      case MetricKind::kHistogram:
        table.AddRow({m.path, MetricKindName(m.kind),
                      "n=" + std::to_string(m.count), FormatMicros(m.p50),
                      FormatMicros(m.p99), FormatMicros(m.max)});
        break;
    }
  }
  std::string out = table.Render();
  if (!traces.empty()) {
    AsciiTable trace_table(
        {"trace_id", "opcode", "queue_us", "exec_us", "total_us"});
    for (const TraceRecord& t : traces) {
      trace_table.AddRow({std::to_string(t.trace_id), std::to_string(t.opcode),
                          FormatMicros(double(t.queue_ns) * 1e-9),
                          FormatMicros(double(t.exec_ns) * 1e-9),
                          FormatMicros(double(t.total_ns) * 1e-9)});
    }
    out += "\n";
    out += trace_table.Render();
  }
  return out;
}

TelemetrySnapshot Telemetry::Snapshot(const std::string& prefix) const {
  TelemetrySnapshot snap;
  common::MutexLock lk(mu_);
  auto it = prefix.empty() ? nodes_.begin() : nodes_.lower_bound(prefix);
  for (; it != nodes_.end(); ++it) {
    if (!prefix.empty() && it->first.compare(0, prefix.size(), prefix) != 0) {
      break;  // past the prefix range in the ordered map
    }
    const Node& node = it->second;
    MetricValue m;
    m.path = it->first;
    m.kind = node.kind;
    switch (node.kind) {
      case MetricKind::kCounter:
        m.value = node.counter ? node.counter->value()
                               : node.linked_counter->value();
        break;
      case MetricKind::kGauge:
        m.gauge = node.callback();
        break;
      case MetricKind::kTimestamp:
        m.value = node.timestamp->value_ns();
        break;
      case MetricKind::kHistogram: {
        const LatencyHistogram folded = node.linked_histogram->Fold();
        m.count = folded.count();
        m.sum = folded.sum();
        m.min = folded.min();
        m.max = folded.max();
        m.p50 = folded.p50();
        m.p99 = folded.p99();
        m.p999 = folded.p999();
        break;
      }
    }
    snap.metrics.push_back(std::move(m));
  }
  return snap;
}

}  // namespace ros2::telemetry
