// Named metrics with units: printed one per line, and the gated subset
// emitted as the run's final JSON line.
#pragma once

#include <charconv>
#include <cstdio>
#include <string>
#include <vector>

namespace wallbench {

class Report {
 public:
  /// `in_json`: part of the final JSON line (the BENCHMARK.json metric set
  /// for this kind of run); every metric is printed either way.
  void Add(std::string name, double value, std::string unit, bool in_json) {
    metrics_.push_back({std::move(name), value, std::move(unit), in_json});
  }

  void Print(std::FILE* out) const {
    for (const Metric& m : metrics_) {
      std::fprintf(out, "  %-34s %16s %s\n", m.name.c_str(),
                   Number(m.value).c_str(), m.unit.c_str());
    }
  }

  /// {"name": {"value": v, "unit": "u"}, ...} over the in_json metrics
  /// (every metric with `all`).
  std::string JsonMetrics(bool all = false) const {
    std::string out = "{";
    for (const Metric& m : metrics_) {
      if (!m.in_json && !all) continue;
      if (out.size() > 1) out += ", ";
      out += "\"" + m.name + "\": {\"value\": " + Number(m.value) +
             ", \"unit\": \"" + m.unit + "\"}";
    }
    return out + "}";
  }

  /// Shortest decimal that round-trips the double (every digit measured).
  static std::string Number(double v) {
    char buf[64];
    auto end = std::to_chars(buf, buf + sizeof(buf), v).ptr;
    return std::string(buf, end);
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    bool in_json;
  };
  std::vector<Metric> metrics_;
};

}  // namespace wallbench
