#include "recorder.h"

#include <algorithm>
#include <cstring>

namespace wallbench {

const char* OpClassName(OpClass c) {
  switch (c) {
    case OpClass::kRead: return "read";
    case OpClass::kWrite: return "write";
    case OpClass::kMeta: return "meta";
    case OpClass::kReaddir: return "readdir";
    case OpClass::kCount: break;
  }
  return "?";
}

Samples::Samples(std::size_t capacity) : ns_(capacity) {
  // vector value-initialisation already wrote every element, so the pages
  // are resident before the timed phase.
}

double Samples::QuantileUs(double q, std::size_t begin,
                           std::size_t end) const {
  end = std::min(end, size_);
  if (begin >= end) return 0.0;
  std::vector<std::uint32_t> v(ns_.begin() + std::ptrdiff_t(begin),
                               ns_.begin() + std::ptrdiff_t(end));
  std::size_t rank = std::size_t(q * double(v.size()) + 0.999999999);
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  auto nth = v.begin() + std::ptrdiff_t(rank - 1);
  std::nth_element(v.begin(), nth, v.end());
  return double(*nth) / 1e3;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

void Units::End(std::uint64_t since_start_ns, std::size_t reads) {
  const std::size_t begin = n_ ? units_[n_ - 1].reads_end : 0;
  if (n_ < units_.size()) {
    open_.reads_begin = begin;
    open_.reads_end = reads;
    open_.end_ns = since_start_ns;
    units_[n_++] = open_;
  }
  open_ = Unit{};
}

void Units::Finish(std::uint64_t since_start_ns, std::size_t reads) {
  if (n_ == 0 && open_.ops > 0) {
    End(since_start_ns, reads);
  } else {
    open_ = Unit{};
  }
}

double Units::MedianOpsPerSec() const {
  std::vector<double> rates;
  for (std::size_t i = 0; i < n_; ++i) {
    const Unit& u = units_[i];
    if (u.busy_ns) rates.push_back(double(u.ops) * 1e9 / double(u.busy_ns));
  }
  return Median(std::move(rates));
}

double Units::MedianMiBPerSec() const {
  std::vector<double> rates;
  for (std::size_t i = 0; i < n_; ++i) {
    const Unit& u = units_[i];
    if (u.busy_ns) {
      rates.push_back(double(u.bytes) / (1 << 20) * 1e9 / double(u.busy_ns));
    }
  }
  return Median(std::move(rates));
}

double Units::MedianReadQuantileUs(const Samples& reads, double q) const {
  std::vector<double> values;
  for (std::size_t i = 0; i < n_; ++i) {
    const Unit& u = units_[i];
    if (u.reads_end > u.reads_begin) {
      values.push_back(reads.QuantileUs(q, u.reads_begin, u.reads_end));
    }
  }
  return Median(std::move(values));
}

double Units::FifthOpsPerSec(int i, std::uint64_t duration_ns) const {
  std::uint64_t ops = 0;
  std::uint64_t busy = 0;
  for (std::size_t k = 0; k < n_; ++k) {
    const Unit& u = units_[k];
    const std::uint64_t fifth = u.end_ns * 5 / (duration_ns ? duration_ns : 1);
    if (std::min<std::uint64_t>(fifth, 4) == std::uint64_t(i)) {
      ops += u.ops;
      busy += u.busy_ns;
    }
  }
  return busy ? double(ops) * 1e9 / double(busy) : 0.0;
}

double Units::Drift(std::uint64_t duration_ns) const {
  std::vector<double> rates;
  for (int i = 0; i < 5; ++i) {
    const double r = FifthOpsPerSec(i, duration_ns);
    if (r > 0) rates.push_back(r);
  }
  if (rates.empty()) return 0.0;
  const auto [lo, hi] = std::minmax_element(rates.begin(), rates.end());
  return (*hi - *lo) / Median(rates);
}

const char* SpanName(Span s) {
  switch (s) {
    case Span::kNone: return "";
    case Span::kCorePread: return "core.pread";
    case Span::kCorePwrite: return "core.pwrite";
    case Span::kCoreStat: return "core.stat";
    case Span::kCoreOpen: return "core.open";
    case Span::kCoreClose: return "core.close";
    case Span::kCoreUnlink: return "core.unlink";
    case Span::kCoreReaddir: return "core.readdir";
    case Span::kCorePreadParts: return "core.pread.parts";
    case Span::kCorePwriteParts: return "core.pwrite.parts";
    case Span::kGrant: return "core.control.grant";
    case Span::kCrypto: return "core.crypto";
    case Span::kStaging: return "core.staging";
    case Span::kDfsRead: return "dfs.read";
    case Span::kDfsWrite: return "dfs.write";
    case Span::kDfsStat: return "dfs.stat";
    case Span::kDfsOpen: return "dfs.open";
    case Span::kDfsClose: return "dfs.close";
    case Span::kDfsUnlink: return "dfs.unlink";
    case Span::kDfsReaddir: return "dfs.readdir";
    case Span::kDaosFetch: return "daos.fetch";
    case Span::kDaosUpdate: return "daos.update";
    case Span::kVosFetch: return "vos.fetch";
    case Span::kCount: break;
  }
  return "?";
}

SpanLog::SpanLog(std::size_t max_records) : records_(max_records) {}

double SpanLog::MeanUs(Span s) const {
  const Agg& a = agg_[std::size_t(s)];
  return a.count ? double(a.sum_ns) / double(a.count) / 1e3 : 0.0;
}

bool SpanLog::WriteJson(const std::string& path,
                        std::uint64_t origin_ns) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"dropped\": %llu, \"spans\": [\n",
               (unsigned long long)dropped_);
  for (std::size_t i = 0; i < kept_; ++i) {
    const Entry& e = records_[i];
    std::fprintf(f,
                 "%s{\"op\": %llu, \"name\": \"%s\", \"parent\": \"%s\", "
                 "\"start_ns\": %llu, \"dur_ns\": %llu}",
                 i ? ",\n" : "", (unsigned long long)e.op, SpanName(e.name),
                 SpanName(e.parent),
                 (unsigned long long)(e.start_ns - origin_ns),
                 (unsigned long long)e.dur_ns);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace wallbench
