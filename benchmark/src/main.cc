// ros2_wallbench: wall-clock benchmark of the ROS2 client stack.
//
//   ros2_wallbench --workload NAME (--seconds S | --smoke) [--seed N]
//                  [--trace 0|1] [--spans FILE] [--results FILE]
//                  [--git-rev REV]
//
// One workload per process, on one thread: boot the default serial
// cluster and connect one Ros2Client (three times; set-up time is the
// median), run the workload closed loop for --seconds (run.sh passes
// BENCHMARK.json's run_seconds), verify every byte
// read, print every metric with its unit, and end with one JSON line:
//   {"correct": true, "attempted": N, "failed": F, "metrics": {...}}
// Untraced (--trace 0) the JSON metrics are the end-to-end set; traced
// (--trace 1) they are the per-layer set. Exit codes: 0 ok, 1 set-up
// failure, 2 usage, 3 data mismatch.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "common/logging.h"
#include "layers.h"
#include "pattern.h"
#include "report.h"
#include "runner.h"
#include "workloads.h"

#ifndef WALLBENCH_BUILD_TYPE
#define WALLBENCH_BUILD_TYPE "unknown"
#endif

namespace wallbench {
namespace {

/// Timed phase of a --smoke run, a breakage check rather than a measurement.
constexpr double kSmokeSeconds = 0.5;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0;
  bool trace = false;
  bool smoke = false;
  std::string spans_path;
  std::string results_path;
  std::string git_rev = "unknown";
};

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "%s\nusage: ros2_wallbench --workload NAME (--seconds S | "
               "--smoke) [--seed N] [--trace 0|1] [--spans FILE] "
               "[--results FILE] [--git-rev REV]\n"
               "workloads: %s\n",
               msg, WorkloadNames().c_str());
  std::exit(2);
}

Options Parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        o.workload = value();
      } else if (arg == "--seed") {
        o.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        o.seconds = std::stod(value());
      } else if (arg == "--trace") {
        o.trace = std::stoi(value()) != 0;
      } else if (arg == "--smoke") {
        o.smoke = true;
      } else if (arg == "--spans") {
        o.spans_path = value();
      } else if (arg == "--results") {
        o.results_path = value();
      } else if (arg == "--git-rev") {
        o.git_rev = value();
      } else {
        Usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::exception&) {
      Usage(("bad value for " + arg).c_str());
    }
  }
  if (o.smoke) o.seconds = kSmokeSeconds;
  if (!(o.seconds > 0)) Usage("--seconds must be given and > 0");
  return o;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (std::uint8_t(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

int Main(int argc, char** argv) {
  const Options opt = Parse(argc, argv);
  const WorkloadSpec* spec = FindWorkload(opt.workload);
  if (spec == nullptr) Usage(("unknown workload '" + opt.workload + "'").c_str());
  ros2::SetLogLevel(ros2::LogLevel::kWarn);
  const int scale = opt.smoke ? 50 : 1;
  const int setups = opt.smoke ? 1 : 3;

  // Every sample slot and I/O buffer is allocated (and touched) here, before
  // the first set-up; the timed loop never grows anything.
  const DataPool pool(opt.seed);
  Runner::Capacity capacity;
  capacity.samples_per_class =
      std::size_t(std::max(opt.seconds, 1.0) * 150000);
  capacity.span_records = 1 << 16;
  capacity.units = 1 << 16;
  Runner runner(capacity, opt.trace);

  std::vector<double> setup_s;
  std::unique_ptr<Rig> rig;
  std::unique_ptr<Workload> workload;
  for (int i = 0; i < setups; ++i) {
    workload.reset();
    rig.reset();
    const std::uint64_t t0 = NowNs();
    auto booted = Rig::Boot(spec->deployment);
    if (!booted.ok()) {
      std::fprintf(stderr, "cluster boot failed: %s\n",
                   booted.status().ToString().c_str());
      return 1;
    }
    rig = std::move(*booted);
    runner.Attach(rig.get());
    workload = spec->make(pool, opt.seed, scale);
    workload->Setup(runner);
    setup_s.push_back(double(NowNs() - t0) / 1e9);
  }

  const LayerSnapshot before = CaptureLayers(*rig);
  runner.BeginTimed(opt.seconds);
  workload->Run(runner);
  runner.EndTimed();
  const LayerSnapshot after = CaptureLayers(*rig);

  Report report;
  const bool e2e = !opt.trace;
  const double busy_s = double(runner.busy_ns()) / 1e9;
  const double ops = double(runner.attempted());
  const double mib =
      double(runner.bytes_read() + runner.bytes_written()) / (1 << 20);
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const Samples& reads = runner.samples(OpClass::kRead);

  const Units& units = runner.units();
  // Medians over the workload's units of work (see Units).
  report.Add("ops_per_s", units.MedianOpsPerSec(), "ops/s", e2e);
  report.Add("mib_per_s", units.MedianMiBPerSec(), "MiB/s", e2e);
  report.Add("read_p50_us", units.MedianReadQuantileUs(reads, 0.50), "us",
             e2e);
  report.Add("read_p99_us", units.MedianReadQuantileUs(reads, 0.99), "us",
             e2e);
  report.Add("space_amp", runner.SpaceAmp(), "ratio", e2e);
  report.Add("peak_rss_mib", double(usage.ru_maxrss) / 1024, "MiB", e2e);
  report.Add("setup_s", Median(setup_s), "s", e2e);
  for (OpClass c : {OpClass::kWrite, OpClass::kMeta, OpClass::kReaddir}) {
    const Samples& s = runner.samples(c);
    if (s.size() == 0) continue;
    const std::string name = OpClassName(c);
    report.Add(name + "_p50_us", s.QuantileUs(0.50), "us", false);
    report.Add(name + "_p99_us", s.QuantileUs(0.99), "us", false);
  }
  for (OpClass c : {OpClass::kRead, OpClass::kWrite, OpClass::kMeta,
                    OpClass::kReaddir}) {
    report.Add(std::string(OpClassName(c)) + "_samples",
               double(runner.samples(c).size()), "count", false);
  }
  report.Add("ops_per_s_whole_run", busy_s > 0 ? ops / busy_s : 0, "ops/s",
             false);
  report.Add("mib_per_s_whole_run", busy_s > 0 ? mib / busy_s : 0, "MiB/s",
             false);
  report.Add("read_p50_us_whole_run", reads.QuantileUs(0.50), "us", false);
  report.Add("read_p99_us_whole_run", reads.QuantileUs(0.99), "us", false);
  report.Add("units", double(units.size()), "count", false);
  report.Add("failed_op_ratio", ops > 0 ? double(runner.failed()) / ops : 0,
             "failed/attempted", false);
  report.Add("timed_s",
             double(runner.timed_end_ns() - runner.timed_start_ns()) / 1e9, "s",
             false);
  AddLayerMetrics(before, after, runner, spec->deployment, report);

  std::printf("workload %s  seed %llu  %s  %.1f s timed  %d set-ups\n",
              spec->name, (unsigned long long)opt.seed,
              opt.trace ? "traced (per-layer ladder)" : "untraced",
              opt.seconds, setups);
  report.Print(stdout);
  std::printf("  ops/s by fifth:");
  const std::uint64_t timed_ns = runner.timed_end_ns() - runner.timed_start_ns();
  for (int i = 0; i < 5; ++i) {
    std::printf(" %.0f", units.FifthOpsPerSec(i, timed_ns));
  }
  const double drift = units.Drift(timed_ns);
  std::printf("  (spread %.1f%%%s)\n", drift * 100,
              drift > 0.10 ? ", DRIFT > 10%" : "");
  if (runner.capacity_reached()) {
    std::printf("  note: sample capacity reached; timed phase ended early\n");
  }

  if (opt.trace && !opt.spans_path.empty() &&
      !runner.spans().WriteJson(opt.spans_path, runner.timed_start_ns())) {
    std::fprintf(stderr, "cannot write %s\n", opt.spans_path.c_str());
    return 1;
  }
  const std::string result =
      "{\"correct\": true, \"attempted\": " +
      std::to_string(runner.attempted()) +
      ", \"failed\": " + std::to_string(runner.failed()) +
      ", \"metrics\": " + report.JsonMetrics() + "}";
  if (!opt.results_path.empty()) {
    std::FILE* f = std::fopen(opt.results_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", opt.results_path.c_str());
      return 1;
    }
    std::fprintf(
        f,
        "{\"workload\": %s, \"seed\": %llu, \"seconds\": %s, \"trace\": %d, "
        "\"smoke\": %s,\n \"host\": {\"cpu\": %s, \"nproc\": %ld, "
        "\"compiler\": %s, \"build_type\": %s, \"git_rev\": %s},\n"
        " \"all_metrics\": %s,\n \"result\": %s}\n",
        JsonString(spec->name).c_str(), (unsigned long long)opt.seed,
        Report::Number(opt.seconds).c_str(), opt.trace ? 1 : 0,
        opt.smoke ? "true" : "false", JsonString(CpuModel()).c_str(),
        sysconf(_SC_NPROCESSORS_ONLN), JsonString(Compiler()).c_str(),
        JsonString(WALLBENCH_BUILD_TYPE).c_str(),
        JsonString(opt.git_rev).c_str(), report.JsonMetrics(true).c_str(),
        result.c_str());
    std::fclose(f);
  }
  std::printf("%s\n", result.c_str());
  return 0;
}

}  // namespace
}  // namespace wallbench

int main(int argc, char** argv) { return wallbench::Main(argc, argv); }
