// The five LLM-pipeline workloads. All are closed loop: one client at
// queue depth 1 issues its next op when the previous one returns. Sizes
// and op mixes are generated from the seed; every byte read is checked
// against the seeded pattern it was written from.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "pattern.h"
#include "runner.h"

namespace wallbench {

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the initial state (ingest); part of the timed set-up.
  virtual void Setup(Runner& d) = 0;
  /// Issues ops until d.Expired(), calling d.EndUnit() after each unit of
  /// work (a step, a round, or a fixed batch of ops).
  virtual void Run(Runner& d) = 0;
};

struct WorkloadSpec {
  const char* name;
  Deployment deployment;
  /// `scale` divides every size and count (1 = full size; the smoke run
  /// uses 50).
  std::unique_ptr<Workload> (*make)(const DataPool& pool, std::uint64_t seed,
                                    int scale);
};

/// nullptr when `name` is not a workload.
const WorkloadSpec* FindWorkload(const std::string& name);
/// The workload names, comma-separated (for usage text).
std::string WorkloadNames();

}  // namespace wallbench
