// Seeded fault-injection plans (the DAOS d_fault_inject shape).
//
// A FaultPlan names the failure points a component consults (send failures,
// registration failures, RPC drops/delays, engine kills) and arms each one
// with a window: skip N arrivals, then fire up to `count` times, each with
// an optional probability drawn from a seeded generator — so a "flaky"
// plan replays identically run to run. Evaluate() is the single hot-path
// question ("does this arrival fail?"); the disarmed fast path is one
// relaxed atomic load per point.
//
// The net layer owns a plan per object (Qp::fault_plan() for kNetSend,
// Endpoint::fault_plan() for kNetRegister); callers arm those directly,
// so every failure mode in the tree runs through one mechanism and
// tests/benches drive them uniformly.
#pragma once

#include <atomic>
#include <cstdint>

#include "common/rng.h"
#include "common/thread_annotations.h"

namespace ros2::common {

/// Where in the stack a fault fires.
enum class FaultPoint : std::uint8_t {
  kNetSend = 0,     ///< Qp::Send fails UNAVAILABLE (flapping link)
  kNetRegister,     ///< Endpoint::RegisterMemory fails RESOURCE_EXHAUSTED
  kRpcDrop,         ///< server answers UNAVAILABLE instead of executing
  kRpcDelay,        ///< server sleeps delay_us before dispatching
  kEngineKill,      ///< harness-level: mark an engine DOWN mid-workload
};
inline constexpr std::size_t kFaultPointCount = 5;

const char* FaultPointName(FaultPoint point);

/// One armed window at a fault point. Counts are in *arrivals* for skip and
/// *fires* for count: Arm(kNetRegister, {1, 1}) lets one registration
/// through, then fails the next.
struct FaultSpec {
  std::uint64_t skip = 0;   ///< arrivals to pass through unharmed first
  std::uint64_t count = 1;  ///< fires before the point exhausts (0 disarms)
  double probability = 1.0;  ///< chance an in-window arrival fires
  std::uint64_t delay_us = 0;  ///< payload for delay-style points
};

struct FaultDecision {
  bool fire = false;
  std::uint64_t delay_us = 0;
};

class FaultPlan {
 public:
  /// The seed feeds the probability draws only; deterministic plans
  /// (probability == 1) behave identically for every seed.
  explicit FaultPlan(std::uint64_t seed = 0x5eedf417) : rng_(seed) {}
  FaultPlan(const FaultPlan&) = delete;
  FaultPlan& operator=(const FaultPlan&) = delete;

  /// Arms (or re-arms, resetting the window) `point`. count == 0 disarms.
  void Arm(FaultPoint point, FaultSpec spec);
  void Disarm(FaultPoint point);
  bool armed(FaultPoint point) const;

  /// One arrival at `point`: decides whether this one fails. Thread-safe;
  /// a disarmed point costs one relaxed load + one relaxed increment.
  FaultDecision Evaluate(FaultPoint point);

  /// Total arrivals observed at `point` (armed or not) and fires dealt.
  std::uint64_t arrivals(FaultPoint point) const;
  std::uint64_t fired(FaultPoint point) const;

 private:
  struct Point {
    std::atomic<bool> armed{false};
    std::atomic<std::uint64_t> arrivals{0};
    std::atomic<std::uint64_t> fired{0};
    Mutex mu;  // guards spec + window position
    FaultSpec spec ROS2_GUARDED_BY(mu);
    std::uint64_t skipped ROS2_GUARDED_BY(mu) = 0;
    std::uint64_t fires_dealt ROS2_GUARDED_BY(mu) = 0;
  };

  Point& point(FaultPoint p) { return points_[std::size_t(p)]; }
  const Point& point(FaultPoint p) const { return points_[std::size_t(p)]; }

  Point points_[kFaultPointCount];
  Mutex rng_mu_;  // probability draws (cold: armed windows only)
  Rng rng_ ROS2_GUARDED_BY(rng_mu_);
};

}  // namespace ros2::common
