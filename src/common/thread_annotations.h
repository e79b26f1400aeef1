// Clang thread-safety capability annotations + the project mutex wrapper.
//
// Every locking rule in this tree — the net layer's documented
// MrCache -> Endpoint -> PollSet -> Qp order, the SCM arena's mutex as a
// leaf (nothing is locked under it), "MrCache fully mutexed",
// "container table under a mutex" — used to live only in comments and in
// whatever the TSan suites happened to exercise. These macros turn those
// contracts into compile errors under Clang (-Wthread-safety is promoted
// to an error inside the ROS2_WERROR blocks); under GCC and other
// compilers they expand to nothing, so the annotations cost nothing
// off-Clang.
//
// Usage rules (enforced by scripts/lint.sh):
//  - Concurrency-bearing classes hold a common::Mutex (never a raw
//    std::mutex member — the raw type carries no capability, so the
//    analysis cannot see it).
//  - Data a mutex protects is tagged ROS2_GUARDED_BY(mu_); private
//    helpers that assume the lock are tagged ROS2_REQUIRES(mu_).
//  - Lock scopes use common::MutexLock; condition waits go through
//    common::CondVar with the condition re-checked by the caller in a
//    while loop (predicates stay in the annotated function body, where
//    the analysis can see the capability is held).
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>

#if defined(__clang__)
#define ROS2_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define ROS2_THREAD_ANNOTATION_(x)  // expands to nothing off-Clang
#endif

/// Declares a class to BE a capability (e.g. a mutex type).
#define ROS2_CAPABILITY(x) ROS2_THREAD_ANNOTATION_(capability(x))

/// Declares an RAII class whose lifetime is a critical section.
#define ROS2_SCOPED_CAPABILITY ROS2_THREAD_ANNOTATION_(scoped_lockable)

/// Member data readable/writable only with the capability held.
#define ROS2_GUARDED_BY(x) ROS2_THREAD_ANNOTATION_(guarded_by(x))

/// Pointer member whose POINTEE is protected by the capability.
#define ROS2_PT_GUARDED_BY(x) ROS2_THREAD_ANNOTATION_(pt_guarded_by(x))

/// Lock-order contracts: this capability must be taken before/after the
/// listed ones (the acquired-before edges of the documented lock order).
#define ROS2_ACQUIRED_BEFORE(...) \
  ROS2_THREAD_ANNOTATION_(acquired_before(__VA_ARGS__))
#define ROS2_ACQUIRED_AFTER(...) \
  ROS2_THREAD_ANNOTATION_(acquired_after(__VA_ARGS__))

/// Function requires the capability held on entry (and does not release).
#define ROS2_REQUIRES(...) \
  ROS2_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))

/// Function acquires / releases the capability.
#define ROS2_ACQUIRE(...) \
  ROS2_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define ROS2_RELEASE(...) \
  ROS2_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
#define ROS2_TRY_ACQUIRE(...) \
  ROS2_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))

/// Function must NOT be called with the capability held (anti-deadlock:
/// it will take the lock itself).
#define ROS2_EXCLUDES(...) ROS2_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

/// Escape hatch for flows the analysis cannot express (e.g. locking two
/// instances of one class via std::scoped_lock). Use with a comment.
#define ROS2_NO_THREAD_SAFETY_ANALYSIS \
  ROS2_THREAD_ANNOTATION_(no_thread_safety_analysis)

namespace ros2::common {

class CondVar;

/// std::mutex wearing the capability attribute. Same cost, same
/// semantics; the only addition is that Clang can now track who holds it.
class ROS2_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ROS2_ACQUIRE() { mu_.lock(); }
  void unlock() ROS2_RELEASE() { mu_.unlock(); }
  bool try_lock() ROS2_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// RAII lock scope over a Mutex, with explicit Unlock/Lock so drain loops
/// can drop the lock around a callback and the analysis still follows
/// (std::unique_lock cannot carry the annotations; this can).
class ROS2_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ROS2_ACQUIRE(mu) : mu_(mu), held_(true) {
    mu_.lock();
  }
  ~MutexLock() ROS2_RELEASE() {
    if (held_) mu_.unlock();
  }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// Mid-scope release (the callback window of a drain loop).
  void Unlock() ROS2_RELEASE() {
    held_ = false;
    mu_.unlock();
  }
  /// Re-acquire after Unlock.
  void Lock() ROS2_ACQUIRE() {
    mu_.lock();
    held_ = true;
  }

 private:
  Mutex& mu_;
  bool held_;
};

/// Condition variable bound to common::Mutex. No predicate overloads on
/// purpose: the caller re-checks its condition in a while loop inside the
/// annotated function, so guarded reads stay where the analysis can see
/// the lock is held (a predicate lambda would be analyzed as an
/// unannotated function and flag every guarded access).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu` and waits; re-acquires before returning.
  void Wait(Mutex& mu) ROS2_REQUIRES(mu) {
    std::unique_lock<std::mutex> lk(mu.mu_, std::adopt_lock);
    cv_.wait(lk);
    lk.release();  // caller still holds the capability
  }

  /// Timed wait; true if it TIMED OUT (condition re-check is on the
  /// caller either way).
  template <typename Rep, typename Period>
  bool WaitFor(Mutex& mu, const std::chrono::duration<Rep, Period>& dur)
      ROS2_REQUIRES(mu) {
    std::unique_lock<std::mutex> lk(mu.mu_, std::adopt_lock);
    const bool timed_out = cv_.wait_for(lk, dur) == std::cv_status::timeout;
    lk.release();
    return timed_out;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace ros2::common
