// User-space fabric: UCX/libfabric-like endpoints with TCP and RDMA
// semantics (§3.2, §3.4).
//
// The fabric is in-process, but the *mechanisms* are real:
//
//  - RDMA: protection domains, memory regions with rkeys (optionally
//    scoped: TTL + revocation, §2.3's mitigations), queue pairs with
//    two-sided SEND/RECV and one-sided READ/WRITE. One-sided ops validate
//    {rkey known, not revoked, not expired, PD match, bounds, access mask}
//    before touching memory — exactly the capability model whose abuse
//    Pythia [39] demonstrated.
//  - TCP: the same Qp handle but *without* one-sided ops: payloads can only
//    move through send/recv streams. The upper layers pay a socket's
//    copies: the sender copies a payload into the message it sends, the
//    receiver copies it out — which is where the paper's TCP overhead
//    lives. Sending itself moves the message and copies nothing.
//
// Time for rkey expiry is the fabric's logical clock, advanced by tests and
// by the perf-model-driven harness.
//
// Threading: the engine now runs real xstream worker threads, so the data
// path is thread-safe — Send/Recv/one-sided ops, memory registration, and
// PollSet::MarkReady may be called from any thread. The locking order is
// MrCache -> Endpoint -> PollSet -> Qp (each level may acquire the ones to
// its right, never the reverse; PollSet drain callbacks run unlocked).
// The contracts are machine-checked where Clang's capability analysis can
// express them: every lock is a common::Mutex, guarded state is tagged
// ROS2_GUARDED_BY, and the Endpoint -> Qp edge is an acquired-after
// contract on Qp::mu_ (which is why Qp is declared after Endpoint — the
// attribute needs the complete type). Control-plane setup/teardown
// (CreateEndpoint, Connect, destroying a Qp or PollSet) must still be
// quiesced against concurrent data-path use of the object being torn down.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bytes.h"
#include "common/fault.h"
#include "common/function_ref.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "perf/types.h"

namespace ros2::net {

class MrCache;
class PollSet;
class Qp;
class Endpoint;
class Fabric;

using perf::Transport;

/// Access rights granted by a memory registration.
enum AccessFlags : std::uint32_t {
  kLocalOnly = 0,
  kRemoteRead = 1u << 0,
  kRemoteWrite = 1u << 1,
};

using PdId = std::uint32_t;
using RKey = std::uint64_t;
using TenantId = std::uint32_t;
inline constexpr TenantId kSystemTenant = 0;

/// A registered memory region (MR).
struct MemoryRegion {
  RKey rkey = 0;
  PdId pd = 0;
  std::uintptr_t addr = 0;
  std::size_t length = 0;
  std::uint32_t access = kLocalOnly;
  double expires_at = 0.0;  ///< fabric-clock seconds; 0 = no expiry
  bool revoked = false;
};

/// Two-sided message as delivered by Qp::Recv: the sender's frame and an
/// optional second segment that travels beside it, the second iovec of a
/// real sendmsg. Neither is copied on the way: Send moves both into the
/// peer's receive queue.
struct Message {
  Buffer payload;
  RawBuffer tail;
};

/// Readiness set over queue pairs — the completion-channel analog of a
/// CaRT/UCX progress context. A server adds every accepted Qp once;
/// message arrival marks the Qp ready (edge-triggered), and one Drain()
/// services exactly the ready QPs, so a progress call costs O(ready), not
/// O(connections).
///
/// Each arm/drain cycle pays the honest event-channel cost: the first
/// message into an idle set rings a doorbell (one byte written to a
/// self-pipe, the eventfd a real CQ channel signals) and Drain poll()s the
/// channel and reads the byte back — the syscalls a real progress loop
/// pays per wakeup. Pipelined clients amortize that per-wakeup cost over
/// every request serviced by the wakeup, which is exactly the win
/// bench_micro_pipeline gates. (Same philosophy as RegisterMemory's page
/// pinning: the stand-in pays the real mechanism's cost so batching wins
/// honestly.) On platforms without pipes the set degrades to the pure
/// in-memory ready ring.
///
/// Thread-safety: MarkReady (via Qp::Send) and Ring() may come from any
/// thread — the ready ring and doorbell arm state are mutex-guarded, and
/// the armed flag is atomic, so a foreign-thread ring wakes a blocked
/// DrainWait exactly once per arm cycle. Drain/DrainWait themselves are
/// single-consumer: exactly one progress thread drains a given set. Lock
/// order: PollSet::mu_ sits between Endpoint::mu_ and Qp::mu_ (a drain
/// may probe Qp::HasMessage under mu_; a Qp never calls into the set with
/// its own lock held).
class PollSet {
 public:
  PollSet();
  ~PollSet();  // detaches any still-registered QPs
  PollSet(const PollSet&) = delete;
  PollSet& operator=(const PollSet&) = delete;

  /// Registers `qp`; messages already queued mark it ready immediately.
  /// A Qp belongs to at most one set (re-adding is a no-op; adding a Qp
  /// owned by another set is an error).
  Status Add(Qp* qp) ROS2_EXCLUDES(mu_);
  void Remove(Qp* qp) ROS2_EXCLUDES(mu_);

  /// Polls the event channel, then hands each ready Qp to `fn` exactly
  /// once. A Qp left with queued messages (e.g. a handler bailed early) is
  /// re-marked ready for the next drain. Returns the number serviced.
  std::size_t Drain(FunctionRef<void(Qp*)> fn) ROS2_EXCLUDES(mu_);

  /// Blocking Drain for a dedicated progress thread: waits up to
  /// `timeout_ms` for a doorbell (message arrival or Ring()), then drains.
  /// May service zero QPs (timeout, or a bare Ring()).
  std::size_t DrainWait(int timeout_ms, FunctionRef<void(Qp*)> fn)
      ROS2_EXCLUDES(mu_);

  /// Wakes a blocked DrainWait without marking any Qp ready — the hook
  /// for foreign-thread events that the progress loop must notice (e.g. a
  /// worker thread finishing an op whose reply the loop sends).
  void Ring() ROS2_EXCLUDES(mu_);

  bool has_ready() const ROS2_EXCLUDES(mu_) {
    common::MutexLock lk(mu_);
    return !ready_.empty();
  }
  std::size_t member_count() const ROS2_EXCLUDES(mu_) {
    common::MutexLock lk(mu_);
    return members_.size();
  }
  /// Event-channel telemetry: doorbell rings (arm cycles) and drains.
  std::uint64_t doorbells() const {
    return doorbells_.load(std::memory_order_relaxed);
  }
  std::uint64_t drains() const {
    return drains_.load(std::memory_order_relaxed);
  }

 private:
  friend class Qp;
  void MarkReady(Qp* qp) ROS2_EXCLUDES(mu_);
  void MarkReadyLocked(Qp* qp) ROS2_REQUIRES(mu_);
  void RingDoorbell();  // lock-free: atomic armed flag + pipe
  void PollChannel();   // zero-timeout poll + doorbell byte consumption

  mutable common::Mutex mu_;
  common::CondVar cv_;  // DrainWait fallback when pipes are absent
  std::vector<Qp*> members_ ROS2_GUARDED_BY(mu_);
  std::deque<Qp*> ready_ ROS2_GUARDED_BY(mu_);
  /// Qp currently inside Drain's callback.
  Qp* draining_ ROS2_GUARDED_BY(mu_) = nullptr;
  /// Callback removed/destroyed draining_.
  bool draining_removed_ ROS2_GUARDED_BY(mu_) = false;
  /// Ring() since the last DrainWait.
  bool ring_pending_ ROS2_GUARDED_BY(mu_) = false;
  int pipe_rd_ = -1;
  int pipe_wr_ = -1;
  /// A byte is sitting in the pipe. Atomic so a worker-thread MarkReady
  /// and the drain loop's consume can't double-ring or lose the wakeup.
  std::atomic<bool> doorbell_armed_{false};
  std::atomic<std::uint64_t> doorbells_{0};
  std::atomic<std::uint64_t> drains_{0};
};

/// A fabric endpoint (one per node/process): owns PDs, MRs, and QPs.
/// Registration/lookup paths are thread-safe (one mutex over the PD/MR/QP
/// tables); MR data is handed out by value so readers never hold a
/// pointer into the table.
class Endpoint {
 public:
  ~Endpoint();

  const std::string& address() const { return address_; }
  Fabric* fabric() const { return fabric_; }

  /// Allocates a protection domain owned by `tenant`.
  PdId AllocPd(TenantId tenant = kSystemTenant) ROS2_EXCLUDES(mu_);

  /// Registers `region` in `pd` with the given access and optional TTL
  /// (seconds of fabric time; 0 = no expiry). Returns the MR (rkey inside).
  ///
  /// Pins the region's pages (best-effort mlock, like ibv_reg_mr's
  /// get_user_pages) — registration is a genuinely expensive syscall path
  /// here, exactly the cost the per-endpoint MrCache amortizes.
  Result<MemoryRegion> RegisterMemory(PdId pd, std::span<std::byte> region,
                                      std::uint32_t access, double ttl = 0.0)
      ROS2_EXCLUDES(mu_);

  /// Invalidate an rkey immediately (scoped-capability revocation).
  Status RevokeMemory(RKey rkey) ROS2_EXCLUDES(mu_);
  Status DeregisterMemory(RKey rkey) ROS2_EXCLUDES(mu_);

  /// Tenant owning `pd` (NOT_FOUND if the PD does not exist).
  Result<TenantId> PdTenant(PdId pd) const ROS2_EXCLUDES(mu_);

  /// Copies the MR for `rkey` into `*out`; false if unknown. By-value so
  /// no caller holds a pointer into the table across the lock.
  bool FindMr(RKey rkey, MemoryRegion* out) const ROS2_EXCLUDES(mu_);

  /// Connects to `remote`, creating a Qp pair (one here, one there).
  /// `pd` scopes this side's one-sided operations.
  Result<Qp*> Connect(Endpoint* remote, Transport transport, PdId pd,
                      PdId remote_pd);

  std::size_t qp_count() const ROS2_EXCLUDES(mu_) {
    common::MutexLock lk(mu_);
    return qps_.size();
  }
  std::size_t mr_count() const ROS2_EXCLUDES(mu_) {
    common::MutexLock lk(mu_);
    return mrs_.size();
  }

  /// The endpoint's registered-memory pool (see net/mr_cache.h). Data
  /// paths acquire leases from here instead of registering per call.
  MrCache& mr_cache() { return *mr_cache_; }

  /// Byte totals across every Qp this endpoint owns (two-sided sends and
  /// one-sided RDMA), for telemetry gauges. Takes the endpoint lock; the
  /// per-Qp counters themselves are relaxed atomics.
  struct Traffic {
    std::uint64_t bytes_sent = 0;
    std::uint64_t bytes_one_sided = 0;
  };
  Traffic TotalTraffic() const ROS2_EXCLUDES(mu_);

  /// Server-side accept hook: every Qp subsequently accepted by this
  /// endpoint (the remote half of a peer's Connect) is added to `set`, so
  /// one progress loop services all connections without per-QP scans.
  /// Pass nullptr to stop auto-registering.
  void set_accept_poll_set(PollSet* set) ROS2_EXCLUDES(mu_) {
    common::MutexLock lk(mu_);
    accept_poll_set_ = set;
  }

  /// The endpoint's fault plan, consulted per registration: an armed
  /// kNetRegister window fails RegisterMemory with RESOURCE_EXHAUSTED (MR
  /// table full — a real verbs failure mode), driving the
  /// registration-failed cleanup paths in tests.
  common::FaultPlan& fault_plan() { return fault_plan_; }

 private:
  friend class Fabric;
  friend class Qp;
  friend class MrCache;
  Endpoint(Fabric* fabric, std::string address);

  // Refcounted page pinning (ibv_reg_mr semantics: overlapping MRs each
  // hold their pages; the last deregistration unpins). Keyed by 4 KiB
  // page base address.
  void PinRegion(std::uintptr_t addr, std::size_t len) ROS2_REQUIRES(mu_);
  void UnpinRegion(std::uintptr_t addr, std::size_t len) ROS2_REQUIRES(mu_);

  Fabric* fabric_;
  std::string address_;
  mutable common::Mutex mu_;
  std::uint32_t next_pd_ ROS2_GUARDED_BY(mu_) = 1;
  std::map<PdId, TenantId> pds_ ROS2_GUARDED_BY(mu_);
  std::unordered_map<RKey, MemoryRegion> mrs_ ROS2_GUARDED_BY(mu_);
  std::unordered_map<std::uintptr_t, std::uint32_t> pin_counts_
      ROS2_GUARDED_BY(mu_);
  std::vector<std::unique_ptr<Qp>> qps_ ROS2_GUARDED_BY(mu_);
  PollSet* accept_poll_set_ ROS2_GUARDED_BY(mu_) = nullptr;
  common::FaultPlan fault_plan_;
  // Declared last: destroyed first, while mrs_ is still alive to
  // deregister the pooled entries into.
  std::unique_ptr<MrCache> mr_cache_;
};

/// A connected queue pair. Obtained via Endpoint::Connect/Accept; always
/// paired with exactly one remote Qp. Send/Recv/one-sided ops are
/// thread-safe; destruction must be quiesced against concurrent use.
/// Declared after Endpoint so mu_'s acquired-after contract can name
/// Endpoint::mu_ (Qp::mu_ is the innermost lock in the documented order).
class Qp {
 public:
  Transport transport() const { return transport_; }
  PdId local_pd() const { return local_pd_; }
  bool connected() const { return peer_ != nullptr; }
  /// The remote half of this connection (in-process fabric convenience,
  /// used to wire server progress loops).
  Qp* peer() const { return peer_; }

  /// Two-sided eager send: moves `payload` (and the optional second
  /// segment `tail`) into the peer's receive queue. The caller builds the
  /// frame once, at its final size; the fabric itself copies nothing.
  /// Both transports support this (UCX active-message equivalent).
  Status Send(Buffer payload, RawBuffer tail = {});

  /// Polls the receive queue; NOT_FOUND when empty.
  Result<Message> Recv() ROS2_EXCLUDES(mu_);
  bool HasMessage() const ROS2_EXCLUDES(mu_) {
    common::MutexLock lk(mu_);
    return !rx_queue_.empty();
  }

  /// One-sided RDMA READ: remote [remote_addr, +local.size()) -> local.
  /// RDMA transport only; validates the rkey capability at the remote side.
  Status RdmaRead(std::span<std::byte> local, std::uintptr_t remote_addr,
                  RKey rkey);

  /// One-sided RDMA WRITE: local -> remote [remote_addr, +local.size()).
  Status RdmaWrite(std::span<const std::byte> local,
                   std::uintptr_t remote_addr, RKey rkey);

  // Traffic counters (bytes moved through this Qp, both directions).
  std::uint64_t bytes_sent() const {
    return bytes_sent_.load(std::memory_order_relaxed);
  }
  std::uint64_t bytes_one_sided() const {
    return bytes_one_sided_.load(std::memory_order_relaxed);
  }

  /// The Qp's fault plan, consulted on every Send: an armed kNetSend
  /// window fails Send() with UNAVAILABLE (a flapping link / blown send
  /// queue), driving the send-failed cleanup paths that are unreachable
  /// on a healthy fabric.
  common::FaultPlan& fault_plan() { return fault_plan_; }

  ~Qp();

 private:
  friend class Endpoint;
  friend class PollSet;
  Qp(Endpoint* owner, Transport transport, PdId pd)
      : owner_(owner), transport_(transport), local_pd_(pd) {}

  Status ValidateOneSided(std::uintptr_t remote_addr, std::size_t len,
                          RKey rkey, std::uint32_t need_access) const;

  Endpoint* owner_;
  Transport transport_;
  PdId local_pd_;
  Qp* peer_ = nullptr;
  /// Innermost lock of the documented order — the acquired-after edge to
  /// the owning Endpoint's table lock is the machine-checked contract.
  /// (PollSet::mu_ also precedes this lock; the set is reached through an
  /// atomic pointer, which the analysis cannot name.)
  mutable common::Mutex mu_ ROS2_ACQUIRED_AFTER(owner_->mu_);
  /// Foreign threads Send here.
  std::deque<Message> rx_queue_ ROS2_GUARDED_BY(mu_);
  std::atomic<std::uint64_t> bytes_sent_{0};
  std::atomic<std::uint64_t> bytes_one_sided_{0};
  common::FaultPlan fault_plan_;
  /// Readiness set this Qp reports into. Atomic: Send() reads it from
  /// worker threads while Add/Remove swap it on the control path.
  std::atomic<PollSet*> poll_set_{nullptr};
  /// Queued in the set's ready ring — guarded by the OWNING SET's mu_
  /// (not expressible as an attribute through the atomic pointer).
  bool poll_ready_ = false;
};

/// The in-process fabric: endpoint registry + logical clock.
class Fabric {
 public:
  Fabric() = default;
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  /// Creates (or fails on duplicate address) an endpoint.
  Result<Endpoint*> CreateEndpoint(const std::string& address)
      ROS2_EXCLUDES(mu_);
  Result<Endpoint*> Lookup(const std::string& address) const
      ROS2_EXCLUDES(mu_);

  /// Logical time driving rkey TTLs. Read from worker threads (TTL
  /// checks), so it is atomic; advancing still belongs to the harness.
  double now() const { return now_.load(std::memory_order_relaxed); }
  void AdvanceTime(double seconds) {
    double cur = now_.load(std::memory_order_relaxed);
    while (!now_.compare_exchange_weak(cur, cur + seconds,
                                       std::memory_order_relaxed)) {
    }
  }

  /// Fresh, never-reused rkey (fabric-global so leaked rkeys can't collide).
  RKey NextRKey() {
    return next_rkey_.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  mutable common::Mutex mu_;
  std::map<std::string, std::unique_ptr<Endpoint>> endpoints_
      ROS2_GUARDED_BY(mu_);
  std::atomic<double> now_{0.0};
  std::atomic<RKey> next_rkey_{0x1000};
};

}  // namespace ros2::net
