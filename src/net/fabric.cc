#include "net/fabric.h"

#include <algorithm>
#include <chrono>
#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <poll.h>
#include <sys/mman.h>
#include <unistd.h>
#define ROS2_HAVE_MLOCK 1
#define ROS2_HAVE_POLL 1
#endif

#include "common/logging.h"
#include "net/mr_cache.h"

namespace ros2::net {
namespace {

// Registration pins the region's pages, like ibv_reg_mr's get_user_pages
// — this (not the bookkeeping) is why real NICs take microseconds per
// registration and why data paths pool MRs. Best-effort: a denied mlock
// (RLIMIT_MEMLOCK) still pays the syscall, which is the honest cost.
void PinPages(std::uintptr_t addr, std::size_t len) {
#ifdef ROS2_HAVE_MLOCK
  (void)mlock(reinterpret_cast<void*>(addr), len);
#else
  (void)addr;
  (void)len;
#endif
}

void UnpinPages(std::uintptr_t addr, std::size_t len) {
#ifdef ROS2_HAVE_MLOCK
  (void)munlock(reinterpret_cast<void*>(addr), len);
#else
  (void)addr;
  (void)len;
#endif
}

}  // namespace

// ----------------------------------------------------------------- Qp

Qp::~Qp() {
  PollSet* set = poll_set_.load(std::memory_order_acquire);
  if (set != nullptr) set->Remove(this);
}

Status Qp::Send(Buffer payload, RawBuffer tail) {
  if (peer_ == nullptr) return Unavailable("qp not connected");
  if (fault_plan_.Evaluate(common::FaultPoint::kNetSend).fire) {
    return Unavailable("injected send fault");
  }
  const std::size_t bytes = payload.size() + tail.size();
  {
    common::MutexLock lk(peer_->mu_);
    peer_->rx_queue_.push_back({std::move(payload), std::move(tail)});
  }
  bytes_sent_.fetch_add(bytes, std::memory_order_relaxed);
  // The peer's Qp lock is released before taking the poll set's (lock
  // order: PollSet before Qp, never nested the other way).
  PollSet* set = peer_->poll_set_.load(std::memory_order_acquire);
  if (set != nullptr) set->MarkReady(peer_);
  return Status::Ok();
}

Result<Message> Qp::Recv() {
  common::MutexLock lk(mu_);
  if (rx_queue_.empty()) return NotFound("receive queue empty");
  Message msg = std::move(rx_queue_.front());
  rx_queue_.pop_front();
  return msg;
}

Status Qp::ValidateOneSided(std::uintptr_t remote_addr, std::size_t len,
                            RKey rkey, std::uint32_t need_access) const {
  if (peer_ == nullptr) return Unavailable("qp not connected");
  if (transport_ != Transport::kRdma) {
    return Unimplemented("one-sided operations require the RDMA transport");
  }
  MemoryRegion mr;
  if (!peer_->owner_->FindMr(rkey, &mr)) {
    return PermissionDenied("unknown rkey");
  }
  if (mr.revoked) {
    return PermissionDenied("rkey has been revoked");
  }
  if (mr.expires_at > 0.0 &&
      peer_->owner_->fabric()->now() >= mr.expires_at) {
    return PermissionDenied("rkey has expired");
  }
  // PD scoping: the capability is only valid on connections bound to the
  // same protection domain at the remote side (per-tenant isolation).
  if (mr.pd != peer_->local_pd_) {
    return PermissionDenied("rkey protection domain does not match qp");
  }
  if ((mr.access & need_access) != need_access) {
    return PermissionDenied("memory region access mask forbids operation");
  }
  if (remote_addr < mr.addr || len > mr.length ||
      remote_addr - mr.addr > mr.length - len) {
    return PermissionDenied("one-sided access outside registered bounds");
  }
  return Status::Ok();
}

Status Qp::RdmaRead(std::span<std::byte> local, std::uintptr_t remote_addr,
                    RKey rkey) {
  ROS2_RETURN_IF_ERROR(
      ValidateOneSided(remote_addr, local.size(), rkey, kRemoteRead));
  std::memcpy(local.data(), reinterpret_cast<const void*>(remote_addr),
              local.size());
  bytes_one_sided_.fetch_add(local.size(), std::memory_order_relaxed);
  return Status::Ok();
}

Status Qp::RdmaWrite(std::span<const std::byte> local,
                     std::uintptr_t remote_addr, RKey rkey) {
  ROS2_RETURN_IF_ERROR(
      ValidateOneSided(remote_addr, local.size(), rkey, kRemoteWrite));
  std::memcpy(reinterpret_cast<void*>(remote_addr), local.data(),
              local.size());
  bytes_one_sided_.fetch_add(local.size(), std::memory_order_relaxed);
  return Status::Ok();
}

// -------------------------------------------------------------- PollSet

PollSet::PollSet() {
#ifdef ROS2_HAVE_POLL
  int fds[2];
  if (::pipe(fds) == 0) {
    pipe_rd_ = fds[0];
    pipe_wr_ = fds[1];
    (void)::fcntl(pipe_rd_, F_SETFL, O_NONBLOCK);
    (void)::fcntl(pipe_wr_, F_SETFL, O_NONBLOCK);
  }
#endif
}

PollSet::~PollSet() {
  {
    common::MutexLock lk(mu_);
    for (Qp* qp : members_) {
      qp->poll_set_.store(nullptr, std::memory_order_release);
      qp->poll_ready_ = false;
    }
  }
#ifdef ROS2_HAVE_POLL
  if (pipe_rd_ >= 0) ::close(pipe_rd_);
  if (pipe_wr_ >= 0) ::close(pipe_wr_);
#endif
}

Status PollSet::Add(Qp* qp) {
  if (qp == nullptr) return InvalidArgument("null qp");
  common::MutexLock lk(mu_);
  PollSet* current = qp->poll_set_.load(std::memory_order_acquire);
  if (current == this) return Status::Ok();  // idempotent
  if (current != nullptr) {
    return FailedPrecondition("qp already belongs to another poll set");
  }
  qp->poll_set_.store(this, std::memory_order_release);
  members_.push_back(qp);
  // Messages that arrived before registration must not be lost to the
  // edge trigger: report them as an initial edge.
  if (qp->HasMessage()) MarkReadyLocked(qp);
  return Status::Ok();
}

void PollSet::Remove(Qp* qp) {
  if (qp == nullptr) return;
  common::MutexLock lk(mu_);
  if (qp->poll_set_.load(std::memory_order_acquire) != this) return;
  qp->poll_set_.store(nullptr, std::memory_order_release);
  qp->poll_ready_ = false;
  members_.erase(std::remove(members_.begin(), members_.end(), qp),
                 members_.end());
  ready_.erase(std::remove(ready_.begin(), ready_.end(), qp), ready_.end());
  // A drain callback may remove (or destroy, which removes) the very Qp
  // being serviced; flag it so Drain skips the post-callback re-check.
  if (qp == draining_) draining_removed_ = true;
}

void PollSet::RingDoorbell() {
#ifdef ROS2_HAVE_POLL
  // Ring once per arm cycle (eventfd semantics): the first event into an
  // idle set wakes the progress loop; followers ride the same wakeup —
  // that is the cost pipelining amortizes. The CAS makes the arm
  // exactly-once under concurrent ringers.
  if (pipe_wr_ < 0) return;
  bool expected = false;
  if (doorbell_armed_.compare_exchange_strong(expected, true,
                                              std::memory_order_acq_rel)) {
    const char byte = 1;
    if (::write(pipe_wr_, &byte, 1) == 1) {
      doorbells_.fetch_add(1, std::memory_order_relaxed);
    } else {
      doorbell_armed_.store(false, std::memory_order_release);
    }
  }
#endif
}

void PollSet::MarkReadyLocked(Qp* qp) {
  if (qp->poll_ready_) return;  // edge already pending
  qp->poll_ready_ = true;
  ready_.push_back(qp);
  RingDoorbell();
  cv_.NotifyAll();
}

void PollSet::MarkReady(Qp* qp) {
  common::MutexLock lk(mu_);
  // The Qp may have been removed between the sender reading its set
  // pointer and this call; membership is re-checked under the lock.
  if (qp->poll_set_.load(std::memory_order_acquire) != this) return;
  MarkReadyLocked(qp);
}

void PollSet::Ring() {
  {
    common::MutexLock lk(mu_);
    ring_pending_ = true;
    RingDoorbell();
  }
  cv_.NotifyAll();
}

void PollSet::PollChannel() {
#ifdef ROS2_HAVE_POLL
  if (pipe_rd_ < 0) return;
  // The real event-channel sequence, at zero timeout (a progress loop
  // never blocks): poll the channel fd, then consume the doorbell.
  // Consume-then-disarm: a concurrent ring that loses the CAS while the
  // byte is still in flight was already pushed to ready_ (push happens
  // before ring), so the drain that follows this call services it.
  struct pollfd pfd;
  pfd.fd = pipe_rd_;
  pfd.events = POLLIN;
  pfd.revents = 0;
  if (::poll(&pfd, 1, 0) > 0 && (pfd.revents & POLLIN) != 0) {
    char drainbuf[16];
    while (::read(pipe_rd_, drainbuf, sizeof(drainbuf)) > 0) {
    }
    doorbell_armed_.store(false, std::memory_order_release);
  }
#endif
}

std::size_t PollSet::Drain(FunctionRef<void(Qp*)> fn) {
  drains_.fetch_add(1, std::memory_order_relaxed);
  PollChannel();
  // Service only the QPs ready at entry; edges raised by `fn` itself wait
  // for the next drain (bounded work per call). The callback may Remove
  // QPs (shrinking ready_), so re-check emptiness every iteration. The
  // lock drops around `fn` so handlers can Send/Recv/Remove freely.
  common::MutexLock lk(mu_);
  const std::size_t bound = ready_.size();
  std::size_t n = 0;
  for (std::size_t i = 0; i < bound && !ready_.empty(); ++i) {
    Qp* qp = ready_.front();
    ready_.pop_front();
    qp->poll_ready_ = false;
    draining_ = qp;
    draining_removed_ = false;
    lk.Unlock();
    fn(qp);
    lk.Lock();
    const bool removed = draining_removed_;
    draining_ = nullptr;
    draining_removed_ = false;
    // Liveness: a handler that bailed early (decode error) leaves bytes
    // queued with the edge already consumed; re-raise it — unless the
    // callback removed/destroyed the Qp, in which case touching it is UB.
    if (!removed && qp->HasMessage()) MarkReadyLocked(qp);
    ++n;
  }
  lk.Unlock();
  if (n > 0) {
    // Re-arm/re-check: an edge-triggered channel consumer must look at
    // the event queue again AFTER re-arming notification, or a doorbell
    // that raced with the service loop is lost until the next external
    // wakeup (the ibv_req_notify_cq-then-repoll discipline). One more
    // zero-timeout poll per productive wakeup — also amortized by depth.
    PollChannel();
  }
  return n;
}

std::size_t PollSet::DrainWait(int timeout_ms, FunctionRef<void(Qp*)> fn) {
  bool must_wait;
  {
    common::MutexLock lk(mu_);
    must_wait = ready_.empty() && !ring_pending_;
  }
  if (must_wait) {
#ifdef ROS2_HAVE_POLL
    if (pipe_rd_ >= 0) {
      // Block in poll() on the doorbell pipe — the byte a foreign-thread
      // MarkReady/Ring writes ends the wait; Drain's PollChannel consumes
      // it. A doorbell armed before we got here means the byte is already
      // in the pipe, so poll() returns immediately: no lost wakeup.
      struct pollfd pfd;
      pfd.fd = pipe_rd_;
      pfd.events = POLLIN;
      pfd.revents = 0;
      (void)::poll(&pfd, 1, timeout_ms);
    } else
#endif
    {
      // Deadline while-loop instead of a predicate lambda: the guarded
      // reads stay in this (annotated) function body.
      const auto deadline = std::chrono::steady_clock::now() +
                            std::chrono::milliseconds(timeout_ms);
      common::MutexLock lk(mu_);
      while (ready_.empty() && !ring_pending_) {
        const auto now = std::chrono::steady_clock::now();
        if (now >= deadline) break;
        (void)cv_.WaitFor(mu_, deadline - now);
      }
    }
  }
  {
    common::MutexLock lk(mu_);
    ring_pending_ = false;
  }
  return Drain(fn);
}

// ------------------------------------------------------------- Endpoint

Endpoint::Endpoint(Fabric* fabric, std::string address)
    : fabric_(fabric),
      address_(std::move(address)),
      mr_cache_(std::make_unique<MrCache>(this)) {}

Endpoint::~Endpoint() = default;

void Endpoint::PinRegion(std::uintptr_t addr, std::size_t len) {
  // One mlock for the whole region (idempotent per page), plus a per-page
  // refcount so overlapping registrations each hold their pages — like
  // get_user_pages under ibv_reg_mr, where the LAST release unpins.
  PinPages(addr, len);
  constexpr std::uintptr_t kPage = 4096;
  for (std::uintptr_t page = addr & ~(kPage - 1); page < addr + len;
       page += kPage) {
    ++pin_counts_[page];
  }
}

void Endpoint::UnpinRegion(std::uintptr_t addr, std::size_t len) {
  constexpr std::uintptr_t kPage = 4096;
  // munlock only the contiguous runs of pages whose refcount hits zero.
  std::uintptr_t run_start = 0;
  std::uintptr_t run_len = 0;
  for (std::uintptr_t page = addr & ~(kPage - 1); page < addr + len;
       page += kPage) {
    bool free_page = false;
    auto it = pin_counts_.find(page);
    if (it != pin_counts_.end() && --it->second == 0) {
      pin_counts_.erase(it);
      free_page = true;
    }
    if (free_page) {
      if (run_len == 0) run_start = page;
      run_len += kPage;
    } else if (run_len != 0) {
      UnpinPages(run_start, run_len);
      run_len = 0;
    }
  }
  if (run_len != 0) UnpinPages(run_start, run_len);
}

PdId Endpoint::AllocPd(TenantId tenant) {
  common::MutexLock lk(mu_);
  const PdId id = next_pd_++;
  pds_[id] = tenant;
  return id;
}

Result<MemoryRegion> Endpoint::RegisterMemory(PdId pd,
                                              std::span<std::byte> region,
                                              std::uint32_t access,
                                              double ttl) {
  common::MutexLock lk(mu_);
  if (!pds_.contains(pd)) return NotFound("unknown protection domain");
  if (region.empty()) return InvalidArgument("empty memory region");
  if (fault_plan_.Evaluate(common::FaultPoint::kNetRegister).fire) {
    return ResourceExhausted("injected registration fault (MR table full)");
  }
  MemoryRegion mr;
  mr.rkey = fabric_->NextRKey();
  mr.pd = pd;
  mr.addr = reinterpret_cast<std::uintptr_t>(region.data());
  mr.length = region.size();
  mr.access = access;
  mr.expires_at = ttl > 0.0 ? fabric_->now() + ttl : 0.0;
  PinRegion(mr.addr, mr.length);
  mrs_[mr.rkey] = mr;
  return mr;
}

Status Endpoint::RevokeMemory(RKey rkey) {
  common::MutexLock lk(mu_);
  auto it = mrs_.find(rkey);
  if (it == mrs_.end()) return NotFound("unknown rkey");
  it->second.revoked = true;
  return Status::Ok();
}

Status Endpoint::DeregisterMemory(RKey rkey) {
  common::MutexLock lk(mu_);
  auto it = mrs_.find(rkey);
  if (it == mrs_.end()) return NotFound("unknown rkey");
  UnpinRegion(it->second.addr, it->second.length);
  mrs_.erase(it);
  return Status::Ok();
}

Result<TenantId> Endpoint::PdTenant(PdId pd) const {
  common::MutexLock lk(mu_);
  auto it = pds_.find(pd);
  if (it == pds_.end()) return NotFound("unknown protection domain");
  return it->second;
}

bool Endpoint::FindMr(RKey rkey, MemoryRegion* out) const {
  common::MutexLock lk(mu_);
  auto it = mrs_.find(rkey);
  if (it == mrs_.end()) return false;
  *out = it->second;
  return true;
}

// Locks two Endpoint instances of the same class via std::lock — a flow
// the capability analysis cannot express, hence the escape hatch (the
// deadlock-freedom argument is std::lock's ordering, documented below).
Result<Qp*> Endpoint::Connect(Endpoint* remote, Transport transport, PdId pd,
                              PdId remote_pd) ROS2_NO_THREAD_SAFETY_ANALYSIS {
  if (remote == nullptr) return InvalidArgument("null remote endpoint");
  auto local_qp = std::unique_ptr<Qp>(new Qp(this, transport, pd));
  auto remote_qp =
      std::unique_ptr<Qp>(new Qp(remote, transport, remote_pd));
  local_qp->peer_ = remote_qp.get();
  remote_qp->peer_ = local_qp.get();
  Qp* out = local_qp.get();
  PollSet* accept_set = nullptr;
  {
    // Two endpoints, one lock each; std::lock orders the acquisition so
    // concurrent A->B / B->A connects cannot deadlock. Loopback connects
    // (remote == this) take the single lock once.
    std::unique_lock<common::Mutex> lk_local(mu_, std::defer_lock);
    std::unique_lock<common::Mutex> lk_remote(remote->mu_, std::defer_lock);
    if (remote == this) {
      lk_local.lock();
    } else {
      std::lock(lk_local, lk_remote);
    }
    if (!pds_.contains(pd)) {
      return NotFound("unknown local protection domain");
    }
    if (!remote->pds_.contains(remote_pd)) {
      return NotFound("unknown remote protection domain");
    }
    accept_set = remote->accept_poll_set_;
    qps_.push_back(std::move(local_qp));
    remote->qps_.push_back(std::move(remote_qp));
  }
  // The accepting side's progress loop watches every accepted Qp through
  // its poll set (CaRT progress-context accept hook). Outside the
  // endpoint locks: PollSet is below Endpoint in the lock order.
  if (accept_set != nullptr) {
    (void)accept_set->Add(out->peer_);
  }
  ROS2_DEBUG << "qp connected " << address_ << " <-> " << remote->address_
             << " (" << perf::TransportName(transport) << ")";
  return out;
}

Endpoint::Traffic Endpoint::TotalTraffic() const {
  Traffic total;
  common::MutexLock lk(mu_);
  for (const auto& qp : qps_) {
    total.bytes_sent += qp->bytes_sent();
    total.bytes_one_sided += qp->bytes_one_sided();
  }
  return total;
}

// --------------------------------------------------------------- Fabric

Result<Endpoint*> Fabric::CreateEndpoint(const std::string& address) {
  common::MutexLock lk(mu_);
  if (endpoints_.contains(address)) {
    return AlreadyExists("endpoint address in use: " + address);
  }
  auto ep = std::unique_ptr<Endpoint>(new Endpoint(this, address));
  Endpoint* raw = ep.get();
  endpoints_[address] = std::move(ep);
  return raw;
}

Result<Endpoint*> Fabric::Lookup(const std::string& address) const {
  common::MutexLock lk(mu_);
  auto it = endpoints_.find(address);
  if (it == endpoints_.end()) return NotFound("no endpoint at " + address);
  return it->second.get();
}

}  // namespace ros2::net
