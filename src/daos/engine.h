// DAOS I/O engine: the storage-server process (§3.3).
//
// "The DAOS I/O engine executes entirely in user space with kernel-bypass
// I/O — SPDK for NVMe and PMDK for SCM; UCX/libfabric for networking."
//
// The engine owns N targets (xstreams); each target has an SCM pool, an
// NVMe partition on one of the server's devices, and a VOS instance.
// Object RPCs are routed to targets by dkey placement. Crucially — and this
// is the property the paper's offload leans on — the engine is UNCHANGED
// between host-client and DPU-client deployments: it just answers CaRT
// RPCs on its fabric endpoint.
//
// The request path is the paper's event-driven pipeline: every accepted QP
// reports into the engine's net::PollSet; ProgressAll() drains ready QPs
// (decode -> dispatch), and the scheduler's round-robin drain executes the
// deferred ops, completing each RpcContext with its reply. Every
// target-routed op goes through one routing step: at dispatch it decodes
// only the routing prefix (cont, oid, dkey, akey) and parks the request on
// the dkey's EngineScheduler run queue; on that xstream the container is
// looked up and the op's Exec* body decodes its own tail, stamps epochs and
// moves bulk. Same-dkey ops stay FIFO on their target while different
// targets interleave. Metadata ops answer inline from dispatch. The
// barrier ops — object punch, dkey listing and the rebuild scan — touch
// every target, so they drain the xstreams first and observe every
// previously-issued op. A dkey listing (kListEntries) merges the targets'
// sorted runs and carries each dkey's record of one akey along (names
// only when the akey is empty), so a directory listing is one round trip.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "daos/scheduler.h"
#include "daos/types.h"
#include "daos/vos.h"
#include "net/fabric.h"
#include "rpc/data_rpc.h"
#include "scm/pmem_pool.h"
#include "spdk/bdev.h"
#include "storage/nvme_device.h"
#include "telemetry/metrics.h"
#include "telemetry/snapshot.h"

namespace ros2::daos {

/// Data-plane opcodes served by the engine.
enum class DaosOpcode : std::uint32_t {
  kPoolConnect = 100,
  kContCreate,
  kContOpen,
  kOidAlloc,
  kObjUpdate,
  kObjFetch,
  kSingleUpdate,
  kSingleFetch,
  kObjPunch,
  // 109 is retired and stays unassigned: a stray frame for it gets the
  // server's unknown-opcode reply.
  kListAkeys = 110,
  kArraySize,
  kAggregate,
  /// Control plane: export a telemetry snapshot (header = flags + path
  /// prefix; reply = wire-encoded TelemetrySnapshot).
  kTelemetryQuery,
  /// Rebuild scan: every (oid, dkey) resident on this engine, all targets
  /// (barrier, like kListEntries). Reply: u32 count, then per entry
  /// {u64 oid.hi, u64 oid.lo, str dkey}. The container is oid.hi by the
  /// kOidAlloc convention.
  kObjScan,
  /// Rebuild export: materialize one dkey's HEAD state. Header = ObjAddr
  /// (akey ignored); reply: u32 akey count, then per akey {str name,
  /// u8 ValueType, bytes payload} — arrays as the flat [0, size) image,
  /// punched/empty singles omitted. Absent dkey -> count 0.
  kDkeyExport,
  /// Rebuild import: replace one dkey with an exported image (punch-then-
  /// apply at fresh epochs). Header = ObjAddr (akey ignored) + bytes(the
  /// kDkeyExport reply, verbatim). Reply: u64 payload bytes applied.
  kDkeyImport,
  /// Paged dkey listing of one object, all targets (barrier). Header:
  /// u64 cont, u64 oid.hi, u64 oid.lo, str marker, u32 limit (0 = all),
  /// str akey. Reply: u32 count, then count x {str dkey, bytes value}
  /// (ascending, all > marker), then u8 more. An empty akey lists names
  /// only: every dkey, punched ones included, and no value field. A
  /// non-empty akey lists only the dkeys whose akey has a visible HEAD
  /// single value, with that value; any error but an absent or punched
  /// value fails the whole page (a failed checksum is DATA_LOSS).
  kListEntries,
};

/// Metric-path name for an opcode ("single_update"); "op<number>" for
/// opcodes outside the enum.
std::string DaosOpcodeName(std::uint32_t opcode);

/// kTelemetryQuery header flag: include the engine's TraceRecord ring in
/// the reply.
inline constexpr std::uint8_t kTelemetryQueryTraces = 0x1;

/// Punch scope selector on the wire.
enum class PunchScope : std::uint8_t { kObject = 0, kDkey = 1, kAkey = 2 };

struct EngineConfig {
  std::string address = "fabric://daos-server";
  std::string pool_label = "pool0";
  /// Shared secret required by PoolConnect ("" = open pool).
  std::string access_token;
  std::uint32_t targets = 16;
  /// SCM quota per target. The engine backs every target's pool with one
  /// arena of targets x this size, touched only where blocks are handed
  /// out (sized for tests/benches).
  std::uint64_t scm_per_target = 64ull * 1024 * 1024;
  bool checksums = true;
  /// True: each target is a real execution stream — a worker thread with a
  /// bounded submit queue — and deferred ops execute and send their
  /// replies on their target's thread. False: the deterministic
  /// single-threaded round-robin drain.
  bool xstream_workers = false;
  /// False: no metric tree, no per-op latency stamping, no scheduler
  /// clock reads — the engine answers kTelemetryQuery with an empty
  /// snapshot. The instrumentation-overhead bench's control arm.
  bool telemetry = true;
};

class DaosEngine {
 public:
  /// The only way to build an engine (daos::Cluster boots through it).
  /// `devices` are the server's NVMe SSDs; targets partition them
  /// round-robin (target i -> device i % devices.size()). Rejects a
  /// zero-target config and an empty device span with INVALID_ARGUMENT,
  /// a device whose LBA size does not divide Vos::kCsumChunk with
  /// FAILED_PRECONDITION, and an address already on the fabric with
  /// ALREADY_EXISTS.
  static Result<std::unique_ptr<DaosEngine>> Create(
      net::Fabric* fabric, EngineConfig config,
      std::span<storage::NvmeDevice* const> devices);

  ~DaosEngine();

  net::Endpoint* endpoint() const { return endpoint_; }
  net::PdId pd() const { return pd_; }
  rpc::RpcServer* server() { return &server_; }
  const EngineConfig& config() const { return config_; }
  std::uint32_t num_targets() const { return std::uint32_t(targets_.size()); }

  /// One engine progress call (the CaRT progress-loop tick): drains every
  /// ready accepted QP through decode->dispatch, then completes deferred
  /// requests — serial mode runs the run queues dry; threaded mode waits
  /// for the workers to finish what was handed to them (a synchronous
  /// pump: replies for everything decodable are sent before returning).
  /// Clients pump this as their progress hook.
  Status ProgressAll();

  /// Starts the dedicated network progress thread: blocks in the poll
  /// set's DrainWait (a QP send rings the doorbell), services ready QPs,
  /// and runs serial-mode queues dry; threaded workers reply on their own.
  /// With this running, clients need no progress hook at all. No-op if
  /// already running.
  void StartProgressThread();
  /// Stops and joins the progress thread (no-op if not running). The
  /// destructor calls it.
  void StopProgressThread();
  bool progress_thread_running() const {
    return progress_thread_.joinable();
  }

  /// The engine's per-target run queues (telemetry + tests).
  const EngineScheduler& scheduler() const { return scheduler_; }
  /// The accepted-QP readiness set (telemetry + tests).
  const net::PollSet& poll_set() const { return poll_set_; }

  /// Direct VOS access for white-box tests (target introspection).
  Vos* target_vos(std::uint32_t target);
  /// The arena behind every target's SCM pool (tests: its high-water).
  const scm::ScmArena& scm_arena() const { return scm_arena_; }

  /// Data-plane writes (updates + rebuild imports) and reads (fetches +
  /// rebuild exports) executed — the engine/updates and engine/fetches
  /// counters of the metric tree. Bulk bytes: server()->bulk_bytes_in/out.
  std::uint64_t updates() const { return updates_.value(); }
  std::uint64_t fetches() const { return fetches_.value(); }

  /// The engine's metric tree (empty when config.telemetry is false).
  /// Remote readers use kTelemetryQuery; in-process readers may snapshot
  /// directly — the hot paths only touch atomics, so this is safe while
  /// the engine is serving.
  const telemetry::Telemetry& telemetry() const { return telemetry_; }
  /// Mutable tree for co-located services (pool map, rebuild manager) to
  /// register their metrics into, so one kTelemetryQuery serves the whole
  /// node. nullptr when telemetry is disabled — Attach* helpers no-op on
  /// nullptr, so callers can pass it straight through.
  telemetry::Telemetry* mutable_telemetry() {
    return config_.telemetry ? &telemetry_ : nullptr;
  }
  /// Recent per-request timing breakdowns (trace_id -> queue/exec/total).
  const telemetry::TraceRing& traces() const { return traces_; }

  /// The final snapshot published by the progress thread as it exits
  /// (StopProgressThread), so post-mortem dumps see the real totals.
  /// FAILED_PRECONDITION until the progress thread has stopped at least
  /// once; NOT_FOUND when telemetry is disabled.
  Result<telemetry::TelemetrySnapshot> published_snapshot() const;

 private:
  struct Target {
    std::unique_ptr<scm::PmemPool> scm;
    std::unique_ptr<spdk::Bdev> bdev;
    std::unique_ptr<Vos> vos;
  };

  struct Container {
    ContainerId id = 0;
    std::string label;
    /// Atomic: epoch stamping happens on target worker threads, and one
    /// container's ops may span every target. (Makes Container pinned in
    /// place — the map's node stability is what Container* leans on.)
    std::atomic<Epoch> next_epoch{1};
    std::uint64_t next_oid = 1;
  };

  /// Only Create calls it, with the config validated and `endpoint`
  /// claimed at config.address.
  DaosEngine(net::Endpoint* endpoint, EngineConfig config,
             std::span<storage::NvmeDevice* const> devices);

  struct ObjAddr;  // common cont/oid/dkey/akey wire prefix (engine.cc)
  static Status DecodeObjAddr(rpc::Decoder& dec, ObjAddr* out);

  /// Body of one target-routed op. Runs on the dkey's xstream with the
  /// request's container resolved; `tail` reads the op-specific fields
  /// that follow the ObjAddr prefix in the context's header (which lives
  /// until completion).
  using ExecFn = Result<Buffer> (DaosEngine::*)(
      Container& cont, const ObjAddr& addr, rpc::Decoder& tail,
      std::uint32_t target, rpc::RpcContext& ctx);
  /// Decides from an op's tail, at dispatch, that the request is a
  /// barrier: it runs inline once every queued op has executed.
  using BarrierFn = bool (*)(rpc::Decoder tail);

  void RegisterHandlers();
  /// Builds the metric tree: links the engine/server/MR-cache counters,
  /// registers callback gauges over scheduler, poll-set, endpoint, and
  /// per-target VOS state. No-op when config.telemetry is false.
  void SetupTelemetry();
  /// Snapshots the whole tree (plus traces) into published_ — called by
  /// the progress thread on its way out.
  void PublishSnapshot();
  Result<Container*> FindContainer(ContainerId id);
  std::uint32_t TargetOf(const ObjectId& oid, const std::string& dkey) const;

  /// The routing step of every target-routed op: decodes the ObjAddr
  /// prefix (a malformed one is answered here), then parks the request on
  /// TargetOf(oid, dkey)'s xstream, which looks up the container and runs
  /// `exec`. A request `barrier` selects runs inline after a Quiesce.
  rpc::HandlerVerdict Route(rpc::RpcContextPtr ctx, ExecFn exec,
                            BarrierFn barrier);

  // Target-routed op bodies (ExecFn).
  Result<Buffer> ExecObjUpdate(Container& cont, const ObjAddr& addr,
                               rpc::Decoder& tail, std::uint32_t target,
                               rpc::RpcContext& ctx);
  Result<Buffer> ExecObjFetch(Container& cont, const ObjAddr& addr,
                              rpc::Decoder& tail, std::uint32_t target,
                              rpc::RpcContext& ctx);
  Result<Buffer> ExecSingleUpdate(Container& cont, const ObjAddr& addr,
                                  rpc::Decoder& tail, std::uint32_t target,
                                  rpc::RpcContext& ctx);
  Result<Buffer> ExecSingleFetch(Container& cont, const ObjAddr& addr,
                                 rpc::Decoder& tail, std::uint32_t target,
                                 rpc::RpcContext& ctx);
  Result<Buffer> ExecObjPunch(Container& cont, const ObjAddr& addr,
                              rpc::Decoder& tail, std::uint32_t target,
                              rpc::RpcContext& ctx);
  Result<Buffer> ExecListAkeys(Container& cont, const ObjAddr& addr,
                               rpc::Decoder& tail, std::uint32_t target,
                               rpc::RpcContext& ctx);
  Result<Buffer> ExecArraySize(Container& cont, const ObjAddr& addr,
                               rpc::Decoder& tail, std::uint32_t target,
                               rpc::RpcContext& ctx);
  Result<Buffer> ExecAggregate(Container& cont, const ObjAddr& addr,
                               rpc::Decoder& tail, std::uint32_t target,
                               rpc::RpcContext& ctx);
  Result<Buffer> ExecDkeyExport(Container& cont, const ObjAddr& addr,
                                rpc::Decoder& tail, std::uint32_t target,
                                rpc::RpcContext& ctx);
  Result<Buffer> ExecDkeyImport(Container& cont, const ObjAddr& addr,
                                rpc::Decoder& tail, std::uint32_t target,
                                rpc::RpcContext& ctx);

  // Inline handlers (metadata ops; dkey listing and scan run as barriers).
  Result<Buffer> HandlePoolConnect(ByteView header);
  Result<Buffer> HandleContCreate(ByteView header);
  Result<Buffer> HandleContOpen(ByteView header);
  Result<Buffer> HandleOidAlloc(ByteView header);
  /// kListEntries: every target appends its sorted run (names, plus the
  /// akey's values when the akey is non-empty), and the reply is their
  /// merge.
  Result<Buffer> ListDkeyPage(ByteView header);
  Result<Buffer> HandleTelemetryQuery(ByteView header);
  Result<Buffer> HandleObjScan(ByteView header);

  void ProgressThreadMain();

  EngineConfig config_;
  net::Endpoint* endpoint_ = nullptr;
  net::PdId pd_ = 0;
  rpc::RpcServer server_;
  net::PollSet poll_set_;
  EngineScheduler scheduler_;
  /// One counter shard per target plus one for the progress thread.
  telemetry::Telemetry telemetry_;
  telemetry::TraceRing traces_;
  /// The SCM every target's pool carves its blocks from; declared before
  /// targets_ so the pools return their blocks before it goes.
  scm::ScmArena scm_arena_;
  std::vector<Target> targets_;
  /// Guards the container tables (created on the dispatch path, looked up
  /// from worker threads). Map nodes are stable, so a Container* handed
  /// out under the lock stays valid — containers are never erased.
  mutable common::Mutex containers_mu_;
  std::map<std::string, ContainerId> containers_by_label_
      ROS2_GUARDED_BY(containers_mu_);
  std::map<ContainerId, Container> containers_
      ROS2_GUARDED_BY(containers_mu_);
  ContainerId next_container_id_ ROS2_GUARDED_BY(containers_mu_) = 1;
  /// Sharded per target: each worker ticks its own shard.
  telemetry::Counter updates_;
  telemetry::Counter fetches_;
  /// Owned by the tree; cached here so the query handler can tick them
  /// without a path lookup. Null when telemetry is disabled.
  telemetry::Counter* queries_ = nullptr;
  telemetry::Timestamp* last_query_at_ = nullptr;
  std::thread progress_thread_;
  std::atomic<bool> progress_stop_{false};
  /// Satellite: the progress thread's exit publishes a final snapshot so
  /// dumps after Stop() are not all-zero.
  mutable common::Mutex published_mu_;
  telemetry::TelemetrySnapshot published_ ROS2_GUARDED_BY(published_mu_);
  bool has_published_ ROS2_GUARDED_BY(published_mu_) = false;
};

}  // namespace ros2::daos
