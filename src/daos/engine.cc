#include "daos/engine.h"

#include <algorithm>
#include <memory>
#include <span>
#include <string>

#include "common/logging.h"
#include "daos/placement.h"
#include "rpc/wire.h"

namespace ros2::daos {

std::string DaosOpcodeName(std::uint32_t opcode) {
  switch (DaosOpcode(opcode)) {
    case DaosOpcode::kPoolConnect: return "pool_connect";
    case DaosOpcode::kContCreate: return "cont_create";
    case DaosOpcode::kContOpen: return "cont_open";
    case DaosOpcode::kOidAlloc: return "oid_alloc";
    case DaosOpcode::kObjUpdate: return "obj_update";
    case DaosOpcode::kObjFetch: return "obj_fetch";
    case DaosOpcode::kSingleUpdate: return "single_update";
    case DaosOpcode::kSingleFetch: return "single_fetch";
    case DaosOpcode::kObjPunch: return "obj_punch";
    case DaosOpcode::kListAkeys: return "list_akeys";
    case DaosOpcode::kArraySize: return "array_size";
    case DaosOpcode::kAggregate: return "aggregate";
    case DaosOpcode::kTelemetryQuery: return "telemetry_query";
    case DaosOpcode::kObjScan: return "obj_scan";
    case DaosOpcode::kDkeyExport: return "dkey_export";
    case DaosOpcode::kDkeyImport: return "dkey_import";
    case DaosOpcode::kListEntries: return "list_entries";
  }
  return "op" + std::to_string(opcode);
}

/// Common object-addressing prefix: cont, oid, dkey, akey.
struct DaosEngine::ObjAddr {
  ContainerId cont = 0;
  ObjectId oid;
  std::string dkey;
  std::string akey;
};

Status DaosEngine::DecodeObjAddr(rpc::Decoder& dec, ObjAddr* out) {
  ROS2_ASSIGN_OR_RETURN(out->cont, dec.U64());
  ROS2_ASSIGN_OR_RETURN(out->oid.hi, dec.U64());
  ROS2_ASSIGN_OR_RETURN(out->oid.lo, dec.U64());
  ROS2_ASSIGN_OR_RETURN(out->dkey, dec.Str());
  ROS2_ASSIGN_OR_RETURN(out->akey, dec.Str());
  return Status::Ok();
}

namespace {

/// kObjPunch's barrier test: an object-scope punch touches every target.
bool IsObjectPunch(rpc::Decoder tail) {
  auto scope = tail.U8();
  return scope.ok() && PunchScope(*scope) == PunchScope::kObject;
}

/// Reads one target's run of a dkey listing in place: `dkey` (and
/// `value`, for kListEntries) is the run's smallest entry not yet merged.
struct RunCursor {
  rpc::Decoder dec;
  std::uint32_t left = 0;  ///< entries from `dkey` on
  std::string_view dkey;
  std::span<const std::byte> value;

  Status Next(bool entries) {
    ROS2_ASSIGN_OR_RETURN(dkey, dec.StrView());
    if (entries) {
      ROS2_ASSIGN_OR_RETURN(value, dec.BytesView());
    }
    return Status::Ok();
  }
};

/// One akey of a kDkeyExport image (the kDkeyImport payload).
struct DkeyImageEntry {
  std::string akey;
  ValueType type;
  Buffer payload;
};

}  // namespace

Result<std::unique_ptr<DaosEngine>> DaosEngine::Create(
    net::Fabric* fabric, EngineConfig config,
    std::span<storage::NvmeDevice* const> devices) {
  if (config.targets == 0) {
    return Status(InvalidArgument(
        "EngineConfig::targets must be >= 1: every engine needs at least "
        "one target xstream"));
  }
  if (devices.empty()) {
    return Status(InvalidArgument("engine needs at least one NVMe device"));
  }
  // VOS reads NVMe in whole checksum chunks; with an LBA that does not
  // divide a chunk, every such read would be misaligned.
  for (const storage::NvmeDevice* device : devices) {
    if (Vos::kCsumChunk % device->config().lba_size != 0) {
      return Status(FailedPrecondition(
          "NVMe LBA size " + std::to_string(device->config().lba_size) +
          " does not divide the " + std::to_string(Vos::kCsumChunk) +
          "-byte VOS checksum chunk"));
    }
  }
  ROS2_ASSIGN_OR_RETURN(net::Endpoint * endpoint,
                        fabric->CreateEndpoint(config.address));
  return std::unique_ptr<DaosEngine>(
      new DaosEngine(endpoint, std::move(config), devices));
}

DaosEngine::DaosEngine(net::Endpoint* endpoint, EngineConfig config,
                       std::span<storage::NvmeDevice* const> devices)
    : config_(std::move(config)),
      endpoint_(endpoint),
      scheduler_(config_.targets,
                 EngineSchedulerOptions{config_.xstream_workers,
                                        /*time_ops=*/config_.telemetry}),
      telemetry_(/*default_shards=*/config_.targets + 1),
      scm_arena_(std::uint64_t(config_.targets) * config_.scm_per_target),
      updates_(config_.targets),
      fetches_(config_.targets) {
  pd_ = endpoint_->AllocPd();
  // Every QP this endpoint accepts reports into the engine's poll set, so
  // one ProgressAll tick services all connections without per-QP scans.
  endpoint_->set_accept_poll_set(&poll_set_);

  // Partition each device among the targets assigned to it.
  const std::uint32_t n = config_.targets;
  std::vector<std::uint32_t> per_device(devices.size(), 0);
  for (std::uint32_t t = 0; t < n; ++t) per_device[t % devices.size()]++;

  for (std::uint32_t t = 0; t < n; ++t) {
    const std::size_t dev_index = t % devices.size();
    storage::NvmeDevice* device = devices[dev_index];
    const std::uint32_t slot = t / std::uint32_t(devices.size());
    const std::uint64_t share =
        device->config().capacity_bytes / per_device[dev_index];
    // Align the partition base to the LBA size.
    const std::uint32_t lba = device->config().lba_size;
    const std::uint64_t base = (share * slot) / lba * lba;

    Target target;
    target.scm =
        std::make_unique<scm::PmemPool>(&scm_arena_, config_.scm_per_target);
    target.bdev = std::make_unique<spdk::Bdev>(device);
    VosConfig vos_config;
    vos_config.checksums = config_.checksums;
    vos_config.nvme_base = base;
    vos_config.nvme_capacity = share / lba * lba;
    target.vos = std::make_unique<Vos>(target.scm.get(), target.bdev.get(),
                                       vos_config);
    targets_.push_back(std::move(target));
  }
  SetupTelemetry();
  RegisterHandlers();
  ROS2_INFO << "daos engine up at " << config_.address << " ("
            << targets_.size() << " targets, " << devices.size()
            << " devices)";
}

DaosEngine::~DaosEngine() {
  StopProgressThread();
  // Stop the workers BEFORE member destruction: targets_ (the VOS
  // instances the ops touch) is destroyed before scheduler_ in reverse
  // declaration order, so a still-running worker would use freed state.
  scheduler_.Shutdown();
  // Detach the accept hook before poll_set_ dies; the endpoint (and its
  // QPs) belong to the fabric and may outlive this engine.
  if (endpoint_ != nullptr) endpoint_->set_accept_poll_set(nullptr);
}

Status DaosEngine::ProgressAll() {
  // Decode + dispatch everything that arrived (inline handlers reply
  // here; data ops park on their target's xstream), then complete the
  // deferred contexts: serial mode runs the queues dry (round-robin
  // target order, same-dkey FIFO); threaded mode waits for the workers,
  // which send their own replies, to finish what this tick dispatched, so
  // the synchronous-pump contract (reply ready when ProgressAll returns)
  // holds in both modes.
  Status s = server_.Progress(&poll_set_);
  scheduler_.Quiesce();
  return s;
}

void DaosEngine::ProgressThreadMain() {
  while (!progress_stop_.load(std::memory_order_acquire)) {
    // Block until a QP reports readiness (bounded so a missed edge can't
    // hang shutdown), then decode and dispatch what arrived. Threaded
    // workers send their own replies, so nothing else wakes this loop.
    poll_set_.DrainWait(/*timeout_ms=*/10,
                        [&](net::Qp* qp) { (void)server_.Progress(qp); });
    // Drain the serial run queue completely before blocking again (in
    // threaded mode ProgressOnce returns 0 at once): ops parked by
    // the dispatch above do NOT ring the doorbell, and ProgressOnce runs
    // at most one op per target per pass — sleeping with a non-empty
    // queue would stall every pipelined multi-chunk batch by the full
    // wait timeout. Interleave a non-blocking drain so requests arriving
    // mid-pass are decoded into this same pass.
    while (scheduler_.ProgressOnce() > 0 &&
           !progress_stop_.load(std::memory_order_acquire)) {
      (void)poll_set_.Drain(
          [&](net::Qp* qp) { (void)server_.Progress(qp); });
    }
  }
  // Final sweep: everything decoded before stop was requested still gets
  // its reply (tests rely on a clean drain, not dropped contexts).
  (void)server_.Progress(&poll_set_);
  scheduler_.Quiesce();
  // Publish the totals as of thread exit so a post-mortem dump (after
  // Stop(), when live queries are no longer pumped) is not all-zero.
  PublishSnapshot();
}

void DaosEngine::StartProgressThread() {
  if (progress_thread_.joinable()) return;
  progress_stop_.store(false, std::memory_order_release);
  progress_thread_ = std::thread([this] { ProgressThreadMain(); });
}

void DaosEngine::StopProgressThread() {
  if (!progress_thread_.joinable()) return;
  progress_stop_.store(true, std::memory_order_release);
  poll_set_.Ring();  // kick it out of DrainWait immediately
  progress_thread_.join();
}

Vos* DaosEngine::target_vos(std::uint32_t target) {
  return target < targets_.size() ? targets_[target].vos.get() : nullptr;
}

void DaosEngine::SetupTelemetry() {
  if (!config_.telemetry) return;
  // Per-opcode request counters + decode->dispatch->execute->reply
  // latency histograms, named after the DAOS opcodes.
  server_.EnableTelemetry(
      &telemetry_, [](std::uint32_t op) { return DaosOpcodeName(op); },
      &traces_);
  telemetry_.LinkCounter("engine/updates", &updates_);
  telemetry_.LinkCounter("engine/fetches", &fetches_);
  if (auto* ts = telemetry_.RegisterTimestamp("engine/started_at")) {
    ts->Stamp();
  }
  queries_ = telemetry_.RegisterCounter("telemetry/queries", 1);
  last_query_at_ = telemetry_.RegisterTimestamp("telemetry/last_query_at");

  // Scheduler: aggregate + per-target queue depth and busy/idle split.
  telemetry_.RegisterCallback("sched/queued", [this] {
    return std::int64_t(scheduler_.queued());
  });
  telemetry_.RegisterCallback("sched/queue_high_water", [this] {
    return std::int64_t(scheduler_.max_queue_depth());
  });
  telemetry_.RegisterCallback("sched/executed", [this] {
    return std::int64_t(scheduler_.executed());
  });
  telemetry_.RegisterCallback("sched/busy_ns", [this] {
    return std::int64_t(scheduler_.busy_ns());
  });
  for (std::uint32_t t = 0; t < config_.targets; ++t) {
    const std::string base = "sched/target/" + std::to_string(t) + "/";
    telemetry_.RegisterCallback(base + "queue_depth", [this, t] {
      return std::int64_t(scheduler_.queued(t));
    });
    telemetry_.RegisterCallback(base + "executed", [this, t] {
      return std::int64_t(scheduler_.executed(t));
    });
    telemetry_.RegisterCallback(base + "busy_ns", [this, t] {
      return std::int64_t(scheduler_.busy_ns(t));
    });
    telemetry_.RegisterCallback(base + "idle_ns", [this, t] {
      return std::int64_t(scheduler_.idle_ns(t));
    });
  }

  // Network: doorbell wakeups, traffic, and the MR cache (linked — the
  // cache keeps updating the same counter objects the snapshot reads).
  telemetry_.RegisterCallback("net/doorbells", [this] {
    return std::int64_t(poll_set_.doorbells());
  });
  telemetry_.RegisterCallback("net/drains", [this] {
    return std::int64_t(poll_set_.drains());
  });
  telemetry_.RegisterCallback("net/qp_count", [this] {
    return std::int64_t(endpoint_->qp_count());
  });
  telemetry_.RegisterCallback("net/bytes_sent", [this] {
    return std::int64_t(endpoint_->TotalTraffic().bytes_sent);
  });
  telemetry_.RegisterCallback("net/bytes_one_sided", [this] {
    return std::int64_t(endpoint_->TotalTraffic().bytes_one_sided);
  });
  const net::MrCache& mrc = endpoint_->mr_cache();
  telemetry_.LinkCounter("net/mr_cache/hits", &mrc.hits_counter());
  telemetry_.LinkCounter("net/mr_cache/misses", &mrc.misses_counter());
  telemetry_.LinkCounter("net/mr_cache/evictions", &mrc.evictions_counter());
  telemetry_.RegisterCallback("net/mr_cache/leased", [this] {
    return std::int64_t(endpoint_->mr_cache().leased());
  });

  // Per-target VOS: op counts and tier placement (atomics readable while
  // the target worker ticks them).
  for (std::uint32_t t = 0; t < std::uint32_t(targets_.size()); ++t) {
    const Vos* vos = targets_[t].vos.get();
    const std::string base = "vos/target/" + std::to_string(t) + "/";
    auto read = [](const std::atomic<std::uint64_t>& v) {
      return std::int64_t(v.load(std::memory_order_relaxed));
    };
    telemetry_.RegisterCallback(base + "updates", [vos, read] {
      return read(vos->stats().updates);
    });
    telemetry_.RegisterCallback(base + "fetches", [vos, read] {
      return read(vos->stats().fetches);
    });
    telemetry_.RegisterCallback(base + "scm_records", [vos, read] {
      return read(vos->stats().scm_records);
    });
    telemetry_.RegisterCallback(base + "nvme_records", [vos, read] {
      return read(vos->stats().nvme_records);
    });
    telemetry_.RegisterCallback(base + "bytes_in_scm", [vos, read] {
      return read(vos->stats().bytes_in_scm);
    });
    telemetry_.RegisterCallback(base + "bytes_in_nvme", [vos, read] {
      return read(vos->stats().bytes_in_nvme);
    });
  }
}

void DaosEngine::PublishSnapshot() {
  if (!config_.telemetry) return;
  telemetry::TelemetrySnapshot snap = telemetry_.Snapshot();
  snap.traces = traces_.Snapshot();
  common::MutexLock lk(published_mu_);
  published_ = std::move(snap);
  has_published_ = true;
}

Result<telemetry::TelemetrySnapshot> DaosEngine::published_snapshot() const {
  if (!config_.telemetry) {
    return Status(NotFound("telemetry disabled on this engine"));
  }
  common::MutexLock lk(published_mu_);
  if (!has_published_) {
    return Status(FailedPrecondition(
        "no published snapshot: progress thread has not stopped yet"));
  }
  return published_;
}

void DaosEngine::RegisterHandlers() {
  using InlineFn = Result<Buffer> (DaosEngine::*)(ByteView);
  // Metadata / pool-service ops: answered inline from the dispatch step.
  auto answer = [this](DaosOpcode op, InlineFn fn) {
    server_.Register(std::uint32_t(op),
                     [this, fn](ByteView h, rpc::BulkIo&) {
                       return (this->*fn)(h);
                     });
  };
  // Barrier ops enumerate every target: the xstreams drain first so the
  // answer observes every already-issued op.
  auto barrier = [this](DaosOpcode op, InlineFn fn) {
    server_.Register(std::uint32_t(op),
                     [this, fn](ByteView h, rpc::BulkIo&) {
                       scheduler_.Quiesce();
                       return (this->*fn)(h);
                     });
  };
  // Target-routed data ops: Route defers them onto the dkey's xstream.
  auto route = [this](DaosOpcode op, ExecFn exec,
                      BarrierFn barrier_if = nullptr) {
    server_.RegisterAsync(std::uint32_t(op),
                          [this, exec, barrier_if](rpc::RpcContextPtr ctx) {
                            return Route(std::move(ctx), exec, barrier_if);
                          });
  };
  answer(DaosOpcode::kPoolConnect, &DaosEngine::HandlePoolConnect);
  answer(DaosOpcode::kContCreate, &DaosEngine::HandleContCreate);
  answer(DaosOpcode::kContOpen, &DaosEngine::HandleContOpen);
  answer(DaosOpcode::kOidAlloc, &DaosEngine::HandleOidAlloc);
  answer(DaosOpcode::kTelemetryQuery, &DaosEngine::HandleTelemetryQuery);
  barrier(DaosOpcode::kListEntries, &DaosEngine::ListDkeyPage);
  barrier(DaosOpcode::kObjScan, &DaosEngine::HandleObjScan);
  // The one placement decided at dispatch: an object-scope punch runs as
  // a barrier, a dkey/akey punch on the dkey's xstream.
  route(DaosOpcode::kObjPunch, &DaosEngine::ExecObjPunch, &IsObjectPunch);
  route(DaosOpcode::kObjUpdate, &DaosEngine::ExecObjUpdate);
  route(DaosOpcode::kObjFetch, &DaosEngine::ExecObjFetch);
  route(DaosOpcode::kSingleUpdate, &DaosEngine::ExecSingleUpdate);
  route(DaosOpcode::kSingleFetch, &DaosEngine::ExecSingleFetch);
  route(DaosOpcode::kListAkeys, &DaosEngine::ExecListAkeys);
  route(DaosOpcode::kArraySize, &DaosEngine::ExecArraySize);
  route(DaosOpcode::kAggregate, &DaosEngine::ExecAggregate);
  route(DaosOpcode::kDkeyExport, &DaosEngine::ExecDkeyExport);
  route(DaosOpcode::kDkeyImport, &DaosEngine::ExecDkeyImport);
}

Result<DaosEngine::Container*> DaosEngine::FindContainer(ContainerId id) {
  common::MutexLock lk(containers_mu_);
  auto it = containers_.find(id);
  if (it == containers_.end()) return NotFound("unknown container");
  return &it->second;  // node-stable; containers are never erased
}

std::uint32_t DaosEngine::TargetOf(const ObjectId& oid,
                                   const std::string& dkey) const {
  return PlaceDkey(oid, dkey, std::uint32_t(targets_.size()));
}

rpc::HandlerVerdict DaosEngine::Route(rpc::RpcContextPtr ctx, ExecFn exec,
                                      BarrierFn barrier) {
  rpc::Decoder tail(ctx->header());
  ObjAddr addr;
  if (Status s = DecodeObjAddr(tail, &addr); !s.ok()) {
    (void)ctx->Complete(std::move(s));
    return rpc::HandlerVerdict::kDone;
  }
  // Place before the address moves into the op closure.
  const std::uint32_t target = TargetOf(addr.oid, addr.dkey);
  auto run = [this, exec, addr = std::move(addr), tail,
              target](rpc::RpcContext& c) mutable -> Result<Buffer> {
    ROS2_ASSIGN_OR_RETURN(Container * cont, FindContainer(addr.cont));
    return (this->*exec)(*cont, addr, tail, target, c);
  };
  if (barrier != nullptr && barrier(tail)) {
    scheduler_.Quiesce();
    (void)ctx->Complete(run(*ctx));
    return rpc::HandlerVerdict::kDone;
  }
  scheduler_.Enqueue(target, std::move(ctx), std::move(run));
  return rpc::HandlerVerdict::kDeferred;
}

// ------------------------------------------------------ inline handlers

Result<Buffer> DaosEngine::HandlePoolConnect(ByteView header) {
  rpc::Decoder dec(header);
  ROS2_ASSIGN_OR_RETURN(std::string label, dec.Str());
  ROS2_ASSIGN_OR_RETURN(std::string token, dec.Str());
  if (label != config_.pool_label) {
    return Status(NotFound("unknown pool label: " + label));
  }
  if (!config_.access_token.empty() && token != config_.access_token) {
    return Status(PermissionDenied("pool access token rejected"));
  }
  rpc::Encoder enc;
  enc.U64(1 /*pool id*/).U32(std::uint32_t(targets_.size()));
  return enc.Take();
}

Result<Buffer> DaosEngine::HandleContCreate(ByteView header) {
  rpc::Decoder dec(header);
  ROS2_ASSIGN_OR_RETURN(std::string label, dec.Str());
  common::MutexLock lk(containers_mu_);
  if (containers_by_label_.contains(label)) {
    return Status(AlreadyExists("container label in use: " + label));
  }
  const ContainerId id = next_container_id_++;
  containers_by_label_[label] = id;
  Container& cont = containers_[id];  // in-place: Container is immovable
  cont.id = id;
  cont.label = label;
  if (config_.telemetry) {
    // Container* is node-stable and never erased; the callback only reads
    // the epoch atomic, so no lock ordering issue with containers_mu_.
    const Container* cp = &cont;
    telemetry_.RegisterCallback(
        "engine/cont/" + label + "/epoch",
        [cp] { return std::int64_t(cp->next_epoch.load()); });
  }
  rpc::Encoder enc;
  enc.U64(id);
  return enc.Take();
}

Result<Buffer> DaosEngine::HandleContOpen(ByteView header) {
  rpc::Decoder dec(header);
  ROS2_ASSIGN_OR_RETURN(std::string label, dec.Str());
  common::MutexLock lk(containers_mu_);
  auto it = containers_by_label_.find(label);
  if (it == containers_by_label_.end()) {
    return Status(NotFound("no container labeled " + label));
  }
  rpc::Encoder enc;
  enc.U64(it->second);
  return enc.Take();
}

Result<Buffer> DaosEngine::HandleOidAlloc(ByteView header) {
  rpc::Decoder dec(header);
  ROS2_ASSIGN_OR_RETURN(ContainerId cont_id, dec.U64());
  // next_oid is plain (not atomic): allocate under the table lock.
  common::MutexLock lk(containers_mu_);
  auto it = containers_.find(cont_id);
  if (it == containers_.end()) return Status(NotFound("unknown container"));
  rpc::Encoder enc;
  // hi = container id (namespacing), lo = per-container sequence.
  enc.U64(cont_id).U64(it->second.next_oid++);
  return enc.Take();
}

Result<Buffer> DaosEngine::ListDkeyPage(ByteView header) {
  rpc::Decoder dec(header);
  ROS2_ASSIGN_OR_RETURN(ContainerId cont_id, dec.U64());
  ObjectId oid;
  ROS2_ASSIGN_OR_RETURN(oid.hi, dec.U64());
  ROS2_ASSIGN_OR_RETURN(oid.lo, dec.U64());
  ROS2_ASSIGN_OR_RETURN(std::string marker, dec.Str());
  ROS2_ASSIGN_OR_RETURN(std::uint32_t limit, dec.U32());
  ROS2_ASSIGN_OR_RETURN(std::string akey, dec.Str());
  const bool entries = !akey.empty();  // else names only
  ROS2_RETURN_IF_ERROR(FindContainer(cont_id).status());
  // Paged enumeration (limit 0 = everything): each target lists its first
  // `limit` dkeys past the marker, in order, so the page is the first
  // `limit` entries of their merge and a million-entry directory ships
  // one page per round trip, not the whole namespace.
  std::vector<rpc::Encoder> runs(targets_.size());
  std::vector<RunCursor> heads;
  std::uint64_t total = 0;
  bool more = false;
  for (std::size_t t = 0; t < targets_.size(); ++t) {
    ROS2_ASSIGN_OR_RETURN(
        Vos::DkeyRun run,
        targets_[t].vos->EnumerateDkeys(oid, marker, limit,
                                        entries ? &akey : nullptr, runs[t]));
    ROS2_RETURN_IF_ERROR(runs[t].status());
    more = more || run.more;
    if (run.count == 0) continue;
    total += run.count;
    heads.push_back({rpc::Decoder(runs[t].buffer()), run.count, {}, {}});
    ROS2_RETURN_IF_ERROR(heads.back().Next(entries));
  }
  const std::uint32_t count = limit != 0 && total > limit
                                  ? limit
                                  : std::uint32_t(total);
  more = more || total > count;
  // K-way merge through a min-heap of run heads. A dkey lives on exactly
  // one target of an engine, so the runs never tie.
  auto after = [](const RunCursor& a, const RunCursor& b) {
    return a.dkey > b.dkey;
  };
  std::make_heap(heads.begin(), heads.end(), after);
  rpc::Encoder enc;
  enc.U32(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::pop_heap(heads.begin(), heads.end(), after);
    RunCursor& head = heads.back();
    enc.Str(head.dkey);
    if (entries) enc.Bytes(head.value);
    if (--head.left == 0) {
      heads.pop_back();
    } else {
      ROS2_RETURN_IF_ERROR(head.Next(entries));
      std::push_heap(heads.begin(), heads.end(), after);
    }
  }
  enc.U8(more ? 1 : 0);
  ROS2_RETURN_IF_ERROR(enc.status());
  return enc.Take();
}

Result<Buffer> DaosEngine::HandleObjScan(ByteView) {
  // Within one engine a dkey lives on exactly one target, so the
  // concatenation is already duplicate-free.
  rpc::Encoder enc;
  std::uint32_t count = 0;
  rpc::Encoder entries;
  for (auto& target : targets_) {
    for (const ObjectId& oid : target.vos->ListObjects()) {
      for (const std::string& dkey : target.vos->ListDkeys(oid)) {
        entries.U64(oid.hi).U64(oid.lo).Str(dkey);
        ++count;
      }
    }
  }
  enc.U32(count).Bytes(entries.buffer());
  return enc.Take();
}

Result<Buffer> DaosEngine::HandleTelemetryQuery(ByteView header) {
  rpc::Decoder dec(header);
  ROS2_ASSIGN_OR_RETURN(std::uint8_t flags, dec.U8());
  ROS2_ASSIGN_OR_RETURN(std::string prefix, dec.Str());
  if (queries_ != nullptr) queries_->Add(1);
  if (last_query_at_ != nullptr) last_query_at_->Stamp();
  // With telemetry disabled the tree is empty: the reply is a valid,
  // empty snapshot rather than an error (readers can tell the modes
  // apart by the absence of engine/started_at).
  telemetry::TelemetrySnapshot snap = telemetry_.Snapshot(prefix);
  if ((flags & kTelemetryQueryTraces) != 0) snap.traces = traces_.Snapshot();
  rpc::Encoder enc;
  snap.EncodeTo(enc);
  return enc.Take();
}

// ------------------------------------------------- xstream execution

Result<Buffer> DaosEngine::ExecObjUpdate(Container& cont, const ObjAddr& addr,
                                         rpc::Decoder& tail,
                                         std::uint32_t target,
                                         rpc::RpcContext& ctx) {
  ROS2_ASSIGN_OR_RETURN(std::uint64_t offset, tail.U64());
  rpc::BulkIo& bulk = ctx.bulk();
  if (bulk.in_size() == 0) {
    return Status(InvalidArgument("update requires a bulk payload"));
  }
  // VOS stores the payload where the transport holds it: a TCP request
  // frame, or the staging buffer an RDMA pull lands in.
  Epoch epoch = 0;
  ROS2_RETURN_IF_ERROR(bulk.PullInPlace([&](ByteView data) {
    epoch = cont.next_epoch++;
    return targets_[target].vos->UpdateArray(addr.oid, addr.dkey, addr.akey,
                                             epoch, offset, data);
  }));
  updates_.Add(1, target);
  rpc::Encoder enc;
  enc.U64(epoch);
  return enc.Take();
}

Result<Buffer> DaosEngine::ExecObjFetch(Container&, const ObjAddr& addr,
                                        rpc::Decoder& tail,
                                        std::uint32_t target,
                                        rpc::RpcContext& ctx) {
  ROS2_ASSIGN_OR_RETURN(std::uint64_t offset, tail.U64());
  ROS2_ASSIGN_OR_RETURN(std::uint64_t length, tail.U64());
  ROS2_ASSIGN_OR_RETURN(Epoch epoch, tail.U64());
  rpc::BulkIo& bulk = ctx.bulk();
  if (length != bulk.out_capacity()) {
    return Status(InvalidArgument("fetch length != client bulk window"));
  }
  // Fetched straight into what the reply carries: a TCP reply's inline
  // segment, or the staging buffer an RDMA push writes from. A FetchArray
  // that succeeds writes every byte, zeros for holes; one that fails
  // pushes nothing.
  ROS2_RETURN_IF_ERROR(
      bulk.PushInPlace(length, [&](std::span<std::byte> data) {
        return targets_[target].vos->FetchArray(addr.oid, addr.dkey,
                                                addr.akey, epoch, offset,
                                                data);
      }));
  fetches_.Add(1, target);
  return Buffer{};
}

Result<Buffer> DaosEngine::ExecSingleUpdate(Container& cont,
                                            const ObjAddr& addr,
                                            rpc::Decoder& tail,
                                            std::uint32_t target,
                                            rpc::RpcContext&) {
  ROS2_ASSIGN_OR_RETURN(Buffer value, tail.Bytes());
  const Epoch epoch = cont.next_epoch++;
  ROS2_RETURN_IF_ERROR(targets_[target].vos->UpdateSingle(
      addr.oid, addr.dkey, addr.akey, epoch, value));
  updates_.Add(1, target);
  rpc::Encoder enc;
  enc.U64(epoch);
  return enc.Take();
}

Result<Buffer> DaosEngine::ExecSingleFetch(Container&, const ObjAddr& addr,
                                           rpc::Decoder& tail,
                                           std::uint32_t target,
                                           rpc::RpcContext&) {
  ROS2_ASSIGN_OR_RETURN(Epoch epoch, tail.U64());
  ROS2_ASSIGN_OR_RETURN(Buffer value,
                        targets_[target].vos->FetchSingle(
                            addr.oid, addr.dkey, addr.akey, epoch));
  fetches_.Add(1, target);
  rpc::Encoder enc;
  enc.Bytes(value);
  return enc.Take();
}

Result<Buffer> DaosEngine::ExecObjPunch(Container& cont, const ObjAddr& addr,
                                        rpc::Decoder& tail,
                                        std::uint32_t target,
                                        rpc::RpcContext&) {
  ROS2_ASSIGN_OR_RETURN(std::uint8_t scope, tail.U8());
  Vos* vos = targets_[target].vos.get();
  switch (PunchScope(scope)) {
    case PunchScope::kObject: {
      // Runs as a barrier: the object's dkeys may span every target.
      const Epoch epoch = cont.next_epoch++;
      bool found = false;
      for (auto& t : targets_) {
        if (t.vos->ObjectExists(addr.oid)) {
          ROS2_RETURN_IF_ERROR(t.vos->PunchObject(addr.oid, epoch));
          found = true;
        }
      }
      if (!found) return Status(NotFound("no such object"));
      return Buffer{};
    }
    case PunchScope::kDkey:
      ROS2_RETURN_IF_ERROR(
          vos->PunchDkey(addr.oid, addr.dkey, cont.next_epoch++));
      return Buffer{};
    case PunchScope::kAkey:
      ROS2_RETURN_IF_ERROR(vos->PunchAkey(addr.oid, addr.dkey, addr.akey,
                                          cont.next_epoch++));
      return Buffer{};
  }
  return Status(
      InvalidArgument("unknown punch scope " + std::to_string(scope)));
}

Result<Buffer> DaosEngine::ExecListAkeys(Container&, const ObjAddr& addr,
                                         rpc::Decoder&, std::uint32_t target,
                                         rpc::RpcContext&) {
  const auto akeys = targets_[target].vos->ListAkeys(addr.oid, addr.dkey);
  rpc::Encoder enc;
  enc.U32(std::uint32_t(akeys.size()));
  for (const auto& akey : akeys) enc.Str(akey);
  return enc.Take();
}

Result<Buffer> DaosEngine::ExecArraySize(Container&, const ObjAddr& addr,
                                         rpc::Decoder& tail,
                                         std::uint32_t target,
                                         rpc::RpcContext&) {
  ROS2_ASSIGN_OR_RETURN(Epoch epoch, tail.U64());
  ROS2_ASSIGN_OR_RETURN(std::uint64_t size,
                        targets_[target].vos->ArraySize(
                            addr.oid, addr.dkey, addr.akey, epoch));
  rpc::Encoder enc;
  enc.U64(size);
  return enc.Take();
}

Result<Buffer> DaosEngine::ExecAggregate(Container&, const ObjAddr& addr,
                                         rpc::Decoder& tail,
                                         std::uint32_t target,
                                         rpc::RpcContext&) {
  ROS2_ASSIGN_OR_RETURN(Epoch upto, tail.U64());
  ROS2_RETURN_IF_ERROR(targets_[target].vos->AggregateArray(
      addr.oid, addr.dkey, addr.akey, upto));
  return Buffer{};
}

Result<Buffer> DaosEngine::ExecDkeyExport(Container&, const ObjAddr& addr,
                                          rpc::Decoder&, std::uint32_t target,
                                          rpc::RpcContext&) {
  Vos* vos = targets_[target].vos.get();
  std::vector<DkeyImageEntry> entries;
  for (const Vos::AkeyInfo& info : vos->DescribeDkey(addr.oid, addr.dkey)) {
    if (info.type == ValueType::kArray) {
      // The flat HEAD image: holes and punched ranges materialize as
      // zeros, so the import reproduces fetch-visible bytes exactly.
      Buffer flat(info.head_size);
      if (info.head_size > 0) {
        ROS2_RETURN_IF_ERROR(vos->FetchArray(addr.oid, addr.dkey, info.akey,
                                             kEpochHead, 0, flat));
      }
      entries.push_back({info.akey, info.type, std::move(flat)});
    } else {
      auto value = vos->FetchSingle(addr.oid, addr.dkey, info.akey,
                                    kEpochHead);
      if (!value.ok()) {
        // Punched singles have no visible value: omit the akey.
        if (value.status().code() == ErrorCode::kNotFound) continue;
        return value.status();
      }
      entries.push_back({info.akey, info.type, std::move(*value)});
    }
  }
  fetches_.Add(1, target);
  rpc::Encoder enc;
  enc.U32(std::uint32_t(entries.size()));
  for (const DkeyImageEntry& e : entries) {
    enc.Str(e.akey).U8(std::uint8_t(e.type)).Bytes(e.payload);
  }
  return enc.Take();
}

Result<Buffer> DaosEngine::ExecDkeyImport(Container& cont, const ObjAddr& addr,
                                          rpc::Decoder& tail,
                                          std::uint32_t target,
                                          rpc::RpcContext&) {
  ROS2_ASSIGN_OR_RETURN(Buffer image, tail.Bytes());
  // Decode and validate the whole image before touching the dkey: a
  // rejected import leaves the existing version readable.
  rpc::Decoder dec(image);
  ROS2_ASSIGN_OR_RETURN(std::uint32_t count, dec.U32());
  std::vector<DkeyImageEntry> entries;
  for (std::uint32_t i = 0; i < count; ++i) {
    ROS2_ASSIGN_OR_RETURN(std::string akey, dec.Str());
    ROS2_ASSIGN_OR_RETURN(std::uint8_t type, dec.U8());
    ROS2_ASSIGN_OR_RETURN(Buffer payload, dec.Bytes());
    if (ValueType(type) != ValueType::kSingle &&
        ValueType(type) != ValueType::kArray) {
      return Status(
          InvalidArgument("unknown value type " + std::to_string(type)));
    }
    entries.push_back({std::move(akey), ValueType(type), std::move(payload)});
  }
  Vos* vos = targets_[target].vos.get();
  // Replace semantics: clear whatever version the replacement holds (a
  // partial earlier pass, or nothing), then apply the image at fresh
  // epochs — later than any epoch the survivors stamped, keeping per-akey
  // epoch monotonicity.
  Status punched = vos->PunchDkey(addr.oid, addr.dkey, cont.next_epoch++);
  if (!punched.ok() && punched.code() != ErrorCode::kNotFound) {
    return punched;
  }
  std::uint64_t bytes = 0;
  for (const DkeyImageEntry& e : entries) {
    const Epoch epoch = cont.next_epoch++;
    if (e.type == ValueType::kArray) {
      if (e.payload.empty()) continue;  // zero-length array: nothing to write
      ROS2_RETURN_IF_ERROR(vos->UpdateArray(addr.oid, addr.dkey, e.akey,
                                            epoch, /*offset=*/0, e.payload));
    } else {
      ROS2_RETURN_IF_ERROR(
          vos->UpdateSingle(addr.oid, addr.dkey, e.akey, epoch, e.payload));
    }
    bytes += e.payload.size();
  }
  updates_.Add(1, target);
  rpc::Encoder enc;
  enc.U64(bytes);
  return enc.Take();
}

}  // namespace ros2::daos
