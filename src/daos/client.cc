#include "daos/client.h"

#include <algorithm>
#include <array>

#include "daos/placement.h"
#include "rpc/wire.h"

namespace ros2::daos {
namespace {

// ObjCall::write: fan out to every replica, or read one engine.
constexpr bool kWrite = true;
constexpr bool kRead = false;

Result<std::uint64_t> DecodeU64(const Result<rpc::RpcReply>& reply) {
  if (!reply.ok()) return reply.status();
  rpc::Decoder dec(reply->header);
  return dec.U64();
}

Result<Buffer> DecodeBytes(const Result<rpc::RpcReply>& reply) {
  if (!reply.ok()) return reply.status();
  rpc::Decoder dec(reply->header);
  return dec.Bytes();
}

Status CheckFetched(const Result<rpc::RpcReply>& reply, std::size_t want) {
  if (!reply.ok()) return reply.status();
  if (reply->bulk_received != want) return DataLoss("short DAOS fetch");
  return Status::Ok();
}

Result<std::vector<std::string>> DecodeStringList(const Buffer& raw) {
  rpc::Decoder dec(raw);
  ROS2_ASSIGN_OR_RETURN(std::uint32_t count, dec.U32());
  std::vector<std::string> out;
  out.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    ROS2_ASSIGN_OR_RETURN(std::string s, dec.Str());
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace

// ------------------------------------------------------------- connect

Result<std::unique_ptr<DaosClient>> DaosClient::Connect(
    net::Fabric* fabric, std::span<DaosEngine* const> engines,
    PoolMap* pool_map, bool progress_pump, const ConnectOptions& options) {
  if (options.replicas == 0 || options.replicas > engines.size()) {
    return Status(InvalidArgument("replicas must be in [1, engines]"));
  }
  if (pool_map == nullptr || pool_map->engine_count() != engines.size()) {
    return Status(InvalidArgument(
        "client needs the pool map, one entry per engine"));
  }
  ROS2_ASSIGN_OR_RETURN(net::Endpoint * client_ep,
                        fabric->CreateEndpoint(options.client_address));
  const net::PdId pd = client_ep->AllocPd(options.tenant);

  auto client = std::unique_ptr<DaosClient>(new DaosClient());
  client->transport_ = options.transport;
  client->replicas_ = options.replicas;
  client->map_ = pool_map;

  for (DaosEngine* engine : engines) {
    ROS2_ASSIGN_OR_RETURN(
        net::Qp * qp, client_ep->Connect(engine->endpoint(),
                                         options.transport, pd,
                                         engine->pd()));
    EngineConn conn;
    // The pump is the engine's full progress tick (poll-set drain +
    // xstream run queues), not a per-QP poke: one pump services every
    // client of the engine and completes deferred requests — the fairness
    // property multi-QP tests pin. Pumpless clients rely on the engines'
    // own progress threads instead — the poll-set drain is single-
    // consumer, so concurrent clients must not pump it themselves.
    conn.rpc = std::make_unique<rpc::RpcClient>(
        qp, client_ep,
        progress_pump
            ? std::function<void()>([engine] { (void)engine->ProgressAll(); })
            : std::function<void()>());
    if (!progress_pump) conn.rpc->set_stall_timeout_ms(10000.0);
    client->engines_.push_back(std::move(conn));
  }

  // Authenticate against every engine's pool service before handing the
  // client out, DOWN ones included (the map only routes around them);
  // target counts must agree (one homogeneous pool).
  for (std::uint32_t e = 0; e < client->engines_.size(); ++e) {
    rpc::Encoder enc;
    enc.Str(options.pool_label).Str(options.access_token);
    ROS2_ASSIGN_OR_RETURN(
        rpc::RpcReply reply,
        client->engines_[e].rpc->Call(
            std::uint32_t(DaosOpcode::kPoolConnect), enc));
    rpc::Decoder dec(reply.header);
    ROS2_RETURN_IF_ERROR(dec.U64().status());  // pool id
    ROS2_ASSIGN_OR_RETURN(std::uint32_t targets, dec.U32());
    if (e == 0) {
      client->pool_targets_ = targets;
    } else if (targets != client->pool_targets_) {
      return Status(FailedPrecondition(
          "engines disagree on target count; not one pool"));
    }
  }
  return client;
}

Status DaosClient::SetEngineDown(std::uint32_t engine_index, bool down) {
  if (engine_index >= engines_.size()) {
    return InvalidArgument("no such engine");
  }
  return map_->SetState(engine_index,
                        down ? EngineState::kDown : EngineState::kUp);
}

// -------------------------------------------------------------- routing

std::uint32_t DaosClient::PrimaryEngine(const ObjectId& oid,
                                        std::string_view dkey) const {
  // Level 1 of placement: dkeys spread over engines (level 2, inside the
  // engine, spreads over its targets).
  return PlaceEngine(oid, dkey, std::uint32_t(engines_.size()));
}

Result<std::uint32_t> DaosClient::ReadEngine(std::uint32_t primary,
                                             Epoch epoch) const {
  // Snapshot reads pin to the primary (epochs are per-engine, so another
  // replica's stamp means something else); HEAD reads fail over along the
  // replica ring.
  const std::uint32_t candidates = epoch == kEpochHead ? replicas_ : 1;
  for (std::uint32_t r = 0; r < candidates; ++r) {
    const std::uint32_t e = ReplicaEngine(primary, r);
    if (map_->readable(e)) return e;
  }
  return Status(Unavailable(
      "no UP engine among " + std::to_string(candidates) +
      " read candidate(s) from engine " + std::to_string(primary) +
      " (it is " + EngineStateName(map_->state(primary)) + ", pool map v" +
      std::to_string(map_->version()) + ")"));
}

void DaosClient::JournalMiss(std::uint32_t engine, const ObjCall& call) {
  map_->journal().Record(
      engine, ResyncEntry{call.cont, call.oid, std::string(call.dkey)});
}

Result<rpc::RpcReply> DaosClient::Call(std::uint32_t engine,
                                       std::uint32_t opcode,
                                       const rpc::Encoder& header) {
  if (map_->state(engine) == EngineState::kDown) {
    return Status(Unavailable("engine " + std::to_string(engine) +
                              " is down"));
  }
  return engines_[engine].rpc->Call(opcode, header);
}

Result<rpc::RpcReply> DaosClient::CallAll(std::uint32_t opcode,
                                          const rpc::Encoder& header) {
  Result<rpc::RpcReply> first = Status(Internal("no engines"));
  for (std::uint32_t e = 0; e < engines_.size(); ++e) {
    auto reply = Call(e, opcode, header);
    if (!reply.ok()) return reply;
    if (e == 0) {
      first = std::move(reply);
    } else if (reply->header != first->header) {
      return Status(Internal("engines returned divergent metadata"));
    }
  }
  return first;
}

Result<telemetry::TelemetrySnapshot> DaosClient::TelemetryQuery(
    std::uint32_t engine_index, const std::string& prefix, bool traces) {
  if (engine_index >= engines_.size()) {
    return Status(InvalidArgument("no such engine"));
  }
  rpc::Encoder enc;
  enc.U8(traces ? kTelemetryQueryTraces : 0).Str(prefix);
  ROS2_ASSIGN_OR_RETURN(
      rpc::RpcReply reply,
      Call(engine_index, std::uint32_t(DaosOpcode::kTelemetryQuery), enc));
  rpc::Decoder dec(reply.header);
  return telemetry::TelemetrySnapshot::DecodeFrom(dec);
}

// ------------------------------------------------- rebuild data movers

Result<std::vector<ResyncEntry>> DaosClient::ScanEngine(
    std::uint32_t engine) {
  rpc::Encoder enc;  // kObjScan takes no header fields
  ROS2_ASSIGN_OR_RETURN(
      rpc::RpcReply reply,
      Call(engine, std::uint32_t(DaosOpcode::kObjScan), enc));
  rpc::Decoder dec(reply.header);
  ROS2_ASSIGN_OR_RETURN(std::uint32_t count, dec.U32());
  ROS2_ASSIGN_OR_RETURN(Buffer raw, dec.Bytes());
  rpc::Decoder edec(raw);
  std::vector<ResyncEntry> entries;
  for (std::uint32_t i = 0; i < count; ++i) {
    ResyncEntry& entry = entries.emplace_back();
    ROS2_ASSIGN_OR_RETURN(entry.oid.hi, edec.U64());
    ROS2_ASSIGN_OR_RETURN(entry.oid.lo, edec.U64());
    ROS2_ASSIGN_OR_RETURN(entry.dkey, edec.Str());
    entry.cont = entry.oid.hi;  // the kOidAlloc convention
  }
  return entries;
}

// Export and import address a whole dkey: the ObjAddr prefix with an
// empty akey, sent to the one engine named rather than routed.
Result<Buffer> DaosClient::ExportDkey(std::uint32_t engine,
                                      const ResyncEntry& entry) {
  ObjCall call(DaosOpcode::kDkeyExport, kRead, entry.cont, entry.oid,
               entry.dkey, "");
  ROS2_ASSIGN_OR_RETURN(rpc::RpcReply reply,
                        Call(engine, call.opcode, call.header));
  return std::move(reply.header);
}

Result<std::uint64_t> DaosClient::ImportDkey(
    std::uint32_t engine, const ResyncEntry& entry,
    std::span<const std::byte> image) {
  ObjCall call(DaosOpcode::kDkeyImport, kWrite, entry.cont, entry.oid,
               entry.dkey, "");
  call.header.Bytes(image);
  return DecodeU64(Call(engine, call.opcode, call.header));
}

// ---------------------------------------------------- issue/await core

DaosClient::ObjCall::ObjCall(DaosOpcode opcode, bool write, ContainerId cont,
                             const ObjectId& oid, std::string_view dkey,
                             std::string_view akey, Epoch epoch)
    : opcode(std::uint32_t(opcode)),
      write(write),
      cont(cont),
      oid(oid),
      dkey(dkey),
      epoch(epoch) {
  header.U64(cont).U64(oid.hi).U64(oid.lo).Str(dkey).Str(akey);
}

struct DaosClient::Copy {
  std::uint32_t engine = 0;
  rpc::RpcClient::CallId id = 0;
  bool issued = false;
  bool rebuilding = false;  // journal once landed (see pool_map.h)
};

Status DaosClient::Run(std::span<ObjCall> calls) {
  // One copy slot per replica of every call (a read uses the first). A
  // unary call fits the stack array, so the core allocates nothing for it.
  std::array<Copy, 8> stack_copies{};
  std::vector<Copy> heap_copies;
  std::span<Copy> copies(stack_copies);
  if (calls.size() * replicas_ > stack_copies.size()) {
    heap_copies.resize(calls.size() * replicas_);
    copies = heap_copies;
  }
  // Issue phase: nothing is awaited yet. The RPC layer's in-flight window
  // applies backpressure by pumping progress, so arbitrarily large batches
  // stream through a bounded window.
  Status stopped = Status::Ok();
  std::size_t issued = 0;
  while (issued < calls.size() && stopped.ok()) {
    stopped = Issue(calls[issued],
                    copies.subspan(issued * replicas_, replicas_));
    // Every copy has its own request frame now: drop the header so the
    // await phase holds no request bytes (single values ride inline).
    (void)calls[issued].header.Take();
    ++issued;
  }
  // Await phase: drain everything that was issued, even past a failure —
  // an error must not strand calls in the pipeline.
  for (std::size_t i = 0; i < issued; ++i) {
    Complete(calls[i], copies.subspan(i * replicas_, replicas_));
  }
  for (std::size_t i = issued; i < calls.size(); ++i) {
    calls[i].outcome =
        Status(Unavailable("not issued: an earlier op failed to issue"));
  }
  return stopped;
}

Result<rpc::RpcReply> DaosClient::RunOne(ObjCall& call) {
  (void)Run(std::span<ObjCall>(&call, 1));
  return std::move(call.outcome);
}

Status DaosClient::Issue(ObjCall& call, std::span<Copy> copies) {
  // A read goes to the one engine ReadEngine picks; a write goes to every
  // replica on the ring from the primary.
  std::uint32_t first = PrimaryEngine(call.oid, call.dkey);
  std::uint32_t targets = replicas_;
  if (!call.write) {
    Result<std::uint32_t> engine = ReadEngine(first, call.epoch);
    if (!engine.ok()) {
      call.outcome = engine.status();
      return engine.status();
    }
    first = *engine;
    targets = 1;
  }
  for (std::uint32_t r = 0; r < targets; ++r) {
    const std::uint32_t e = ReplicaEngine(first, r);
    const EngineState st = map_->state(e);
    if (call.write && st == EngineState::kDown) {
      JournalMiss(e, call);
      continue;
    }
    auto id = engines_[e].rpc->CallAsync(call.opcode, call.header,
                                         call.options);
    if (id.ok()) {
      const bool rebuilding = call.write && st == EngineState::kRebuilding;
      copies[r] = {e, *id, true, rebuilding};
    } else if (call.write && id.status().code() == ErrorCode::kUnavailable) {
      JournalMiss(e, call);  // the send raced the down-transition
    } else {
      // A hard issue error (window stall, encode overflow) is not a health
      // event: stop issuing; Complete drains what already went out.
      call.outcome = id.status();
      return id.status();
    }
  }
  return Status::Ok();
}

void DaosClient::Complete(ObjCall& call, std::span<Copy> copies) {
  Status hard = call.outcome.status();  // an issue error, if any
  std::uint32_t landed = 0;
  for (const Copy& copy : copies) {
    if (!copy.issued) continue;
    auto reply = engines_[copy.engine].rpc->Await(copy.id);
    if (reply.ok()) {
      // A copy that landed on a REBUILDING engine may still be overwritten
      // by an in-flight rebuild pass importing older survivor state at a
      // higher epoch: journal it so the rebuild's journal-drain loop
      // re-silvers survivor HEAD (which includes this completed write).
      if (copy.rebuilding) JournalMiss(copy.engine, call);
      if (++landed == 1) call.outcome = std::move(reply);
    } else if (call.write &&
               reply.status().code() == ErrorCode::kUnavailable) {
      JournalMiss(copy.engine, call);
    } else if (hard.ok()) {
      hard = reply.status();
    }
  }
  if (hard.ok() && landed > 0) return;
  if (!call.write) {
    call.outcome = std::move(hard);
    return;
  }
  const std::string copies_landed = std::to_string(landed) + "/" +
                                    std::to_string(replicas_) +
                                    " replica copies landed";
  if (!hard.ok()) {
    call.outcome = Status(hard.code(), hard.message() +
                                           " (replica copy failed; " +
                                           copies_landed + ")");
  } else {
    call.outcome = Status(Unavailable(
        "no writable replica: " + copies_landed + " (pool map v" +
        std::to_string(map_->version()) + ")"));
  }
}

// ------------------------------------------------------------ containers

Result<ContainerId> DaosClient::ContainerCreate(const std::string& label) {
  rpc::Encoder enc;
  enc.Str(label);
  ROS2_ASSIGN_OR_RETURN(
      rpc::RpcReply reply,
      CallAll(std::uint32_t(DaosOpcode::kContCreate), enc));
  rpc::Decoder dec(reply.header);
  return dec.U64();
}

Result<ContainerId> DaosClient::ContainerOpen(const std::string& label) {
  rpc::Encoder enc;
  enc.Str(label);
  ROS2_ASSIGN_OR_RETURN(
      rpc::RpcReply reply,
      CallAll(std::uint32_t(DaosOpcode::kContOpen), enc));
  rpc::Decoder dec(reply.header);
  return dec.U64();
}

Result<ObjectId> DaosClient::AllocOid(ContainerId cont) {
  // Oids are allocated by engine 0 (the "pool service" in this model);
  // the id only namespaces keys, so other engines never need the counter.
  rpc::Encoder enc;
  enc.U64(cont);
  ROS2_ASSIGN_OR_RETURN(
      rpc::RpcReply reply,
      Call(0, std::uint32_t(DaosOpcode::kOidAlloc), enc));
  rpc::Decoder dec(reply.header);
  ObjectId oid;
  ROS2_ASSIGN_OR_RETURN(oid.hi, dec.U64());
  ROS2_ASSIGN_OR_RETURN(oid.lo, dec.U64());
  return oid;
}

// --------------------------------------------------------------- arrays

Result<Epoch> DaosClient::Update(ContainerId cont, const ObjectId& oid,
                                 const std::string& dkey,
                                 const std::string& akey,
                                 std::uint64_t offset,
                                 std::span<const std::byte> data) {
  ObjCall call(DaosOpcode::kObjUpdate, kWrite, cont, oid, dkey, akey);
  call.header.U64(offset);
  call.options.send_bulk = data;
  return DecodeU64(RunOne(call));
}

Status DaosClient::Fetch(ContainerId cont, const ObjectId& oid,
                         const std::string& dkey, const std::string& akey,
                         std::uint64_t offset, std::span<std::byte> out,
                         Epoch epoch) {
  ObjCall call(DaosOpcode::kObjFetch, kRead, cont, oid, dkey, akey, epoch);
  call.header.U64(offset).U64(out.size()).U64(epoch);
  call.options.recv_bulk = out;
  return CheckFetched(RunOne(call), out.size());
}

// -------------------------------------------------------------- batches

Result<std::vector<Epoch>> DaosClient::UpdateBatch(
    std::span<const UpdateOp> ops) {
  std::vector<ObjCall> calls;
  calls.reserve(ops.size());
  for (const UpdateOp& op : ops) {
    ObjCall& call = calls.emplace_back(DaosOpcode::kObjUpdate, kWrite,
                                       op.cont, op.oid, op.dkey, op.akey);
    call.header.U64(op.offset);
    call.options.send_bulk = op.data;
  }
  (void)Run(calls);
  std::vector<Epoch> epochs;
  epochs.reserve(ops.size());
  for (const ObjCall& call : calls) {
    ROS2_ASSIGN_OR_RETURN(Epoch epoch, DecodeU64(call.outcome));
    epochs.push_back(epoch);
  }
  return epochs;
}

Status DaosClient::FetchBatch(std::span<const FetchOp> ops) {
  std::vector<ObjCall> calls;
  calls.reserve(ops.size());
  for (const FetchOp& op : ops) {
    ObjCall& call = calls.emplace_back(DaosOpcode::kObjFetch, kRead, op.cont,
                                       op.oid, op.dkey, op.akey, op.epoch);
    call.header.U64(op.offset).U64(op.out.size()).U64(op.epoch);
    call.options.recv_bulk = op.out;
  }
  (void)Run(calls);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    ROS2_RETURN_IF_ERROR(CheckFetched(calls[i].outcome, ops[i].out.size()));
  }
  return Status::Ok();
}

// -------------------------------------------------------------- singles

Result<Epoch> DaosClient::UpdateSingle(ContainerId cont, const ObjectId& oid,
                                       const std::string& dkey,
                                       const std::string& akey,
                                       std::span<const std::byte> value) {
  ObjCall call(DaosOpcode::kSingleUpdate, kWrite, cont, oid, dkey, akey);
  call.header.Bytes(value);
  return DecodeU64(RunOne(call));
}

Result<Buffer> DaosClient::FetchSingle(ContainerId cont, const ObjectId& oid,
                                       const std::string& dkey,
                                       const std::string& akey, Epoch epoch) {
  ObjCall call(DaosOpcode::kSingleFetch, kRead, cont, oid, dkey, akey, epoch);
  call.header.U64(epoch);
  return DecodeBytes(RunOne(call));
}

// ---------------------------------------------------------------- punch

Status DaosClient::Punch(ContainerId cont, const ObjectId& oid,
                         const std::string& dkey, const std::string& akey,
                         PunchScope scope) {
  ObjCall call(DaosOpcode::kObjPunch, kWrite, cont, oid, dkey, akey);
  call.header.U8(std::uint8_t(scope));
  if (scope != PunchScope::kObject) return RunOne(call).status();
  // The object's dkeys (and replicas) may live on every engine.
  bool any = false;
  for (std::uint32_t e = 0; e < engines_.size(); ++e) {
    auto reply = Call(e, call.opcode, call.header);
    if (reply.ok()) {
      any = true;
    } else if (reply.status().code() == ErrorCode::kUnavailable) {
      return reply.status();  // down engine: fail loudly, not silently
    } else if (reply.status().code() != ErrorCode::kNotFound) {
      return reply.status();
    }
  }
  return any ? Status::Ok() : NotFound("no such object");
}

Status DaosClient::PunchObject(ContainerId cont, const ObjectId& oid) {
  return Punch(cont, oid, "", "", PunchScope::kObject);
}
Status DaosClient::PunchDkey(ContainerId cont, const ObjectId& oid,
                             const std::string& dkey) {
  return Punch(cont, oid, dkey, "", PunchScope::kDkey);
}
Status DaosClient::PunchAkey(ContainerId cont, const ObjectId& oid,
                             const std::string& dkey,
                             const std::string& akey) {
  return Punch(cont, oid, dkey, akey, PunchScope::kAkey);
}

// ---------------------------------------------------------- enumeration

Status DaosClient::CheckListable() const {
  // A dkey placed on engine p lives on p's replica ring, so the UP engines
  // hold every dkey only if each ring has a readable member. Otherwise the
  // listing would be silently partial (and DFS would unlink a non-empty
  // directory as empty).
  for (std::uint32_t p = 0; p < engines_.size(); ++p) {
    ROS2_RETURN_IF_ERROR(ReadEngine(p, kEpochHead).status());
  }
  return Status::Ok();
}

Result<DaosClient::EntryPage> DaosClient::ListEntriesPage(
    ContainerId cont, const ObjectId& oid, const std::string& akey,
    const std::string& marker, std::uint32_t limit) {
  ROS2_RETURN_IF_ERROR(CheckListable());
  rpc::Encoder enc;
  enc.U64(cont).U64(oid.hi).U64(oid.lo).Str(marker).U32(limit).Str(akey);
  // Every readable engine's page, decoded in place: views into `replies`.
  struct Listed {
    std::string_view dkey;
    std::span<const std::byte> value;
  };
  struct EnginePage {
    std::uint32_t engine = 0;
    std::vector<Listed> listed;
    std::size_t pos = 0;  ///< merge cursor
  };
  std::vector<rpc::RpcReply> replies;
  replies.reserve(engines_.size());
  std::vector<EnginePage> pages;
  bool more = false;
  for (std::uint32_t e = 0; e < engines_.size(); ++e) {
    if (!map_->readable(e)) continue;
    ROS2_ASSIGN_OR_RETURN(
        rpc::RpcReply reply,
        Call(e, std::uint32_t(DaosOpcode::kListEntries), enc));
    const Buffer& header = replies.emplace_back(std::move(reply)).header;
    rpc::Decoder dec(header);
    ROS2_ASSIGN_OR_RETURN(std::uint32_t count, dec.U32());
    pages.emplace_back().engine = e;
    std::vector<Listed>& listed = pages.back().listed;
    // Each entry takes at least its dkey's length prefix.
    listed.reserve(std::min<std::size_t>(count, dec.remaining() / 4));
    for (std::uint32_t i = 0; i < count; ++i) {
      Listed& entry = listed.emplace_back();
      ROS2_ASSIGN_OR_RETURN(entry.dkey, dec.StrView());
      if (!akey.empty()) {
        ROS2_ASSIGN_OR_RETURN(entry.value, dec.BytesView());
      }
    }
    ROS2_ASSIGN_OR_RETURN(std::uint8_t engine_more, dec.U8());
    more = more || engine_more != 0;
  }
  // Merge the engines' sorted pages. Replicas list the same dkey, so each
  // name counts once toward `limit`, and the page is cut at `limit` names
  // BEFORE any is dropped: a dkey the read engine did not list (punched
  // there, live on a stale replica) is dropped after the cut, and the
  // resume marker stays the cut's last name, so a page whose names were
  // all dropped still moves the walk forward.
  EntryPage page;
  std::uint32_t covered = 0;
  std::string_view last;  // the cut's last name so far
  for (;;) {
    std::string_view next;
    bool found = false;
    for (const EnginePage& p : pages) {
      if (p.pos < p.listed.size() && (!found || p.listed[p.pos].dkey < next)) {
        next = p.listed[p.pos].dkey;
        found = true;
      }
    }
    if (!found) break;
    if (limit != 0 && covered == limit) {
      more = true;  // names past the cut remain
      break;
    }
    ++covered;
    last = next;
    ROS2_ASSIGN_OR_RETURN(std::uint32_t reader,
                          ReadEngine(PrimaryEngine(oid, next), kEpochHead));
    for (EnginePage& p : pages) {
      if (p.pos == p.listed.size() || p.listed[p.pos].dkey != next) continue;
      const Listed& head = p.listed[p.pos++];
      if (p.engine == reader) {
        page.entries.push_back(
            {std::string(head.dkey),
             Buffer(head.value.begin(), head.value.end())});
      }
    }
  }
  page.more = more;
  if (more) page.next_marker = last;
  return page;
}

Result<std::vector<std::string>> DaosClient::ListAkeys(
    ContainerId cont, const ObjectId& oid, const std::string& dkey) {
  ObjCall call(DaosOpcode::kListAkeys, kRead, cont, oid, dkey, "");
  ROS2_ASSIGN_OR_RETURN(rpc::RpcReply reply, RunOne(call));
  return DecodeStringList(reply.header);
}

Result<std::uint64_t> DaosClient::ArraySize(ContainerId cont,
                                            const ObjectId& oid,
                                            const std::string& dkey,
                                            const std::string& akey,
                                            Epoch epoch) {
  ObjCall call(DaosOpcode::kArraySize, kRead, cont, oid, dkey, akey, epoch);
  call.header.U64(epoch);
  return DecodeU64(RunOne(call));
}

Status DaosClient::Aggregate(ContainerId cont, const ObjectId& oid,
                             const std::string& dkey, const std::string& akey,
                             Epoch upto) {
  ObjCall call(DaosOpcode::kAggregate, kWrite, cont, oid, dkey, akey);
  call.header.U64(upto);
  return RunOne(call).status();
}

}  // namespace ros2::daos
