// libdaos-equivalent client: pool/container handles and object I/O over
// the data-plane RPC layer (§3.2 "the DFS client translates POSIX calls to
// DAOS RPCs and bulk transfers").
//
// The client is transport-agnostic: over RDMA its buffers are registered
// and the engine moves payloads with one-sided verbs; over TCP payloads
// ride inline. Nothing above this class (DFS, ROS2 core) knows which.
//
// Scale-out (the paper's §5 "broaden device counts" follow-up): the client
// can connect to SEVERAL engines forming one pool. Dkeys place onto an
// engine first (then onto a target inside it), and updates optionally
// replicate onto the next `replicas-1` engines. Engine health comes from
// the versioned PoolMap (shareable with the control plane and the rebuild
// task). This is the one engine-client stack: the RebuildManager drives
// its scan/export/import calls through a DaosClient of its own.
//
// Every object op — unary or batched — runs through ONE issue/await core
// (Run): a span of ops goes out in full before any reply is awaited, and
// each op gets its own outcome. The unary calls are batch-of-one wrappers
// and the batch calls adapt the per-op outcomes, so the routing and
// degraded-replica rules below are written once:
//   - reads: a snapshot read (epoch != kEpochHead) pins to the primary,
//     which must be UP (epoch stamps are per-engine — a documented
//     simplification); a HEAD read fails over to the first UP replica.
//   - writes go to every replica concurrently. A copy whose replica is
//     DOWN, whose send fails UNAVAILABLE, or whose reply is UNAVAILABLE is
//     recorded in the map's resync journal instead of failing the op (the
//     per-send outcome is authoritative; there is no pre-send check to
//     race), and a copy that lands on a REBUILDING engine is journaled
//     after completion. A write fails only when no copy lands ("0/N
//     replica copies landed") or a copy returns a non-UNAVAILABLE error
//     (the Status then reports how many copies landed).
// Keeping a whole batch in flight lets one engine progress tick service
// the window, which is where the paper's "heavy traffic" throughput comes
// from (bench_micro_pipeline gates the win).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "daos/engine.h"
#include "daos/pool_map.h"
#include "daos/types.h"
#include "net/fabric.h"
#include "rpc/data_rpc.h"

namespace ros2::daos {

class DaosClient {
 public:
  struct ConnectOptions {
    std::string client_address = "fabric://daos-client";
    net::Transport transport = net::Transport::kRdma;
    std::string pool_label = "pool0";
    std::string access_token;
    net::TenantId tenant = net::kSystemTenant;
    /// Copies of every update, placed on consecutive engines (1 = none).
    std::uint32_t replicas = 1;
  };

  /// Dials every engine of one pool (§5 follow-up: the pool may span
  /// several), performs PoolConnect (auth) on each whatever its map state
  /// (map state is routing policy, not reachability, so a client can join
  /// a degraded pool), returns a live client.
  /// All engines must share `pool_label` and credentials. `pool_map` is
  /// the pool's shared map (control plane, rebuild task and other clients
  /// see the same engine states and resync journal); it must outlive the
  /// client and have engine_count == engines. `progress_pump` false: the
  /// RPC connections get no progress hook and every engine must run its
  /// own progress thread (the engine poll set is single-consumer, so
  /// concurrent pumps would race). daos::Cluster::Connect fills in
  /// everything but `options`.
  static Result<std::unique_ptr<DaosClient>> Connect(
      net::Fabric* fabric, std::span<DaosEngine* const> engines,
      PoolMap* pool_map, bool progress_pump, const ConnectOptions& options);

  /// Failure injection shorthand over the pool map: down=true marks the
  /// engine DOWN (reads fail over, writes degrade + journal), down=false
  /// marks it UP again. Richer transitions (REBUILDING) go through
  /// pool_map()->SetState.
  Status SetEngineDown(std::uint32_t engine_index, bool down);
  std::uint32_t engine_count() const {
    return std::uint32_t(engines_.size());
  }
  /// The engine-health authority this client routes by.
  PoolMap* pool_map() { return map_; }
  const PoolMap* pool_map() const { return map_; }

  // --- containers --------------------------------------------------------
  Result<ContainerId> ContainerCreate(const std::string& label);
  Result<ContainerId> ContainerOpen(const std::string& label);

  // --- objects -----------------------------------------------------------
  // Every call below that names a dkey is a write (replica fan-out with the
  // degraded rules in the file comment) or a read (snapshot pins to the
  // primary, HEAD fails over) through the one issue/await core; the unary
  // forms are batches of one.
  Result<ObjectId> AllocOid(ContainerId cont);

  /// Array write; returns the stamped epoch (the primary's copy when it is
  /// up, else the first replica copy that landed).
  Result<Epoch> Update(ContainerId cont, const ObjectId& oid,
                       const std::string& dkey, const std::string& akey,
                       std::uint64_t offset,
                       std::span<const std::byte> data);

  /// Array read at `epoch` (kEpochHead = latest); holes read as zeros.
  Status Fetch(ContainerId cont, const ObjectId& oid, const std::string& dkey,
               const std::string& akey, std::uint64_t offset,
               std::span<std::byte> out, Epoch epoch = kEpochHead);

  // --- pipelined batches --------------------------------------------------
  // One batch issues every op (and every replica copy) before awaiting any
  // reply, so a single engine progress tick drains the whole window. Each
  // op follows exactly the rules of its unary form; the first op that
  // cannot be issued stops the issue phase, and everything issued is still
  // drained. The caller's data/out buffers must stay alive until the batch
  // call returns. Ops on the same dkey keep their in-batch order
  // (per-target FIFO); ops on different dkeys may execute interleaved.

  struct UpdateOp {
    ContainerId cont = 0;
    ObjectId oid;
    std::string dkey;
    std::string akey;
    std::uint64_t offset = 0;
    std::span<const std::byte> data;
  };
  struct FetchOp {
    ContainerId cont = 0;
    ObjectId oid;
    std::string dkey;
    std::string akey;
    std::uint64_t offset = 0;
    std::span<std::byte> out;
    Epoch epoch = kEpochHead;
  };

  /// Pipelined array writes; returns each op's stamped epoch as Update
  /// does, or the first failed op's error (same Status as Update's).
  Result<std::vector<Epoch>> UpdateBatch(std::span<const UpdateOp> ops);

  /// Pipelined array reads into each op's `out` window (holes as zeros).
  /// Fails with the first failed op's error (short reads are DATA_LOSS).
  Status FetchBatch(std::span<const FetchOp> ops);

  Result<Epoch> UpdateSingle(ContainerId cont, const ObjectId& oid,
                             const std::string& dkey, const std::string& akey,
                             std::span<const std::byte> value);
  Result<Buffer> FetchSingle(ContainerId cont, const ObjectId& oid,
                             const std::string& dkey, const std::string& akey,
                             Epoch epoch = kEpochHead);

  Status PunchObject(ContainerId cont, const ObjectId& oid);
  Status PunchDkey(ContainerId cont, const ObjectId& oid,
                   const std::string& dkey);
  Status PunchAkey(ContainerId cont, const ObjectId& oid,
                   const std::string& dkey, const std::string& akey);

  /// One page of an object's dkeys, each with its record.
  struct EntryPage {
    struct Entry {
      std::string dkey;
      /// The visible HEAD single value of the listed akey; empty in a
      /// names-only listing.
      Buffer value;
    };
    std::vector<Entry> entries;  ///< ascending by dkey
    /// True when dkeys past this page remain.
    bool more = false;
    /// The next page's marker (set iff `more`): the last dkey this page
    /// covered, which sorts after entries.back() when the page's trailing
    /// dkeys were dropped (see ListEntriesPage).
    std::string next_marker;
  };

  /// Server-side paged dkey enumeration with each dkey's record: every UP
  /// engine lists its dkeys `> marker` in order, merged from its targets
  /// and truncated to `limit` (0 = all) before replying, so a directory
  /// listing is one round trip per engine and a million-entry directory
  /// never materializes whole on either side. With a non-empty `akey`
  /// each listed dkey carries the HEAD single value of `akey`, and only
  /// dkeys with a visible value are listed: one whose value is absent or
  /// punched is skipped, and any other error (DATA_LOSS on a failed
  /// checksum) fails the page. An empty `akey` lists names only, punched
  /// dkeys included. Across replicas the names are deduplicated, the
  /// merge is cut at `limit`, and a dkey is then kept only if the engine
  /// a HEAD read of it goes to (ReadEngine) listed it, so a name punched
  /// there but still live on a stale replica is not listed. UNAVAILABLE
  /// when some engine's dkeys have no UP replica: a listing is complete
  /// or it is an error, never silently partial.
  Result<EntryPage> ListEntriesPage(ContainerId cont, const ObjectId& oid,
                                    const std::string& akey,
                                    const std::string& marker,
                                    std::uint32_t limit);
  Result<std::vector<std::string>> ListAkeys(ContainerId cont,
                                             const ObjectId& oid,
                                             const std::string& dkey);
  Result<std::uint64_t> ArraySize(ContainerId cont, const ObjectId& oid,
                                  const std::string& dkey,
                                  const std::string& akey,
                                  Epoch epoch = kEpochHead);
  Status Aggregate(ContainerId cont, const ObjectId& oid,
                   const std::string& dkey, const std::string& akey,
                   Epoch upto);

  /// Control plane: one engine's telemetry snapshot — metrics whose path
  /// starts with `prefix` (empty = all), plus the recent-request trace
  /// ring when `traces`. Engines with telemetry disabled answer with an
  /// empty snapshot.
  Result<telemetry::TelemetrySnapshot> TelemetryQuery(
      std::uint32_t engine_index = 0, const std::string& prefix = {},
      bool traces = false);

  // --- rebuild data movers ----------------------------------------------
  // Engine-addressed rather than routed by dkey: the RebuildManager picks
  // the engine (a survivor to read, the rebuilt engine to write). Like
  // every engine-addressed call they fail UNAVAILABLE on a DOWN engine.

  /// Every (cont, oid, dkey) resident on `engine` (kObjScan).
  Result<std::vector<ResyncEntry>> ScanEngine(std::uint32_t engine);
  /// The HEAD image of `entry`'s dkey on `engine` (kDkeyExport).
  Result<Buffer> ExportDkey(std::uint32_t engine, const ResyncEntry& entry);
  /// Replaces `entry`'s dkey on `engine` with `image`, an ExportDkey
  /// result; returns the payload bytes applied (kDkeyImport).
  Result<std::uint64_t> ImportDkey(std::uint32_t engine,
                                   const ResyncEntry& entry,
                                   std::span<const std::byte> image);

  // --- placement ---------------------------------------------------------
  /// Copies of every update (ConnectOptions::replicas).
  std::uint32_t replicas() const { return replicas_; }
  /// Primary engine index for (oid, dkey). Delegates to placement.h's
  /// PlaceEngine, so every client computes identical replica sets.
  std::uint32_t PrimaryEngine(const ObjectId& oid,
                              std::string_view dkey) const;
  /// The r-th replica engine (r < replicas()) on the ring starting at
  /// `primary`.
  std::uint32_t ReplicaEngine(std::uint32_t primary, std::uint32_t r) const {
    return (primary + r) % std::uint32_t(engines_.size());
  }

  net::Transport transport() const { return transport_; }
  std::uint32_t pool_targets() const { return pool_targets_; }
  net::Qp* qp() const {
    return engines_.empty() ? nullptr : engines_[0].rpc->qp();
  }

 private:
  struct EngineConn {
    std::unique_ptr<rpc::RpcClient> rpc;
  };

  /// One object op for the issue/await core. The constructor encodes the
  /// object address (cont, oid, dkey, akey); callers append the opcode's
  /// remaining header fields and bulk windows. `oid` and `dkey` must
  /// outlive the call.
  struct ObjCall {
    ObjCall(DaosOpcode opcode, bool write, ContainerId cont,
            const ObjectId& oid, std::string_view dkey, std::string_view akey,
            Epoch epoch = kEpochHead);

    std::uint32_t opcode;
    bool write;   ///< fans out to every replica; else reads one engine
    ContainerId cont;
    const ObjectId& oid;
    std::string_view dkey;
    Epoch epoch;  ///< routing of reads (the header carries its own copy)
    rpc::Encoder header;
    rpc::CallOptions options;
    /// Set by Run: the reply (a write's: the first copy that landed, the
    /// primary's when it is up) or the op's error.
    Result<rpc::RpcReply> outcome = rpc::RpcReply{};
  };
  /// One in-flight replica copy of an ObjCall (defined in client.cc).
  struct Copy;

  DaosClient() = default;
  Status Punch(ContainerId cont, const ObjectId& oid, const std::string& dkey,
               const std::string& akey, PunchScope scope);

  /// The engine a read of a dkey placed on `primary` goes to: the primary
  /// itself for a snapshot epoch (it must be UP), the first UP replica for
  /// kEpochHead. UNAVAILABLE when there is none.
  Result<std::uint32_t> ReadEngine(std::uint32_t primary, Epoch epoch) const;
  /// OK when every engine's dkeys have an UP replica to be listed from —
  /// the condition for a listing that is not silently partial.
  Status CheckListable() const;
  /// Records `call`'s missed replica copy owed to `engine` in the pool
  /// map's resync journal.
  void JournalMiss(std::uint32_t engine, const ObjCall& call);

  /// The issue/await core: issues every call (stopping at the first that
  /// cannot be issued), then awaits every issued copy, even past a
  /// failure, and sets each call's outcome (never-issued calls get
  /// UNAVAILABLE). Returns the error that stopped the issue phase.
  Status Run(std::span<ObjCall> calls);
  /// Batch of one; returns the call's outcome.
  Result<rpc::RpcReply> RunOne(ObjCall& call);
  /// Issue phase of one call into its `copies` slots (one per replica).
  /// An error stops the batch; it is also left in call.outcome.
  Status Issue(ObjCall& call, std::span<Copy> copies);
  /// Await phase of one call: drains its copies and sets call.outcome.
  void Complete(ObjCall& call, std::span<Copy> copies);

  /// Unary call against a specific engine, for ops that are not routed by
  /// dkey (metadata, telemetry, per-engine enumeration, rebuild). A DOWN
  /// engine fails it UNAVAILABLE.
  /// Headers travel as the Encoder that built them so the RPC layer can
  /// refuse overflowed encodes.
  Result<rpc::RpcReply> Call(std::uint32_t engine, std::uint32_t opcode,
                             const rpc::Encoder& header);
  /// Broadcast to every engine (container/namespace metadata). Strict: a
  /// DOWN engine fails the broadcast — metadata has no degraded mode.
  Result<rpc::RpcReply> CallAll(std::uint32_t opcode,
                                const rpc::Encoder& header);

  std::vector<EngineConn> engines_;
  net::Transport transport_ = net::Transport::kRdma;
  std::uint32_t pool_targets_ = 0;
  std::uint32_t replicas_ = 1;
  PoolMap* map_ = nullptr;
};

}  // namespace ros2::daos
