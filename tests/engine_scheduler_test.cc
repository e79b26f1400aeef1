// EngineScheduler + engine pipeline tests: per-target FIFO with
// round-robin interleave across targets, multi-QP fairness through one
// DaosEngine::ProgressAll() tick, the validating DaosEngine::Create
// factory (targets == 0 regression), and the engine's answers to
// malformed or invalid requests (every target-routed opcode and the dkey
// enumeration ops, serial and threaded).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/bytes.h"
#include "common/units.h"
#include "daos/cluster.h"
#include "daos/engine.h"
#include "daos/placement.h"
#include "daos/scheduler.h"
#include "net/fabric.h"
#include "rpc/data_rpc.h"
#include "rpc/wire.h"

namespace ros2::daos {
namespace {

constexpr std::span<const std::byte> kNoHeader{};

/// The ObjAddr routing prefix every target-routed request starts with.
rpc::Encoder AddrHeader(ContainerId cont, const ObjectId& oid,
                        const std::string& dkey, const std::string& akey) {
  rpc::Encoder enc;
  enc.U64(cont).U64(oid.hi).U64(oid.lo).Str(dkey).Str(akey);
  return enc;
}

// ------------------------------------------------- scheduler unit tests

class SchedulerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto server_ep = fabric_.CreateEndpoint("fabric://sched-server");
    auto client_ep = fabric_.CreateEndpoint("fabric://sched-client");
    ASSERT_TRUE(server_ep.ok() && client_ep.ok());
    auto qp = (*client_ep)->Connect(*server_ep, net::Transport::kRdma,
                                    (*client_ep)->AllocPd(),
                                    (*server_ep)->AllocPd());
    ASSERT_TRUE(qp.ok());
    qp_ = *qp;
    client_ = std::make_unique<rpc::RpcClient>(qp_, *client_ep, nullptr);
    server_.RegisterAsync(1, [this](rpc::RpcContextPtr ctx) {
      parked_.push_back(std::move(ctx));
      return rpc::HandlerVerdict::kDeferred;
    });
  }

  /// Issues `n` requests and returns their parked contexts in arrival
  /// order.
  std::vector<rpc::RpcContextPtr> Park(int n) {
    for (int i = 0; i < n; ++i) {
      auto id = client_->CallAsync(1, kNoHeader);
      EXPECT_TRUE(id.ok());
    }
    EXPECT_TRUE(server_.Progress(qp_->peer()).ok());
    return std::move(parked_);
  }

  net::Fabric fabric_;
  net::Qp* qp_ = nullptr;
  rpc::RpcServer server_;
  std::unique_ptr<rpc::RpcClient> client_;
  std::vector<rpc::RpcContextPtr> parked_;
};

TEST_F(SchedulerTest, RoundRobinInterleavesTargetsFifoWithinTarget) {
  EngineScheduler sched(3);
  EXPECT_EQ(sched.num_targets(), 3u);
  EXPECT_TRUE(sched.idle());

  auto ctxs = Park(6);
  ASSERT_EQ(ctxs.size(), 6u);
  std::vector<int> order;
  auto op = [&order](int index) {
    return [&order, index](rpc::RpcContext&) -> Result<Buffer> {
      order.push_back(index);
      return Buffer{};
    };
  };
  // Targets: 0 gets ops {0,1,2}; 1 gets {3,5}; 2 gets {4}.
  sched.Enqueue(0, std::move(ctxs[0]), op(0));
  sched.Enqueue(0, std::move(ctxs[1]), op(1));
  sched.Enqueue(0, std::move(ctxs[2]), op(2));
  sched.Enqueue(1, std::move(ctxs[3]), op(3));
  sched.Enqueue(2, std::move(ctxs[4]), op(4));
  sched.Enqueue(1, std::move(ctxs[5]), op(5));
  EXPECT_EQ(sched.queued(), 6u);
  EXPECT_EQ(sched.queued(0), 3u);
  EXPECT_EQ(sched.max_queue_depth(), 6u);

  // Pass 1 (start target 0): one op per non-empty target.
  EXPECT_EQ(sched.ProgressOnce(), 3u);
  EXPECT_EQ(order, (std::vector<int>{0, 3, 4}));
  // Pass 2 (start target 1): target 1's SECOND op runs before target 0's.
  EXPECT_EQ(sched.ProgressOnce(), 2u);
  EXPECT_EQ(order, (std::vector<int>{0, 3, 4, 5, 1}));
  // Pass 3: only target 0 still has work.
  EXPECT_EQ(sched.ProgressOnce(), 1u);
  EXPECT_EQ(order, (std::vector<int>{0, 3, 4, 5, 1, 2}));
  EXPECT_TRUE(sched.idle());
  EXPECT_EQ(sched.executed(), 6u);
  EXPECT_EQ(sched.ProgressOnce(), 0u);

  // FIFO per target held: 0 < 1 < 2 and 3 < 5 in completion order.
  // Every context was completed with a reply.
  EXPECT_EQ(client_->Poll(), 6u);
}

TEST_F(SchedulerTest, ProgressAllDrainsEverything) {
  EngineScheduler sched(4);
  auto ctxs = Park(9);
  int ran = 0;
  for (std::size_t i = 0; i < ctxs.size(); ++i) {
    sched.Enqueue(std::uint32_t(i % 2), std::move(ctxs[i]),
                  [&ran](rpc::RpcContext&) -> Result<Buffer> {
                    ++ran;
                    return Buffer{};
                  });
  }
  EXPECT_EQ(sched.ProgressAll(), 9u);
  EXPECT_EQ(ran, 9);
  EXPECT_TRUE(sched.idle());
  EXPECT_EQ(client_->Poll(), 9u);
}

TEST_F(SchedulerTest, FailingOpCompletesContextWithError) {
  EngineScheduler sched(1);
  auto ctxs = Park(1);
  sched.Enqueue(0, std::move(ctxs[0]),
                [](rpc::RpcContext&) -> Result<Buffer> {
                  return Status(DataLoss("checksum mismatch on xstream"));
                });
  EXPECT_EQ(sched.ProgressAll(), 1u);
  EXPECT_EQ(client_->Poll(), 1u);
}

// --------------------------------------------------- engine-level tests

class EnginePipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ClusterSpec spec;
    spec.engine.address = "fabric://pipeline-engine";
    spec.engine.targets = 4;
    spec.engine.scm_per_target = 16 * kMiB;
    auto cluster = Cluster::Boot(spec);
    ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
    cluster_ = std::move(*cluster);
    fabric_ = cluster_->fabric();
    engine_ = cluster_->engine(0);
  }

  /// A raw data-plane client on its own QP, pumping the ENGINE's progress
  /// tick (not a per-QP poke).
  std::unique_ptr<rpc::RpcClient> NewClient(int index) {
    auto ep = fabric_->CreateEndpoint("fabric://pipeline-client-" +
                                      std::to_string(index));
    EXPECT_TRUE(ep.ok());
    auto qp = (*ep)->Connect(engine_->endpoint(), net::Transport::kRdma,
                             (*ep)->AllocPd(), engine_->pd());
    EXPECT_TRUE(qp.ok());
    DaosEngine* engine = engine_;
    return std::make_unique<rpc::RpcClient>(
        *qp, *ep, [engine] { (void)engine->ProgressAll(); });
  }

  Result<ContainerId> CreateContainer(rpc::RpcClient* client,
                                      const std::string& label) {
    rpc::Encoder enc;
    enc.Str(label);
    ROS2_ASSIGN_OR_RETURN(
        rpc::RpcReply reply,
        client->Call(std::uint32_t(DaosOpcode::kContCreate), enc));
    rpc::Decoder dec(reply.header);
    return dec.U64();
  }

  static rpc::Encoder SingleUpdateHeader(ContainerId cont,
                                         const ObjectId& oid,
                                         const std::string& dkey,
                                         std::span<const std::byte> value) {
    rpc::Encoder enc;
    enc.U64(cont).U64(oid.hi).U64(oid.lo).Str(dkey).Str("a");
    enc.Bytes(value);
    return enc;
  }

  /// HEAD read of akey "a" (the one SingleUpdateHeader writes).
  static Result<Buffer> FetchSingle(rpc::RpcClient* client, ContainerId cont,
                                    const ObjectId& oid,
                                    const std::string& dkey) {
    rpc::Encoder enc = AddrHeader(cont, oid, dkey, "a");
    enc.U64(kEpochHead);
    ROS2_ASSIGN_OR_RETURN(
        rpc::RpcReply reply,
        client->Call(std::uint32_t(DaosOpcode::kSingleFetch), enc));
    rpc::Decoder dec(reply.header);
    return dec.Bytes();
  }

  std::unique_ptr<Cluster> cluster_;
  net::Fabric* fabric_ = nullptr;
  DaosEngine* engine_ = nullptr;
};

TEST_F(EnginePipelineTest, CreateRejectsZeroTargets) {
  storage::NvmeDevice* raw[] = {cluster_->device(0)};
  EngineConfig config;
  config.address = "fabric://zero-target-engine";
  config.targets = 0;
  auto engine = DaosEngine::Create(fabric_, config, raw);
  EXPECT_EQ(engine.status().code(), ErrorCode::kInvalidArgument)
      << "targets == 0 must be a clean construction error, not a silent "
         "single-target fallback";
  // The reject happened before any endpoint was claimed.
  EXPECT_FALSE(fabric_->Lookup("fabric://zero-target-engine").ok());
}

TEST_F(EnginePipelineTest, CreateRejectsEmptyDevicesAndDuplicateAddress) {
  EngineConfig config;
  config.address = "fabric://no-device-engine";
  auto no_dev = DaosEngine::Create(
      fabric_, config, std::span<storage::NvmeDevice* const>{});
  EXPECT_EQ(no_dev.status().code(), ErrorCode::kInvalidArgument);

  storage::NvmeDevice* raw[] = {cluster_->device(0)};
  EngineConfig dup;
  dup.address = "fabric://pipeline-engine";  // taken by the fixture engine
  EXPECT_EQ(DaosEngine::Create(fabric_, dup, raw).status().code(),
            ErrorCode::kAlreadyExists);
}

TEST_F(EnginePipelineTest, CreateRejectsLbaThatDoesNotDivideTheCsumChunk) {
  // VOS reads NVMe in whole checksum chunks, so a device with a larger LBA
  // is refused when the engine is built, not on its first fetch.
  storage::NvmeDeviceConfig big_lba;
  big_lba.lba_size = 2 * Vos::kCsumChunk;
  big_lba.capacity_bytes = 64 * kMiB;
  storage::NvmeDevice device(big_lba);
  storage::NvmeDevice* raw[] = {cluster_->device(0), &device};
  EngineConfig config;
  config.address = "fabric://big-lba-engine";
  EXPECT_EQ(DaosEngine::Create(fabric_, config, raw).status().code(),
            ErrorCode::kFailedPrecondition);
  EXPECT_FALSE(fabric_->Lookup("fabric://big-lba-engine").ok());

  // A 512-byte LBA divides the chunk, so that device boots.
  storage::NvmeDeviceConfig small_lba;
  small_lba.lba_size = 512;
  small_lba.capacity_bytes = 64 * kMiB;
  storage::NvmeDevice small(small_lba);
  storage::NvmeDevice* ok_raw[] = {&small};
  config.address = "fabric://small-lba-engine";
  config.targets = 1;
  auto engine = DaosEngine::Create(fabric_, config, ok_raw);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
}

TEST_F(EnginePipelineTest, OneProgressTickServicesAllClientsFairly) {
  constexpr int kClients = 3;
  constexpr int kCallsPerClient = 4;
  std::vector<std::unique_ptr<rpc::RpcClient>> clients;
  for (int c = 0; c < kClients; ++c) clients.push_back(NewClient(c));
  ASSERT_EQ(engine_->poll_set().member_count(), std::size_t(kClients));

  auto cont = CreateContainer(clients[0].get(), "fairness");
  ASSERT_TRUE(cont.ok());

  // Interleaved outstanding requests: client 0, 1, 2, 0, 1, 2, ...
  Buffer value = MakePatternBuffer(128, 7);
  std::vector<std::vector<rpc::RpcClient::CallId>> ids(kClients);
  for (int round = 0; round < kCallsPerClient; ++round) {
    for (int c = 0; c < kClients; ++c) {
      ObjectId oid{1, std::uint64_t(c)};
      rpc::Encoder header = SingleUpdateHeader(
          *cont, oid, "c" + std::to_string(c) + "-k" + std::to_string(round),
          value);
      auto id = clients[std::size_t(c)]->CallAsync(
          std::uint32_t(DaosOpcode::kSingleUpdate), header);
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      ids[std::size_t(c)].push_back(*id);
    }
  }
  const std::uint64_t executed_before = engine_->scheduler().executed();

  // ONE engine tick: poll-set drain decodes all 12 requests off all 3
  // QPs, the xstreams run them, every client's replies are on the wire.
  ASSERT_TRUE(engine_->ProgressAll().ok());
  EXPECT_EQ(engine_->scheduler().executed() - executed_before,
            std::uint64_t(kClients) * kCallsPerClient);
  EXPECT_TRUE(engine_->scheduler().idle());

  for (int c = 0; c < kClients; ++c) {
    // No further pumping: the tick already answered everyone.
    EXPECT_EQ(clients[std::size_t(c)]->Poll(), std::size_t(kCallsPerClient))
        << "client " << c << " starved";
    for (auto id : ids[std::size_t(c)]) {
      auto reply = clients[std::size_t(c)]->Take(id);
      ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    }
  }
  EXPECT_EQ(engine_->updates(), std::uint64_t(kClients) * kCallsPerClient);
}

TEST_F(EnginePipelineTest, DeferredOpsLandOnTheirDkeysTargets) {
  auto client = NewClient(5);
  auto cont = CreateContainer(client.get(), "routing");
  ASSERT_TRUE(cont.ok());
  ObjectId oid{1, 7};

  // 16 distinct dkeys of ONE object, decoded but NOT drained (poke the
  // rpc server directly instead of ProgressAll): each op must be parked
  // on exactly the queue PlaceDkey names. (Regression: the dispatch
  // lambda used to move the decoded address before the routing hash ran,
  // collapsing every dkey onto the moved-from-string's target.)
  constexpr int kOps = 16;
  std::vector<std::size_t> expected(engine_->num_targets(), 0);
  Buffer value = MakePatternBuffer(32, 1);
  for (int i = 0; i < kOps; ++i) {
    const std::string dkey = "route-" + std::to_string(i);
    expected[PlaceDkey(oid, dkey, engine_->num_targets())]++;
    rpc::Encoder header = SingleUpdateHeader(*cont, oid, dkey, value);
    ASSERT_TRUE(client
                    ->CallAsync(std::uint32_t(DaosOpcode::kSingleUpdate),
                                header)
                    .ok());
  }
  ASSERT_TRUE(engine_->server()->Progress(client->qp()->peer()).ok());
  ASSERT_EQ(engine_->scheduler().queued(), std::size_t(kOps));
  int nonempty = 0;
  for (std::uint32_t t = 0; t < engine_->num_targets(); ++t) {
    EXPECT_EQ(engine_->scheduler().queued(t), expected[t])
        << "target " << t << " holds the wrong ops";
    if (expected[t] > 0) ++nonempty;
  }
  EXPECT_GE(nonempty, 2) << "test dkeys must spread over targets";
  ASSERT_TRUE(engine_->ProgressAll().ok());
  EXPECT_EQ(client->Poll(), std::size_t(kOps));
}

TEST_F(EnginePipelineTest, SameDkeyOpsStayFifoAcrossThePipeline) {
  auto client = NewClient(9);
  auto cont = CreateContainer(client.get(), "fifo");
  ASSERT_TRUE(cont.ok());
  ObjectId oid{1, 42};

  // Five pipelined updates to ONE dkey: all outstanding at once, so they
  // ride the same target queue.
  constexpr int kUpdates = 5;
  std::vector<rpc::RpcClient::CallId> ids;
  std::vector<Buffer> values;
  for (int i = 0; i < kUpdates; ++i) {
    values.push_back(MakePatternBuffer(64, std::uint64_t(i) + 1));
    rpc::Encoder header =
        SingleUpdateHeader(*cont, oid, "hot-dkey", values.back());
    auto id = client->CallAsync(std::uint32_t(DaosOpcode::kSingleUpdate),
                                header);
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  ASSERT_TRUE(engine_->ProgressAll().ok());
  ASSERT_EQ(client->Poll(), std::size_t(kUpdates));

  // Epochs stamp at execution: FIFO order on the target means the i-th
  // issued update got the i-th epoch, strictly increasing.
  Epoch last = 0;
  for (int i = 0; i < kUpdates; ++i) {
    auto reply = client->Take(ids[std::size_t(i)]);
    ASSERT_TRUE(reply.ok());
    rpc::Decoder dec(reply->header);
    auto epoch = dec.U64();
    ASSERT_TRUE(epoch.ok());
    EXPECT_GT(*epoch, last) << "update " << i << " executed out of order";
    last = *epoch;
  }

  // HEAD readback sees the LAST issued value.
  rpc::Encoder fetch;
  fetch.U64(*cont).U64(oid.hi).U64(oid.lo).Str("hot-dkey").Str("a");
  fetch.U64(kEpochHead);
  auto reply =
      client->Call(std::uint32_t(DaosOpcode::kSingleFetch), fetch);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  rpc::Decoder dec(reply->header);
  auto value = dec.Bytes();
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, values.back());
}

TEST_F(EnginePipelineTest, UnknownPunchScopeIsRejectedAndKeepsTheValue) {
  auto client = NewClient(11);
  auto cont = CreateContainer(client.get(), "punch-scope");
  ASSERT_TRUE(cont.ok());
  const ObjectId oid{1, 77};
  const Buffer value = MakePatternBuffer(48, 3);
  ASSERT_TRUE(client
                  ->Call(std::uint32_t(DaosOpcode::kSingleUpdate),
                         SingleUpdateHeader(*cont, oid, "d", value))
                  .ok());

  rpc::Encoder punch = AddrHeader(*cont, oid, "d", "a");
  punch.U8(7);  // outside PunchScope
  auto punched = client->Call(std::uint32_t(DaosOpcode::kObjPunch), punch);
  EXPECT_EQ(punched.status().code(), ErrorCode::kInvalidArgument)
      << "an unknown scope must not run as an akey punch";

  auto read = FetchSingle(client.get(), *cont, oid, "d");
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, value);
}

TEST_F(EnginePipelineTest, RejectedDkeyImportKeepsTheOldValue) {
  auto client = NewClient(12);
  auto cont = CreateContainer(client.get(), "import");
  ASSERT_TRUE(cont.ok());
  const ObjectId oid{1, 78};
  const Buffer value = MakePatternBuffer(48, 4);
  const Buffer other = MakePatternBuffer(48, 5);
  ASSERT_TRUE(client
                  ->Call(std::uint32_t(DaosOpcode::kSingleUpdate),
                         SingleUpdateHeader(*cont, oid, "d", value))
                  .ok());

  // Count 2, one entry: the image ends early.
  rpc::Encoder truncated;
  truncated.U32(2).Str("a").U8(std::uint8_t(ValueType::kSingle)).Bytes(other);
  // One entry whose ValueType byte is neither kSingle nor kArray.
  rpc::Encoder bad_type;
  bad_type.U32(1).Str("a").U8(9).Bytes(other);
  struct Case {
    const char* what;
    const rpc::Encoder* image;
    ErrorCode code;
  };
  for (const Case& c : {Case{"truncated", &truncated, ErrorCode::kDataLoss},
                        Case{"unknown type", &bad_type,
                             ErrorCode::kInvalidArgument}}) {
    rpc::Encoder import = AddrHeader(*cont, oid, "d", "");
    import.Bytes(c.image->buffer());
    auto reply = client->Call(std::uint32_t(DaosOpcode::kDkeyImport), import);
    EXPECT_EQ(reply.status().code(), c.code) << c.what;
    auto read = FetchSingle(client.get(), *cont, oid, "d");
    ASSERT_TRUE(read.ok()) << c.what << ": " << read.status().ToString();
    EXPECT_EQ(*read, value) << c.what << ": rejected import touched the dkey";
  }

  // A well-formed image still replaces the dkey.
  rpc::Encoder good;
  good.U32(1).Str("a").U8(std::uint8_t(ValueType::kSingle)).Bytes(other);
  rpc::Encoder import = AddrHeader(*cont, oid, "d", "");
  import.Bytes(good.buffer());
  auto reply = client->Call(std::uint32_t(DaosOpcode::kDkeyImport), import);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  auto read = FetchSingle(client.get(), *cont, oid, "d");
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, other);
}

// ------------------------------------- malformed target-routed requests

/// A one-engine cluster, serial or threaded (the param's second field),
/// with dkey "d" seeded and a raw RPC client to send it malformed frames.
template <typename Case>
class EngineMalformedFixture
    : public ::testing::TestWithParam<std::tuple<Case, bool>> {
 protected:
  static constexpr ObjectId kOid{1, 9};

  /// A well-formed request on the seeded dkey "d": the header, the size
  /// of its ObjAddr prefix (the rest is the op tail), and its bulk.
  struct Request {
    Buffer header;
    std::size_t prefix_len = 0;
    rpc::CallOptions options;
  };

  void SetUp() override {
    ClusterSpec spec;
    spec.engine.address = "fabric://malformed-engine";
    spec.engine.targets = 4;
    spec.engine.scm_per_target = 16 * kMiB;
    spec.engine.xstream_workers = std::get<1>(this->GetParam());
    auto cluster = Cluster::Boot(spec);
    ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
    cluster_ = std::move(*cluster);
    DaosEngine* engine = cluster_->engine(0);
    auto ep = cluster_->fabric()->CreateEndpoint("fabric://malformed-client");
    ASSERT_TRUE(ep.ok());
    auto qp = (*ep)->Connect(engine->endpoint(), net::Transport::kRdma,
                             (*ep)->AllocPd(), engine->pd());
    ASSERT_TRUE(qp.ok());
    client_ = std::make_unique<rpc::RpcClient>(
        *qp, *ep, [engine] { (void)engine->ProgressAll(); });

    rpc::Encoder create;
    create.Str("malformed");
    auto created = client_->Call(std::uint32_t(DaosOpcode::kContCreate),
                                 create);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    rpc::Decoder dec(created->header);
    auto id = dec.U64();
    ASSERT_TRUE(id.ok());
    cont_ = *id;
    // Seed dkey "d": a single value "s" and a 64-byte array "arr".
    rpc::Encoder single = AddrHeader(cont_, kOid, "d", "s");
    single.Bytes(payload_);
    ASSERT_TRUE(
        client_->Call(std::uint32_t(DaosOpcode::kSingleUpdate), single).ok());
    Request update = Valid(DaosOpcode::kObjUpdate);
    ASSERT_TRUE(client_
                    ->Call(std::uint32_t(DaosOpcode::kObjUpdate),
                           update.header, update.options)
                    .ok());
  }

  Request Valid(DaosOpcode op) {
    const bool single = op == DaosOpcode::kSingleUpdate ||
                        op == DaosOpcode::kSingleFetch ||
                        op == DaosOpcode::kObjPunch;
    rpc::Encoder enc = AddrHeader(cont_, kOid, "d", single ? "s" : "arr");
    Request req;
    req.prefix_len = enc.buffer().size();
    switch (op) {
      case DaosOpcode::kObjUpdate:
        enc.U64(0);
        req.options.send_bulk = payload_;
        break;
      case DaosOpcode::kObjFetch:
        enc.U64(0).U64(window_.size()).U64(kEpochHead);
        req.options.recv_bulk = window_;
        break;
      case DaosOpcode::kSingleUpdate:
        enc.Bytes(payload_);
        break;
      case DaosOpcode::kSingleFetch:
      case DaosOpcode::kArraySize:
      case DaosOpcode::kAggregate:
        enc.U64(kEpochHead);
        break;
      case DaosOpcode::kObjPunch:
        enc.U8(std::uint8_t(PunchScope::kAkey));
        break;
      case DaosOpcode::kDkeyImport: {
        rpc::Encoder empty_image;
        empty_image.U32(0);
        enc.Bytes(empty_image.buffer());
        break;
      }
      default:  // kListAkeys, kDkeyExport: the prefix is the whole header
        break;
    }
    req.header = enc.Take();
    return req;
  }

  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<rpc::RpcClient> client_;
  ContainerId cont_ = 0;
  Buffer payload_ = MakePatternBuffer(64, 6);
  Buffer window_ = Buffer(64);
};

/// Every target-routed opcode x {serial, threaded engine}: a header cut
/// off inside the ObjAddr prefix and one cut off inside the op tail both
/// get a DATA_LOSS reply, and the QP keeps serving afterwards.
using EngineMalformedRequestTest = EngineMalformedFixture<DaosOpcode>;

TEST_P(EngineMalformedRequestTest, TruncatedHeaderGetsDataLossQpStaysUp) {
  const DaosOpcode op = std::get<0>(GetParam());
  const Request req = Valid(op);
  // Inside the oid, inside the akey string, and (when the op has one)
  // inside the op tail.
  std::vector<std::size_t> cuts = {req.prefix_len / 2, req.prefix_len - 1};
  if (req.header.size() > req.prefix_len) {
    cuts.push_back(req.header.size() - 1);
  }
  for (std::size_t cut : cuts) {
    auto reply = client_->Call(
        std::uint32_t(op),
        std::span<const std::byte>(req.header.data(), cut), req.options);
    EXPECT_EQ(reply.status().code(), ErrorCode::kDataLoss)
        << "cut at " << cut << " of " << req.header.size() << ": "
        << reply.status().ToString();
  }
  auto reply = client_->Call(std::uint32_t(op), req.header, req.options);
  EXPECT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_TRUE(cluster_->engine(0)->scheduler().idle());
}

INSTANTIATE_TEST_SUITE_P(
    TargetRoutedOps, EngineMalformedRequestTest,
    ::testing::Combine(
        ::testing::Values(DaosOpcode::kObjUpdate, DaosOpcode::kObjFetch,
                          DaosOpcode::kSingleUpdate,
                          DaosOpcode::kSingleFetch, DaosOpcode::kObjPunch,
                          DaosOpcode::kListAkeys, DaosOpcode::kArraySize,
                          DaosOpcode::kAggregate, DaosOpcode::kDkeyExport,
                          DaosOpcode::kDkeyImport),
        ::testing::Bool()),
    [](const auto& info) {
      return DaosOpcodeName(std::uint32_t(std::get<0>(info.param))) +
             (std::get<1>(info.param) ? "_threaded" : "_serial");
    });

// ---------------------------------- malformed enumeration requests

// Opcode numbers are wire values: the retired names-only listing's slot
// (109) stays empty and the opcodes after it keep their numbers.
static_assert(std::uint32_t(DaosOpcode::kObjPunch) == 108);
static_assert(std::uint32_t(DaosOpcode::kListAkeys) == 110);
static_assert(std::uint32_t(DaosOpcode::kListEntries) == 117);

/// The dkey listing, names only (empty akey) and with entries (akey "s"),
/// x {serial, threaded engine}: a request cut off after the oid, after
/// the marker, after the limit or inside the akey, or with a length prefix
/// past the frame's end, gets DATA_LOSS; an akey holding an array is
/// INVALID_ARGUMENT; the QP keeps serving.
class EngineMalformedEnumerationTest : public EngineMalformedFixture<bool> {
 protected:
  /// The request with its length-prefixed fields' end offsets.
  struct Listing {
    Buffer header;
    std::size_t oid_end = 0;
    std::size_t marker_end = 0;
    std::size_t limit_end = 0;
  };

  Listing ValidListing(const std::string& akey) {
    Listing req;
    rpc::Encoder enc;
    enc.U64(cont_).U64(kOid.hi).U64(kOid.lo);
    req.oid_end = enc.buffer().size();
    enc.Str("");
    req.marker_end = enc.buffer().size();
    enc.U32(0);
    req.limit_end = enc.buffer().size();
    enc.Str(akey);
    req.header = enc.Take();
    return req;
  }
};

TEST_P(EngineMalformedEnumerationTest, TruncatedOrInflatedGetsErrorQpStaysUp) {
  const bool entries = std::get<0>(GetParam());
  const Listing req = ValidListing(entries ? "s" : "");
  // Inside the akey: its value, or the length prefix of an empty one.
  const std::vector<std::size_t> cuts = {req.oid_end, req.marker_end,
                                         req.limit_end,
                                         req.header.size() - 1};
  auto call = [&](std::span<const std::byte> header) {
    return client_->Call(std::uint32_t(DaosOpcode::kListEntries), header);
  };
  for (std::size_t cut : cuts) {
    EXPECT_EQ(call(std::span(req.header).first(cut)).status().code(),
              ErrorCode::kDataLoss)
        << "cut at " << cut << " of " << req.header.size();
  }
  // A length prefix that claims more bytes than the frame holds: the
  // marker's and the akey's.
  for (std::size_t at : {req.oid_end, req.limit_end}) {
    Buffer inflated = req.header;
    inflated[at] = std::byte{0xFF};
    inflated[at + 1] = std::byte{0xFF};
    EXPECT_EQ(call(inflated).status().code(), ErrorCode::kDataLoss)
        << "prefix at " << at;
  }
  EXPECT_EQ(call(ValidListing("arr").header).status().code(),
            ErrorCode::kInvalidArgument);

  auto reply = call(req.header);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  rpc::Decoder dec(reply->header);
  ASSERT_EQ(dec.U32().value_or(0), 1u);
  EXPECT_EQ(dec.Str().value_or(""), "d");
  if (entries) {
    EXPECT_EQ(dec.Bytes().value_or({}), payload_);
  }
  EXPECT_EQ(dec.U8().value_or(1), 0u);
  EXPECT_TRUE(dec.Done());
  // A frame for the retired slot gets the unknown-opcode reply.
  EXPECT_EQ(client_->Call(109, req.header).status().code(),
            ErrorCode::kNotFound);
  EXPECT_TRUE(cluster_->engine(0)->scheduler().idle());
}

INSTANTIATE_TEST_SUITE_P(
    Listings, EngineMalformedEnumerationTest,
    ::testing::Combine(::testing::Bool(), ::testing::Bool()),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) ? "entries" : "names") +
             (std::get<1>(info.param) ? "_threaded" : "_serial");
    });

}  // namespace
}  // namespace ros2::daos
