#include "runner.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "core/chacha20.h"
#include "daos/placement.h"
#include "pattern.h"
#include "rpc/wire.h"

namespace wallbench {
namespace {

using ros2::Status;
using ros2::dfs::Fd;

constexpr const char* kTenant = "trainer";
constexpr const char* kToken = "trainer-key";
constexpr const char* kClientAddress = "fabric://wallbench-client";
/// One op in kProbeEvery is a probe in the traced run.
constexpr std::uint64_t kProbeEvery = 8;

const Status& StatusOf(const Status& s) { return s; }
template <typename T>
Status StatusOf(const ros2::Result<T>& r) {
  return r.status();
}

}  // namespace

ros2::Result<std::unique_ptr<Rig>> Rig::Boot(const Deployment& d) {
  auto rig = std::unique_ptr<Rig>(new Rig());
  rig->deployment_ = d;
  ros2::core::Ros2Cluster::Config config;
  config.num_ssds = 4;
  rig->cluster_ = std::make_unique<ros2::core::Ros2Cluster>(config);

  ros2::core::TenantConfig tenant;
  tenant.name = kTenant;
  tenant.auth_token = kToken;
  ROS2_RETURN_IF_ERROR(rig->cluster_->tenants()->Register(tenant).status());

  ros2::core::ClientConfig client;
  client.platform = d.platform;
  client.transport = d.transport;
  client.tenant_name = kTenant;
  client.tenant_token = kToken;
  client.inline_crypto = d.inline_crypto;
  client.client_address = kClientAddress;
  ROS2_ASSIGN_OR_RETURN(
      rig->client_, ros2::core::Ros2Client::Connect(rig->cluster_.get(), client));

  ROS2_ASSIGN_OR_RETURN(rig->container_,
                        rig->daos().ContainerOpen(
                            rig->cluster_->config().container_label));
  ROS2_ASSIGN_OR_RETURN(rig->client_endpoint_,
                        rig->cluster_->fabric()->Lookup(kClientAddress));
  ROS2_ASSIGN_OR_RETURN(ros2::core::Tenant * t,
                        rig->cluster_->tenants()->Find(rig->client_->tenant()));
  rig->key_ = t->crypto_key;
  rig->control_ = std::make_unique<ros2::rpc::ControlChannel>(
      rig->cluster_->control()->service());
  rig->dfs_tree_ = std::make_unique<ros2::telemetry::Telemetry>();
  rig->dfs().AttachTelemetry(rig->dfs_tree_.get());
  return rig;
}

Runner::Runner(Capacity capacity, bool trace)
    : trace_(trace),
      samples_{Samples(capacity.samples_per_class),
               Samples(capacity.samples_per_class),
               Samples(capacity.samples_per_class),
               Samples(capacity.samples_per_class)},
      spans_(trace ? capacity.span_records : 0),
      units_(capacity.units),
      space_amp_(4096),
      read_buf_(DataPool::kMaxIo),
      write_buf_(DataPool::kMaxIo),
      staging_buf_(DataPool::kMaxIo) {
  dkey_.reserve(32);
}

void Runner::Attach(Rig* rig) {
  rig_ = rig;
  grant_request_bytes_ = ~0ull;  // the session changed
}

void Runner::BeginTimed(double seconds) {
  timed_ = true;
  start_ns_ = NowNs();
  last_ns_ = start_ns_;
  deadline_ns_ = start_ns_ + std::uint64_t(seconds * 1e9);
}

void Runner::EndTimed() {
  units_.Finish(last_ns_ - start_ns_,
                samples_[std::size_t(OpClass::kRead)].size());
  timed_ = false;
  end_ns_ = last_ns_;
}

void Runner::EndUnit() {
  if (timed_) {
    units_.End(last_ns_ - start_ns_,
               samples_[std::size_t(OpClass::kRead)].size());
  }
}

bool Runner::Expired() const {
  return timed_ && (last_ns_ >= deadline_ns_ || capacity_reached_);
}

void Runner::Account(OpClass c, Span core, std::uint64_t t0, std::uint64_t t1,
                     bool ok, std::uint64_t bytes) {
  if (!timed_) return;
  const std::uint64_t d = t1 - t0;
  ++attempted_;
  ++attempted_by_class_[std::size_t(c)];
  if (!ok) {
    ++failed_;
    bytes = 0;
  }
  busy_ns_ += d;
  last_ns_ = t1;
  if (c == OpClass::kRead) bytes_read_ += bytes;
  if (c == OpClass::kWrite) bytes_written_ += bytes;
  if (core != Span::kNone) {
    Samples& s = samples_[std::size_t(c)];
    s.Add(d);
    if (s.full()) capacity_reached_ = true;
    if (trace_) spans_.Record(op_seq_, core, Span::kNone, t0, t1);
  }
  units_.Add(d, bytes);
}

bool Runner::NextIsProbe() {
  if (!timed_) return false;
  return ++op_seq_ % kProbeEvery == 0 && trace_;
}

void Runner::Fail(const char* what, const Status& s) {
  if (!timed_) {
    std::fprintf(stderr, "set-up op %s failed: %s\n", what,
                 s.ToString().c_str());
    std::exit(1);
  }
  if (errors_printed_++ < 5) {
    std::fprintf(stderr, "op %s failed: %s\n", what, s.ToString().c_str());
  }
}

void Runner::Verify(std::span<const std::byte> got,
                    std::span<const std::byte> expected, Fd fd,
                    std::uint64_t offset) {
  if (got.size() == expected.size() &&
      std::memcmp(got.data(), expected.data(), expected.size()) == 0) {
    return;
  }
  std::size_t i = 0;
  while (i < got.size() && got[i] == expected[i]) ++i;
  std::fprintf(stderr,
               "DATA MISMATCH: fd %llu offset %llu length %zu: first "
               "differing byte at +%zu\n",
               (unsigned long long)fd, (unsigned long long)offset,
               expected.size(), i);
  std::exit(3);
}

template <typename CoreCall, typename DfsCall>
auto Runner::Meta(OpClass c, Span core, Span dfs, CoreCall core_call,
                  DfsCall dfs_call) -> decltype(core_call()) {
  const bool probe = NextIsProbe();
  const std::uint64_t t0 = NowNs();
  auto r = probe ? dfs_call() : core_call();
  const std::uint64_t t1 = NowNs();
  if (probe) spans_.Record(op_seq_, dfs, Span::kNone, t0, t1);
  Account(c, probe ? Span::kNone : core, t0, t1, r.ok());
  if (!r.ok()) Fail(SpanName(core), StatusOf(r));
  return r;
}

bool Runner::Mkdir(const std::string& path) {
  Status s = rig_->client().Mkdir(path);
  if (!s.ok()) Fail("mkdir", s);
  return s.ok();
}

Fd Runner::Open(const std::string& path, bool create) {
  ros2::dfs::OpenFlags flags;
  flags.create = create;
  auto r = Meta(
      OpClass::kMeta, Span::kCoreOpen, Span::kDfsOpen,
      [&] { return rig_->client().Open(path, flags); },
      [&] { return rig_->dfs().Open(path, flags); });
  return r.ok() ? *r : 0;
}

bool Runner::Close(Fd fd) {
  return Meta(
             OpClass::kMeta, Span::kCoreClose, Span::kDfsClose,
             [&] { return rig_->client().Close(fd); },
             [&] { return rig_->dfs().Close(fd); })
      .ok();
}

bool Runner::Stat(const std::string& path, std::uint64_t expected_size,
                  bool verify) {
  auto r = Meta(
      OpClass::kMeta, Span::kCoreStat, Span::kDfsStat,
      [&] { return rig_->client().Stat(path); },
      [&] { return rig_->dfs().Stat(path); });
  if (verify && r.ok() && r->size != expected_size) {
    std::fprintf(stderr, "DATA MISMATCH: stat %s size %llu, expected %llu\n",
                 path.c_str(), (unsigned long long)r->size,
                 (unsigned long long)expected_size);
    std::exit(3);
  }
  return r.ok();
}

bool Runner::Unlink(const std::string& path) {
  return Meta(
             OpClass::kMeta, Span::kCoreUnlink, Span::kDfsUnlink,
             [&] { return rig_->client().Unlink(path); },
             [&] { return rig_->dfs().Unlink(path); })
      .ok();
}

bool Runner::Readdir(const std::string& path, std::size_t expected_entries,
                     bool verify) {
  auto r = Meta(
      OpClass::kReaddir, Span::kCoreReaddir, Span::kDfsReaddir,
      [&] { return rig_->client().Readdir(path); },
      [&] { return rig_->dfs().Readdir(path); });
  if (verify && r.ok() && r->size() != expected_entries) {
    std::fprintf(stderr, "DATA MISMATCH: readdir %s listed %zu, expected %zu\n",
                 path.c_str(), r->size(), expected_entries);
    std::exit(3);
  }
  return r.ok();
}

bool Runner::Read(Fd fd, std::uint64_t offset,
                  std::span<const std::byte> expected, bool verify) {
  std::span<std::byte> out(read_buf_.data(), expected.size());
  const bool probe = NextIsProbe();
  const std::uint64_t t0 = NowNs();
  ros2::Result<std::uint64_t> n = probe ? ProbeRead(fd, offset, out)
                                        : rig_->client().Pread(fd, offset, out);
  const bool ok = n.ok() && *n == out.size();
  Account(OpClass::kRead, probe ? Span::kNone : Span::kCorePread, t0, NowNs(),
          ok, out.size());
  if (!n.ok()) {
    Fail("pread", n.status());
  } else if (verify) {
    Verify(out.first(*n), expected, fd, offset);
  } else if (!ok) {
    Fail("pread", ros2::DataLoss("short read"));
  }
  return ok;
}

bool Runner::Write(Fd fd, std::uint64_t offset,
                   std::span<const std::byte> data) {
  std::memcpy(write_buf_.data(), data.data(), data.size());
  std::span<const std::byte> buf(write_buf_.data(), data.size());
  const bool probe = NextIsProbe();
  const std::uint64_t t0 = NowNs();
  Status s = probe ? ProbeWrite(fd, offset, buf)
                   : rig_->client().Pwrite(fd, offset, buf);
  Account(OpClass::kWrite, probe ? Span::kNone : Span::kCorePwrite, t0,
          NowNs(), s.ok(), buf.size());
  if (!s.ok()) Fail("pwrite", s);
  return s.ok();
}

std::uint64_t Runner::LocateChunk(std::uint64_t offset) {
  const std::uint64_t chunk = rig_->dfs().chunk_size();
  char buf[24];
  buf[0] = 'c';
  auto end = std::to_chars(buf + 1, buf + sizeof(buf), offset / chunk).ptr;
  dkey_.assign(buf, end);
  return offset % chunk;
}

const ros2::Buffer& Runner::GrantRequest(std::uint64_t bytes) {
  if (bytes != grant_request_bytes_) {
    ros2::rpc::Encoder enc;
    enc.U64(rig_->client().session()).U64(bytes);
    grant_request_ = enc.Take();
    grant_request_bytes_ = bytes;
  }
  return grant_request_;
}

void Runner::Crypt(Fd fd, std::uint64_t offset, std::span<std::byte> buf,
                   Span parent) {
  auto oid = rig_->dfs().Oid(fd);
  if (!oid.ok()) return;  // the op itself already failed on this fd
  const std::uint64_t t0 = NowNs();
  ros2::core::ChaCha20Xor(rig_->key(),
                          ros2::core::DeriveNonce(oid->hi, oid->lo), offset,
                          buf);
  spans_.Record(op_seq_, Span::kCrypto, parent, t0, NowNs());
}

ros2::Result<std::uint64_t> Runner::ProbeRead(Fd fd, std::uint64_t offset,
                                              std::span<std::byte> out) {
  static constexpr Layer kRotation[] = {Layer::kDfs, Layer::kDaos, Layer::kVos,
                                        Layer::kParts};
  Layer layer = kRotation[read_probes_++ % std::size(kRotation)];
  const bool crypto = rig_->deployment().inline_crypto;
  ROS2_ASSIGN_OR_RETURN(const ros2::daos::ObjectId oid, rig_->dfs().Oid(fd));
  const std::uint64_t within = LocateChunk(offset);
  // The DaosClient and Vos probes address a single chunk dkey.
  if (within + out.size() > rig_->dfs().chunk_size() &&
      (layer == Layer::kDaos || layer == Layer::kVos)) {
    layer = Layer::kDfs;
  }
  const std::uint64_t op = op_seq_;
  std::uint64_t n = out.size();
  switch (layer) {
    case Layer::kDfs: {
      const std::uint64_t t0 = NowNs();
      auto r = rig_->dfs().Read(fd, offset, out);
      spans_.Record(op, Span::kDfsRead, Span::kNone, t0, NowNs());
      ROS2_ASSIGN_OR_RETURN(n, std::move(r));
      break;
    }
    case Layer::kDaos: {
      const std::uint64_t t0 = NowNs();
      Status s = rig_->daos().Fetch(rig_->container(), oid, dkey_, akey_,
                                    within, out);
      spans_.Record(op, Span::kDaosFetch, Span::kNone, t0, NowNs());
      ROS2_RETURN_IF_ERROR(s);
      break;
    }
    case Layer::kVos: {
      ros2::daos::DaosEngine& engine = *rig_->cluster().engine();
      const std::uint64_t t0 = NowNs();
      ros2::daos::Vos* vos = engine.target_vos(
          ros2::daos::PlaceDkey(oid, dkey_, engine.num_targets()));
      Status s = vos->FetchArray(oid, dkey_, akey_, ros2::daos::kEpochHead,
                                 within, out);
      spans_.Record(op, Span::kVosFetch, Span::kNone, t0, NowNs());
      ROS2_RETURN_IF_ERROR(s);
      break;
    }
    case Layer::kParts: {
      // Ros2Client::Pread rebuilt from its parts, each part a child span.
      const bool staged = rig_->client().offloaded();
      std::span<std::byte> landing =
          staged ? std::span<std::byte>(staging_buf_.data(), out.size()) : out;
      const std::uint64_t t0 = NowNs();
      Status s =
          rig_->control().Call(grant_method_, GrantRequest(out.size())).status();
      const std::uint64_t t1 = NowNs();
      spans_.Record(op, Span::kGrant, Span::kCorePreadParts, t0, t1);
      ROS2_RETURN_IF_ERROR(s);
      auto r = rig_->dfs().Read(fd, offset, landing);
      spans_.Record(op, Span::kDfsRead, Span::kCorePreadParts, t1, NowNs());
      ROS2_ASSIGN_OR_RETURN(n, std::move(r));
      if (crypto) Crypt(fd, offset, landing.first(n), Span::kCorePreadParts);
      if (staged) {
        const std::uint64_t t3 = NowNs();
        std::memcpy(out.data(), landing.data(), n);
        spans_.Record(op, Span::kStaging, Span::kCorePreadParts, t3, NowNs());
      }
      spans_.Record(op, Span::kCorePreadParts, Span::kNone, t0, NowNs());
      return n;
    }
  }
  if (crypto) Crypt(fd, offset, out.first(n), Span::kNone);
  return n;
}

Status Runner::ProbeWrite(Fd fd, std::uint64_t offset,
                          std::span<const std::byte> data) {
  static constexpr Layer kRotation[] = {Layer::kDfs, Layer::kDaos,
                                        Layer::kParts};
  Layer layer = kRotation[write_probes_++ % std::size(kRotation)];
  const bool crypto = rig_->deployment().inline_crypto;
  const std::uint64_t op = op_seq_;
  std::span<std::byte> staging(staging_buf_.data(), data.size());
  ROS2_ASSIGN_OR_RETURN(const ros2::daos::ObjectId oid, rig_->dfs().Oid(fd));
  ROS2_ASSIGN_OR_RETURN(const std::uint64_t size, rig_->dfs().Size(fd));
  const std::uint64_t within = LocateChunk(offset);
  // A DaosClient update bypasses DFS's size record, so only writes that
  // stay inside the file (and one chunk) may take it; the rest go to dfs.
  // Raw VOS updates are never probed: they would bypass the engine's
  // epoch stamping.
  if (layer == Layer::kDaos &&
      (offset + data.size() > size ||
       within + data.size() > rig_->dfs().chunk_size())) {
    layer = Layer::kDfs;
  }
  Status s;
  if (layer == Layer::kParts) {
    // Ros2Client::Pwrite rebuilt from its parts, each part a child span.
    const std::uint64_t t0 = NowNs();
    s = rig_->control().Call(grant_method_, GrantRequest(data.size())).status();
    std::uint64_t t1 = NowNs();
    spans_.Record(op, Span::kGrant, Span::kCorePwriteParts, t0, t1);
    if (s.ok()) {
      std::span<const std::byte> payload = data;
      if (rig_->client().offloaded() || crypto) {
        std::memcpy(staging.data(), data.data(), data.size());
        const std::uint64_t t2 = NowNs();
        spans_.Record(op, Span::kStaging, Span::kCorePwriteParts, t1, t2);
        if (crypto) Crypt(fd, offset, staging, Span::kCorePwriteParts);
        payload = staging;
        t1 = NowNs();
      }
      s = rig_->dfs().Write(fd, offset, payload);
      const std::uint64_t t3 = NowNs();
      spans_.Record(op, Span::kDfsWrite, Span::kCorePwriteParts, t1, t3);
      spans_.Record(op, Span::kCorePwriteParts, Span::kNone, t0, t3);
    }
  } else {
    std::span<const std::byte> payload = data;
    if (crypto) {
      std::memcpy(staging.data(), data.data(), data.size());
      Crypt(fd, offset, staging, Span::kNone);
      payload = staging;
    }
    const std::uint64_t t0 = NowNs();
    if (layer == Layer::kDaos) {
      s = rig_->daos()
              .Update(rig_->container(), oid, dkey_, akey_, within, payload)
              .status();
      spans_.Record(op, Span::kDaosUpdate, Span::kNone, t0, NowNs());
    } else {
      s = rig_->dfs().Write(fd, offset, payload);
      spans_.Record(op, Span::kDfsWrite, Span::kNone, t0, NowNs());
    }
  }
  return s;
}

void Runner::SampleSpaceAmp(std::uint64_t live_user_bytes) {
  if (!timed_ || space_amp_n_ == space_amp_.size() || live_user_bytes == 0) {
    return;
  }
  ros2::daos::DaosEngine& engine = *rig_->cluster().engine();
  std::uint64_t stored = 0;
  for (std::uint32_t t = 0; t < engine.num_targets(); ++t) {
    const ros2::daos::VosStats& st = engine.target_vos(t)->stats();
    stored += st.bytes_in_scm.load() + st.bytes_in_nvme.load();
  }
  space_amp_[space_amp_n_++] = double(stored) / double(live_user_bytes);
}

double Runner::SpaceAmp() const {
  return Median(std::vector<double>(
      space_amp_.begin(), space_amp_.begin() + std::ptrdiff_t(space_amp_n_)));
}

}  // namespace wallbench
