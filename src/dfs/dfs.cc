#include "dfs/dfs.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "rpc/wire.h"

namespace ros2::dfs {
namespace {

// Reserved dkeys on file/root objects ('\x01' cannot collide with path
// components, which never contain control characters after validation).
const char* const kMetaDkey = "\x01meta";
const char* const kSuperblockDkey = "\x01sb";
const char* const kEntryAkey = "e";
const char* const kSizeAkey = "size";
const char* const kMagicAkey = "magic";
constexpr std::uint64_t kDfsMagic = 0x524F53324446531Aull;  // "ROS2DFS\x1a"

/// Every reserved dkey starts with '\x01' and every legal entry name with
/// a byte >= 0x20, so listing from this marker skips the reserved records
/// server-side without a client-side filter pass.
const char* const kFirstEntryMarker = "\x02";

std::string ChunkDkey(std::uint64_t chunk_index) {
  // Build via insert-free concatenation: the operator+(const char*,
  // string&&) form trips a GCC 12 -Wrestrict false positive here.
  std::string dkey = "c";
  dkey += std::to_string(chunk_index);
  return dkey;
}

std::string CacheKey(const daos::ObjectId& dir, const std::string& name) {
  std::string key = std::to_string(dir.hi);
  key += '.';
  key += std::to_string(dir.lo);
  key += '/';
  key += name;
  return key;
}

Buffer EncodeEntry(const DfsStat& stat) {
  rpc::Encoder enc;
  enc.U8(std::uint8_t(stat.type))
      .U64(stat.oid.hi)
      .U64(stat.oid.lo)
      .U32(stat.mode);
  return enc.Take();
}

Result<DfsStat> DecodeEntry(const Buffer& raw) {
  rpc::Decoder dec(raw);
  DfsStat stat;
  ROS2_ASSIGN_OR_RETURN(std::uint8_t type, dec.U8());
  stat.type = InodeType(type);
  ROS2_ASSIGN_OR_RETURN(stat.oid.hi, dec.U64());
  ROS2_ASSIGN_OR_RETURN(stat.oid.lo, dec.U64());
  ROS2_ASSIGN_OR_RETURN(stat.mode, dec.U32());
  return stat;
}

/// Splits "/a/b/c" into components; rejects empty and non-absolute paths
/// and components with control characters.
Result<std::vector<std::string>> SplitPath(const std::string& path) {
  if (path.empty() || path.front() != '/') {
    return Status(InvalidArgument("path must be absolute: " + path));
  }
  std::vector<std::string> parts;
  std::size_t start = 1;
  while (start <= path.size()) {
    const std::size_t slash = path.find('/', start);
    const std::size_t end = slash == std::string::npos ? path.size() : slash;
    if (end > start) {
      const std::string part = path.substr(start, end - start);
      if (part == "." || part == "..") {
        return Status(InvalidArgument("'.'/'..' are not supported"));
      }
      for (char c : part) {
        if (std::uint8_t(c) < 0x20) {
          return Status(
              InvalidArgument("control characters are not allowed in paths"));
        }
      }
      parts.push_back(part);
    }
    if (slash == std::string::npos) break;
    start = slash + 1;
  }
  return parts;
}

}  // namespace

Result<std::unique_ptr<Dfs>> Dfs::Mount(daos::DaosClient* client,
                                        daos::ContainerId cont, bool create,
                                        DfsConfig config) {
  if (client == nullptr) return Status(InvalidArgument("null client"));
  if (config.chunk_size == 0) {
    return Status(InvalidArgument("chunk size must be > 0"));
  }
  if (config.write_coalesce_chunks == 0) {
    return Status(InvalidArgument("write_coalesce_chunks must be >= 1"));
  }
  auto dfs = std::unique_ptr<Dfs>(new Dfs(client, cont, config));
  if (create) {
    ROS2_ASSIGN_OR_RETURN(dfs->root_, client->AllocOid(cont));
    rpc::Encoder sb;
    sb.U64(kDfsMagic).U64(config.chunk_size);
    ROS2_RETURN_IF_ERROR(client
                             ->UpdateSingle(cont, dfs->root_, kSuperblockDkey,
                                            kMagicAkey, sb.buffer())
                             .status());
  } else {
    // The root object is the container's first allocated oid.
    dfs->root_ = daos::ObjectId{cont, 1};
    auto sb = client->FetchSingle(cont, dfs->root_, kSuperblockDkey,
                                  kMagicAkey);
    if (!sb.ok()) {
      return Status(FailedPrecondition("container holds no DFS superblock"));
    }
    rpc::Decoder dec(*sb);
    ROS2_ASSIGN_OR_RETURN(std::uint64_t magic, dec.U64());
    if (magic != kDfsMagic) {
      return Status(DataLoss("DFS superblock magic mismatch"));
    }
    ROS2_ASSIGN_OR_RETURN(dfs->config_.chunk_size, dec.U64());
  }
  return dfs;
}

void Dfs::AttachTelemetry(telemetry::Telemetry* tree) {
  if (tree == nullptr) return;
  tree->LinkCounter("dfs/lookup_cache/hits", &lookup_hits_);
  tree->LinkCounter("dfs/lookup_cache/misses", &lookup_misses_);
  tree->LinkCounter("dfs/lookup_cache/evictions", &lookup_evictions_);
  tree->RegisterCallback("dfs/lookup_cache/entries", [this] {
    common::MutexLock lock(mu_);
    return std::int64_t(cache_index_.size());
  });
  tree->LinkCounter("dfs/io/chunk_fetches", &chunk_fetches_);
  tree->LinkCounter("dfs/io/chunk_updates", &chunk_updates_);
  tree->LinkCounter("dfs/io/read_batches", &read_batches_);
  tree->LinkCounter("dfs/io/write_batches", &write_batches_);
  tree->LinkCounter("dfs/readdir/pages", &readdir_pages_);
  tree->LinkCounter("dfs/readdir/entries", &readdir_entries_);
  tree->LinkCounter("dfs/stream/readahead_refills", &readahead_refills_);
  tree->LinkCounter("dfs/stream/coalesced_flushes", &coalesced_flushes_);
  tree->RegisterCallback("dfs/open_files", [this] {
    common::MutexLock lock(mu_);
    return std::int64_t(open_files_.size());
  });
}

// --------------------------------------------------------- lookup cache

void Dfs::CacheInsert(const daos::ObjectId& dir, const std::string& name,
                      const DfsStat& stat) {
  if (config_.lookup_cache_entries == 0) return;
  // Size is a live quantity (shared FileState / loaded on demand); the
  // cache pins only the immutable record {type, oid, mode}.
  DfsStat entry = stat;
  entry.size = 0;
  std::string key = CacheKey(dir, name);
  common::MutexLock lock(mu_);
  auto it = cache_index_.find(key);
  if (it != cache_index_.end()) {
    it->second->second = entry;
    cache_lru_.splice(cache_lru_.begin(), cache_lru_, it->second);
    return;
  }
  cache_lru_.emplace_front(std::move(key), entry);
  cache_index_[cache_lru_.front().first] = cache_lru_.begin();
  while (cache_index_.size() > config_.lookup_cache_entries) {
    cache_index_.erase(cache_lru_.back().first);
    cache_lru_.pop_back();
    lookup_evictions_.Add(1);
  }
}

void Dfs::CacheErase(const daos::ObjectId& dir, const std::string& name) {
  if (config_.lookup_cache_entries == 0) return;
  const std::string key = CacheKey(dir, name);
  common::MutexLock lock(mu_);
  auto it = cache_index_.find(key);
  if (it == cache_index_.end()) return;
  cache_lru_.erase(it->second);
  cache_index_.erase(it);
}

// ------------------------------------------------------------- namespace

Status Dfs::ResolveParent(const std::string& path, daos::ObjectId* parent,
                          std::string* leaf) {
  ROS2_ASSIGN_OR_RETURN(std::vector<std::string> parts, SplitPath(path));
  if (parts.empty()) return InvalidArgument("path refers to the root");
  daos::ObjectId dir = root_;
  for (std::size_t i = 0; i + 1 < parts.size(); ++i) {
    ROS2_ASSIGN_OR_RETURN(DfsStat stat, LookupEntry(dir, parts[i]));
    if (stat.type != InodeType::kDirectory) {
      return InvalidArgument("path component is not a directory: " +
                             parts[i]);
    }
    dir = stat.oid;
  }
  *parent = dir;
  *leaf = parts.back();
  return Status::Ok();
}

Result<DfsStat> Dfs::LookupEntry(const daos::ObjectId& dir,
                                 const std::string& name) {
  if (config_.lookup_cache_entries != 0) {
    const std::string key = CacheKey(dir, name);
    common::MutexLock lock(mu_);
    auto it = cache_index_.find(key);
    if (it != cache_index_.end()) {
      cache_lru_.splice(cache_lru_.begin(), cache_lru_, it->second);
      lookup_hits_.Add(1);
      return it->second->second;
    }
    lookup_misses_.Add(1);
  }
  auto raw = client_->FetchSingle(cont_, dir, name, kEntryAkey);
  if (!raw.ok()) return Status(NotFound("no such entry: " + name));
  ROS2_ASSIGN_OR_RETURN(DfsStat stat, DecodeEntry(*raw));
  CacheInsert(dir, name, stat);
  return stat;
}

Status Dfs::WriteEntry(const daos::ObjectId& dir, const std::string& name,
                       const DfsStat& stat) {
  return client_->UpdateSingle(cont_, dir, name, kEntryAkey,
                               EncodeEntry(stat))
      .status();
}

Result<std::uint64_t> Dfs::LoadFileSize(const daos::ObjectId& oid) {
  auto raw = client_->FetchSingle(cont_, oid, kMetaDkey, kSizeAkey);
  if (!raw.ok()) return std::uint64_t(0);
  rpc::Decoder dec(*raw);
  return dec.U64();
}

Status Dfs::StoreFileSize(const daos::ObjectId& oid, std::uint64_t size) {
  rpc::Encoder enc;
  enc.U64(size);
  return client_->UpdateSingle(cont_, oid, kMetaDkey, kSizeAkey, enc.buffer())
      .status();
}

Result<std::shared_ptr<Dfs::FileState>> Dfs::FindState(Fd fd) const {
  common::MutexLock lock(mu_);
  auto it = open_files_.find(fd);
  if (it == open_files_.end()) {
    return Status(NotFound("bad file descriptor"));
  }
  return it->second;
}

Status Dfs::Mkdir(const std::string& path, std::uint32_t mode) {
  daos::ObjectId parent;
  std::string leaf;
  ROS2_RETURN_IF_ERROR(ResolveParent(path, &parent, &leaf));
  if (LookupEntry(parent, leaf).ok()) {
    return AlreadyExists("entry exists: " + path);
  }
  ROS2_ASSIGN_OR_RETURN(daos::ObjectId oid, client_->AllocOid(cont_));
  DfsStat stat;
  stat.type = InodeType::kDirectory;
  stat.oid = oid;
  stat.mode = mode;
  ROS2_RETURN_IF_ERROR(WriteEntry(parent, leaf, stat));
  CacheInsert(parent, leaf, stat);
  return Status::Ok();
}

Result<Fd> Dfs::Open(const std::string& path, OpenFlags flags,
                     std::uint32_t mode) {
  daos::ObjectId parent;
  std::string leaf;
  ROS2_RETURN_IF_ERROR(ResolveParent(path, &parent, &leaf));
  auto existing = LookupEntry(parent, leaf);
  daos::ObjectId oid;
  bool fresh = false;
  if (existing.ok()) {
    if (existing->type != InodeType::kFile) {
      return Status(InvalidArgument("not a file: " + path));
    }
    if (flags.create && flags.exclusive) {
      return Status(AlreadyExists("O_EXCL: file exists: " + path));
    }
    oid = existing->oid;
    if (flags.truncate) {
      ROS2_RETURN_IF_ERROR(client_->PunchObject(cont_, oid));
      ROS2_RETURN_IF_ERROR(StoreFileSize(oid, 0));
    }
  } else {
    if (!flags.create) return Status(NotFound("no such file: " + path));
    ROS2_ASSIGN_OR_RETURN(oid, client_->AllocOid(cont_));
    DfsStat stat;
    stat.type = InodeType::kFile;
    stat.oid = oid;
    stat.mode = mode;
    ROS2_RETURN_IF_ERROR(WriteEntry(parent, leaf, stat));
    ROS2_RETURN_IF_ERROR(StoreFileSize(oid, 0));
    CacheInsert(parent, leaf, stat);
    fresh = true;
  }
  // Bind the fd to the oid's SHARED state so truncates/extends through any
  // fd are visible to all of them; the size RPC only runs when no other fd
  // already tracks this file.
  std::shared_ptr<FileState> state;
  {
    common::MutexLock lock(mu_);
    auto it = states_by_oid_.find(oid);
    if (it != states_by_oid_.end()) state = it->second.lock();
  }
  if (state == nullptr) {
    std::uint64_t size = 0;
    if (!fresh && !flags.truncate) {
      ROS2_ASSIGN_OR_RETURN(size, LoadFileSize(oid));
    }
    auto created = std::make_shared<FileState>();
    created->oid = oid;
    created->size = size;
    common::MutexLock lock(mu_);
    auto it = states_by_oid_.find(oid);
    if (it != states_by_oid_.end()) state = it->second.lock();
    if (state == nullptr) state = std::move(created);
    states_by_oid_[oid] = state;
  }
  common::MutexLock lock(mu_);
  if (flags.truncate) state->size = 0;
  const Fd fd = next_fd_++;
  open_files_[fd] = std::move(state);
  return fd;
}

Status Dfs::Close(Fd fd) {
  common::MutexLock lock(mu_);
  auto it = open_files_.find(fd);
  if (it == open_files_.end()) return NotFound("bad file descriptor");
  std::shared_ptr<FileState> state = std::move(it->second);
  open_files_.erase(it);
  // Last fd on the file: drop the by-oid anchor (the weak_ptr would
  // linger forever on one-shot open/close workloads otherwise).
  if (state.use_count() == 1) states_by_oid_.erase(state->oid);
  return Status::Ok();
}

Result<DfsStat> Dfs::Stat(const std::string& path) {
  ROS2_ASSIGN_OR_RETURN(std::vector<std::string> parts, SplitPath(path));
  if (parts.empty()) {
    DfsStat root;
    root.type = InodeType::kDirectory;
    root.oid = root_;
    root.mode = 0755;
    return root;
  }
  daos::ObjectId parent;
  std::string leaf;
  ROS2_RETURN_IF_ERROR(ResolveParent(path, &parent, &leaf));
  ROS2_ASSIGN_OR_RETURN(DfsStat stat, LookupEntry(parent, leaf));
  if (stat.type == InodeType::kFile) {
    // An open fd's in-memory size beats the stored record (extends and
    // truncates through a live fd land there first).
    bool live = false;
    {
      common::MutexLock lock(mu_);
      auto it = states_by_oid_.find(stat.oid);
      if (it != states_by_oid_.end()) {
        if (std::shared_ptr<FileState> state = it->second.lock()) {
          stat.size = state->size;
          live = true;
        }
      }
    }
    if (!live) {
      ROS2_ASSIGN_OR_RETURN(stat.size, LoadFileSize(stat.oid));
    }
  }
  return stat;
}

Result<std::vector<DirEntry>> Dfs::Readdir(const std::string& path) {
  ROS2_ASSIGN_OR_RETURN(ReaddirResult page, Readdir(path, ReaddirPage{}));
  return std::move(page.entries);
}

Result<ReaddirResult> Dfs::Readdir(const std::string& path,
                                   const ReaddirPage& page) {
  ROS2_ASSIGN_OR_RETURN(DfsStat stat, Stat(path));
  if (stat.type != InodeType::kDirectory) {
    return Status(InvalidArgument("not a directory: " + path));
  }
  const std::string marker =
      page.marker.empty() ? std::string(kFirstEntryMarker) : page.marker;
  // One round trip per engine lists the page's names with their entry
  // records. An entry punched mid-listing is not listed; one whose record
  // cannot be read fails the listing (an unreadable entry must not make a
  // directory look emptier than it is, or Unlink would orphan it). The
  // listed records do not go into the lookup cache: a walk of a large
  // directory would evict the hot paths one entry at a time.
  ROS2_ASSIGN_OR_RETURN(
      daos::DaosClient::EntryPage listed,
      client_->ListEntriesPage(cont_, stat.oid, kEntryAkey, marker,
                               page.limit));
  readdir_pages_.Add(1);
  ReaddirResult out;
  out.entries.reserve(listed.entries.size());
  for (const auto& [name, record] : listed.entries) {
    ROS2_ASSIGN_OR_RETURN(DfsStat entry, DecodeEntry(record));
    out.entries.push_back({name, entry.type});
  }
  readdir_entries_.Add(out.entries.size());
  out.more = listed.more;
  out.next_marker = std::move(listed.next_marker);
  return out;
}

Status Dfs::Unlink(const std::string& path) {
  daos::ObjectId parent;
  std::string leaf;
  ROS2_RETURN_IF_ERROR(ResolveParent(path, &parent, &leaf));
  ROS2_ASSIGN_OR_RETURN(DfsStat stat, LookupEntry(parent, leaf));
  if (stat.type == InodeType::kDirectory) {
    ROS2_ASSIGN_OR_RETURN(std::vector<DirEntry> entries, Readdir(path));
    if (!entries.empty()) {
      return FailedPrecondition("directory not empty: " + path);
    }
  }
  // Remove the name first, then reclaim the object (crash between the two
  // leaks space but never dangles a name).
  ROS2_RETURN_IF_ERROR(client_->PunchDkey(cont_, parent, leaf));
  CacheErase(parent, leaf);
  (void)client_->PunchObject(cont_, stat.oid);  // may hold no records yet
  return Status::Ok();
}

Status Dfs::Rename(const std::string& from, const std::string& to) {
  daos::ObjectId from_parent;
  std::string from_leaf;
  ROS2_RETURN_IF_ERROR(ResolveParent(from, &from_parent, &from_leaf));
  ROS2_ASSIGN_OR_RETURN(DfsStat stat, LookupEntry(from_parent, from_leaf));
  daos::ObjectId to_parent;
  std::string to_leaf;
  ROS2_RETURN_IF_ERROR(ResolveParent(to, &to_parent, &to_leaf));
  auto existing = LookupEntry(to_parent, to_leaf);
  if (existing.ok()) {
    if (existing->type == InodeType::kDirectory) {
      return InvalidArgument("rename onto a directory");
    }
    ROS2_RETURN_IF_ERROR(Unlink(to));
  }
  ROS2_RETURN_IF_ERROR(WriteEntry(to_parent, to_leaf, stat));
  CacheInsert(to_parent, to_leaf, stat);
  ROS2_RETURN_IF_ERROR(client_->PunchDkey(cont_, from_parent, from_leaf));
  CacheErase(from_parent, from_leaf);
  return Status::Ok();
}

// -------------------------------------------------------------- file I/O

Result<std::uint64_t> Dfs::Read(Fd fd, std::uint64_t offset,
                                std::span<std::byte> out) {
  ROS2_ASSIGN_OR_RETURN(std::shared_ptr<FileState> state, FindState(fd));
  std::uint64_t size = 0;
  {
    common::MutexLock lock(mu_);
    size = state->size;
  }
  if (offset >= size || out.empty()) return std::uint64_t(0);
  const std::uint64_t n = std::min<std::uint64_t>(out.size(), size - offset);
  // Assemble the whole chunk plan up front; never-written chunks inside
  // [0, size) are holes and fetch as zeros either way.
  std::vector<daos::DaosClient::FetchOp> ops;
  std::uint64_t done = 0;
  while (done < n) {
    const std::uint64_t pos = offset + done;
    const std::uint64_t chunk = pos / config_.chunk_size;
    const std::uint64_t within = pos % config_.chunk_size;
    const std::uint64_t take =
        std::min(n - done, config_.chunk_size - within);
    daos::DaosClient::FetchOp op;
    op.cont = cont_;
    op.oid = state->oid;
    op.dkey = ChunkDkey(chunk);
    op.akey = "d";
    op.offset = within;
    op.out = out.subspan(done, take);
    ops.push_back(std::move(op));
    done += take;
  }
  if (config_.batch_io) {
    // Pipelined: every chunk RPC (across targets) is in flight before any
    // reply is awaited.
    ROS2_RETURN_IF_ERROR(client_->FetchBatch(ops));
    read_batches_.Add(1);
  } else {
    for (const daos::DaosClient::FetchOp& op : ops) {
      ROS2_RETURN_IF_ERROR(client_->Fetch(op.cont, op.oid, op.dkey, op.akey,
                                          op.offset, op.out));
    }
  }
  chunk_fetches_.Add(ops.size());
  return n;
}

Status Dfs::Write(Fd fd, std::uint64_t offset,
                  std::span<const std::byte> data) {
  ROS2_ASSIGN_OR_RETURN(std::shared_ptr<FileState> state, FindState(fd));
  if (data.empty()) return Status::Ok();
  std::vector<daos::DaosClient::UpdateOp> ops;
  std::uint64_t done = 0;
  while (done < data.size()) {
    const std::uint64_t pos = offset + done;
    const std::uint64_t chunk = pos / config_.chunk_size;
    const std::uint64_t within = pos % config_.chunk_size;
    const std::uint64_t take =
        std::min<std::uint64_t>(data.size() - done,
                                config_.chunk_size - within);
    daos::DaosClient::UpdateOp op;
    op.cont = cont_;
    op.oid = state->oid;
    op.dkey = ChunkDkey(chunk);
    op.akey = "d";
    op.offset = within;
    op.data = data.subspan(done, take);
    ops.push_back(std::move(op));
    done += take;
  }
  if (config_.batch_io) {
    ROS2_RETURN_IF_ERROR(client_->UpdateBatch(ops).status());
    write_batches_.Add(1);
  } else {
    for (const daos::DaosClient::UpdateOp& op : ops) {
      ROS2_RETURN_IF_ERROR(client_
                               ->Update(op.cont, op.oid, op.dkey, op.akey,
                                        op.offset, op.data)
                               .status());
    }
  }
  chunk_updates_.Add(ops.size());
  const std::uint64_t end = offset + data.size();
  std::uint64_t current = 0;
  {
    common::MutexLock lock(mu_);
    current = state->size;
  }
  if (end > current) {
    ROS2_RETURN_IF_ERROR(StoreFileSize(state->oid, end));
    common::MutexLock lock(mu_);
    if (end > state->size) state->size = end;
  }
  return Status::Ok();
}

Result<daos::ObjectId> Dfs::Oid(Fd fd) const {
  ROS2_ASSIGN_OR_RETURN(std::shared_ptr<FileState> state, FindState(fd));
  return state->oid;
}

Result<std::uint64_t> Dfs::Size(Fd fd) {
  ROS2_ASSIGN_OR_RETURN(std::shared_ptr<FileState> state, FindState(fd));
  common::MutexLock lock(mu_);
  return state->size;
}

Status Dfs::Truncate(Fd fd, std::uint64_t new_size) {
  ROS2_ASSIGN_OR_RETURN(std::shared_ptr<FileState> state, FindState(fd));
  std::uint64_t old_size = 0;
  {
    common::MutexLock lock(mu_);
    old_size = state->size;
  }
  if (new_size < old_size) {
    const std::uint64_t cs = config_.chunk_size;
    // Punch every chunk wholly past the new end. A chunk that was never
    // written punches NOT_FOUND — that's a hole, not an error.
    const std::uint64_t first_dead = (new_size + cs - 1) / cs;
    const std::uint64_t old_chunks = (old_size + cs - 1) / cs;
    for (std::uint64_t c = first_dead; c < old_chunks; ++c) {
      Status punched = client_->PunchDkey(cont_, state->oid, ChunkDkey(c));
      if (!punched.ok() && punched.code() != ErrorCode::kNotFound) {
        return punched;
      }
    }
    // Zero the stale tail of the partial boundary chunk: a later write
    // that re-extends the file must expose zeros there, not old bytes.
    if (new_size % cs != 0) {
      const std::uint64_t chunk = new_size / cs;
      const std::uint64_t tail_end = std::min(old_size, (chunk + 1) * cs);
      if (tail_end > new_size) {
        Buffer zeros(tail_end - new_size);
        ROS2_RETURN_IF_ERROR(client_
                                 ->Update(cont_, state->oid, ChunkDkey(chunk),
                                          "d", new_size % cs, zeros)
                                 .status());
      }
    }
  }
  // Extension stays implicit: chunks past the old end are holes and read
  // as zeros.
  ROS2_RETURN_IF_ERROR(StoreFileSize(state->oid, new_size));
  common::MutexLock lock(mu_);
  state->size = new_size;
  return Status::Ok();
}

Status Dfs::Fsync(Fd fd) {
  return FindState(fd).status();
}

}  // namespace ros2::dfs
