// DFS: POSIX-style namespace over DAOS objects (§3.3 "DFS mapping").
//
// "The DFS layer maps POSIX files and directories to DAOS objects and
// metadata entries." The mapping used here mirrors libdfs:
//
//  - every directory is an object; entries are dkeys (name -> single-value
//    record {type, oid, mode});
//  - every file is an object; data lives under per-chunk dkeys
//    ("c<index>", chunk size 1 MiB by default) as array values, so large
//    files stripe across engine targets;
//  - file size is a single-value record on the file object, updated on
//    extending writes;
//  - the superblock (magic, chunk size) is a record on the root object,
//    written at mount-create and verified at mount-open.
//
// The data path is pipelined: chunk-spanning Read/Write assemble every
// chunk op up front and issue the whole set through
// DaosClient::FetchBatch/UpdateBatch, so one engine progress tick services
// the full request instead of one round trip per chunk. Readdir lists one
// page of entries server-side, each name with its entry record
// (DaosClient::ListEntriesPage: one round trip per engine, no per-entry
// fetch). Repeated path walks hit a bounded LRU
// lookup cache keyed (parent oid, name). Every accelerator has a kill
// switch in DfsConfig; counters land under the dfs/* telemetry subtree
// via AttachTelemetry.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "daos/client.h"
#include "daos/types.h"
#include "telemetry/metrics.h"

namespace ros2::dfs {

struct DfsConfig {
  std::uint64_t chunk_size = 1ull << 20;  // DAOS DFS default: 1 MiB

  /// Pipelined chunk I/O: Read/Write issue all chunk RPCs through
  /// FetchBatch/UpdateBatch. Off = one blocking round trip per chunk (the
  /// sequential baseline bench_micro_dfs compares against).
  bool batch_io = true;

  /// Path->entry LRU bound. 0 = no cache: every walk pays one RPC per
  /// component, like the pre-cache code.
  std::size_t lookup_cache_entries = 4096;

  /// Input-stream readahead: DfsInputStream refills a window of
  /// readahead_chunks chunks per miss. 0 = no readahead: the stream reads
  /// exactly what the caller asked for, nothing speculative.
  std::uint64_t readahead_chunks = 8;

  /// Output-stream coalescing window, in chunks: DfsOutputStream buffers
  /// this much before one batched flush.
  std::uint64_t write_coalesce_chunks = 8;
};

enum class InodeType : std::uint8_t { kDirectory = 0, kFile = 1 };

struct DfsStat {
  InodeType type = InodeType::kFile;
  daos::ObjectId oid;
  std::uint64_t size = 0;   ///< files only
  std::uint32_t mode = 0644;
};

struct DirEntry {
  std::string name;
  InodeType type = InodeType::kFile;
};

/// One page of a directory listing (Readdir paging).
struct ReaddirPage {
  /// Resume strictly after this name; empty = from the start.
  std::string marker;
  /// Max entries in the page; 0 = unbounded (whole directory).
  std::uint32_t limit = 0;
};

struct ReaddirResult {
  std::vector<DirEntry> entries;
  /// True when names past this page remain.
  bool more = false;
  /// Pass as the next page's marker (set iff `more`). May sort after
  /// entries.back().name when the page's trailing names were dropped (a
  /// name still live on a stale replica but punched where it is read).
  std::string next_marker;
};

/// Open flags (subset of O_*).
struct OpenFlags {
  bool create = false;
  bool exclusive = false;  ///< with create: fail if the file exists
  bool truncate = false;
};

using Fd = std::uint64_t;

class Dfs {
 public:
  /// Mounts the DFS namespace in `cont`. With `create`, formats a fresh
  /// namespace (root object + superblock); otherwise verifies the
  /// superblock written by a previous mount.
  static Result<std::unique_ptr<Dfs>> Mount(daos::DaosClient* client,
                                            daos::ContainerId cont,
                                            bool create,
                                            DfsConfig config = {});

  // --- namespace operations (control-plane traffic in ROS2) --------------
  Status Mkdir(const std::string& path, std::uint32_t mode = 0755);
  Result<Fd> Open(const std::string& path, OpenFlags flags,
                  std::uint32_t mode = 0644);
  Status Close(Fd fd);
  Result<DfsStat> Stat(const std::string& path);
  Result<std::vector<DirEntry>> Readdir(const std::string& path);
  /// Paged listing for directories too large to materialize at once: one
  /// server-side page of names with their entry records. Fails (DATA_LOSS
  /// on a failed checksum) rather than omit an entry it cannot read.
  Result<ReaddirResult> Readdir(const std::string& path,
                                const ReaddirPage& page);
  Status Unlink(const std::string& path);  ///< file or empty directory
  Status Rename(const std::string& from, const std::string& to);

  // --- file I/O (data-plane traffic) --------------------------------------
  /// Returns bytes read (clamped at EOF). Chunk-spanning reads issue every
  /// chunk fetch in one pipelined batch; holes read as zeros.
  Result<std::uint64_t> Read(Fd fd, std::uint64_t offset,
                             std::span<std::byte> out);
  Status Write(Fd fd, std::uint64_t offset, std::span<const std::byte> data);
  Result<std::uint64_t> Size(Fd fd);
  /// Backing object id of an open file (used by inline services that need
  /// a stable per-file nonce).
  Result<daos::ObjectId> Oid(Fd fd) const;
  Status Truncate(Fd fd, std::uint64_t new_size);
  /// Durability barrier. The model's tiers are immediately durable, so this
  /// only validates the handle (kept for POSIX parity with FIO's fsync).
  Status Fsync(Fd fd);

  std::uint64_t chunk_size() const { return config_.chunk_size; }
  const DfsConfig& config() const { return config_; }

  /// Registers the dfs/* subtree (cache hits/misses, chunk ops, readdir
  /// pages, stream refills/flushes). Counters are views (LinkCounter), so
  /// the tree must not outlive this Dfs.
  void AttachTelemetry(telemetry::Telemetry* tree);

 private:
  friend class DfsOutputStream;
  friend class DfsInputStream;

  /// Size/handle state shared by every fd open on the same file, so a
  /// truncate or extending write through one fd is immediately visible to
  /// the others (the per-fd copy it replaces went stale on exactly that
  /// interleaving).
  struct FileState {
    daos::ObjectId oid;
    std::uint64_t size = 0;
  };

  Dfs(daos::DaosClient* client, daos::ContainerId cont, DfsConfig config)
      : client_(client), cont_(cont), config_(config) {}

  /// Resolves `path` to its parent directory oid + leaf name.
  Status ResolveParent(const std::string& path, daos::ObjectId* parent,
                       std::string* leaf) ROS2_EXCLUDES(mu_);
  /// Looks up one entry in a directory (through the lookup cache).
  Result<DfsStat> LookupEntry(const daos::ObjectId& dir,
                              const std::string& name) ROS2_EXCLUDES(mu_);
  Status WriteEntry(const daos::ObjectId& dir, const std::string& name,
                    const DfsStat& stat);

  Result<std::uint64_t> LoadFileSize(const daos::ObjectId& oid);
  Status StoreFileSize(const daos::ObjectId& oid, std::uint64_t size);

  Result<std::shared_ptr<FileState>> FindState(Fd fd) const
      ROS2_EXCLUDES(mu_);

  // Lookup cache (bounded LRU over (dir oid, name) -> entry record).
  void CacheInsert(const daos::ObjectId& dir, const std::string& name,
                   const DfsStat& stat) ROS2_EXCLUDES(mu_);
  void CacheErase(const daos::ObjectId& dir, const std::string& name)
      ROS2_EXCLUDES(mu_);

  daos::DaosClient* client_;
  daos::ContainerId cont_;
  DfsConfig config_;
  daos::ObjectId root_;

  /// Guards the fd table, the shared per-oid file states, and the lookup
  /// cache. Never held across an RPC.
  mutable common::Mutex mu_;
  std::map<Fd, std::shared_ptr<FileState>> open_files_ ROS2_GUARDED_BY(mu_);
  /// Live states by oid; entries expire when the last fd closes.
  std::map<daos::ObjectId, std::weak_ptr<FileState>> states_by_oid_
      ROS2_GUARDED_BY(mu_);
  Fd next_fd_ ROS2_GUARDED_BY(mu_) = 3;  // 0/1/2 reserved, POSIX-style

  using CacheList = std::list<std::pair<std::string, DfsStat>>;
  CacheList cache_lru_ ROS2_GUARDED_BY(mu_);  ///< front = most recent
  std::unordered_map<std::string, CacheList::iterator> cache_index_
      ROS2_GUARDED_BY(mu_);

  // dfs/* telemetry (lock-free; linked into the tree by AttachTelemetry).
  telemetry::Counter lookup_hits_;
  telemetry::Counter lookup_misses_;
  telemetry::Counter lookup_evictions_;
  telemetry::Counter chunk_fetches_;
  telemetry::Counter chunk_updates_;
  telemetry::Counter read_batches_;
  telemetry::Counter write_batches_;
  telemetry::Counter readdir_pages_;
  telemetry::Counter readdir_entries_;
  telemetry::Counter readahead_refills_;
  telemetry::Counter coalesced_flushes_;
};

}  // namespace ros2::dfs
