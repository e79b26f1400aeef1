// Buffered sequential streams over DFS files (§3.3: "client-side batching
// for large requests").
//
// FIO-style workloads issue aligned blocks, but real pipelines (checkpoint
// writers, dataset ingesters) emit odd-sized appends. These adapters batch
// them into chunk-sized DAOS updates / readahead fetches so the RPC count
// scales with data volume, not call count.
#pragma once

#include <cstdint>

#include "common/bytes.h"
#include "common/status.h"
#include "dfs/dfs.h"

namespace ros2::dfs {

/// Append-oriented buffered writer. Not thread-safe (one stream per file
/// writer, like std::ofstream). Data is visible after Flush()/Close().
///
/// Error model: the first failed write latches (status()); subsequent
/// Append/Flush calls fail fast with it rather than writing out of order
/// past a hole. Call Close() to drain the buffer AND observe any failure
/// — the destructor closes best-effort and must discard the status, so a
/// writer that never calls Close() can lose a write error silently.
class DfsOutputStream {
 public:
  /// Buffers up to `buffer_size` bytes (default: the mount's
  /// write_coalesce_chunks * chunk_size, so each flush is one pipelined
  /// multi-chunk batch rather than one RPC per Append).
  DfsOutputStream(Dfs* dfs, Fd fd, std::size_t buffer_size = 0);
  ~DfsOutputStream();  ///< best-effort Close(); call Close() to check errors

  DfsOutputStream(const DfsOutputStream&) = delete;
  DfsOutputStream& operator=(const DfsOutputStream&) = delete;

  /// Appends at the current stream offset, batching into the buffer.
  Status Append(std::span<const std::byte> data);

  /// Writes out any buffered bytes.
  Status Flush();

  /// Flushes and seals the stream: further Append/Flush calls fail with
  /// FAILED_PRECONDITION. Returns the first write failure the stream hit
  /// (including one during this Close); idempotent — closing again
  /// returns the same status.
  Status Close();
  bool closed() const { return closed_; }

  /// First write failure the stream latched (OK while healthy).
  const Status& status() const { return first_error_; }

  /// Bytes appended so far (buffered + flushed).
  std::uint64_t offset() const { return offset_; }
  std::uint64_t flushes() const { return flushes_; }

 private:
  Dfs* dfs_;
  Fd fd_;
  std::uint64_t offset_ = 0;     ///< logical end of the stream
  std::uint64_t buffered_at_ = 0;  ///< file offset of buffer_[0]
  Buffer buffer_;
  std::size_t fill_ = 0;
  std::uint64_t flushes_ = 0;
  Status first_error_;
  bool closed_ = false;
};

/// Sequential buffered reader with readahead.
///
/// Each window miss refills readahead bytes ahead of the cursor in one
/// pipelined multi-chunk read (default window: the mount's
/// readahead_chunks * chunk_size). With a 0-byte window
/// (readahead_chunks = 0) the stream is a pass-through: every Read goes
/// straight to Dfs::Read for exactly the bytes asked, nothing speculative.
class DfsInputStream {
 public:
  DfsInputStream(Dfs* dfs, Fd fd, std::size_t readahead = 0);

  /// Reads at the cursor; returns bytes read (0 at EOF).
  Result<std::uint64_t> Read(std::span<std::byte> out);

  /// Moves the cursor (keeps the window if it still covers the position).
  void Seek(std::uint64_t offset);

  std::uint64_t offset() const { return offset_; }
  std::uint64_t refills() const { return refills_; }

 private:
  Status Refill();

  Dfs* dfs_;
  Fd fd_;
  std::uint64_t offset_ = 0;   ///< cursor
  std::uint64_t window_at_ = 0;
  Buffer window_;
  std::uint64_t window_len_ = 0;  ///< valid bytes in window_
  std::uint64_t refills_ = 0;
};

}  // namespace ros2::dfs
