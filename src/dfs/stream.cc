#include "dfs/stream.h"

#include <algorithm>
#include <cstring>

namespace ros2::dfs {

DfsOutputStream::DfsOutputStream(Dfs* dfs, Fd fd, std::size_t buffer_size)
    : dfs_(dfs),
      fd_(fd),
      buffer_(buffer_size == 0
                  ? std::size_t(dfs->config().write_coalesce_chunks *
                                dfs->chunk_size())
                  : buffer_size) {}

DfsOutputStream::~DfsOutputStream() {
  // Best-effort: the destructor has nowhere to surface a Status. Writers
  // that care about durability must call Close() and check it.
  (void)Close();
}

Status DfsOutputStream::Append(std::span<const std::byte> data) {
  if (closed_) return FailedPrecondition("stream is closed");
  if (!first_error_.ok()) return first_error_;
  std::size_t done = 0;
  while (done < data.size()) {
    if (fill_ == buffer_.size()) {
      ROS2_RETURN_IF_ERROR(Flush());
    }
    const std::size_t n =
        std::min(data.size() - done, buffer_.size() - fill_);
    std::memcpy(buffer_.data() + fill_, data.data() + done, n);
    fill_ += n;
    done += n;
    offset_ += n;
  }
  return Status::Ok();
}

Status DfsOutputStream::Flush() {
  if (closed_) return FailedPrecondition("stream is closed");
  if (!first_error_.ok()) return first_error_;
  if (fill_ == 0) return Status::Ok();
  Status wrote = dfs_->Write(
      fd_, buffered_at_, std::span<const std::byte>(buffer_.data(), fill_));
  if (!wrote.ok()) {
    first_error_ = wrote;  // latch: no further writes past the hole
    return wrote;
  }
  buffered_at_ += fill_;
  fill_ = 0;
  ++flushes_;
  dfs_->coalesced_flushes_.Add(1);
  return Status::Ok();
}

Status DfsOutputStream::Close() {
  if (closed_) return first_error_;
  (void)Flush();  // outcome (success or first failure) lands in status()
  closed_ = true;
  return first_error_;
}

DfsInputStream::DfsInputStream(Dfs* dfs, Fd fd, std::size_t readahead)
    : dfs_(dfs),
      fd_(fd),
      window_(readahead == 0
                  ? std::size_t(dfs->config().readahead_chunks *
                                dfs->chunk_size())
                  : readahead) {}

Status DfsInputStream::Refill() {
  window_at_ = offset_;
  ROS2_ASSIGN_OR_RETURN(window_len_, dfs_->Read(fd_, window_at_, window_));
  ++refills_;
  dfs_->readahead_refills_.Add(1);
  return Status::Ok();
}

Result<std::uint64_t> DfsInputStream::Read(std::span<std::byte> out) {
  if (window_.empty()) {
    // No readahead: no speculative window, one exact-size read per call.
    ROS2_ASSIGN_OR_RETURN(std::uint64_t n, dfs_->Read(fd_, offset_, out));
    offset_ += n;
    return n;
  }
  std::uint64_t done = 0;
  while (done < out.size()) {
    const bool in_window =
        offset_ >= window_at_ && offset_ < window_at_ + window_len_;
    if (!in_window) {
      ROS2_RETURN_IF_ERROR(Refill());
      if (window_len_ == 0) break;  // EOF
    }
    const std::uint64_t within = offset_ - window_at_;
    const std::uint64_t n = std::min<std::uint64_t>(
        out.size() - done, window_len_ - within);
    std::memcpy(out.data() + done, window_.data() + within, n);
    done += n;
    offset_ += n;
  }
  return done;
}

void DfsInputStream::Seek(std::uint64_t offset) { offset_ = offset; }

}  // namespace ros2::dfs
