// The system under test (Rig) and the op issuer every workload drives it
// through (Runner).
//
// Untraced, each workload op is one Ros2Client call, timed and verified.
// Traced, one op in eight is a probe: the same op issued through a lower
// layer's public entry point (dfs, DaosClient, the target's Vos) or
// rebuilt from Ros2Client's own parts (grant + dfs + staging + crypto).
// A probe has exactly the data effect of the op it replaces, so the
// workload's state evolves as in the untraced run.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/ros2_client.h"
#include "recorder.h"
#include "rpc/control_channel.h"
#include "telemetry/metrics.h"

namespace wallbench {

struct Deployment {
  ros2::perf::Platform platform = ros2::perf::Platform::kServerHost;
  ros2::net::Transport transport = ros2::net::Transport::kRdma;
  bool inline_crypto = false;
};

/// One booted default serial cluster (4 SSDs, 16 targets) with one
/// connected client, plus the handles the probes need.
class Rig {
 public:
  static ros2::Result<std::unique_ptr<Rig>> Boot(const Deployment& d);

  ros2::core::Ros2Cluster& cluster() { return *cluster_; }
  ros2::core::Ros2Client& client() { return *client_; }
  ros2::dfs::Dfs& dfs() { return *client_->dfs(); }
  ros2::daos::DaosClient& daos() { return *client_->daos_client(); }
  ros2::daos::ContainerId container() const { return container_; }
  ros2::net::Endpoint& client_endpoint() { return *client_endpoint_; }
  ros2::rpc::ControlChannel& control() { return *control_; }
  const ros2::core::ChaChaKey& key() const { return key_; }
  /// dfs/* counters of the client's Dfs.
  const ros2::telemetry::Telemetry& dfs_tree() const { return *dfs_tree_; }
  const Deployment& deployment() const { return deployment_; }

 private:
  Rig() = default;

  Deployment deployment_;
  std::unique_ptr<ros2::core::Ros2Cluster> cluster_;
  std::unique_ptr<ros2::core::Ros2Client> client_;
  std::unique_ptr<ros2::rpc::ControlChannel> control_;
  // Holds views into the client's Dfs, so it is declared (and destroyed)
  // after client_.
  std::unique_ptr<ros2::telemetry::Telemetry> dfs_tree_;
  ros2::daos::ContainerId container_ = 0;
  ros2::net::Endpoint* client_endpoint_ = nullptr;
  ros2::core::ChaChaKey key_{};
};

class Runner {
 public:
  struct Capacity {
    std::size_t samples_per_class = 0;
    std::size_t span_records = 0;
    std::size_t units = 0;
  };
  Runner(Capacity capacity, bool trace);

  /// Points the runner at a freshly booted rig (once per set-up).
  void Attach(Rig* rig);

  /// Starts the timed phase: ops from here on are timed, recorded and (when
  /// tracing) probed, until Expired().
  void BeginTimed(double seconds);
  void EndTimed();
  /// The timed phase's deadline (or sample capacity) was reached; always
  /// false outside the timed phase.
  bool Expired() const;

  // --- workload ops ----------------------------------------------------
  // Each returns false when the call failed; failures are counted (and
  // end the process with exit code 1 during set-up). A read whose bytes
  // differ from `expected` ends the process with exit code 3, unless
  // `verify` is false: the workload lost track of the bytes because an
  // earlier write to them failed.
  /// Set-up only: never timed or probed.
  bool Mkdir(const std::string& path);
  /// Returns the fd, or 0 when the open failed.
  ros2::dfs::Fd Open(const std::string& path, bool create);
  bool Close(ros2::dfs::Fd fd);
  bool Stat(const std::string& path, std::uint64_t expected_size,
            bool verify = true);
  bool Unlink(const std::string& path);
  bool Readdir(const std::string& path, std::size_t expected_entries,
               bool verify = true);
  bool Read(ros2::dfs::Fd fd, std::uint64_t offset,
            std::span<const std::byte> expected, bool verify = true);
  bool Write(ros2::dfs::Fd fd, std::uint64_t offset,
             std::span<const std::byte> data);

  /// Records stored VOS bytes / `live_user_bytes` (end of a round or step;
  /// timed phase only).
  void SampleSpaceAmp(std::uint64_t live_user_bytes);
  /// Ends the current work unit (see Units; timed phase only).
  void EndUnit();

  // --- results of the timed phase ----------------------------------------
  const Samples& samples(OpClass c) const {
    return samples_[std::size_t(c)];
  }
  const SpanLog& spans() const { return spans_; }
  const Units& units() const { return units_; }
  std::uint64_t attempted() const { return attempted_; }
  /// Ops of class `c` attempted, probes included.
  std::uint64_t attempted(OpClass c) const {
    return attempted_by_class_[std::size_t(c)];
  }
  std::uint64_t failed() const { return failed_; }
  std::uint64_t busy_ns() const { return busy_ns_; }
  std::uint64_t bytes_read() const { return bytes_read_; }
  std::uint64_t bytes_written() const { return bytes_written_; }
  std::uint64_t timed_start_ns() const { return start_ns_; }
  std::uint64_t timed_end_ns() const { return end_ns_; }
  bool capacity_reached() const { return capacity_reached_; }
  /// Median of the space-amplification samples (0 when none).
  double SpaceAmp() const;
  bool trace() const { return trace_; }

 private:
  enum class Layer : std::uint8_t { kDfs, kDaos, kVos, kParts };

  /// Accounts one op of the timed phase (no-op in set-up): `core` is its
  /// Ros2Client span, or kNone for a probe (timed, but not a sample).
  void Account(OpClass c, Span core, std::uint64_t t0, std::uint64_t t1,
               bool ok, std::uint64_t bytes = 0);
  /// True when the next op of the timed phase is a probe.
  bool NextIsProbe();
  /// One namespace op: the Ros2Client call, or its Dfs call as a probe.
  template <typename CoreCall, typename DfsCall>
  auto Meta(OpClass c, Span core, Span dfs, CoreCall core_call,
            DfsCall dfs_call) -> decltype(core_call());
  void Fail(const char* what, const ros2::Status& s);
  void Verify(std::span<const std::byte> got,
              std::span<const std::byte> expected, ros2::dfs::Fd fd,
              std::uint64_t offset);

  /// The probe form of Read: bytes delivered into `out`, as Pread.
  ros2::Result<std::uint64_t> ProbeRead(ros2::dfs::Fd fd, std::uint64_t offset,
                                        std::span<std::byte> out);
  ros2::Status ProbeWrite(ros2::dfs::Fd fd, std::uint64_t offset,
                          std::span<const std::byte> data);
  /// ChaCha20 over `buf` at the file offset, as the DPU service applies it.
  void Crypt(ros2::dfs::Fd fd, std::uint64_t offset, std::span<std::byte> buf,
             Span parent);
  /// Chunk dkey for a byte offset into dkey_; returns the in-chunk offset.
  std::uint64_t LocateChunk(std::uint64_t offset);
  /// The encoded ros2.grant_qos request for `bytes` (cached per size).
  const ros2::Buffer& GrantRequest(std::uint64_t bytes);

  Rig* rig_ = nullptr;
  bool trace_;
  bool timed_ = false;
  std::uint64_t start_ns_ = 0;
  std::uint64_t deadline_ns_ = 0;
  std::uint64_t end_ns_ = 0;
  std::uint64_t last_ns_ = 0;
  bool capacity_reached_ = false;

  std::array<Samples, std::size_t(OpClass::kCount)> samples_;
  SpanLog spans_;
  Units units_;
  std::uint64_t attempted_ = 0;
  std::array<std::uint64_t, std::size_t(OpClass::kCount)> attempted_by_class_{};
  std::uint64_t failed_ = 0;
  std::uint64_t busy_ns_ = 0;
  std::uint64_t bytes_read_ = 0;
  std::uint64_t bytes_written_ = 0;
  std::uint64_t op_seq_ = 0;
  std::uint64_t read_probes_ = 0;
  std::uint64_t write_probes_ = 0;
  std::uint64_t errors_printed_ = 0;

  std::vector<double> space_amp_;
  std::size_t space_amp_n_ = 0;

  // I/O buffers, preallocated: writes copy their data into write_buf_ so
  // every Pwrite uses one registered region, like a real staging buffer.
  std::vector<std::byte> read_buf_;
  std::vector<std::byte> write_buf_;
  std::vector<std::byte> staging_buf_;
  std::string dkey_;
  const std::string akey_ = "d";
  const std::string grant_method_ = "ros2.grant_qos";
  ros2::Buffer grant_request_;
  std::uint64_t grant_request_bytes_ = ~0ull;
};

}  // namespace wallbench
