#include "workloads.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstring>
#include <vector>

#include "common/rng.h"

namespace wallbench {
namespace {

using ros2::dfs::Fd;
using ros2::net::Transport;
using ros2::perf::Platform;

constexpr std::uint64_t kMiB = 1ull << 20;

/// `prefix` followed by `n` in decimal. Paths stay within the small-string
/// buffer (15 chars), so rebuilding one inside the timed loop never
/// allocates.
void SetPath(std::string& out, const char* prefix, std::uint64_t n) {
  char buf[32];
  const std::size_t len = std::strlen(prefix);
  std::memcpy(buf, prefix, len);
  char* end = std::to_chars(buf + len, buf + sizeof(buf), n).ptr;
  out.assign(buf, end);
}

std::uint64_t Scaled(std::uint64_t full, int scale, std::uint64_t floor) {
  return std::max(full / std::uint64_t(scale), floor);
}

/// A shuffled deck of action kinds: each pass over the deck holds exactly
/// the configured count of each kind, so the mix never drifts with the seed.
template <std::size_t N>
class Deck {
 public:
  Deck(std::initializer_list<std::pair<std::uint8_t, std::size_t>> counts) {
    std::size_t i = 0;
    for (auto [kind, n] : counts) {
      for (std::size_t k = 0; k < n; ++k) cards_[i++] = kind;
    }
  }
  std::uint8_t Draw(ros2::Rng& rng) {
    if (pos_ == 0) {
      for (std::size_t i = N - 1; i > 0; --i) {
        std::swap(cards_[i], cards_[rng.Below(i + 1)]);
      }
    }
    const std::uint8_t card = cards_[pos_];
    pos_ = (pos_ + 1) % N;
    return card;
  }

 private:
  std::array<std::uint8_t, N> cards_{};
  std::size_t pos_ = 0;
};

// dataloader_4k: uniform-random 4 KiB samples from four pre-ingested
// shards held open, so the per-op fixed cost and VOS read amplification
// (a 1 MiB record loaded per 4 KiB sample) are what is measured.
class Dataloader final : public Workload {
 public:
  Dataloader(const DataPool& pool, std::uint64_t seed, int scale)
      : pool_(pool),
        seed_(seed),
        rng_(Mix(seed, 1)),
        shard_bytes_(Scaled(64 * kMiB, scale, kMiB) / kMiB * kMiB) {}

  void Setup(Runner& d) override {
    d.Mkdir("/train");
    std::string path;
    for (std::uint64_t s = 0; s < kShards; ++s) {
      SetPath(path, "/train/s", s);
      fds_[s] = d.Open(path, /*create=*/true);
      base_[s] = Mix(seed_, 1, s);
      for (std::uint64_t off = 0; off < shard_bytes_; off += kMiB) {
        d.Write(fds_[s], off, pool_.Window(base_[s], off, kMiB));
      }
    }
  }

  void Run(Runner& d) override {
    const std::uint64_t samples = shard_bytes_ / kSample;
    for (std::uint64_t n = 1; !d.Expired(); ++n) {
      const std::uint64_t s = rng_.Below(kShards);
      const std::uint64_t off = rng_.Below(samples) * kSample;
      d.Read(fds_[s], off, pool_.Window(base_[s], off, kSample));
      if (n % kUnitReads == 0) d.EndUnit();
    }
    d.SampleSpaceAmp(kShards * shard_bytes_);
  }

 private:
  static constexpr std::uint64_t kShards = 4;
  static constexpr std::uint64_t kSample = 4096;
  static constexpr std::uint64_t kUnitReads = 1024;
  const DataPool& pool_;
  std::uint64_t seed_;
  ros2::Rng rng_;
  std::uint64_t shard_bytes_;
  std::array<Fd, kShards> fds_{};
  std::array<std::uint64_t, kShards> base_{};
};

// checkpoint_1m / encrypted_ckpt: each step writes a checkpoint file in
// 1 MiB writes, restores it with 1 MiB reads, and unlinks step k-2 so the
// last two survive. Cost is proportional to bytes.
class Checkpoint final : public Workload {
 public:
  Checkpoint(const DataPool& pool, std::uint64_t seed, int scale,
             std::uint64_t step_bytes)
      : pool_(pool),
        seed_(seed),
        step_bytes_(Scaled(step_bytes, scale, kMiB) / kMiB * kMiB),
        steps_per_unit_(std::max<std::uint64_t>(kUnitBytes / step_bytes_, 1)) {}

  // The first kKept + 1 steps run in set-up: until then every step lands
  // on never-written device space, and the timed phase would start with
  // first-touch costs that later steps (reusing freed extents) never pay.
  void Setup(Runner& d) override {
    d.Mkdir("/ckpt");
    for (std::uint64_t k = 0; k <= kKept; ++k) Step(d, k);
  }

  void Run(Runner& d) override {
    for (std::uint64_t n = 1; !d.Expired(); ++n) {
      Step(d, kKept + n);
      // A step cut short by the deadline leaves its unit open (dropped).
      if (n % steps_per_unit_ == 0 && !d.Expired()) d.EndUnit();
    }
  }

 private:
  static constexpr std::uint64_t kKept = 2;
  /// Restored bytes per work unit: 256 reads, enough behind a unit's p99.
  static constexpr std::uint64_t kUnitBytes = 256 * kMiB;

  void Step(Runner& d, std::uint64_t k) {
    SetPath(path_, "/ckpt/s", k);
    const std::uint64_t base = Mix(seed_, 2, k);
    Fd fd = d.Open(path_, /*create=*/true);
    bool intact = fd != 0;  // false: a write failed, the file is unknown
    for (std::uint64_t off = 0; off < step_bytes_ && !d.Expired();
         off += kMiB) {
      intact &= d.Write(fd, off, pool_.Window(base, off, kMiB));
    }
    d.Close(fd);
    if (d.Expired()) return;
    // Peak: this step's file plus the kKept before it.
    d.SampleSpaceAmp((kKept + 1) * step_bytes_);
    fd = d.Open(path_, /*create=*/false);
    for (std::uint64_t off = 0; off < step_bytes_ && !d.Expired();
         off += kMiB) {
      d.Read(fd, off, pool_.Window(base, off, kMiB), intact);
    }
    d.Close(fd);
    if (k >= kKept) {
      SetPath(old_path_, "/ckpt/s", k - kKept);
      d.Unlink(old_path_);
    }
  }

  const DataPool& pool_;
  std::uint64_t seed_;
  std::uint64_t step_bytes_;
  std::uint64_t steps_per_unit_;
  std::string path_;
  std::string old_path_;
};

// namespace_walk: more files than the 4096-entry lookup cache, visited at
// random. Per 64 actions: 61 fetch a sample (Stat+Open+Pread+Close), 2
// replace a file (Unlink+create+Pwrite+Close), 1 lists a directory.
class NamespaceWalk final : public Workload {
 public:
  NamespaceWalk(const DataPool& pool, std::uint64_t seed, int scale)
      : pool_(pool),
        seed_(seed),
        rng_(Mix(seed, 3)),
        files_per_dir_(Scaled(512, scale, 8)),
        deck_({{kFetch, 61}, {kReplace, 2}, {kList, 1}}) {
    const std::uint64_t n = kDirs * files_per_dir_;
    dirs_.resize(kDirs);
    paths_.resize(n);
    versions_.assign(n, 0);
    intact_.assign(n, 1);
    for (std::uint64_t dir = 0; dir < kDirs; ++dir) {
      SetPath(dirs_[dir], "/d", dir);
      for (std::uint64_t f = 0; f < files_per_dir_; ++f) {
        SetPath(paths_[dir * files_per_dir_ + f], (dirs_[dir] + "/f").c_str(),
                f);
      }
    }
  }

  void Setup(Runner& d) override {
    for (const std::string& dir : dirs_) d.Mkdir(dir);
    for (std::uint64_t i = 0; i < paths_.size(); ++i) {
      const Fd fd = d.Open(paths_[i], /*create=*/true);
      d.Write(fd, 0, Content(i));
      d.Close(fd);
    }
  }

  void Run(Runner& d) override {
    for (std::uint64_t n = 1; !d.Expired(); ++n) {
      switch (deck_.Draw(rng_)) {
        case kFetch: {
          const std::uint64_t i = rng_.Below(paths_.size());
          d.Stat(paths_[i], kFileBytes, intact_[i]);
          const Fd fd = d.Open(paths_[i], /*create=*/false);
          d.Read(fd, 0, Content(i), intact_[i]);
          d.Close(fd);
          break;
        }
        case kReplace: {
          // A failed step leaves the file (or its listing) unknown, so it
          // is no longer verified rather than reported as corrupt.
          const std::uint64_t i = rng_.Below(paths_.size());
          const bool removed = d.Unlink(paths_[i]);
          const Fd fd = d.Open(paths_[i], /*create=*/true);
          listings_intact_ &= removed && fd != 0;
          ++versions_[i];
          intact_[i] = fd != 0 && d.Write(fd, 0, Content(i));
          d.Close(fd);
          break;
        }
        case kList:
          d.Readdir(dirs_[rng_.Below(kDirs)], files_per_dir_,
                    listings_intact_);
          break;
      }
      if (n % kUnitActions == 0) d.EndUnit();
    }
    d.SampleSpaceAmp(paths_.size() * kFileBytes);
  }

 private:
  static constexpr std::uint64_t kDirs = 16;
  static constexpr std::uint64_t kFileBytes = 8192;
  static constexpr std::uint64_t kUnitActions = 1024;  // 16 decks
  enum : std::uint8_t { kFetch, kReplace, kList };

  std::span<const std::byte> Content(std::uint64_t i) const {
    return pool_.Window(Mix(seed_, i, versions_[i]), 0, kFileBytes);
  }

  const DataPool& pool_;
  std::uint64_t seed_;
  ros2::Rng rng_;
  std::uint64_t files_per_dir_;
  Deck<64> deck_;
  std::vector<std::string> dirs_;
  std::vector<std::string> paths_;
  std::vector<std::uint32_t> versions_;
  std::vector<std::uint8_t> intact_;
  bool listings_intact_ = true;
};

// overwrite_tcp: rounds of 32 x 2 MiB files written in 64 KiB blocks,
// then random 64 KiB reads (70 %) and in-place overwrites (30 %). VOS keeps
// every overwritten record (no aggregation), so space amplification grows
// through a round; unlinking the files at the end of the round frees it.
// Rounds are sized to stay well inside the SCM tier.
class Overwrite final : public Workload {
 public:
  Overwrite(const DataPool& pool, std::uint64_t seed, int scale)
      : pool_(pool),
        seed_(seed),
        rng_(Mix(seed, 4)),
        blocks_per_file_(Scaled(2 * kMiB, scale, kBlock) / kBlock),
        round_ops_(Scaled(16000, scale, 100)),
        deck_({{kRead, 7}, {kWrite, 3}}),
        base_(kFiles * blocks_per_file_),
        intact_(kFiles * blocks_per_file_) {
    for (std::uint64_t f = 0; f < kFiles; ++f) SetPath(paths_[f], "/o/f", f);
  }

  void Setup(Runner& d) override { d.Mkdir("/o"); }

  void Run(Runner& d) override {
    while (!d.Expired()) {
      for (std::uint64_t f = 0; f < kFiles; ++f) {
        fds_[f] = d.Open(paths_[f], /*create=*/true);
        for (std::uint64_t b = 0; b < blocks_per_file_; ++b) {
          if (d.Expired()) return;
          Rewrite(d, f, b);
        }
      }
      for (std::uint64_t op = 0; op < round_ops_; ++op) {
        if (d.Expired()) return;
        const std::uint64_t f = rng_.Below(kFiles);
        const std::uint64_t b = rng_.Below(blocks_per_file_);
        if (deck_.Draw(rng_) == kRead) {
          d.Read(fds_[f], b * kBlock, Block(f, b),
                 intact_[f * blocks_per_file_ + b]);
        } else {
          Rewrite(d, f, b);
        }
      }
      d.SampleSpaceAmp(kFiles * blocks_per_file_ * kBlock);
      for (std::uint64_t f = 0; f < kFiles; ++f) {
        d.Close(fds_[f]);
        d.Unlink(paths_[f]);
      }
      d.EndUnit();
    }
  }

 private:
  static constexpr std::uint64_t kFiles = 32;
  static constexpr std::uint64_t kBlock = 64 * 1024;
  enum : std::uint8_t { kRead, kWrite };

  std::span<const std::byte> Block(std::uint64_t f, std::uint64_t b) const {
    return pool_.Window(base_[f * blocks_per_file_ + b], 0, kBlock);
  }
  /// A failed write leaves the block unknown: it is no longer verified
  /// (rather than reported as corrupt) until a later write succeeds.
  void Rewrite(Runner& d, std::uint64_t f, std::uint64_t b) {
    const std::size_t i = f * blocks_per_file_ + b;
    base_[i] = Mix(seed_, 4, ++writes_);
    intact_[i] = d.Write(fds_[f], b * kBlock, Block(f, b));
  }

  const DataPool& pool_;
  std::uint64_t seed_;
  ros2::Rng rng_;
  std::uint64_t blocks_per_file_;
  std::uint64_t round_ops_;
  Deck<10> deck_;
  std::array<std::string, kFiles> paths_;
  std::array<Fd, kFiles> fds_{};
  std::vector<std::uint64_t> base_;
  std::vector<std::uint8_t> intact_;
  std::uint64_t writes_ = 0;
};

constexpr Deployment kHostRdma{Platform::kServerHost, Transport::kRdma, false};
constexpr Deployment kDpuRdma{Platform::kBlueField3, Transport::kRdma, false};
constexpr Deployment kDpuTcp{Platform::kBlueField3, Transport::kTcp, false};
constexpr Deployment kDpuRdmaCrypto{Platform::kBlueField3, Transport::kRdma,
                                    true};

template <typename W, auto... Args>
std::unique_ptr<Workload> Make(const DataPool& pool, std::uint64_t seed,
                               int scale) {
  return std::make_unique<W>(pool, seed, scale, Args...);
}

constexpr WorkloadSpec kWorkloads[] = {
    {"dataloader_4k", kHostRdma, Make<Dataloader>},
    {"checkpoint_1m", kDpuRdma, Make<Checkpoint, 128 * kMiB>},
    {"namespace_walk", kDpuRdma, Make<NamespaceWalk>},
    {"overwrite_tcp", kDpuTcp, Make<Overwrite>},
    {"encrypted_ckpt", kDpuRdmaCrypto, Make<Checkpoint, 64 * kMiB>},
};

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::string WorkloadNames() {
  std::string out;
  for (const WorkloadSpec& w : kWorkloads) {
    if (!out.empty()) out += ", ";
    out += w.name;
  }
  return out;
}

}  // namespace wallbench
