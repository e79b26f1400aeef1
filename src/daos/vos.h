// Versioned Object Store — one per engine target (§2.4).
//
// Implements DAOS's transactional, versioned object model over the two
// storage tiers:
//
//   object -> dkey -> akey -> { single value | extent array }
//
// Every update is stamped with an epoch; fetches read "as of" an epoch
// (overlapping extents resolve newest-visible-wins: the record log is
// walked newest first, as DAOS's EV-tree returns only visible extents).
// Records carry end-to-end CRC-32C, one per kCsumChunk of the record
// (DAOS's container `cksum_size`): computed at ingest, and on every fetch
// verified for each chunk of the visible bytes the fetch returns, so a
// corrupted tier surfaces as DATA_LOSS rather than silent bad bytes. A
// fetch reads only the chunks that cover the bytes asked for, never the
// whole record.
//
// Tiering follows DAOS policy: records <= the SCM threshold (and all
// single values) land in the PMEM pool; larger extents go to NVMe through
// the block allocator. A non-empty record that finds the PMEM pool full
// goes to NVMe as well instead of failing the update.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "daos/nvme_alloc.h"
#include "daos/types.h"
#include "scm/pmem_pool.h"
#include "spdk/bdev.h"

namespace ros2::daos {

struct VosConfig {
  /// Records at or below this size are stored in SCM (DAOS default policy).
  std::uint64_t scm_threshold = 64 * 1024;
  bool checksums = true;
  /// NVMe partition assigned to this target on the (possibly shared)
  /// bdev; capacity 0 means "the whole device".
  std::uint64_t nvme_base = 0;
  std::uint64_t nvme_capacity = 0;
};

// Relaxed atomics, not plain integers: with xstream workers each target's
// Vos is single-writer, but telemetry snapshots read these fields from the
// progress thread while the owning worker keeps ticking them.
struct VosStats {
  std::atomic<std::uint64_t> updates{0};
  std::atomic<std::uint64_t> fetches{0};
  std::atomic<std::uint64_t> scm_records{0};
  std::atomic<std::uint64_t> nvme_records{0};
  std::atomic<std::uint64_t> bytes_in_scm{0};
  std::atomic<std::uint64_t> bytes_in_nvme{0};
};

class Vos {
 public:
  /// Checksum granularity: one CRC-32C per this many bytes of a record,
  /// counted from the record's start. A multiple of the 512 B and 4 KiB
  /// LBA sizes, so a chunk-aligned NVMe read is LBA-aligned.
  static constexpr std::uint64_t kCsumChunk = 32 * 1024;

  /// `scm` and `nvme` are the target's storage tiers (borrowed).
  Vos(scm::PmemPool* scm, spdk::Bdev* nvme, VosConfig config = {});
  ~Vos();

  Vos(const Vos&) = delete;
  Vos& operator=(const Vos&) = delete;

  // --- array values ------------------------------------------------------
  /// Writes `data` at `offset` within the array under (oid, dkey, akey),
  /// visible from `epoch` onward.
  Status UpdateArray(const ObjectId& oid, const std::string& dkey,
                     const std::string& akey, Epoch epoch,
                     std::uint64_t offset, std::span<const std::byte> data);

  /// Reads [offset, offset+out.size()) as of `epoch` (kEpochHead = latest).
  /// Holes read as zeros. The record log is walked newest first, and each
  /// record fills only the bytes no newer visible record has filled, so a
  /// byte is loaded and verified once, from the record visible at
  /// `epoch`. A record loads and verifies only the checksum chunks that
  /// cover the bytes it fills; superseded bytes are not verified on a
  /// read, and the walk stops once the range is covered.
  Status FetchArray(const ObjectId& oid, const std::string& dkey,
                    const std::string& akey, Epoch epoch,
                    std::uint64_t offset, std::span<std::byte> out) const;

  /// Logical size: one past the highest written byte as of `epoch`.
  Result<std::uint64_t> ArraySize(const ObjectId& oid,
                                  const std::string& dkey,
                                  const std::string& akey,
                                  Epoch epoch) const;

  // --- single values -----------------------------------------------------
  Status UpdateSingle(const ObjectId& oid, const std::string& dkey,
                      const std::string& akey, Epoch epoch,
                      std::span<const std::byte> value);
  Result<Buffer> FetchSingle(const ObjectId& oid, const std::string& dkey,
                             const std::string& akey, Epoch epoch) const;

  // --- punch (delete) ----------------------------------------------------
  /// Removes the akey's value (visible from `epoch`).
  Status PunchAkey(const ObjectId& oid, const std::string& dkey,
                   const std::string& akey, Epoch epoch);
  Status PunchDkey(const ObjectId& oid, const std::string& dkey, Epoch epoch);
  Status PunchObject(const ObjectId& oid, Epoch epoch);

  // --- enumeration -------------------------------------------------------
  std::vector<std::string> ListDkeys(const ObjectId& oid) const;
  std::vector<std::string> ListAkeys(const ObjectId& oid,
                                     const std::string& dkey) const;
  bool ObjectExists(const ObjectId& oid) const;
  /// Every object resident on this target (rebuild scan).
  std::vector<ObjectId> ListObjects() const;

  /// Export descriptor for one akey under (oid, dkey): the value kind plus
  /// (for arrays) the HEAD logical size — everything the rebuild exporter
  /// needs to materialize the akey with FetchArray/FetchSingle.
  struct AkeyInfo {
    std::string akey;
    ValueType type = ValueType::kArray;
    std::uint64_t head_size = 0;  ///< arrays only: logical size at HEAD
  };
  /// Empty when the dkey (or object) does not exist on this target.
  std::vector<AkeyInfo> DescribeDkey(const ObjectId& oid,
                                     const std::string& dkey) const;

  // --- maintenance -------------------------------------------------------
  /// DAOS aggregation: collapses an array's record log up to `upto` into a
  /// single flat record, reclaiming superseded tier space. Reads at epochs
  /// below `upto` afterwards see the aggregated (latest) state. On failure
  /// the record log is left as it was.
  Status AggregateArray(const ObjectId& oid, const std::string& dkey,
                        const std::string& akey, Epoch upto);

  const VosStats& stats() const { return stats_; }

 private:
  /// Where a record's bytes physically live.
  struct ValueLoc {
    enum class Tier : std::uint8_t { kScm, kNvme } tier = Tier::kScm;
    scm::PmemHandle scm_handle = scm::kNullHandle;
    std::uint64_t nvme_offset = 0;
    std::uint64_t length = 0;       ///< stored bytes (LBA-padded on NVMe)
    std::uint64_t logical_len = 0;  ///< caller bytes
    /// CRC-32C of each kCsumChunk of the caller bytes (the last chunk may
    /// be short); empty when checksums are off.
    std::vector<std::uint32_t> csums;
  };

  /// One versioned extent record in an array's log.
  struct ArrayRecord {
    Extent extent;
    Epoch epoch = 0;
    bool punch = false;  ///< punch records erase the covered range
    ValueLoc loc;
  };

  struct SingleRecord {
    Epoch epoch = 0;
    bool punch = false;
    ValueLoc loc;
  };

  struct AkeyValue {
    ValueType type = ValueType::kArray;
    std::vector<ArrayRecord> records;    // array log, epoch-ordered
    std::vector<SingleRecord> singles;   // single-value log, epoch-ordered
  };

  using DkeyMap = std::map<std::string, AkeyValue>;
  using Object = std::map<std::string, DkeyMap>;

  /// The last checksum chunk a Load read only part of. A record that
  /// fills several gaps of one fetch loads each piece separately; the
  /// cache lets the pieces inside one chunk share one read and one check.
  struct ChunkCache {
    const ValueLoc* loc = nullptr;  ///< nullptr: nothing cached
    std::uint64_t pos = 0;          ///< the chunk's offset in the record
    std::unique_ptr<std::byte[]> bounce;  ///< its stored bytes (NVMe)
  };

  Result<ValueLoc> Store(std::span<const std::byte> data);
  /// Reads the record's caller bytes [offset, offset + out.size()) into
  /// `out`, verifying every checksum chunk the range touches, except a
  /// partly read chunk `cache` already holds verified.
  Status Load(const ValueLoc& loc, std::uint64_t offset,
              std::span<std::byte> out, ChunkCache& cache) const;
  void Release(ValueLoc& loc);

  Result<const AkeyValue*> FindValue(const ObjectId& oid,
                                     const std::string& dkey,
                                     const std::string& akey,
                                     ValueType expected) const;

  scm::PmemPool* scm_;
  spdk::Bdev* nvme_;
  NvmeAllocator nvme_alloc_;
  VosConfig config_;
  mutable VosStats stats_;  // fetch counters tick inside const reads
  std::map<ObjectId, Object> objects_;
};

}  // namespace ros2::daos
