#include "daos/vos.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <memory>
#include <memory_resource>
#include <vector>

#include "common/crc.h"

namespace ros2::daos {
namespace {

/// A part [lo, hi) of a fetch window that no record visited so far covers.
struct Gap {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
};

/// Gaps a fetch keeps on the stack before its gap list moves to the heap.
constexpr std::size_t kInlineGaps = 16;

}  // namespace

Vos::Vos(scm::PmemPool* scm, spdk::Bdev* nvme, VosConfig config)
    : scm_(scm),
      nvme_(nvme),
      nvme_alloc_(config.nvme_base,
                  config.nvme_capacity == 0 ? nvme->size_bytes()
                                            : config.nvme_capacity,
                  nvme->block_size()),
      config_(config) {}

Vos::~Vos() = default;

// ------------------------------------------------------------- tier I/O

Result<Vos::ValueLoc> Vos::Store(std::span<const std::byte> data) {
  ValueLoc loc;
  loc.logical_len = data.size();
  if (config_.checksums) {
    loc.csums.reserve((data.size() + kCsumChunk - 1) / kCsumChunk);
    for (std::uint64_t pos = 0; pos < data.size(); pos += kCsumChunk) {
      loc.csums.push_back(Crc32c(data.subspan(
          pos, std::min<std::uint64_t>(kCsumChunk, data.size() - pos))));
    }
  }
  if (data.size() <= config_.scm_threshold) {
    Result<scm::PmemHandle> handle =
        scm_->Alloc(data.empty() ? 1 : data.size());
    if (handle.ok()) {
      loc.tier = ValueLoc::Tier::kScm;
      loc.scm_handle = *handle;
      loc.length = data.size();
      if (!data.empty()) {
        auto span = scm_->Deref(loc.scm_handle);
        if (!span.ok()) {
          (void)scm_->Free(loc.scm_handle);
          return span.status();
        }
        std::memcpy(span->data(), data.data(), data.size());
      }
      ++stats_.scm_records;
      stats_.bytes_in_scm += data.size();
      return loc;
    }
    // A full pool sends the record to NVMe instead of failing the write:
    // nothing reclaims superseded records without aggregation, so the
    // pool of a target that takes many overwrites can fill up while its
    // NVMe partition still has room.
    if (data.empty() ||
        handle.status().code() != ErrorCode::kResourceExhausted) {
      return handle.status();
    }
  }
  loc.tier = ValueLoc::Tier::kNvme;
  const std::uint32_t lba = nvme_->block_size();
  const std::uint64_t body = data.size() / lba * lba;
  const std::uint64_t padded = (data.size() + lba - 1) / lba * lba;
  ROS2_ASSIGN_OR_RETURN(loc.nvme_offset, nvme_alloc_.Alloc(padded));
  loc.length = padded;
  // The LBA-aligned body goes straight from the caller's span; only the
  // tail block is bounced to pad it (the logical length masks the padding
  // on load).
  Status written = body > 0 ? nvme_->Write(loc.nvme_offset, data.first(body))
                            : Status::Ok();
  if (written.ok() && body < padded) {
    Buffer tail(lba);
    std::memcpy(tail.data(), data.data() + body, data.size() - body);
    written = nvme_->Write(loc.nvme_offset + body, tail);
  }
  if (!written.ok()) {
    (void)nvme_alloc_.Free(loc.nvme_offset);
    return written;
  }
  ++stats_.nvme_records;
  stats_.bytes_in_nvme += padded;
  return loc;
}

Status Vos::Load(const ValueLoc& loc, std::uint64_t offset,
                 std::span<std::byte> out, ChunkCache& cache) const {
  if (offset > loc.logical_len || out.size() > loc.logical_len - offset) {
    return Internal("record load out of range");
  }
  const bool scm = loc.tier == ValueLoc::Tier::kScm;
  std::span<const std::byte> pmem;
  if (scm && !out.empty()) {
    auto span = scm_->Deref(loc.scm_handle);
    if (!span.ok()) return span.status();
    pmem = *span;
  }
  const std::uint64_t end = offset + out.size();
  const std::uint64_t lba = scm ? 1 : nvme_->block_size();
  auto chunk_end = [&](std::uint64_t pos) {
    return std::min(pos + kCsumChunk, loc.logical_len);
  };
  auto verify = [&](std::uint64_t pos, std::span<const std::byte> chunk) {
    if (config_.checksums && Crc32c(chunk) != loc.csums[pos / kCsumChunk]) {
      return DataLoss("extent checksum mismatch (end-to-end CRC-32C)");
    }
    return Status::Ok();
  };
  // A chunk is read in place when the caller wants all of it and its
  // stored bytes carry no LBA padding to strip.
  auto in_place = [&](std::uint64_t pos) {
    const std::uint64_t e = chunk_end(pos);
    return pos >= offset && e <= end && e % lba == 0;
  };
  std::uint64_t pos = offset / kCsumChunk * kCsumChunk;
  while (pos < end) {
    if (in_place(pos)) {
      std::uint64_t stop = pos;
      while (stop < end && in_place(stop)) stop = chunk_end(stop);
      const std::span<std::byte> dst = out.subspan(pos - offset, stop - pos);
      if (scm) {
        std::memcpy(dst.data(), pmem.data() + pos, dst.size());
      } else {
        ROS2_RETURN_IF_ERROR(nvme_->Read(loc.nvme_offset + pos, dst));
      }
      for (std::uint64_t c = pos; c < stop; c += kCsumChunk) {
        ROS2_RETURN_IF_ERROR(
            verify(c, dst.subspan(c - pos, chunk_end(c) - c)));
      }
      pos = stop;
      continue;
    }
    // Head or tail chunk the caller wants only part of, or the padded last
    // chunk: verify all of it, copy the wanted slice. SCM is byte-
    // addressable, so it is checked where it lies; NVMe is read into the
    // cache's bounce buffer. Either way the chunk is remembered, so the
    // caller's next slice of it is neither read nor verified again.
    const std::uint64_t e = chunk_end(pos);
    std::span<const std::byte> chunk;
    std::span<std::byte> stored;
    if (scm) {
      chunk = pmem.subspan(pos, e - pos);
    } else {
      if (!cache.bounce) {
        cache.bounce = std::make_unique_for_overwrite<std::byte[]>(kCsumChunk);
      }
      stored = {cache.bounce.get(),
                std::min(pos + kCsumChunk, loc.length) - pos};
      chunk = stored.first(e - pos);
    }
    if (cache.loc != &loc || cache.pos != pos) {
      cache.loc = nullptr;  // the bounce buffer is about to change
      if (!scm) {
        ROS2_RETURN_IF_ERROR(nvme_->Read(loc.nvme_offset + pos, stored));
      }
      ROS2_RETURN_IF_ERROR(verify(pos, chunk));
      cache.loc = &loc;
      cache.pos = pos;
    }
    const std::uint64_t lo = std::max(pos, offset);
    const std::uint64_t hi = std::min(e, end);
    std::memcpy(out.data() + (lo - offset), chunk.data() + (lo - pos), hi - lo);
    pos = e;
  }
  return Status::Ok();
}

void Vos::Release(ValueLoc& loc) {
  if (loc.tier == ValueLoc::Tier::kScm &&
      loc.scm_handle != scm::kNullHandle) {
    (void)scm_->Free(loc.scm_handle);
    loc.scm_handle = scm::kNullHandle;
    stats_.bytes_in_scm -= loc.logical_len;
    --stats_.scm_records;
  } else if (loc.tier == ValueLoc::Tier::kNvme && loc.length > 0) {
    (void)nvme_alloc_.Free(loc.nvme_offset);
    stats_.bytes_in_nvme -= loc.length;
    --stats_.nvme_records;
    loc.length = 0;
  }
}

// --------------------------------------------------------------- lookup

Result<const Vos::AkeyValue*> Vos::FindValue(const ObjectId& oid,
                                             const std::string& dkey,
                                             const std::string& akey,
                                             ValueType expected) const {
  auto obj = objects_.find(oid);
  if (obj == objects_.end()) return NotFound("no such object");
  auto dk = obj->second.find(dkey);
  if (dk == obj->second.end()) return NotFound("no such dkey");
  auto ak = dk->second.find(akey);
  if (ak == dk->second.end()) return NotFound("no such akey");
  if (ak->second.type != expected) {
    return InvalidArgument("akey value type mismatch");
  }
  return &ak->second;
}

// --------------------------------------------------------------- arrays

Status Vos::UpdateArray(const ObjectId& oid, const std::string& dkey,
                        const std::string& akey, Epoch epoch,
                        std::uint64_t offset,
                        std::span<const std::byte> data) {
  if (!oid.valid()) return InvalidArgument("invalid oid");
  if (data.empty()) return InvalidArgument("empty update");
  if (data.size() > ~std::uint64_t(0) - offset) {
    return InvalidArgument("extent wraps past 2^64");
  }
  auto& value = objects_[oid][dkey][akey];
  if (!value.records.empty() || !value.singles.empty()) {
    if (value.type != ValueType::kArray) {
      return InvalidArgument("akey holds a single value");
    }
    if (!value.records.empty() && epoch < value.records.back().epoch) {
      return InvalidArgument("epoch must be monotonic per akey");
    }
  }
  value.type = ValueType::kArray;

  ArrayRecord rec;
  rec.extent = {offset, data.size()};
  rec.epoch = epoch;
  ROS2_ASSIGN_OR_RETURN(rec.loc, Store(data));
  value.records.push_back(std::move(rec));
  ++stats_.updates;
  return Status::Ok();
}

Status Vos::FetchArray(const ObjectId& oid, const std::string& dkey,
                       const std::string& akey, Epoch epoch,
                       std::uint64_t offset, std::span<std::byte> out) const {
  if (out.size() > ~std::uint64_t(0) - offset) {
    return InvalidArgument("fetch window wraps past 2^64");
  }
  auto value = FindValue(oid, dkey, akey, ValueType::kArray);
  // The still-uncovered parts of the window, sorted and disjoint; on the
  // stack until the record log splits the window into more pieces.
  alignas(Gap) std::array<std::byte, kInlineGaps * sizeof(Gap)> stack;
  std::pmr::monotonic_buffer_resource arena(stack.data(), stack.size());
  std::pmr::vector<Gap> gaps(&arena);
  gaps.reserve(kInlineGaps);
  if (!out.empty()) gaps.push_back({offset, offset + out.size()});
  if (value.ok()) {
    // Walk the log newest to oldest: the first visible record to reach a
    // byte is the one that wins at `epoch`, so each byte is loaded and
    // verified once and superseded records are never read. Reversing the
    // log keeps same-epoch records last-applied-wins.
    ChunkCache cache;
    const std::vector<ArrayRecord>& records = (*value)->records;
    for (auto rec = records.rbegin(); rec != records.rend() && !gaps.empty();
         ++rec) {
      if (epoch != kEpochHead && rec->epoch > epoch) continue;
      const std::uint64_t lo = rec->extent.offset;
      const std::uint64_t hi = rec->extent.end();
      // Fill each gap part the record covers, then cut [lo, hi) out of the
      // list: the covered run of gaps leaves at most a head and a tail.
      const auto first = std::partition_point(
          gaps.begin(), gaps.end(), [lo](const Gap& g) { return g.hi <= lo; });
      auto last = first;
      for (; last != gaps.end() && last->lo < hi; ++last) {
        const std::uint64_t from = std::max(last->lo, lo);
        const std::span<std::byte> dst =
            out.subspan(from - offset, std::min(last->hi, hi) - from);
        if (rec->punch) {
          std::memset(dst.data(), 0, dst.size());
        } else {
          ROS2_RETURN_IF_ERROR(Load(rec->loc, from - lo, dst, cache));
        }
      }
      if (first == last) continue;
      Gap keep[2];
      std::size_t kept = 0;
      if (first->lo < lo) keep[kept++] = {first->lo, lo};
      if ((last - 1)->hi > hi) keep[kept++] = {hi, (last - 1)->hi};
      gaps.insert(gaps.erase(first, last), keep, keep + kept);
    }
  }
  // Whatever no record covers is a hole; a missing object or key is all
  // hole (DAOS fetch semantics).
  for (const Gap& gap : gaps) {
    std::memset(out.data() + (gap.lo - offset), 0, gap.hi - gap.lo);
  }
  if (value.ok()) ++stats_.fetches;
  return Status::Ok();
}

Result<std::uint64_t> Vos::ArraySize(const ObjectId& oid,
                                     const std::string& dkey,
                                     const std::string& akey,
                                     Epoch epoch) const {
  auto value = FindValue(oid, dkey, akey, ValueType::kArray);
  if (!value.ok()) return std::uint64_t(0);
  std::uint64_t size = 0;
  for (const ArrayRecord& rec : (*value)->records) {
    if (epoch != kEpochHead && rec.epoch > epoch) continue;
    if (rec.punch) continue;  // punches do not shrink logical size here
    size = std::max(size, rec.extent.end());
  }
  return size;
}

// -------------------------------------------------------------- singles

Status Vos::UpdateSingle(const ObjectId& oid, const std::string& dkey,
                         const std::string& akey, Epoch epoch,
                         std::span<const std::byte> value_bytes) {
  if (!oid.valid()) return InvalidArgument("invalid oid");
  auto& value = objects_[oid][dkey][akey];
  if ((!value.records.empty() || !value.singles.empty()) &&
      value.type != ValueType::kSingle) {
    return InvalidArgument("akey holds an array value");
  }
  value.type = ValueType::kSingle;
  if (!value.singles.empty() && epoch < value.singles.back().epoch) {
    return InvalidArgument("epoch must be monotonic per akey");
  }
  SingleRecord rec;
  rec.epoch = epoch;
  ROS2_ASSIGN_OR_RETURN(rec.loc, Store(value_bytes));
  value.singles.push_back(std::move(rec));
  ++stats_.updates;
  return Status::Ok();
}

Result<Buffer> Vos::FetchSingle(const ObjectId& oid, const std::string& dkey,
                                const std::string& akey, Epoch epoch) const {
  ROS2_ASSIGN_OR_RETURN(const AkeyValue* value,
                        FindValue(oid, dkey, akey, ValueType::kSingle));
  const SingleRecord* visible = nullptr;
  for (const SingleRecord& rec : value->singles) {
    if (epoch != kEpochHead && rec.epoch > epoch) continue;
    visible = &rec;
  }
  if (visible == nullptr || visible->punch) {
    return Status(NotFound("no visible value at epoch"));
  }
  Buffer out(visible->loc.logical_len);
  ChunkCache cache;
  ROS2_RETURN_IF_ERROR(Load(visible->loc, 0, out, cache));
  return out;
}

// ---------------------------------------------------------------- punch

Status Vos::PunchAkey(const ObjectId& oid, const std::string& dkey,
                      const std::string& akey, Epoch epoch) {
  auto obj = objects_.find(oid);
  if (obj == objects_.end()) return NotFound("no such object");
  auto dk = obj->second.find(dkey);
  if (dk == obj->second.end()) return NotFound("no such dkey");
  auto ak = dk->second.find(akey);
  if (ak == dk->second.end()) return NotFound("no such akey");
  if (ak->second.type == ValueType::kArray) {
    ArrayRecord rec;
    rec.extent = {0, ~std::uint64_t(0)};
    rec.epoch = epoch;
    rec.punch = true;
    ak->second.records.push_back(std::move(rec));
  } else {
    SingleRecord rec;
    rec.epoch = epoch;
    rec.punch = true;
    ak->second.singles.push_back(std::move(rec));
  }
  return Status::Ok();
}

Status Vos::PunchDkey(const ObjectId& oid, const std::string& dkey,
                      Epoch epoch) {
  auto obj = objects_.find(oid);
  if (obj == objects_.end()) return NotFound("no such object");
  auto dk = obj->second.find(dkey);
  if (dk == obj->second.end()) return NotFound("no such dkey");
  for (auto& [akey, value] : dk->second) {
    (void)value;
    ROS2_RETURN_IF_ERROR(PunchAkey(oid, dkey, akey, epoch));
  }
  return Status::Ok();
}

Status Vos::PunchObject(const ObjectId& oid, Epoch epoch) {
  auto obj = objects_.find(oid);
  if (obj == objects_.end()) return NotFound("no such object");
  // Hard punch: reclaim all storage (aggregated delete).
  for (auto& [dkey, akeys] : obj->second) {
    (void)dkey;
    for (auto& [akey, value] : akeys) {
      (void)akey;
      for (auto& rec : value.records) Release(rec.loc);
      for (auto& rec : value.singles) Release(rec.loc);
    }
  }
  (void)epoch;
  objects_.erase(obj);
  return Status::Ok();
}

// ---------------------------------------------------------- enumeration

std::vector<std::string> Vos::ListDkeys(const ObjectId& oid) const {
  std::vector<std::string> out;
  auto obj = objects_.find(oid);
  if (obj == objects_.end()) return out;
  out.reserve(obj->second.size());
  for (const auto& [dkey, _] : obj->second) out.push_back(dkey);
  return out;
}

std::vector<std::string> Vos::ListAkeys(const ObjectId& oid,
                                        const std::string& dkey) const {
  std::vector<std::string> out;
  auto obj = objects_.find(oid);
  if (obj == objects_.end()) return out;
  auto dk = obj->second.find(dkey);
  if (dk == obj->second.end()) return out;
  out.reserve(dk->second.size());
  for (const auto& [akey, _] : dk->second) out.push_back(akey);
  return out;
}

bool Vos::ObjectExists(const ObjectId& oid) const {
  return objects_.contains(oid);
}

std::vector<ObjectId> Vos::ListObjects() const {
  std::vector<ObjectId> out;
  out.reserve(objects_.size());
  for (const auto& [oid, _] : objects_) out.push_back(oid);
  return out;
}

std::vector<Vos::AkeyInfo> Vos::DescribeDkey(const ObjectId& oid,
                                             const std::string& dkey) const {
  std::vector<AkeyInfo> out;
  auto obj = objects_.find(oid);
  if (obj == objects_.end()) return out;
  auto dk = obj->second.find(dkey);
  if (dk == obj->second.end()) return out;
  out.reserve(dk->second.size());
  for (const auto& [akey, value] : dk->second) {
    AkeyInfo info;
    info.akey = akey;
    info.type = value.type;
    if (value.type == ValueType::kArray) {
      for (const ArrayRecord& rec : value.records) {
        if (rec.punch) continue;  // punches do not shrink logical size
        info.head_size = std::max(info.head_size, rec.extent.end());
      }
    }
    out.push_back(std::move(info));
  }
  return out;
}

// ----------------------------------------------------------- aggregation

Status Vos::AggregateArray(const ObjectId& oid, const std::string& dkey,
                           const std::string& akey, Epoch upto) {
  auto obj = objects_.find(oid);
  if (obj == objects_.end()) return NotFound("no such object");
  auto dk = obj->second.find(dkey);
  if (dk == obj->second.end()) return NotFound("no such dkey");
  auto ak = dk->second.find(akey);
  if (ak == dk->second.end()) return NotFound("no such akey");
  AkeyValue& value = ak->second;
  if (value.type != ValueType::kArray) {
    return InvalidArgument("aggregation applies to array values");
  }
  if (value.records.empty()) return Status::Ok();

  ROS2_ASSIGN_OR_RETURN(std::uint64_t size, ArraySize(oid, dkey, akey, upto));
  // Rebuild the log as one flat record of the visible state at `upto`
  // (none when nothing is visible) plus every record newer than `upto`.
  // The flat record is stored before anything is released, so a failed
  // store leaves the old records, and every acknowledged byte, in place.
  std::vector<ArrayRecord> records;
  if (size > 0) {
    Buffer flat(size);
    ROS2_RETURN_IF_ERROR(FetchArray(oid, dkey, akey, upto, 0, flat));
    ArrayRecord merged;
    merged.extent = {0, size};
    ROS2_ASSIGN_OR_RETURN(merged.loc, Store(flat));
    records.push_back(std::move(merged));
  }
  Epoch flat_epoch = 0;
  for (auto& rec : value.records) {
    if (upto != kEpochHead && rec.epoch > upto) {
      records.push_back(std::move(rec));
    } else {
      flat_epoch = std::max(flat_epoch, rec.epoch);
      Release(rec.loc);
    }
  }
  if (size > 0) records.front().epoch = flat_epoch;
  value.records = std::move(records);
  return Status::Ok();
}

}  // namespace ros2::daos
