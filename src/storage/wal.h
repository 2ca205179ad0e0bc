// Wal: per-shard write-ahead log with CRC-framed records, LSN sequencing,
// and group commit.
//
// Records are logical (key-level PUT/DELETE), appended to an in-memory
// pending buffer by the shard worker as it serves its service group, and
// made durable in one Commit() per group: the commit's contiguous page
// images go out in ONE synchronous gathered write on the owning worker
// (DiskManager::WriteGathered), followed by ONE fdatasync. Writes ack to
// clients only after their group's Commit() returns.
//
// Pre-extended log space: the file grows in fixed chunks of zeroed pages
// (kGrowBytes, written from one shared zero page), so an ordinary commit
// overwrites blocks that are already allocated and written, and its
// fdatasync is a data-only flush with no file-size journal commit. Only the
// commit that crosses a chunk boundary pays the growth. Space is never
// recycled across Reset(): Reset (and so a checkpoint or clean close) leaves
// an empty file, and the first commit after it grows the log again.
//
// Torn-tail safety: the first page image of every commit starts from the
// in-memory copy of the current tail page, so the already-durable prefix
// bytes are rewritten bit-identical — a torn or short rewrite can corrupt
// only bytes past the durable watermark; the last image is zero-padded to
// its page end. Every record but a commit's last carries a "more follows"
// bit, so commits are atomic in the log. The scanner (Open/Replay) walks
// records from the start and stops at the first zero length (the
// pre-extended zeroes end every log), implausible length, CRC mismatch, or
// non-monotonic LSN; the valid tail is the end of the last whole commit
// before that point, so a torn commit is dropped entirely, even records of
// it that landed intact. Pages past the stop are never read.
//
// Failure model: any append/commit I/O error is STICKY. A WAL that failed
// to make a group durable cannot accept later groups (their ordering
// guarantee would be built on a hole), so every subsequent Append/Commit
// returns the original error (status() exposes it, so callers can refuse a
// write before applying it anywhere); recovery is a reopen, which re-scans
// the durable prefix.

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/slice.h"
#include "storage/disk_manager.h"

namespace nblb {

class MetricsRegistry;

/// \brief Tuning for a shard WAL.
struct WalOptions {
  size_t page_size = 8192;
};

/// \brief A write-ahead log over one file. Single-writer (the owning shard
/// worker); Replay runs before the shard serves traffic.
class Wal {
 public:
  /// Logical operation carried by a record.
  enum class Op : uint8_t {
    kPut = 1,     ///< upsert of `payload` (an encoded row) at `key`
    kDelete = 2,  ///< delete of `key` (payload empty)
  };

  /// One decoded log record.
  struct Record {
    uint64_t lsn = 0;
    Op op = Op::kPut;
    uint64_t key = 0;
    Slice payload;  ///< valid only during the Replay callback
  };

  /// \brief Log path for a data file: "<db_path>.wal".
  static std::string PathFor(const std::string& db_path);

  /// \brief Opens (or creates) the log and scans it to find the valid tail:
  /// durable_bytes/durable_lsn point past the last intact record and
  /// next_lsn continues the sequence. Torn tails are logically truncated.
  static Result<std::unique_ptr<Wal>> Open(std::string path,
                                           WalOptions options);

  ~Wal();

  /// \brief Buffers one record and returns its LSN. Nothing is durable
  /// until Commit(). Fails with the sticky error after a commit failure.
  Result<uint64_t> Append(Op op, uint64_t key, const Slice& payload);

  /// \brief Group commit: makes every pending record durable (one gathered
  /// write of the tail pages + one fdatasync, after growing the file by
  /// whole chunks when the records pass its end). No-op when nothing is
  /// pending.
  Status Commit();

  /// \brief Re-delivers every durable record with lsn > from_lsn, in LSN
  /// order. The Record::payload slice is only valid inside the callback.
  Status Replay(uint64_t from_lsn,
                const std::function<Status(const Record&)>& fn) const;

  /// \brief Discards the log (close + remove + recreate) after a
  /// checkpoint made its records redundant. LSN sequencing continues; any
  /// pending (uncommitted) records are dropped by design — callers commit
  /// first. Clears a sticky error only if the recreate succeeds.
  Status Reset();

  /// \brief OK, or the sticky error of a failed commit.
  const Status& status() const { return sticky_error_; }
  bool HasPending() const { return !pending_.empty(); }
  uint64_t next_lsn() const { return next_lsn_; }
  /// \brief LSN of the last durable record (0 when the log is empty).
  uint64_t durable_lsn() const { return durable_lsn_; }
  uint64_t durable_bytes() const { return durable_bytes_; }
  const std::string& path() const { return path_; }

  /// \brief Publishes wal.* counters under `prefix` (e.g. "wal."). The
  /// registry must not outlive this Wal.
  void RegisterMetrics(MetricsRegistry* registry,
                       const std::string& prefix) const;

 private:
  Wal(std::string path, WalOptions options);

  /// Log growth step: whole chunks of this many bytes (at least one page).
  static constexpr uint64_t kGrowBytes = 1u << 20;

  /// (Re)creates the backing DiskManager over path_ and opens it.
  Status OpenDisk();
  /// Opens the backing DiskManager and scans for the durable tail.
  Status OpenAndScan();

  /// Streaming scan of the log up to byte `limit`: calls fn for each intact
  /// record and returns the byte offset and LSN of the valid tail (the end
  /// of the last whole commit), plus the non-zero bytes it read past that
  /// tail (torn or corrupt data; the zeroes of pre-extended space do not
  /// count). fn sees records of an unfinished commit unless `limit` is a
  /// commit boundary. A null fn just finds the tail.
  Status Scan(uint64_t limit, const std::function<Status(const Record&)>& fn,
              uint64_t* tail_bytes, uint64_t* tail_lsn,
              uint64_t* truncated_bytes) const;

  std::string path_;
  WalOptions options_;
  std::unique_ptr<DiskManager> disk_;

  uint64_t next_lsn_ = 1;
  uint64_t durable_lsn_ = 0;
  uint64_t durable_bytes_ = 0;
  std::string pending_;  ///< framed records awaiting Commit
  /// Offset in pending_ of its last frame, whose kMoreBit the next Append
  /// sets.
  size_t last_frame_off_ = 0;
  /// In-memory copy of the current (partially filled) tail page; its first
  /// durable_bytes_ % page_size bytes are rewritten verbatim by the next
  /// commit (the rest is never written from here).
  std::string tail_page_;
  /// One zeroed page: the padding source for a commit's last page image.
  std::string zero_page_;
  Status sticky_error_;

  struct Counters {
    std::atomic<uint64_t> appends{0};
    std::atomic<uint64_t> commits{0};
    std::atomic<uint64_t> bytes_appended{0};
    std::atomic<uint64_t> commit_pages{0};
    /// Wall-clock microseconds the owning worker spent inside Commit()
    /// (growth + write + fdatasync). commit_micros / commits is the mean
    /// group-commit stall; against elapsed time it bounds the serve-path
    /// durability overhead.
    std::atomic<uint64_t> commit_micros{0};
    /// The fdatasync share of commit_micros; the difference is the growth
    /// and the gathered write.
    std::atomic<uint64_t> sync_micros{0};
    std::atomic<uint64_t> replayed_records{0};
    std::atomic<uint64_t> truncated_bytes{0};
    std::atomic<uint64_t> append_failures{0};
    std::atomic<uint64_t> resets{0};
  };
  mutable Counters counters_;
};

}  // namespace nblb
