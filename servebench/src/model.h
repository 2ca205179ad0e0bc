// The benchmark's own data model: every row, key stream and expected answer
// is derived here from the seed, apart from the engine, so that a wrong
// answer cannot agree with the data it is checked against.
//
// The table is the engine's MediaWiki `revision` layout. Revisions are
// assigned to pages in edit-time order (every page gets one revision, the
// rest go to zipf(0.5)-popular pages), so each page's latest revision is
// scattered through the key space, as in the paper's §3.1. Inputs stay
// compact: a row is a pure function of (seed, id, page, version), and the
// benchmark keeps only the page (u32) and current version (u32) of each id.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "catalog/value.h"
#include "common/status.h"

namespace servebench {

inline uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// splitmix64 stream: deterministic across platforms and compilers.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(Mix(seed)) {}
  uint64_t Next() { return Mix(state_++); }
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n) { return Next() % n; }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Column order of WikipediaSynthesizer::RevisionSchema().
enum Col : size_t {
  kRevId = 0,
  kRevPage,
  kRevTextId,  // carries the row version; the column updates rewrite
  kRevComment,
  kRevUser,
  kRevUserText,
  kRevTimestamp,
  kRevMinorEdit,
  kRevDeleted,
  kRevLen,
  kRevParentId,
  kNumCols
};

/// Generated table plus the per-id state the checks need.
class Dataset {
 public:
  /// `rows` revisions over rows/20 pages; ids are 1..rows.
  Dataset(uint64_t seed, uint64_t rows) : seed_(seed), rows_(rows) {
    pages_ = std::max<uint64_t>(1, rows / 20);
    page_of_.resize(rows);
    version_.assign(rows, 0);
    latest_.assign(pages_, 0);
    // zipf(0.5) popularity over page ranks; rank -> page is a seeded shuffle.
    cdf_.resize(pages_);
    double sum = 0;
    for (uint64_t r = 0; r < pages_; ++r) {
      sum += 1.0 / std::sqrt(static_cast<double>(r + 1));
      cdf_[r] = sum;
    }
    for (double& c : cdf_) c /= sum;
    rank_to_page_.resize(pages_);
    for (uint64_t p = 0; p < pages_; ++p) rank_to_page_[p] = p;
    Rng shuffle(seed ^ 0x5eed0001ull);
    for (uint64_t i = pages_ - 1; i > 0; --i) {
      std::swap(rank_to_page_[i], rank_to_page_[shuffle.Below(i + 1)]);
    }
    Rng edits(seed ^ 0x5eed0002ull);
    for (uint64_t i = 0; i < rows; ++i) {
      const uint64_t page = i < pages_ ? i : PopularPage(&edits);
      page_of_[i] = static_cast<uint32_t>(page);
      latest_[page] = static_cast<uint32_t>(i + 1);
    }
  }

  uint64_t rows() const { return rows_; }
  uint32_t page_of(uint64_t id) const { return page_of_[id - 1]; }
  uint32_t version(uint64_t id) const { return version_[id - 1]; }
  /// Records a submitted update and returns the new version.
  uint32_t Bump(uint64_t id) { return ++version_[id - 1]; }

  uint64_t PopularPage(Rng* rng) const {
    const double u = rng->Unit();
    const uint64_t rank = static_cast<uint64_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return rank_to_page_[std::min(rank, pages_ - 1)];
  }

  /// The revision stream of RevisionLookupTrace: with `latest_share` a
  /// zipf-popular page's newest revision, otherwise a uniform revision.
  uint64_t RevisionKey(Rng* rng, double latest_share) const {
    if (rng->Unit() < latest_share) return latest_[PopularPage(rng)];
    return 1 + rng->Below(rows_);
  }

  // ---- Row content: a pure function of (seed, id, page, version) ----------

  std::string Comment(uint64_t id) const {
    static const char kAlpha[] = "abcdefghijklmnopqrstuvwxyz012345";
    uint64_t h = Mix(seed_ ^ (id * 0x100000001b3ull));
    const size_t len = h % 25;
    std::string s(len, ' ');
    for (size_t i = 0; i < len; ++i) {
      if (i % 12 == 0) h = Mix(h);
      s[i] = kAlpha[(h >> (5 * (i % 12))) & 31];
    }
    return s;
  }
  int64_t User(uint64_t id) const {
    return static_cast<int64_t>(Mix(seed_ + 3 * id) % 5000);
  }
  std::string UserText(uint64_t id) const {
    return "user_" + std::to_string(User(id));
  }
  std::string Timestamp(uint64_t id, uint32_t version) const {
    // 14-digit yyyymmddhhmmss-shaped stamp that moves with every version.
    const uint64_t t = Mix(seed_ ^ (id << 20) ^ version) % 100000000ull;
    char buf[16];
    std::snprintf(buf, sizeof(buf), "201101%08llu",
                  static_cast<unsigned long long>(t));
    return std::string(buf, 14);
  }
  int64_t Len(uint64_t id, uint32_t version) const {
    return 200 + static_cast<int64_t>(Mix(seed_ * 31 + id * 7 + version) %
                                      8000);
  }
  int64_t MinorEdit(uint64_t id) const {
    return (Mix(seed_ ^ (id * 11)) & 3) == 0 ? 1 : 0;
  }
  int64_t Parent(uint64_t id) const {
    return static_cast<int64_t>(Mix(seed_ + id) % id);
  }

  nblb::Row MakeRow(uint64_t id, uint32_t version) const {
    nblb::Row row;
    row.reserve(kNumCols);
    row.push_back(nblb::Value::Int64(static_cast<int64_t>(id)));
    row.push_back(nblb::Value::Int64(static_cast<int64_t>(page_of(id)) + 1));
    row.push_back(nblb::Value::Int64(version));
    row.push_back(nblb::Value::Varchar(Comment(id)));
    row.push_back(nblb::Value::Int64(User(id)));
    row.push_back(nblb::Value::Varchar(UserText(id)));
    row.push_back(nblb::Value::Char(Timestamp(id, version)));
    row.push_back(nblb::Value::Int64(MinorEdit(id)));
    row.push_back(nblb::Value::Int64(0));
    row.push_back(nblb::Value::Int64(Len(id, version)));
    row.push_back(nblb::Value::Int64(Parent(id)));
    return row;
  }

 private:
  uint64_t seed_;
  uint64_t rows_;
  uint64_t pages_;
  std::vector<uint32_t> page_of_;   // by id - 1
  std::vector<uint32_t> version_;   // by id - 1
  std::vector<uint32_t> latest_;    // newest revision id of each page
  std::vector<double> cdf_;         // zipf(0.5) over page ranks
  std::vector<uint32_t> rank_to_page_;
};

/// What a checked answer turned out to be.
enum class Verdict { kOk, kMissing, kStale, kCorrupt };

inline bool IntIs(const nblb::Value& v, int64_t want) {
  return nblb::IsIntegerFamily(v.type()) && v.AsInt() == want;
}
inline bool StrIs(const nblb::Value& v, const std::string& want) {
  return nblb::IsStringFamily(v.type()) && v.AsString() == want;
}

/// Checks one returned row against the row generated for (id, version).
/// `found` is false when the engine answered NotFound.
inline Verdict Check(const Dataset& data, uint64_t id, uint32_t version,
                     bool found, const nblb::Row& row) {
  if (!found) return Verdict::kMissing;
  if (row.size() != kNumCols || !IntIs(row[kRevId], static_cast<int64_t>(id))) {
    return Verdict::kCorrupt;
  }
  const bool versioned_ok =
      IntIs(row[kRevTextId], version) &&
      StrIs(row[kRevTimestamp], data.Timestamp(id, version)) &&
      IntIs(row[kRevLen], data.Len(id, version));
  const bool fixed_ok =
      IntIs(row[kRevPage], static_cast<int64_t>(data.page_of(id)) + 1) &&
      StrIs(row[kRevComment], data.Comment(id)) &&
      IntIs(row[kRevUser], data.User(id)) &&
      StrIs(row[kRevUserText], data.UserText(id)) &&
      IntIs(row[kRevMinorEdit], data.MinorEdit(id)) &&
      IntIs(row[kRevDeleted], 0) && IntIs(row[kRevParentId], data.Parent(id));
  if (!fixed_ok) return Verdict::kCorrupt;
  if (versioned_ok) return Verdict::kOk;
  // A whole, self-consistent older version is stale; anything else corrupt.
  if (nblb::IsIntegerFamily(row[kRevTextId].type())) {
    const int64_t v = row[kRevTextId].AsInt();
    if (v >= 0 && v < version) {
      const uint32_t old = static_cast<uint32_t>(v);
      if (StrIs(row[kRevTimestamp], data.Timestamp(id, old)) &&
          IntIs(row[kRevLen], data.Len(id, old))) {
        return Verdict::kStale;
      }
    }
  }
  return Verdict::kCorrupt;
}

/// Operations the benchmark issued and how many of them failed (an error
/// status or a wrong answer); `wrong` counts the wrong answers alone.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;

  /// Counts one operation that only has to succeed.
  void Op(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  /// Counts one checked get.
  void Get(Verdict v) {
    Op(v == Verdict::kOk);
    if (v != Verdict::kOk) ++wrong;
  }
  /// Counts one get the engine answered with `status` and `row`: NotFound
  /// is a missing row, any other error a failed operation.
  void Answer(const Dataset& data, uint64_t id, uint32_t version,
              const nblb::Status& status, const nblb::Row& row) {
    if (!status.ok() && !status.IsNotFound()) {
      Op(false);
    } else {
      Get(Check(data, id, version, status.ok(), row));
    }
  }
};

}  // namespace servebench
