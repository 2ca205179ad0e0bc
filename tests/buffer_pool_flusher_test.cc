// Background dirty-page flusher tests: write-back happens off the serving
// path (no evictions needed), content lands correctly, counters advance,
// only the sweep's next victims (usage count 0) are pre-cleaned while hot
// pages wait for FlushAll, and the flusher coexists with
// FlushAll/EvictAll/Checkpoint-style use.

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <functional>
#include <thread>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "test_util.h"

namespace nblb {
namespace {

using nblb::testing::MakeStack;
using nblb::testing::Stack;

std::vector<PageId> DirtyPages(Stack& s, int n, char tag) {
  std::vector<PageId> ids;
  for (int i = 0; i < n; ++i) {
    auto g = s.bp->NewPage();
    EXPECT_TRUE(g.ok());
    std::memset(g->data(), tag, 64);
    g->MarkDirty();
    ids.push_back(g->id());
  }
  return ids;
}

bool WaitFor(const std::function<bool()>& cond, int timeout_ms = 5000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (cond()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return cond();
}

TEST(BufferPoolFlusherTest, WritesDirtyPagesBackWithoutEvictions) {
  Stack s = MakeStack("flush_bg", 4096, 64);
  s.bp->StartFlusher(/*interval_us=*/1000, /*batch_pages=*/16);
  std::vector<PageId> ids = DirtyPages(s, 20, 'Z');

  // The flusher must land every dirty page on disk with zero evictions —
  // write-back fully off the serving/evicting path.
  ASSERT_TRUE(WaitFor([&] {
    return s.disk->stats().writes >= ids.size() + /*NewPage allocations*/ 0 &&
           s.bp->stats().flusher_pages >= ids.size();
  })) << "flusher_pages=" << s.bp->stats().flusher_pages;
  const BufferPoolStats st = s.bp->stats();
  EXPECT_EQ(st.evictions, 0u);
  EXPECT_GT(st.flusher_passes, 0u);
  EXPECT_GE(st.flusher_pages, ids.size());

  // Bytes really reached the device: read them back around the pool.
  std::vector<char> buf(4096);
  for (PageId id : ids) {
    ASSERT_OK(s.disk->ReadPage(id, buf.data()));
    EXPECT_EQ(buf[0], 'Z') << "page " << id;
  }
}

char DiskByte(Stack& s, PageId id) {
  std::vector<char> buf(4096);
  EXPECT_OK(s.disk->ReadPage(id, buf.data()));
  return buf[0];
}

/// Waits for the flusher to START another pass. Passes are serialized, so
/// the one that cleaned the pages seen so far has unpinned its targets —
/// otherwise a sweep could skip a frame that pass still holds.
void WaitForNextPass(Stack& s) {
  const uint64_t passes = s.bp->stats().flusher_passes;
  ASSERT_TRUE(WaitFor([&] { return s.bp->stats().flusher_passes > passes; }));
}

void Redirty(Stack& s, PageId id, char tag) {
  ASSERT_OK_AND_ASSIGN(PageGuard g, s.bp->FetchPage(id));
  std::memset(g.data(), tag, 64);
  g.MarkDirty();
}

TEST(BufferPoolFlusherTest, RedirtiedPagesAreFlushedAgain) {
  // A re-dirtied page is never lost: while it is hot (re-hit) it waits; once
  // the sweep drains its usage count it is the flusher's to clean, and a
  // hot one reaches disk through FlushAll. A 4-frame pool is one stripe, so
  // the CLOCK hand order is exact: frames fill 0..3 and the hand starts at 0.
  Stack s = MakeStack("flush_redirty", 4096, 4);
  ASSERT_EQ(s.bp->num_stripes(), 1u);
  s.bp->StartFlusher(/*interval_us=*/500, /*batch_pages=*/8);
  std::vector<PageId> ids = DirtyPages(s, 4, 'A');
  ASSERT_TRUE(WaitFor([&] { return s.bp->stats().flusher_pages >= 4; }));
  WaitForNextPass(s);

  // Re-dirty frame 0 after its flush; the re-fetch gives it a usage count.
  Redirty(s, ids[0], 'B');
  // One allocation makes the hand pass frame 0 once (usage 1 -> 0, spared)
  // and evict clean frame 1. Page 0 is now cold, still dirty and resident.
  DirtyPages(s, 1, 'N');
  EXPECT_EQ(s.bp->stats().dirty_writebacks, 0u);
  ASSERT_TRUE(WaitFor([&] { return DiskByte(s, ids[0]) == 'B'; }))
      << "a cold re-dirtied page must reach disk through the flusher";
  EXPECT_EQ(s.bp->stats().dirty_writebacks, 0u) << "not through eviction";

  // Re-dirty it again: hot now, so the flusher leaves it; FlushAll lands it.
  Redirty(s, ids[0], 'C');
  ASSERT_OK(s.bp->FlushAll());
  EXPECT_EQ(DiskByte(s, ids[0]), 'C');
}

TEST(BufferPoolFlusherTest, HotDirtyPageIsLeftForFlushAll) {
  Stack s = MakeStack("flush_hot", 4096, 16);
  s.bp->StartFlusher(/*interval_us=*/200, /*batch_pages=*/8);
  std::vector<PageId> ids = DirtyPages(s, 1, 'A');
  ASSERT_TRUE(WaitFor([&] { return s.bp->stats().flusher_pages >= 1; }));
  ASSERT_EQ(DiskByte(s, ids[0]), 'A');

  // Re-hit and re-dirty: the page is hot, and no eviction pressure ever
  // drains its usage count, so pass after pass must leave it alone.
  Redirty(s, ids[0], 'B');
  const BufferPoolStats before = s.bp->stats();
  ASSERT_TRUE(WaitFor([&] {
    return s.bp->stats().flusher_passes >= before.flusher_passes + 20;
  }));
  EXPECT_EQ(s.bp->stats().flusher_pages, before.flusher_pages)
      << "the flusher rewrote a hot page";
  EXPECT_EQ(DiskByte(s, ids[0]), 'A');

  // The checkpoint path still makes it durable.
  ASSERT_OK(s.bp->FlushAll());
  EXPECT_EQ(DiskByte(s, ids[0]), 'B');
  EXPECT_EQ(s.bp->stats().evictions, 0u);
}

TEST(BufferPoolFlusherTest, ColdPagesArePreCleanedUnderEvictionPressure) {
  // One stripe, 4 frames: hand order is exact (see RedirtiedPages...).
  Stack s = MakeStack("flush_pressure", 4096, 4);
  ASSERT_EQ(s.bp->num_stripes(), 1u);
  s.bp->StartFlusher(/*interval_us=*/500, /*batch_pages=*/8);
  std::vector<PageId> ids = DirtyPages(s, 4, 'A');
  ASSERT_TRUE(WaitFor([&] { return s.bp->stats().flusher_pages >= 4; }));
  WaitForNextPass(s);

  // Frames 0..2 become hot and dirty; frame 3 stays clean and cold.
  for (int i = 0; i < 3; ++i) Redirty(s, ids[i], 'H');
  const uint64_t flushed_hot = s.bp->stats().flusher_pages;
  // Pressure: the hand drains frames 0..2 to usage 0 and evicts clean
  // frame 3. Now 0..2 are the sweep's next victims, still dirty.
  DirtyPages(s, 1, 'N');
  ASSERT_EQ(s.bp->stats().evictions, 1u);
  ASSERT_TRUE(WaitFor([&] {
    return DiskByte(s, ids[0]) == 'H' && DiskByte(s, ids[1]) == 'H' &&
           DiskByte(s, ids[2]) == 'H';
  })) << "usage-0 dirty pages must be pre-cleaned by the flusher";
  EXPECT_GE(s.bp->stats().flusher_pages, flushed_hot + 3);
  // Stop the flusher so no pass holds a pin while the next fetch sweeps.
  s.bp->StopFlusher();

  // The next evicting fetch finds frame 0 already clean: no write-back on
  // the fetching thread.
  DirtyPages(s, 1, 'M');
  const BufferPoolStats st = s.bp->stats();
  EXPECT_EQ(st.evictions, 2u);
  EXPECT_EQ(st.dirty_writebacks, 0u)
      << "the evicting fetch paid a write-back the flusher should have taken";
}

TEST(BufferPoolFlusherTest, CoexistsWithFlushAllAndEvictAll) {
  Stack s = MakeStack("flush_coexist", 4096, 32);
  s.bp->StartFlusher(/*interval_us=*/200, /*batch_pages=*/4);
  for (int round = 0; round < 20; ++round) {
    std::vector<PageId> ids = DirtyPages(s, 3, static_cast<char>('a' + round));
    // FlushAll/EvictAll serialize against flusher passes; with no pins held
    // EvictAll must succeed (a flusher pass can never be caught mid-pin).
    ASSERT_OK(s.bp->FlushAll());
    ASSERT_OK(s.bp->EvictAll());
    std::vector<char> buf(4096);
    for (PageId id : ids) {
      ASSERT_OK(s.disk->ReadPage(id, buf.data()));
      EXPECT_EQ(buf[0], 'a' + round);
    }
  }
  s.bp->StopFlusher();
}

TEST(BufferPoolFlusherTest, EvictionFindsCleanVictimsAfterFlushing) {
  // Fill a tiny pool with dirty pages, let the flusher clean them, then
  // force evictions with new allocations: the evicting thread should find
  // clean victims (dirty_writebacks stays 0; the flusher did the work).
  Stack s = MakeStack("flush_clean_victims", 4096, 8);
  s.bp->StartFlusher(/*interval_us=*/500, /*batch_pages=*/8);
  DirtyPages(s, 8, 'Q');
  ASSERT_TRUE(WaitFor([&] { return s.bp->stats().flusher_pages >= 8; }));
  // Stop the flusher first so a pass can never hold transient pins while
  // the allocations below hunt for victims in the tiny pool.
  s.bp->StopFlusher();
  DirtyPages(s, 8, 'R');  // evicts the first 8 — all clean by now
  const BufferPoolStats st = s.bp->stats();
  EXPECT_GE(st.evictions, 8u);
  EXPECT_EQ(st.dirty_writebacks, 0u)
      << "evicting thread paid write-backs the flusher should have taken";
}

}  // namespace
}  // namespace nblb
