/** @file Unit and property tests for Pool storage and durability. */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "pmem/pool.h"

namespace poat {
namespace {

Pool
makePool(uint64_t size = 1 << 20)
{
    return Pool("p", 1, size);
}

TEST(Pool, FreshPoolHasSaneHeader)
{
    Pool p = makePool();
    const PoolHeader &h = p.header();
    EXPECT_EQ(h.magic, PoolHeader::kMagic);
    EXPECT_EQ(h.pool_id, 1u);
    EXPECT_EQ(h.pool_size, p.size());
    EXPECT_EQ(h.root_off, 0u);
    EXPECT_EQ(h.heap_off, Pool::kHeaderSize);
    EXPECT_EQ(h.heap_off + h.heap_size, h.log_off);
    EXPECT_EQ(h.log_off + h.log_size, p.size());
}

TEST(Pool, SizeIsClampedToMinimum)
{
    Pool p("tiny", 2, 16);
    EXPECT_GE(p.size(), Pool::kMinSize);
}

TEST(Pool, ReadBackWhatWasWritten)
{
    Pool p = makePool();
    const uint64_t v = 0xfeedfacecafebeefull;
    p.writeAs<uint64_t>(4096, v);
    EXPECT_EQ(p.readAs<uint64_t>(4096), v);
}

TEST(Pool, WritesAreNotDurableUntilFlushed)
{
    Pool p = makePool();
    p.writeAs<uint64_t>(4096, 77);
    p.crash();
    EXPECT_EQ(p.readAs<uint64_t>(4096), 0u);
}

TEST(Pool, PersistSurvivesCrash)
{
    Pool p = makePool();
    p.writeAs<uint64_t>(4096, 77);
    p.persist(4096, 8);
    p.writeAs<uint64_t>(4096, 88); // dirty again, not persisted
    p.crash();
    EXPECT_EQ(p.readAs<uint64_t>(4096), 77u);
}

TEST(Pool, ClwbWithoutFenceUnderStrictPolicyIsNotDurable)
{
    Pool p = makePool();
    p.setDurabilityPolicy(DurabilityPolicy::Strict);
    p.writeAs<uint64_t>(4096, 55);
    p.clwb(4096);
    p.crash(); // no fence: line may not have reached media
    EXPECT_EQ(p.readAs<uint64_t>(4096), 0u);
}

TEST(Pool, ClwbThenFenceUnderStrictPolicyIsDurable)
{
    Pool p = makePool();
    p.setDurabilityPolicy(DurabilityPolicy::Strict);
    p.writeAs<uint64_t>(4096, 55);
    p.clwb(4096);
    p.fence();
    p.crash();
    EXPECT_EQ(p.readAs<uint64_t>(4096), 55u);
}

TEST(Pool, StrictPolicyStoreAfterClwbReDirtiesLine)
{
    Pool p = makePool();
    p.setDurabilityPolicy(DurabilityPolicy::Strict);
    p.writeAs<uint64_t>(4096, 55);
    p.clwb(4096);
    p.writeAs<uint64_t>(4096, 66); // re-dirty before the fence
    p.fence();
    p.crash();
    // The line was unstaged by the second store, so nothing is durable.
    EXPECT_EQ(p.readAs<uint64_t>(4096), 0u);
}

TEST(Pool, EagerClwbIsImmediatelyDurable)
{
    Pool p = makePool();
    p.writeAs<uint64_t>(4096, 99);
    p.clwb(4096);
    p.crash();
    EXPECT_EQ(p.readAs<uint64_t>(4096), 99u);
}

TEST(Pool, PersistSpanningMultipleLines)
{
    Pool p = makePool();
    std::vector<uint8_t> buf(300, 0xab);
    p.writeRaw(4090, buf.data(), buf.size()); // straddles line boundaries
    p.persist(4090, buf.size());
    p.crash();
    std::vector<uint8_t> out(300);
    p.readRaw(4090, out.data(), out.size());
    EXPECT_EQ(out, buf);
}

TEST(Pool, LineSpanCounts)
{
    EXPECT_EQ(Pool::lineSpan(0, 0), 0u);
    EXPECT_EQ(Pool::lineSpan(0, 1), 1u);
    EXPECT_EQ(Pool::lineSpan(0, 64), 1u);
    EXPECT_EQ(Pool::lineSpan(0, 65), 2u);
    EXPECT_EQ(Pool::lineSpan(63, 2), 2u);
    EXPECT_EQ(Pool::lineSpan(60, 200), 5u);
}

TEST(Pool, DirtyLineTracking)
{
    Pool p = makePool();
    const size_t base = p.dirtyLineCount();
    p.writeAs<uint64_t>(8192, 1);
    EXPECT_EQ(p.dirtyLineCount(), base + 1);
    p.writeAs<uint64_t>(8192 + 8, 2); // same line
    EXPECT_EQ(p.dirtyLineCount(), base + 1);
    p.writeAs<uint64_t>(8192 + 64, 3); // next line
    EXPECT_EQ(p.dirtyLineCount(), base + 2);
    p.persist(8192, 128);
    EXPECT_EQ(p.dirtyLineCount(), base);
}

TEST(Pool, RandomEvictionMakesSomeLinesDurable)
{
    Pool p = makePool();
    Rng rng(3);
    for (uint32_t i = 0; i < 64; ++i)
        p.writeAs<uint64_t>(4096 + 64 * i, i + 1);
    p.evictRandomLines(rng, 1, 2); // ~half evicted
    p.crash();
    int durable = 0;
    for (uint32_t i = 0; i < 64; ++i)
        durable += (p.readAs<uint64_t>(4096 + 64 * i) == i + 1);
    EXPECT_GT(durable, 10);
    EXPECT_LT(durable, 54);
}

TEST(Pool, ReopenFromDurableImage)
{
    Pool p = makePool();
    p.writeAs<uint64_t>(5000, 1234);
    p.persist(5000, 8);
    Pool q("p", 1, p.durableImage());
    EXPECT_EQ(q.readAs<uint64_t>(5000), 1234u);
    EXPECT_EQ(q.header().pool_size, p.size());
}

TEST(Pool, VaddrAndOidHelpers)
{
    Pool p = makePool();
    p.setVbase(0x7000000000ull);
    EXPECT_EQ(p.vaddrOf(0x123), 0x7000000123ull);
    EXPECT_EQ(p.oidOf(0x123), ObjectID(1u, 0x123u));
}

/** Property: any interleaving of writes/evictions/crashes only ever
 *  exposes either the old or the new value of each 8-byte cell. */
TEST(Pool, CrashExposesOnlyOldOrNewValues)
{
    Rng rng(99);
    for (int trial = 0; trial < 20; ++trial) {
        Pool p = makePool(1 << 16);
        // Old values, fully persisted.
        for (uint32_t i = 0; i < 32; ++i)
            p.writeAs<uint64_t>(1024 + 8 * i, 1000 + i);
        p.persist(1024, 8 * 32);
        // New values, partially persisted via random eviction.
        for (uint32_t i = 0; i < 32; ++i)
            p.writeAs<uint64_t>(1024 + 8 * i, 2000 + i);
        p.evictRandomLines(rng, 1, 3);
        p.crash();
        for (uint32_t i = 0; i < 32; ++i) {
            const uint64_t v = p.readAs<uint64_t>(1024 + 8 * i);
            EXPECT_TRUE(v == 1000 + i || v == 2000 + i)
                << "cell " << i << " saw torn value " << v;
        }
    }
}

TEST(Pool, DurableViewIsZeroCopyAndMatchesImage)
{
    Pool p = makePool();
    p.writeAs<uint64_t>(4096, 0xfeedfacecafebeefull);
    p.persist(4096, 8);

    const PoolImage &view = p.durableView();
    EXPECT_EQ(&view, &p.durableView()) << "durableView must not copy";
    EXPECT_EQ(p.durableImage(), view);

    uint64_t v = 0;
    std::memcpy(&v, view.data() + 4096, 8);
    EXPECT_EQ(v, 0xfeedfacecafebeefull);

    // The reference stays live and tracks later write-backs.
    p.writeAs<uint64_t>(4096, 7);
    p.persist(4096, 8);
    std::memcpy(&v, view.data() + 4096, 8);
    EXPECT_EQ(v, 7u);
    EXPECT_EQ(p.durableImage(), view);
}

TEST(Pool, CreatedPoolIsZeroOutsideSuperblock)
{
    // A created pool's images are demand-zero storage plus the two
    // superblock copies; the durable image equals the working one.
    for (uint64_t size : {uint64_t{Pool::kMinSize}, uint64_t{1} << 20,
                          uint64_t{8} << 20}) {
        Pool p = makePool(size);
        std::vector<uint8_t> work(p.size());
        p.readRaw(0, work.data(), work.size());
        const PoolImage &durable = p.durableView();
        ASSERT_EQ(durable.size(), work.size());
        EXPECT_TRUE(std::equal(work.begin(), work.end(), durable.begin()));
        EXPECT_EQ(p.dirtyLineCount(), 0u);

        PoolHeader h{};
        std::memcpy(&h, work.data(), sizeof(h));
        EXPECT_TRUE(h.valid(p.size()));
        std::memcpy(&h, work.data() + PoolHeader::kMirrorOff, sizeof(h));
        EXPECT_TRUE(h.valid(p.size()));
        for (size_t i = 0; i < work.size(); ++i) {
            const bool in_header =
                i < sizeof(PoolHeader) ||
                (i >= PoolHeader::kMirrorOff &&
                 i < PoolHeader::kMirrorOff + sizeof(PoolHeader));
            if (!in_header) {
                ASSERT_EQ(work[i], 0u) << "byte " << i;
            }
        }
    }
}

TEST(PoolImage, FreshImageIsZeroOnRecycledMemory)
{
    // PoolImage's value-construct writes nothing, so a fresh image is
    // zero only because its storage comes from calloc. Recycle blocks
    // full of junk, small (heap) and large (mmap), and check.
    for (size_t n : {size_t{64}, size_t{4096}, size_t{1} << 20}) {
        for (int round = 0; round < 4; ++round) {
            {
                PoolImage junk(n);
                std::fill(junk.begin(), junk.end(), uint8_t{0xab});
            }
            const PoolImage fresh(n);
            ASSERT_EQ(fresh.size(), n);
            EXPECT_TRUE(std::all_of(fresh.begin(), fresh.end(),
                                    [](uint8_t b) { return b == 0; }))
                << n << " bytes, round " << round;
        }
    }
}

TEST(Pool, ImagesAreNeverResizedOrReallocated)
{
    // Growing a PoolImage inside its capacity would expose stale bytes
    // (see ZeroedAllocator), so Pool keeps each image's size and
    // storage for its whole life: stores, write-backs, evictions and
    // crashes copy into the existing bytes.
    Pool p = makePool();
    const uint64_t size = p.size();
    const uint8_t *durable = p.durableView().data();
    Rng rng(3);
    for (int i = 0; i < 200; ++i) {
        const uint32_t off = static_cast<uint32_t>(
            rng.below(size - Pool::kHeaderSize - 8) + Pool::kHeaderSize);
        p.writeAs<uint64_t>(off, rng.next());
        if (i % 3 == 0)
            p.persist(off, 8);
        if (i % 50 == 49) {
            p.evictRandomLines(rng, 1, 2);
            p.crash();
        }
        ASSERT_EQ(p.size(), size);
        ASSERT_EQ(p.durableView().size(), size);
        ASSERT_EQ(p.durableView().data(), durable);
    }
}

/** Vetoes or tears a seeded share of write-backs; logs every one. */
struct TearingLog final : DurabilityHook
{
    explicit TearingLog(uint64_t seed) : rng(seed) {}

    bool
    onWriteBack(Pool &, uint32_t, WriteBackCause) override
    {
        return true;
    }

    uint8_t
    onWriteBackWords(Pool &, uint32_t line, WriteBackCause cause) override
    {
        events.emplace_back(line, cause);
        switch (rng.below(4)) {
        case 0:
            return 0; // suppressed
        case 1:
            return static_cast<uint8_t>(rng.next()); // torn
        default:
            return kFullLineMask;
        }
    }

    /** The events since the last call. */
    std::vector<std::pair<uint32_t, WriteBackCause>>
    take()
    {
        return std::exchange(events, {});
    }

    Rng rng;
    std::vector<std::pair<uint32_t, WriteBackCause>> events;
};

/** Every page the pool has not flagged is zero in both images. */
void
expectUnwrittenPagesZero(const Pool &p)
{
    std::vector<uint8_t> work(p.size());
    p.readRaw(0, work.data(), work.size());
    const PoolImage &durable = p.durableView();
    for (uint64_t off = 0; off < p.size(); off += kPageSize) {
        if (p.anyPageWritten(off, 1))
            continue;
        const uint64_t end = std::min<uint64_t>(off + kPageSize, p.size());
        for (uint64_t i = off; i < end; ++i) {
            ASSERT_EQ(work[i], 0u) << "working byte " << i;
            ASSERT_EQ(durable[i], 0u) << "durable byte " << i;
        }
    }
}

TEST(Pool, CrashRestoresOnlyWrittenPagesExactly)
{
    // crash() copies back only the written pages. After any mix of
    // stores, vetoed and torn write-backs, evictions, media faults and
    // a close/reopen, the post-crash working image must equal the
    // durable image (what a full copy gives), and the dirty and staged
    // lines must follow a set model, drained and evicted in ascending
    // order. Stores go to a few pages, often across a page boundary;
    // media faults land anywhere, mostly on unwritten pages.
    using Events = std::vector<std::pair<uint32_t, WriteBackCause>>;
    for (DurabilityPolicy policy :
         {DurabilityPolicy::Eager, DurabilityPolicy::Strict}) {
        for (uint64_t seed : {1, 2, 3}) {
            SCOPED_TRACE("seed " + std::to_string(seed) +
                         (policy == DurabilityPolicy::Eager ? " eager"
                                                            : " strict"));
            Rng rng(seed);
            TearingLog log(seed + 100);
            // Not a page multiple: the last page is short.
            auto p = std::make_unique<Pool>("p", 1, (1 << 20) + 3 * kLineSize);
            p->setDurabilityPolicy(policy);
            p->setDurabilityHook(&log);
            const uint64_t pages = (p->size() + kPageSize - 1) / kPageSize;
            std::vector<uint64_t> hot;
            for (int i = 0; i < 12; ++i)
                hot.push_back(1 + rng.below(pages - 1));
            hot.push_back(pages - 1);

            std::set<uint32_t> dirty, staged;
            auto clwb = [&](uint32_t line) {
                p->clwb(line * kLineSize);
                if (!dirty.count(line))
                    return;
                if (policy == DurabilityPolicy::Eager) {
                    EXPECT_EQ(log.take(),
                              (Events{{line, WriteBackCause::Clwb}}));
                    dirty.erase(line);
                } else {
                    staged.insert(line);
                }
            };
            auto fence = [&] {
                p->fence();
                Events want;
                for (uint32_t line : staged) {
                    want.emplace_back(line, WriteBackCause::Fence);
                    dirty.erase(line);
                }
                staged.clear();
                EXPECT_EQ(log.take(), want);
            };

            for (int round = 0; round < 8; ++round) {
                for (int i = 0; i < 150; ++i) {
                    const uint64_t page = hot[rng.below(hot.size())];
                    const uint64_t in_page = rng.chance(1, 2)
                                                 ? kPageSize - 1 - rng.below(48)
                                                 : rng.below(kPageSize);
                    const uint64_t off = std::min<uint64_t>(
                        page * kPageSize + in_page, p->size() - 1);
                    const uint64_t n = std::min<uint64_t>(
                        1 + rng.below(160), p->size() - off);
                    const uint32_t off32 = static_cast<uint32_t>(off);
                    const uint64_t op = rng.below(16);
                    if (op < 8) {
                        std::vector<uint8_t> bytes(n);
                        for (uint8_t &b : bytes)
                            b = static_cast<uint8_t>(rng.next() | 1);
                        p->writeRaw(off32, bytes.data(), n);
                        for (uint64_t l = off / kLineSize;
                             l <= (off + n - 1) / kLineSize; ++l) {
                            dirty.insert(static_cast<uint32_t>(l));
                            staged.erase(static_cast<uint32_t>(l));
                        }
                    } else if (op < 11) {
                        clwb(off32 / kLineSize);
                    } else if (op < 12) {
                        fence();
                    } else if (op < 14) {
                        for (uint64_t l = off / kLineSize;
                             l <= (off + n - 1) / kLineSize; ++l)
                            clwb(static_cast<uint32_t>(l));
                        fence();
                    } else if (op < 15) {
                        p->evictRandomLines(rng, 1, 3);
                        uint32_t prev = 0;
                        for (const auto &[line, cause] : log.take()) {
                            EXPECT_EQ(cause, WriteBackCause::Evict);
                            EXPECT_TRUE(dirty.count(line) &&
                                        !staged.count(line));
                            EXPECT_LE(prev, line);
                            prev = line + 1;
                            dirty.erase(line);
                        }
                    } else {
                        const uint64_t at =
                            rng.below(p->size() - Pool::kHeaderSize - 8) +
                            Pool::kHeaderSize;
                        const uint64_t junk = rng.next() | 1;
                        p->corruptDurable(static_cast<uint32_t>(at), &junk,
                                          sizeof(junk));
                    }
                    ASSERT_TRUE(log.events.empty());
                    ASSERT_EQ(p->dirtyLineCount(), dirty.size());
                    ASSERT_EQ(p->stagedLines(),
                              std::vector<uint32_t>(staged.begin(),
                                                    staged.end()));
                }
                ASSERT_EQ(p->dirtyLines(),
                          std::vector<uint32_t>(dirty.begin(), dirty.end()));

                const PoolImage reference = p->durableImage();
                p->crash();
                dirty.clear();
                staged.clear();
                std::vector<uint8_t> work(p->size());
                p->readRaw(0, work.data(), work.size());
                ASSERT_TRUE(std::equal(work.begin(), work.end(),
                                       reference.begin()))
                    << "round " << round;
                ASSERT_TRUE(p->durableView() == reference);
                EXPECT_EQ(p->dirtyLineCount(), 0u);
                EXPECT_TRUE(p->dirtyLines().empty());
                EXPECT_TRUE(p->stagedLines().empty());
                expectUnwrittenPagesZero(*p);

                if (round == 4) {
                    // Close and reopen: every page of the image is
                    // flagged, since any of them may hold data.
                    p = std::make_unique<Pool>("p", 1, p->durableImage());
                    p->setDurabilityPolicy(policy);
                    p->setDurabilityHook(&log);
                    for (uint64_t pg = 0; pg < pages; ++pg) {
                        ASSERT_TRUE(p->anyPageWritten(pg * kPageSize, 1))
                            << "page " << pg;
                    }
                }
            }
        }
    }
}

} // namespace
} // namespace poat
