/** @file Unit and property tests for the in-pool allocator. */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "pmem/alloc.h"
#include "pmem/pool.h"

namespace poat {
namespace {

struct Fixture
{
    explicit Fixture(uint64_t size = 1 << 20) : pool("p", 1, size) {}
    Pool pool;
};

TEST(Alloc, FreshHeapIsOneFreeBlock)
{
    Fixture f;
    PoolAllocator a(f.pool);
    EXPECT_EQ(a.freeBlockCount(), 1u);
    EXPECT_EQ(a.freeBytes(), f.pool.header().heap_size);
    EXPECT_TRUE(a.validate());
}

TEST(Alloc, AllocReturnsAlignedNonOverlappingBlocks)
{
    Fixture f;
    PoolAllocator a(f.pool);
    std::vector<std::pair<uint32_t, uint32_t>> blocks;
    for (int i = 0; i < 100; ++i) {
        const uint32_t sz = 24 + 8 * (i % 5);
        const uint32_t off = a.alloc(sz);
        ASSERT_NE(off, 0u);
        EXPECT_EQ(off % PoolAllocator::kAlign, 0u);
        for (const auto &[o, s] : blocks) {
            EXPECT_TRUE(off + sz <= o || o + s <= off)
                << "blocks overlap";
        }
        blocks.emplace_back(off, sz);
    }
    EXPECT_TRUE(a.validate());
}

TEST(Alloc, PayloadSizeCoversRequest)
{
    Fixture f;
    PoolAllocator a(f.pool);
    const uint32_t off = a.alloc(100);
    EXPECT_GE(a.blockPayloadSize(off), 100u);
}

TEST(Alloc, FreeMakesSpaceReusable)
{
    Fixture f;
    PoolAllocator a(f.pool);
    const uint64_t before = a.freeBytes();
    const uint32_t off = a.alloc(128);
    EXPECT_LT(a.freeBytes(), before);
    a.free(off);
    EXPECT_EQ(a.freeBytes(), before);
    EXPECT_TRUE(a.validate());
}

TEST(Alloc, FreeCoalescesWithBothNeighbors)
{
    Fixture f;
    PoolAllocator a(f.pool);
    const uint32_t x = a.alloc(64);
    const uint32_t y = a.alloc(64);
    const uint32_t z = a.alloc(64);
    (void)z;
    a.free(x);
    a.free(z);
    // Freeing y must merge x|y|z plus the trailing free region.
    a.free(y);
    EXPECT_EQ(a.freeBlockCount(), 1u);
    EXPECT_TRUE(a.validate());
}

TEST(Alloc, IsAllocatedTracksState)
{
    Fixture f;
    PoolAllocator a(f.pool);
    const uint32_t off = a.alloc(48);
    EXPECT_TRUE(a.isAllocated(off));
    a.free(off);
    EXPECT_FALSE(a.isAllocated(off));
    EXPECT_FALSE(a.isAllocated(4)); // outside heap
}

TEST(Alloc, ExhaustionReturnsZero)
{
    Fixture f(Pool::kMinSize);
    PoolAllocator a(f.pool);
    EXPECT_EQ(a.alloc(1 << 20), 0u);
    // And the heap is still usable afterwards.
    EXPECT_NE(a.alloc(64), 0u);
    EXPECT_TRUE(a.validate());
}

TEST(Alloc, ManySmallAllocationsUntilFull)
{
    Fixture f(Pool::kMinSize + 16 * 1024);
    PoolAllocator a(f.pool);
    int count = 0;
    while (a.alloc(32) != 0)
        ++count;
    EXPECT_GT(count, 100);
    EXPECT_TRUE(a.validate());
}

TEST(Alloc, SurvivesReopenFromDurableImage)
{
    Fixture f;
    PoolAllocator a(f.pool);
    const uint32_t keep = a.alloc(64);
    const uint32_t drop = a.alloc(64);
    a.free(drop);

    Pool reopened("p", 1, f.pool.durableImage());
    PoolAllocator b(reopened);
    EXPECT_TRUE(b.validate());
    EXPECT_TRUE(b.isAllocated(keep));
    EXPECT_FALSE(b.isAllocated(drop));
    EXPECT_EQ(b.freeBytes(), a.freeBytes());
}

TEST(Alloc, AllocatorStateIsDurableWithoutExplicitPersist)
{
    Fixture f;
    PoolAllocator a(f.pool);
    const uint32_t off = a.alloc(64);
    f.pool.crash(); // allocator metadata persists inside alloc()
    PoolAllocator b(f.pool);
    EXPECT_TRUE(b.validate());
    EXPECT_TRUE(b.isAllocated(off));
}

/** Parameterized property test: random alloc/free against a shadow
 *  model, with periodic reopen-from-durable checks. */
class AllocProperty : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(AllocProperty, RandomOpsMatchShadowModel)
{
    Rng rng(GetParam());
    Pool pool("p", 1, 1 << 20);
    PoolAllocator a(pool);

    // Shadow: payload offset -> (size, fill byte).
    std::map<uint32_t, std::pair<uint32_t, uint8_t>> shadow;
    std::vector<uint32_t> live;

    for (int step = 0; step < 2000; ++step) {
        const bool do_alloc = live.empty() || rng.chance(3, 5);
        if (do_alloc) {
            const uint32_t sz =
                static_cast<uint32_t>(rng.range(1, 256));
            const uint32_t off = a.alloc(sz);
            if (off == 0)
                continue; // full; keep going with frees
            const uint8_t fill = static_cast<uint8_t>(off * 31 + sz);
            std::vector<uint8_t> buf(sz, fill);
            pool.writeRaw(off, buf.data(), sz);
            shadow.emplace(off, std::make_pair(sz, fill));
            live.push_back(off);
        } else {
            const size_t idx = rng.below(live.size());
            const uint32_t off = live[idx];
            // Contents of other live blocks must be untouched: check
            // this block before freeing it.
            const auto &[sz, fill] = shadow.at(off);
            std::vector<uint8_t> buf(sz);
            pool.readRaw(off, buf.data(), sz);
            for (uint8_t b : buf)
                ASSERT_EQ(b, fill) << "block contents corrupted";
            a.free(off);
            shadow.erase(off);
            live[idx] = live.back();
            live.pop_back();
        }
        if (step % 500 == 499) {
            ASSERT_TRUE(a.validate());
            // Reopen from durable image: all live blocks still there.
            Pool re("p", 1, pool.durableImage());
            PoolAllocator b(re);
            ASSERT_TRUE(b.validate());
            for (const auto &kv : shadow)
                ASSERT_TRUE(b.isAllocated(kv.first));
        }
    }
    ASSERT_TRUE(a.validate());
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllocProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(Alloc, DeferredPersistLeavesDurableHeapUntouched)
{
    // alloc(size, false) must not touch durable media: tx_pmalloc
    // relies on this to order the undo record before the allocation.
    Pool pool("p", 1, 1 << 20);
    PoolAllocator alloc(pool);
    const uint32_t a = alloc.alloc(64, /*persist_now=*/false);
    ASSERT_NE(a, 0u);
    EXPECT_TRUE(alloc.isAllocated(a)); // volatile view sees it

    pool.crash();
    alloc.rescan();
    EXPECT_FALSE(alloc.isAllocated(a)) << "allocation leaked to media";
    EXPECT_TRUE(alloc.validate());

    // persistTouched() completes the allocation durably.
    const uint32_t b = alloc.alloc(64, /*persist_now=*/false);
    alloc.persistTouched();
    pool.crash();
    alloc.rescan();
    EXPECT_TRUE(alloc.isAllocated(b));
    EXPECT_TRUE(alloc.validate());
}

TEST(Alloc, StaleAbsorbedHeaderIsNotAllocated)
{
    // Freeing a block that coalesces into its previous neighbour
    // rewrites the surviving merged header — and must POISON the
    // absorbed block's old header bytes: a crc-valid allocated header
    // surviving inside a free extent fools both isAllocated (recovery
    // uses it to decide whether a logged alloc/free already took
    // effect) and, worse, scrub's extent reconstruction after a torn
    // fence drain, which can resurrect the stale bytes as a live
    // allocation no log record covers (a permanent leak — found by the
    // reorder explorer, LHT:8:1:139:r01:S:t1:n3).
    Pool pool("p", 1, 1 << 20);
    PoolAllocator alloc(pool);
    const uint32_t a = alloc.alloc(32);
    const uint32_t b = alloc.alloc(32);
    const uint32_t c = alloc.alloc(32); // guard: keeps b's region bounded
    ASSERT_NE(c, 0u);

    alloc.free(a);
    alloc.free(b); // merges into a's free block, absorbing b's header
    BlockHeader stale{};
    pool.readRaw(b - static_cast<uint32_t>(sizeof(BlockHeader)), &stale,
                 sizeof(stale));
    EXPECT_FALSE(stale.crcValid())
        << "the absorbed header must be poisoned, not left readable";
    EXPECT_EQ(stale.size, 0u);
    EXPECT_EQ(stale.flags, 0u);

    EXPECT_FALSE(alloc.isAllocated(b));
    EXPECT_TRUE(alloc.isAllocated(c));
    EXPECT_TRUE(alloc.validate());
}

TEST(Alloc, RebuildSweepsStaleHeadersOutOfFreeExtents)
{
    // The poison fence can be lost in a crash between the merged
    // header's persist and the poison's persist. The next pool open
    // must sweep free-extent interiors and finish the job, so scrub's
    // back-link scan never again meets the stale bytes.
    Pool pool("p", 1, 1 << 20);
    PoolAllocator alloc(pool);
    const uint32_t a = alloc.alloc(32);
    const uint32_t b = alloc.alloc(32);
    const uint32_t c = alloc.alloc(32);
    ASSERT_NE(c, 0u);
    alloc.free(a);

    // Forge the lost-poison state: re-plant b's pre-free header bytes
    // inside what free(b) turns into a's merged free extent.
    const uint32_t b_hdr = b - static_cast<uint32_t>(sizeof(BlockHeader));
    BlockHeader old_b{};
    pool.readRaw(b_hdr, &old_b, sizeof(old_b));
    alloc.free(b);
    pool.writeRaw(b_hdr, &old_b, sizeof(old_b));
    pool.persist(b_hdr, sizeof(old_b));

    alloc.rescan();
    BlockHeader swept{};
    pool.readRaw(b_hdr, &swept, sizeof(swept));
    EXPECT_FALSE(swept.crcValid());
    EXPECT_EQ(swept.size, 0u);
    EXPECT_FALSE(alloc.isAllocated(b));
    EXPECT_TRUE(alloc.isAllocated(c));
    EXPECT_TRUE(alloc.validate());
}

/** Records every write-back's line, in order. */
struct WriteBackLog final : DurabilityHook
{
    bool
    onWriteBack(Pool &, uint32_t line, WriteBackCause) override
    {
        lines.push_back(line);
        return true;
    }
    std::vector<uint32_t> lines;
};

using Extents = std::vector<std::pair<uint32_t, uint32_t>>;

/** The free extents (offset, size), from the block header chain. */
Extents
freeExtents(const Pool &pool)
{
    Extents extents;
    const uint32_t heap_end =
        pool.header().heap_off + pool.header().heap_size;
    for (uint32_t off = pool.header().heap_off; off < heap_end;) {
        BlockHeader h{};
        pool.readRaw(off, &h, sizeof(h));
        EXPECT_TRUE(h.crcValid()) << "block at " << off;
        if (!h.crcValid())
            break;
        if (!h.allocated())
            extents.emplace_back(off, h.size);
        off += h.size;
    }
    return extents;
}

/**
 * The free-extent sweep without shortcuts: crc-check every slot of
 * every extent of @p pool, zero and persist the valid ones. Returns
 * the expected working and durable images and the lines written back,
 * in order.
 */
struct ReferenceSweep
{
    explicit ReferenceSweep(const Pool &pool)
        : work(pool.size()), durable(pool.durableImage())
    {
        constexpr uint32_t kSlot = sizeof(BlockHeader);
        pool.readRaw(0, work.data(), work.size());
        for (const auto &[off, size] : freeExtents(pool)) {
            for (uint32_t p = off + kSlot; p + kSlot <= off + size;
                 p += kSlot) {
                BlockHeader h{};
                std::memcpy(&h, work.data() + p, sizeof(h));
                if (!h.crcValid())
                    continue;
                std::memset(work.data() + p, 0, kSlot);
                const uint32_t line = p / kLineSize;
                std::memcpy(durable.data() + line * kLineSize,
                            work.data() + line * kLineSize, kLineSize);
                persisted.push_back(line);
            }
        }
    }

    /** Check @p pool, just swept while @p log recorded, against this. */
    void
    expectMatches(const Pool &pool, const std::vector<uint32_t> &log) const
    {
        std::vector<uint8_t> swept(pool.size());
        pool.readRaw(0, swept.data(), swept.size());
        EXPECT_TRUE(swept == work) << "working images differ";
        EXPECT_TRUE(pool.durableView() == durable)
            << "durable images differ";
        EXPECT_EQ(log, persisted);
    }

    std::vector<uint8_t> work;
    PoolImage durable;
    std::vector<uint32_t> persisted;
};

TEST(Alloc, RebuildSweepMatchesSlotBySlotReference)
{
    // The sweep reads free extents in kSweepChunk pieces and skips
    // all-zero slots unchecked. It must zero and persist exactly the
    // slots a plain slot-by-slot crc check would, in the same order —
    // crash-point indices inside recovery count those persists.
    constexpr uint32_t kSlot = sizeof(BlockHeader);
    for (uint64_t seed : {1, 2, 3, 4}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng rng(seed);
        Pool pool("p", 1, 1 << 18);
        PoolAllocator alloc(pool);
        std::vector<uint32_t> live;
        while (true) {
            const uint32_t off = alloc.alloc(
                static_cast<uint32_t>(rng.range(16, 12000)));
            if (off == 0)
                break;
            live.push_back(off);
        }
        for (uint32_t off : live) {
            if (rng.chance(1, 2))
                alloc.free(off);
        }

        const Extents extents = freeExtents(pool);
        ASSERT_GT(extents.size(), 1u);

        // Plant zeros, junk and crc-valid headers in extent interiors;
        // persist about half of them.
        auto plant = [&](uint32_t p, int kind) {
            uint64_t w[2] = {0, 0};
            if (kind == 1) { // junk, including one-word-zero slots
                w[0] = rng.chance(1, 4) ? 0 : rng.next();
                w[1] = w[0] == 0 || rng.chance(1, 3) ? rng.next() : 0;
            } else if (kind == 2) { // crc-valid header
                BlockHeader h{};
                h.size = static_cast<uint32_t>(rng.below(4)) *
                         PoolAllocator::kAlign; // includes size 0
                h.flags = static_cast<uint32_t>(rng.below(2));
                h.prev_size = static_cast<uint32_t>(rng.next());
                h.seal();
                std::memcpy(w, &h, sizeof(h));
            }
            pool.writeRaw(p, w, sizeof(w));
            if (rng.chance(1, 2))
                pool.persist(p, sizeof(w));
        };
        for (const auto &[off, size] : extents) {
            const uint32_t first = off + kSlot;
            const uint32_t end = off + size;
            for (uint32_t p = first; p + kSlot <= end; p += kSlot) {
                const uint64_t r = rng.below(64);
                if (r < 4)
                    plant(p, 1);
                else if (r < 6)
                    plant(p, 2);
            }
            plant(first, 2);
            plant(end - kSlot, 2);
            for (uint32_t b = first + PoolAllocator::kSweepChunk; b < end;
                 b += PoolAllocator::kSweepChunk) {
                plant(b - kSlot, 2);
                if (b + kSlot <= end)
                    plant(b, 2);
            }
        }

        const ReferenceSweep ref(pool);
        ASSERT_FALSE(ref.persisted.empty());

        WriteBackLog log;
        pool.setDurabilityHook(&log);
        alloc.rescan();
        pool.setDurabilityHook(nullptr);
        ref.expectMatches(pool, log.lines);
        EXPECT_TRUE(alloc.validate());
    }
}

TEST(Alloc, SweepSkipsOnlyZeroPages)
{
    // The sweep skips chunks on pages the pool never wrote. On sparse
    // heaps, where most of a free extent was never written, it must
    // still zero and persist exactly the slots an unskipped sweep
    // would, in the same order: on a churned pool, after a crash, and
    // after a close/reopen. Stale crc-valid headers sit at the first
    // or last slot of a chunk (a chunk spans two pages, the other one
    // usually unwritten) and at random slots; about half are persisted.
    constexpr uint32_t kSlot = sizeof(BlockHeader);
    constexpr uint32_t kChunk = PoolAllocator::kSweepChunk;
    enum Phase { Churned, Crashed, Reopened };
    for (Phase phase : {Churned, Crashed, Reopened}) {
        for (uint64_t seed : {1, 2, 3, 4}) {
            SCOPED_TRACE("phase " + std::to_string(phase) + " seed " +
                         std::to_string(seed));
            Rng rng(seed);
            Pool pool("p", 1, 1 << 20);
            PoolAllocator churn(pool);
            std::vector<uint32_t> live;
            for (int i = 0; i < 24; ++i) {
                const uint64_t size = rng.chance(1, 3)
                                          ? rng.range(8000, 120000)
                                          : rng.range(16, 600);
                const uint32_t off =
                    churn.alloc(static_cast<uint32_t>(size));
                if (off == 0)
                    break;
                live.push_back(off);
            }
            for (uint32_t off : live) {
                if (rng.chance(1, 2))
                    churn.free(off);
            }

            auto plant = [&](uint32_t at) {
                BlockHeader h{};
                h.size = static_cast<uint32_t>(rng.below(4)) *
                         PoolAllocator::kAlign;
                h.flags = static_cast<uint32_t>(rng.below(2));
                h.prev_size = static_cast<uint32_t>(rng.next());
                h.seal();
                pool.writeRaw(at, &h, sizeof(h));
                if (rng.chance(1, 2))
                    pool.persist(at, sizeof(h));
            };
            const Extents extents = freeExtents(pool);
            for (const auto &[off, size] : extents) {
                const uint32_t first = off + kSlot;
                const uint32_t end = off + size;
                for (uint32_t c = first; c + kSlot <= end; c += kChunk) {
                    const uint32_t n = std::min(kChunk, end - c) /
                                       PoolAllocator::kAlign *
                                       PoolAllocator::kAlign;
                    switch (rng.below(8)) {
                    case 0:
                        plant(c);
                        break;
                    case 1:
                        plant(c + n - kSlot);
                        break;
                    case 2:
                        plant(first + static_cast<uint32_t>(rng.below(
                                          (end - first) / kSlot)) *
                                          kSlot);
                        break;
                    default:
                        break;
                    }
                }
            }

            uint32_t skippable = 0;
            for (const auto &[off, size] : extents) {
                for (uint32_t c = off + kSlot; c + kSlot <= off + size;
                     c += kChunk) {
                    skippable += !pool.anyPageWritten(
                        c, std::min(kChunk, off + size - c));
                }
            }
            ASSERT_GT(skippable, 20u) << "heap is not sparse";

            if (phase == Crashed)
                pool.crash();
            std::unique_ptr<Pool> reopened;
            if (phase == Reopened)
                reopened = std::make_unique<Pool>("p", 1, pool.durableImage());
            Pool &swept = reopened ? *reopened : pool;
            const ReferenceSweep ref(swept);
            ASSERT_FALSE(ref.persisted.empty());
            WriteBackLog log;
            swept.setDurabilityHook(&log);
            if (reopened) {
                PoolAllocator open(swept);
                EXPECT_TRUE(open.validate());
            } else {
                churn.rescan();
                EXPECT_TRUE(churn.validate());
            }
            swept.setDurabilityHook(nullptr);
            ref.expectMatches(swept, log.lines);
        }
    }
}

TEST(Alloc, CreateAttachMatchesSweepingOpenOnFreshPool)
{
    // Attach::Create skips the free-extent sweep. On a pool straight
    // from Pool's create constructor the sweep finds nothing, so both
    // attaches leave the same images, free list and write-backs.
    for (uint64_t size : {uint64_t{Pool::kMinSize}, uint64_t{1} << 20,
                          uint64_t{8} << 20}) {
        SCOPED_TRACE("size " + std::to_string(size));
        Pool a("p", 1, size);
        Pool b("p", 1, size);
        WriteBackLog la, lb;
        a.setDurabilityHook(&la);
        b.setDurabilityHook(&lb);
        PoolAllocator open(a, PoolAllocator::Attach::Open);
        PoolAllocator create(b, PoolAllocator::Attach::Create);
        a.setDurabilityHook(nullptr);
        b.setDurabilityHook(nullptr);

        EXPECT_EQ(la.lines, lb.lines);
        EXPECT_TRUE(a.durableView() == b.durableView());
        std::vector<uint8_t> wa(a.size()), wb(b.size());
        a.readRaw(0, wa.data(), wa.size());
        b.readRaw(0, wb.data(), wb.size());
        EXPECT_TRUE(wa == wb);
        EXPECT_EQ(create.freeBlockCount(), 1u);
        EXPECT_EQ(create.freeBytes(), open.freeBytes());
        EXPECT_TRUE(create.validate());
    }
}

} // namespace
} // namespace poat
