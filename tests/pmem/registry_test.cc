/** @file Unit tests for the pool registry (create/open/close cycle). */
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "pmem/registry.h"

namespace poat {
namespace {

TEST(Registry, CreateAssignsSequentialIdsFromOne)
{
    PoolRegistry r;
    EXPECT_EQ(r.create("a", 1 << 20).pool.id(), 1u);
    EXPECT_EQ(r.create("b", 1 << 20).pool.id(), 2u);
    EXPECT_EQ(r.openCount(), 2u);
}

TEST(Registry, PoolsGetDistinctPageAlignedVbases)
{
    PoolRegistry r;
    auto &a = r.create("a", 1 << 20);
    auto &b = r.create("b", 1 << 20);
    EXPECT_NE(a.pool.vbase(), b.pool.vbase());
    EXPECT_EQ(a.pool.vbase() % kPageSize, 0u);
    EXPECT_EQ(b.pool.vbase() % kPageSize, 0u);
}

TEST(Registry, AslrSeedChangesPlacementDeterministically)
{
    PoolRegistry r1(7), r2(7), r3(8);
    EXPECT_EQ(r1.create("a", 1 << 20).pool.vbase(),
              r2.create("a", 1 << 20).pool.vbase());
    EXPECT_NE(r1.create("b", 1 << 20).pool.vbase(),
              r3.create("b", 1 << 20).pool.vbase());
}

TEST(Registry, FindAndGet)
{
    PoolRegistry r;
    auto &a = r.create("a", 1 << 20);
    EXPECT_EQ(r.find(a.pool.id()), &a);
    EXPECT_EQ(r.find(999), nullptr);
    EXPECT_EQ(&r.get(a.pool.id()), &a);
}

TEST(Registry, FindMemoFollowsOpenCloseCrashAndRecover)
{
    // find() memoises the last pool found. Lookups must stay right as
    // pools open, close (the memo's pool included), crash and recover.
    PoolRegistry r;
    OpenPool *a = &r.create("a", 1 << 20);
    OpenPool *b = &r.create("b", 1 << 20);
    const uint32_t ia = a->pool.id(), ib = b->pool.id();
    const PoolRegistry &cr = r;
    for (int i = 0; i < 2; ++i) {
        EXPECT_EQ(r.find(ia), a);
        EXPECT_EQ(cr.find(ib), b);
        EXPECT_EQ(r.find(ib), b);
        EXPECT_EQ(r.find(0), nullptr);
        EXPECT_EQ(cr.find(ia), a);
    }
    r.close(ia); // a is the memo
    EXPECT_EQ(r.find(ia), nullptr);
    EXPECT_EQ(r.find(ib), b);
    a = &r.open("a");
    EXPECT_EQ(r.find(ia), a);
    EXPECT_EQ(r.find(ib), b);
    r.crashAll();
    EXPECT_EQ(r.find(ib), b);
    r.recoverAll();
    EXPECT_EQ(r.find(ib), b);
    EXPECT_EQ(r.find(ia), a);
    r.close(ib); // a is the memo, b goes
    EXPECT_EQ(r.find(ib), nullptr);
    EXPECT_EQ(cr.find(ia), a);
    EXPECT_EQ(&r.get(ia), a);
    EXPECT_EQ(r.find(999), nullptr);
    EXPECT_EQ(r.find(ia), a);
}

TEST(Registry, CloseThenReopenPreservesDataAndId)
{
    PoolRegistry r;
    auto &a = r.create("a", 1 << 20);
    const uint32_t id = a.pool.id();
    const uint32_t off = a.alloc.alloc(64);
    a.pool.writeAs<uint64_t>(off, 123);
    // No explicit persist: close must flush dirty lines like a file
    // close writes back page-cache contents.
    r.close(id);
    EXPECT_EQ(r.openCount(), 0u);

    auto &b = r.open("a");
    EXPECT_EQ(b.pool.id(), id);
    EXPECT_EQ(b.pool.readAs<uint64_t>(off), 123u);
    EXPECT_TRUE(b.alloc.isAllocated(off));
}

TEST(Registry, ReopenGetsAFreshRandomizedMapping)
{
    PoolRegistry r;
    auto &a = r.create("a", 1 << 20);
    const uint64_t vbase1 = a.pool.vbase();
    r.close(a.pool.id());
    auto &b = r.open("a");
    // ASLR: a reopened pool (almost surely) lands elsewhere, which is
    // exactly why ObjectIDs rather than raw pointers are needed.
    EXPECT_NE(b.pool.vbase(), vbase1);
}

TEST(Registry, OpenRunsLogRecovery)
{
    PoolRegistry r;
    auto &a = r.create("a", 1 << 20);
    const uint32_t id = a.pool.id();
    const uint32_t off = a.alloc.alloc(64);
    a.pool.writeAs<uint64_t>(off, 1);
    a.pool.persist(off, 8);

    a.log.begin();
    a.log.addRange(off, 8);
    a.pool.writeAs<uint64_t>(off, 2);
    a.pool.persist(off, 8);
    // Crash with the transaction still active, then close-less reopen
    // via crashAll + recoverAll.
    r.crashAll();
    r.recoverAll();
    EXPECT_EQ(r.get(id).pool.readAs<uint64_t>(off), 1u);
}

TEST(Registry, CrashAllRevertsUnpersistedWrites)
{
    PoolRegistry r;
    auto &a = r.create("a", 1 << 20);
    const uint32_t off = a.alloc.alloc(64);
    a.pool.writeAs<uint64_t>(off, 55);
    r.crashAll();
    EXPECT_EQ(a.pool.readAs<uint64_t>(off), 0u);
    EXPECT_TRUE(a.alloc.validate());
}

TEST(Registry, OpenIdsAreSorted)
{
    PoolRegistry r;
    r.create("a", 1 << 20);
    r.create("b", 1 << 20);
    r.create("c", 1 << 20);
    r.close(2);
    const auto ids = r.openIds();
    ASSERT_EQ(ids.size(), 2u);
    EXPECT_EQ(ids[0], 1u);
    EXPECT_EQ(ids[1], 3u);
}

TEST(Registry, ManyPoolsCoexist)
{
    PoolRegistry r;
    for (int i = 0; i < 200; ++i)
        r.create("pool" + std::to_string(i), Pool::kMinSize);
    EXPECT_EQ(r.openCount(), 200u);
    EXPECT_EQ(r.addressSpace().regionCount(), 200u);
}

/** Records every durability event a hook sees, in order. */
struct EventLog final : DurabilityHook
{
    bool
    onWriteBack(Pool &, uint32_t line, WriteBackCause cause) override
    {
        const char *why = cause == WriteBackCause::Clwb    ? "clwb"
                          : cause == WriteBackCause::Fence ? "fence"
                                                           : "evict";
        events.push_back(std::string(why) + " " + std::to_string(line));
        return true;
    }

    void
    onFenceDrainBegin(Pool &, const std::vector<uint32_t> &pending) override
    {
        std::string e = "drain";
        for (uint32_t line : pending)
            e += " " + std::to_string(line);
        events.push_back(e);
    }

    std::vector<std::string> events;
};

TEST(Registry, CloseWritesBackDirtyLinesInAscendingOrder)
{
    // Close flushes every dirty line; the hook must see exactly the
    // write-backs, causes and drain batch of a CLWB over every line of
    // the pool in address order, then one fence.
    const uint32_t lines[] = {900, 17, 4095, 300, 17, 5};
    const std::vector<std::string> eager = {
        "clwb 300", "clwb 5", "clwb 17", "clwb 900", "clwb 4095"};
    const std::vector<std::string> strict = {
        "drain 5 17 300 900 4095", "fence 5", "fence 17",
        "fence 300", "fence 900", "fence 4095"};
    for (DurabilityPolicy policy :
         {DurabilityPolicy::Eager, DurabilityPolicy::Strict}) {
        PoolRegistry r;
        r.setDurabilityPolicy(policy);
        auto &a = r.create("a", 1 << 20);
        const uint32_t id = a.pool.id();
        ASSERT_EQ(a.pool.dirtyLineCount(), 0u);
        EventLog log;
        r.setDurabilityHook(&log);
        for (uint32_t line : lines)
            a.pool.writeAs<uint64_t>(line * kLineSize + 8, line);
        // Eager: written back now. Strict: staged, fence pending.
        a.pool.clwb(300 * kLineSize);
        r.close(id);
        r.setDurabilityHook(nullptr);
        EXPECT_EQ(log.events,
                  policy == DurabilityPolicy::Eager ? eager : strict);

        auto &b = r.open("a");
        for (uint32_t line : lines)
            EXPECT_EQ(b.pool.readAs<uint64_t>(line * kLineSize + 8), line);
    }
}

TEST(Registry, ReopenSweepsStaleHeadersOutOfFreeExtents)
{
    // Create skips the allocator's free-extent sweep (the heap is zero
    // by construction); open must still run it on the closed image.
    PoolRegistry r;
    auto &a = r.create("a", 1 << 20);
    const uint32_t id = a.pool.id();
    const uint32_t at = a.pool.header().heap_off + 4096;
    BlockHeader stale{};
    stale.size = 64;
    stale.flags = BlockHeader::kAllocated;
    stale.seal();
    a.pool.writeAs(at, stale);
    r.close(id);

    auto &b = r.open("a");
    const BlockHeader swept = b.pool.readAs<BlockHeader>(at);
    EXPECT_FALSE(swept.crcValid());
    EXPECT_EQ(swept.size, 0u);
    EXPECT_EQ(b.alloc.freeBlockCount(), 1u);
    EXPECT_TRUE(b.alloc.validate());
}

TEST(PoolRegistry, SnapshotRestoreIsExact)
{
    // A snapshot taken after crashAll must give back the crashed pools
    // byte for byte, whatever a trial did to them since: recovery,
    // stores on pages written before and after the snapshot, CLWB and
    // fences, media faults, evictions and a transaction left open.
    for (DurabilityPolicy policy :
         {DurabilityPolicy::Eager, DurabilityPolicy::Strict}) {
        PoolRegistry r;
        r.setDurabilityPolicy(policy);
        OpenPool &a = r.create("a", 1 << 20);
        OpenPool &b = r.create("b", 1 << 20, Pool::kDefaultLogSize, 2);
        const uint32_t off = a.alloc.alloc(64);
        a.pool.writeAs<uint64_t>(off, 1);
        a.pool.persist(off, 8);
        // Crash with a transaction in flight, so recovery has undo
        // work, and with a store that never reached media.
        a.log.begin();
        a.log.addRange(off, 8);
        a.pool.writeAs<uint64_t>(off, 2);
        a.pool.persist(off, 8);
        b.pool.writeAs<uint64_t>(b.pool.header().heap_off + 64, 3);
        r.crashAll();

        // Both images of every open pool, in full.
        auto images = [&r] {
            std::vector<std::vector<uint8_t>> out;
            for (uint32_t id : r.openIds()) {
                const Pool &p = r.get(id).pool;
                out.emplace_back(p.durableView().begin(),
                                 p.durableView().end());
                std::vector<uint8_t> working(p.size());
                p.readRaw(0, working.data(), working.size());
                out.push_back(std::move(working));
            }
            return out;
        };
        const PoolRegistry::Snapshot snap = r.snapshot();
        const std::vector<std::vector<uint8_t>> want = images();
        const PoolHeader header = a.pool.header();
        ASSERT_EQ(a.log.state(), LogHeader::kActive);

        Rng rng(7);
        const uint32_t fresh = 600 * 1024; // a page nothing wrote yet
        ASSERT_FALSE(a.pool.anyPageWritten(fresh, 4 * kPageSize));
        ASSERT_FALSE(b.pool.anyPageWritten(fresh, 4 * kPageSize));
        for (int round = 0; round < 2; ++round) {
            r.recoverAll();
            EXPECT_EQ(a.pool.readAs<uint64_t>(off), 1u);
            a.pool.writeAs<uint64_t>(off, 9);
            a.pool.clwb(off);
            a.pool.fence();
            a.pool.writeAs<uint64_t>(fresh, 5);
            a.pool.clwb(fresh); // staged under Strict, durable under Eager
            b.pool.writeAs<uint64_t>(fresh + kPageSize, 6);
            b.pool.writeAs<uint64_t>(off, 7);
            b.pool.evictRandomLines(rng, 1, 1);
            const uint64_t junk = ~0ull;
            b.pool.corruptDurable(fresh + 2 * kPageSize, &junk, 8);
            a.pool.corruptDurable(off + 64, &junk, 8);
            a.log.begin();
            b.logSlot(1).begin();
            a.pool.writeAs<uint64_t>(fresh + 3 * kPageSize, 8); // dirty

            r.restore(snap);
            EXPECT_EQ(images(), want) << "round " << round;
            for (uint32_t id : r.openIds()) {
                OpenPool &op = r.get(id);
                EXPECT_EQ(op.pool.dirtyLineCount(), 0u);
                EXPECT_TRUE(op.pool.stagedLines().empty());
                op.forEachLog([](UndoLog &log) {
                    EXPECT_FALSE(log.active());
                    EXPECT_FALSE(log.committing());
                });
            }
            EXPECT_EQ(std::memcmp(&a.pool.header(), &header,
                                  sizeof(header)),
                      0);
            EXPECT_EQ(a.log.state(), LogHeader::kActive);
            // Lines dirty or staged before the restore are clean now:
            // flushing them writes nothing back.
            EventLog flushed;
            r.setDurabilityHook(&flushed);
            for (uint64_t at : {uint64_t{off} + 8, uint64_t{fresh},
                                fresh + 3 * kPageSize})
                a.pool.clwb(static_cast<uint32_t>(at));
            a.pool.fence();
            r.setDurabilityHook(nullptr);
            EXPECT_TRUE(flushed.events.empty()) << flushed.events[0];
        }
    }
}

TEST(RegistryDeath, OpenThatRecoveryRejectsConsumesTheImage)
{
    // The closed image moves into the pool being opened. When recovery
    // rejects it, the name goes with it: a retry is an unknown pool,
    // not an open of an empty image.
    PoolRegistry r;
    auto &a = r.create("a", 1 << 20);
    const uint32_t junk = 0xdeadbeef;
    a.pool.corruptDurable(offsetof(PoolHeader, pool_id), &junk, 4);
    a.pool.corruptDurable(PoolHeader::kMirrorOff +
                              offsetof(PoolHeader, pool_id),
                          &junk, 4);
    r.close(a.pool.id());
    EXPECT_THROW(r.open("a"), MediaError);
    EXPECT_EXIT(r.open("a"), ::testing::ExitedWithCode(1),
                "unknown pool name");
}

} // namespace
} // namespace poat
