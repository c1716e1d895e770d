/**
 * @file
 * Host-native google-benchmark microbenchmarks of the library
 * primitives themselves (not the simulated machine): the software
 * translation fast/slow paths whose instruction counts Table 2 models,
 * allocation, transactional updates, and B+ tree operations. These give
 * context for why a 17-vs-97-instruction translation matters: the same
 * ratio shows up in host nanoseconds. The Crc32c and Rescan benches
 * time the host cost of pool open: the checksum kernel and the
 * allocator's header scan plus free-extent sweep. PoolCreate times a
 * pool's create path, PoolCrash a simulated power failure after a few
 * stores, and the Tlb, PageTable and CacheHierarchy benches
 * time the simulator's per-access lookups over a seeded address
 * stream.
 */
#include <benchmark/benchmark.h>

#include <vector>

#include "common/crc32c.h"
#include "common/rng.h"
#include "pmem/alloc.h"
#include "pmem/registry.h"
#include "pmem/runtime.h"
#include "sim/cache.h"
#include "sim/vm.h"
#include "workloads/bplustree.h"
#include "workloads/harness.h"

namespace {

using namespace poat;

void
BM_TranslatePredictorHit(benchmark::State &state)
{
    AddressSpace space(1);
    SoftwareTranslator tr(space);
    tr.addPool(1, 0x10000000);
    NullTraceSink sink;
    tr.translate(ObjectID(1, 0), sink); // warm the predictor
    uint32_t off = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            tr.translate(ObjectID(1, off += 8), sink));
    }
}
BENCHMARK(BM_TranslatePredictorHit);

void
BM_TranslateFullLookup(benchmark::State &state)
{
    AddressSpace space(1);
    SoftwareTranslator tr(space);
    const uint32_t pools = static_cast<uint32_t>(state.range(0));
    for (uint32_t p = 1; p <= pools; ++p)
        tr.addPool(p, 0x10000000ull * p);
    NullTraceSink sink;
    uint32_t p = 0;
    for (auto _ : state) {
        // Alternate pools so the last-value predictor always misses.
        p = p % pools + 1;
        benchmark::DoNotOptimize(tr.translate(ObjectID(p, 0), sink));
    }
}
BENCHMARK(BM_TranslateFullLookup)->Arg(2)->Arg(32)->Arg(1024);

void
BM_PmallocPfree(benchmark::State &state)
{
    RuntimeOptions o;
    PmemRuntime rt(o);
    const uint32_t pool = rt.poolCreate("p", 8 << 20);
    for (auto _ : state) {
        const ObjectID oid = rt.pmalloc(pool, 64);
        rt.pfree(oid);
    }
}
BENCHMARK(BM_PmallocPfree);

void
BM_TransactionalUpdate(benchmark::State &state)
{
    RuntimeOptions o;
    PmemRuntime rt(o);
    const uint32_t pool = rt.poolCreate("p", 8 << 20);
    const ObjectID obj = rt.pmalloc(pool, 64);
    uint64_t v = 0;
    for (auto _ : state) {
        rt.txBegin(pool);
        rt.txAddRange(obj, 64);
        rt.write<uint64_t>(rt.deref(obj), 0, ++v);
        rt.txEnd();
    }
}
BENCHMARK(BM_TransactionalUpdate);

void
BM_PersistLine(benchmark::State &state)
{
    RuntimeOptions o;
    PmemRuntime rt(o);
    const uint32_t pool = rt.poolCreate("p", 8 << 20);
    const ObjectID obj = rt.pmalloc(pool, 64);
    uint64_t v = 0;
    for (auto _ : state) {
        rt.write<uint64_t>(rt.deref(obj), 0, ++v);
        rt.persist(obj, 8);
    }
}
BENCHMARK(BM_PersistLine);

void
BM_BPlusTreeInsertFind(benchmark::State &state)
{
    RuntimeOptions o;
    PmemRuntime rt(o);
    const uint32_t pool = rt.poolCreate("p", 64 << 20);
    const ObjectID anchor = rt.poolRoot(pool, 16);
    workloads::BPlusTree tree(rt, anchor,
                              [pool](uint64_t) { return pool; });
    uint64_t k = 0;
    for (auto _ : state) {
        workloads::TxScope tx(rt, false);
        ++k;
        tree.insert(tx, k, k);
        benchmark::DoNotOptimize(tree.find(k / 2 + 1));
    }
}
BENCHMARK(BM_BPlusTreeInsertFind);

void
BM_UndoRollback(benchmark::State &state)
{
    // Cost of rolling back a transaction touching N 64-byte ranges.
    const int ranges = static_cast<int>(state.range(0));
    RuntimeOptions o;
    PmemRuntime rt(o);
    const uint32_t pool = rt.poolCreate("p", 32 << 20);
    std::vector<ObjectID> objs;
    for (int i = 0; i < ranges; ++i)
        objs.push_back(rt.pmalloc(pool, 64));
    for (auto _ : state) {
        rt.txBegin(pool);
        for (const ObjectID &o2 : objs) {
            rt.txAddRange(o2, 64);
            rt.write<uint64_t>(rt.deref(o2), 0, 1);
        }
        rt.txAbort();
    }
    state.SetItemsProcessed(state.iterations() * ranges);
}
BENCHMARK(BM_UndoRollback)->Arg(1)->Arg(16)->Arg(128);

void
BM_CrashRecovery(benchmark::State &state)
{
    // Full power-failure recovery of a pool with a mid-flight
    // transaction of N logged ranges.
    const int ranges = static_cast<int>(state.range(0));
    RuntimeOptions o;
    PmemRuntime rt(o);
    const uint32_t pool = rt.poolCreate("p", 32 << 20);
    std::vector<ObjectID> objs;
    for (int i = 0; i < ranges; ++i)
        objs.push_back(rt.pmalloc(pool, 64));
    for (auto _ : state) {
        rt.txBegin(pool);
        for (const ObjectID &o2 : objs) {
            rt.txAddRange(o2, 64);
            rt.write<uint64_t>(rt.deref(o2), 0, 1);
        }
        rt.crashAndRecover();
    }
    state.SetItemsProcessed(state.iterations() * ranges);
}
BENCHMARK(BM_CrashRecovery)->Arg(1)->Arg(16)->Arg(128);

void
BM_Crc32c(benchmark::State &state)
{
    const size_t n = static_cast<size_t>(state.range(0));
    Rng rng(n);
    std::vector<uint8_t> buf(n);
    for (uint8_t &b : buf)
        b = static_cast<uint8_t>(rng.next());
    uint32_t c = static_cast<uint32_t>(rng.next());
    for (auto _ : state) {
        c = crc32c(buf.data(), n, c);
        benchmark::DoNotOptimize(c);
    }
    state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_Crc32c)->Arg(16)->Arg(64)->Arg(4096);

void
BM_RescanFreshHeap(benchmark::State &state)
{
    // Pool open of a freshly formatted 1 MB heap: one free extent of
    // never-written (all-zero) slots.
    Pool pool("p", 1, 1 << 20);
    PoolAllocator alloc(pool);
    for (auto _ : state) {
        alloc.rescan();
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_RescanFreshHeap);

void
BM_RescanChurnedHeap(benchmark::State &state)
{
    // Pool open after random alloc/free churn: many free extents whose
    // interiors still hold freed payload bytes the sweep must check.
    Pool pool("p", 1, 1 << 20);
    PoolAllocator alloc(pool);
    Rng rng(42);
    std::vector<uint32_t> live;
    while (true) {
        const uint32_t sz = static_cast<uint32_t>(rng.range(16, 512));
        const uint32_t off = alloc.alloc(sz);
        if (off == 0)
            break;
        std::vector<uint8_t> fill(sz, static_cast<uint8_t>(rng.next() | 1));
        pool.writeRaw(off, fill.data(), sz);
        live.push_back(off);
    }
    for (uint32_t off : live) {
        if (rng.chance(1, 2))
            alloc.free(off);
    }
    state.counters["free_extents"] =
        static_cast<double>(alloc.freeBlockCount());
    for (auto _ : state) {
        alloc.rescan();
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_RescanChurnedHeap);

void
BM_PoolCreate(benchmark::State &state)
{
    // The registry's create path: pool images, superblock, allocator
    // format and undo log. Arg is the pool size in MB.
    const uint64_t size = static_cast<uint64_t>(state.range(0)) << 20;
    for (auto _ : state) {
        OpenPool op("p", 1, size, Pool::kDefaultLogSize);
        benchmark::DoNotOptimize(op.alloc.freeBytes());
    }
    state.SetBytesProcessed(state.iterations() *
                            static_cast<int64_t>(size));
}
BENCHMARK(BM_PoolCreate)->Arg(8)->Arg(64)->Unit(benchmark::kMicrosecond);

void
BM_PoolCrash(benchmark::State &state)
{
    // Store to eight lines spread over the pool, persist one, crash:
    // the crash restores the written pages only, so its cost follows
    // the bytes written, not the pool size. Arg is the pool size in MB.
    const uint64_t size = static_cast<uint64_t>(state.range(0)) << 20;
    Pool pool("p", 1, size);
    const uint32_t stride = static_cast<uint32_t>(size / 8);
    for (auto _ : state) {
        for (uint32_t i = 0; i < 8; ++i)
            pool.writeAs<uint64_t>(Pool::kHeaderSize + i * stride, i + 1);
        pool.persist(Pool::kHeaderSize, sizeof(uint64_t));
        pool.crash();
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_PoolCrash)->Arg(1)->Arg(64)->Unit(benchmark::kMicrosecond);

void
BM_PoolSnapshotRestore(benchmark::State &state)
{
    // What an in-recovery crash trial pays to start from its outer
    // point's crashed image: snapshot the crashed pool, store to it,
    // restore. Eight lines spread over the pool are written, so both
    // follow the bytes written, not the pool size. Arg is the pool
    // size in MB.
    const uint64_t size = static_cast<uint64_t>(state.range(0)) << 20;
    PoolRegistry r;
    Pool &pool = r.create("p", size).pool;
    const uint32_t stride = static_cast<uint32_t>(size / 8);
    for (uint32_t i = 0; i < 8; ++i)
        pool.writeAs<uint64_t>(Pool::kHeaderSize + i * stride, i + 1);
    pool.persist(Pool::kHeaderSize, sizeof(uint64_t));
    r.crashAll();
    for (auto _ : state) {
        const PoolRegistry::Snapshot snap = r.snapshot();
        pool.writeAs<uint64_t>(Pool::kHeaderSize + stride, 9);
        r.restore(snap);
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_PoolSnapshotRestore)
    ->Arg(1)
    ->Arg(64)
    ->Unit(benchmark::kMicrosecond);

/**
 * 64K seeded virtual addresses shaped like a simulated workload's:
 * runs within a page, a hot set of @p hot_pages, and cold pages.
 */
std::vector<uint64_t>
addressStream(uint64_t hot_pages)
{
    Rng rng(42);
    std::vector<uint64_t> out(1 << 16);
    uint64_t a = 0x7f0000000000ull;
    for (uint64_t &v : out) {
        const uint64_t pick = rng.below(100);
        if (pick < 40)
            a += 8;
        else if (pick < 90)
            a = 0x7f0000000000ull + rng.below(hot_pages * kPageSize);
        else
            a = 0x100000000ull + rng.below(uint64_t{1} << 30);
        v = a;
    }
    return out;
}

void
BM_TlbAccess(benchmark::State &state)
{
    // A 64-entry D-TLB (Table 4) over a hot set slightly larger than it.
    const std::vector<uint64_t> stream = addressStream(80);
    sim::Tlb tlb(64);
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(tlb.access(stream[i]));
        i = (i + 1) & (stream.size() - 1);
    }
    state.counters["miss_rate"] = tlb.missRate();
}
BENCHMARK(BM_TlbAccess);

void
BM_PageTableTranslate(benchmark::State &state)
{
    const std::vector<uint64_t> stream = addressStream(80);
    sim::PageTable pt;
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(pt.translate(stream[i]));
        i = (i + 1) & (stream.size() - 1);
    }
}
BENCHMARK(BM_PageTableTranslate);

/** Physical addresses of addressStream() and a core for each. */
struct CoreStream
{
    explicit CoreStream(uint32_t cores)
    {
        sim::PageTable pt;
        Rng rng(7);
        for (uint64_t va : addressStream(2048)) {
            paddr.push_back(pt.translate(va));
            core.push_back(static_cast<uint32_t>(rng.below(cores)));
        }
    }
    std::vector<uint64_t> paddr;
    std::vector<uint32_t> core;
};

void
BM_CacheHierarchyAccess(benchmark::State &state)
{
    // The Table 4 hierarchy with Arg private L1/L2 pairs.
    sim::MachineConfig cfg;
    cfg.cores = static_cast<uint32_t>(state.range(0));
    const CoreStream s(cfg.cores);
    sim::CacheHierarchy h(cfg);
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            h.accessClassified(s.core[i], s.paddr[i], (i & 3) == 0));
        i = (i + 1) & (s.paddr.size() - 1);
    }
}
BENCHMARK(BM_CacheHierarchyAccess)->Arg(1)->Arg(8);

void
BM_CacheHierarchyFlushLine(benchmark::State &state)
{
    // CLWB probes every level of every core.
    sim::MachineConfig cfg;
    cfg.cores = static_cast<uint32_t>(state.range(0));
    const CoreStream s(cfg.cores);
    sim::CacheHierarchy h(cfg);
    for (size_t i = 0; i < s.paddr.size(); ++i)
        h.access(s.core[i], s.paddr[i], true);
    size_t i = 0;
    for (auto _ : state) {
        h.flushLine(s.paddr[i]);
        i = (i + 1) & (s.paddr.size() - 1);
    }
    benchmark::ClobberMemory();
}
BENCHMARK(BM_CacheHierarchyFlushLine)->Arg(1)->Arg(8);

} // namespace

BENCHMARK_MAIN();
