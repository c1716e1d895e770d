/**
 * @file
 * Differential tests of the simulator's lookup structures. The TLB,
 * page table and caches keep O(1) and contiguous lookup state; the
 * reference models below are the plain linear-scan LRU designs they
 * replaced. Seeded address streams must give identical hits, misses,
 * writebacks, latencies and frames, access by access.
 */
#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "sim/cache.h"
#include "sim/vm.h"

namespace poat {
namespace sim {
namespace {

/** Fully associative true-LRU TLB: scan every slot on every access. */
class RefTlb
{
  public:
    explicit RefTlb(uint32_t entries) : entries_(entries) {}

    bool
    access(uint64_t vaddr)
    {
        const uint64_t vpn = vaddr / kPageSize;
        ++tick_;
        for (auto &e : slots_) {
            if (e.vpn == vpn) {
                e.lru = tick_;
                ++hits_;
                return true;
            }
        }
        ++misses_;
        if (slots_.size() < entries_) {
            slots_.push_back({vpn, tick_});
            return false;
        }
        auto victim = slots_.begin();
        for (auto it = slots_.begin(); it != slots_.end(); ++it) {
            if (it->lru < victim->lru)
                victim = it;
        }
        *victim = {vpn, tick_};
        return false;
    }

    void
    reset()
    {
        slots_.clear();
        tick_ = 0;
    }

    uint64_t hits_ = 0;
    uint64_t misses_ = 0;

  private:
    struct Slot
    {
        uint64_t vpn;
        uint64_t lru;
    };
    uint32_t entries_;
    std::vector<Slot> slots_;
    uint64_t tick_ = 0;
};

/** Page table with a hash lookup on every translation. */
class RefPageTable
{
  public:
    uint64_t
    translate(uint64_t vaddr)
    {
        const uint64_t vpn = vaddr / kPageSize;
        auto [it, inserted] = map_.try_emplace(vpn, nextFrame_);
        if (inserted)
            ++nextFrame_;
        return it->second * kPageSize + vaddr % kPageSize;
    }
    size_t mappedPages() const { return map_.size(); }

  private:
    std::unordered_map<uint64_t, uint64_t> map_;
    uint64_t nextFrame_ = 1;
};

/** Set-associative write-back cache: per-way structs, divide-based. */
class RefCache
{
  public:
    explicit RefCache(const CacheConfig &cfg)
        : latency_(cfg.latency), assoc_(cfg.assoc)
    {
        const uint32_t lines = cfg.size_bytes / 64;
        sets_ = lines / cfg.assoc;
        lines_.resize(lines);
    }

    bool
    access(uint64_t paddr, bool is_write)
    {
        Line *base = set(paddr);
        const uint64_t tag = paddr / 64 / sets_;
        ++tick_;
        Line *victim = base;
        for (uint32_t w = 0; w < assoc_; ++w) {
            Line &line = base[w];
            if (line.valid && line.tag == tag) {
                line.lru = tick_;
                line.dirty |= is_write;
                ++hits_;
                return true;
            }
            if (!line.valid)
                victim = &line;
            else if (victim->valid && line.lru < victim->lru)
                victim = &line;
        }
        ++misses_;
        if (victim->valid && victim->dirty)
            ++writebacks_;
        *victim = {tag, tick_, true, is_write};
        return false;
    }

    bool
    contains(uint64_t paddr)
    {
        Line *base = set(paddr);
        for (uint32_t w = 0; w < assoc_; ++w)
            if (base[w].valid && base[w].tag == paddr / 64 / sets_)
                return true;
        return false;
    }

    bool
    flushLine(uint64_t paddr)
    {
        Line *base = set(paddr);
        for (uint32_t w = 0; w < assoc_; ++w) {
            Line &line = base[w];
            if (line.valid && line.tag == paddr / 64 / sets_ && line.dirty) {
                line.dirty = false;
                ++writebacks_;
                return true;
            }
        }
        return false;
    }

    void
    reset()
    {
        for (Line &line : lines_)
            line = Line{};
        tick_ = 0;
    }

    uint32_t latency_;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
    uint64_t writebacks_ = 0;

  private:
    struct Line
    {
        uint64_t tag = 0;
        uint64_t lru = 0;
        bool valid = false;
        bool dirty = false;
    };

    Line *
    set(uint64_t paddr)
    {
        return &lines_[(paddr / 64 % sets_) * assoc_];
    }

    uint32_t sets_;
    uint32_t assoc_;
    std::vector<Line> lines_;
    uint64_t tick_ = 0;
};

/** Private L1/L2 per core in front of a shared L3, then memory. */
class RefHierarchy
{
  public:
    explicit RefHierarchy(const MachineConfig &cfg)
        : l3_(cfg.l3), memLatency_(cfg.mem_latency)
    {
        for (uint32_t i = 0; i < cfg.cores; ++i) {
            l1s_.emplace_back(cfg.l1d);
            l2s_.emplace_back(cfg.l2);
        }
    }

    CacheHierarchy::AccessResult
    access(uint32_t core, uint64_t paddr, bool is_write)
    {
        using Level = CacheHierarchy::Level;
        if (l1s_[core].access(paddr, is_write))
            return {l1s_[core].latency_, Level::L1};
        if (l2s_[core].access(paddr, false))
            return {l2s_[core].latency_, Level::L2};
        if (l3_.access(paddr, false))
            return {l3_.latency_, Level::L3};
        ++memAccesses_;
        return {memLatency_, Level::Memory};
    }

    void
    flushLine(uint64_t paddr)
    {
        for (RefCache &c : l1s_)
            c.flushLine(paddr);
        for (RefCache &c : l2s_)
            c.flushLine(paddr);
        l3_.flushLine(paddr);
    }

    std::vector<RefCache> l1s_;
    std::vector<RefCache> l2s_;
    RefCache l3_;
    uint32_t memLatency_;
    uint64_t memAccesses_ = 0;
};

/**
 * A seeded address stream with the shapes simulated workloads produce:
 * runs within one page, reuse of a hot set larger than a 64-entry TLB,
 * and cold addresses from a wide range.
 */
class Stream
{
  public:
    Stream(uint64_t seed, uint64_t hot_pages, uint64_t cold_pages)
        : rng_(seed), hot_(hot_pages), cold_(cold_pages)
    {
    }

    uint64_t
    next()
    {
        const uint64_t pick = rng_.below(100);
        if (pick < 40) {
            addr_ += 8 * rng_.below(4); // stay near the last address
        } else if (pick < 85) {
            addr_ = 0x7f0000000000ull + rng_.below(hot_) * kPageSize +
                    rng_.below(kPageSize);
        } else {
            addr_ = 0x100000000ull + rng_.below(cold_) * kPageSize +
                    rng_.below(kPageSize);
        }
        return addr_;
    }

    Rng &rng() { return rng_; }

  private:
    Rng rng_;
    uint64_t hot_;
    uint64_t cold_;
    uint64_t addr_ = 0x7f0000000000ull;
};

TEST(LookupReference, TlbMatchesLinearScanLru)
{
    for (uint32_t entries : {1u, 2u, 4u, 64u, 100u}) {
        for (uint64_t seed : {1ull, 42ull}) {
            Tlb tlb(entries);
            RefTlb ref(entries);
            Stream s(seed, entries + entries / 2 + 1, 4096);
            for (int i = 0; i < 40000; ++i) {
                if (i == 25000) {
                    tlb.reset();
                    ref.reset();
                }
                const uint64_t va = s.next();
                ASSERT_EQ(tlb.access(va), ref.access(va))
                    << "entries " << entries << " seed " << seed
                    << " access " << i;
            }
            EXPECT_EQ(tlb.hits(), ref.hits_);
            EXPECT_EQ(tlb.misses(), ref.misses_);
            EXPECT_GT(tlb.hits(), 0u);
            EXPECT_GT(tlb.misses(), entries);
        }
    }
}

TEST(LookupReference, PageTableMatchesHashLookupEveryTime)
{
    PageTable pt;
    RefPageTable ref;
    Stream s(7, 200, 100000);
    for (int i = 0; i < 50000; ++i) {
        const uint64_t va = s.next();
        if (i % 3 == 0) {
            ASSERT_EQ(pt.frameOf(va), ref.translate(va) / kPageSize)
                << "access " << i;
        } else {
            ASSERT_EQ(pt.translate(va), ref.translate(va)) << "access " << i;
        }
    }
    EXPECT_EQ(pt.mappedPages(), ref.mappedPages());
}

TEST(LookupReference, CacheMatchesPerWayStructModel)
{
    const CacheConfig configs[] = {
        {1024, 2, 3},          // 8 sets x 2 ways
        {4096, 1, 3},          // direct mapped
        {32 * 1024, 8, 3},     // Table 4 L1D
        {8 << 20, 16, 27},     // Table 4 L3
        {64 * 16, 16, 1},      // one fully associative set
    };
    for (const CacheConfig &cfg : configs) {
        Cache c("c", cfg);
        RefCache ref(cfg);
        const uint64_t lines = cfg.size_bytes / 64;
        Rng rng(cfg.size_bytes ^ cfg.assoc);
        for (int i = 0; i < 60000; ++i) {
            if (i == 40000) {
                c.reset();
                ref.reset();
            }
            // Twice the cache's lines, so sets both hit and thrash.
            const uint64_t pa = 4096 + rng.below(2 * lines) * 64 +
                                rng.below(64);
            const uint64_t op = rng.below(10);
            if (op < 6) {
                ASSERT_EQ(c.access(pa, op < 2), ref.access(pa, op < 2))
                    << "assoc " << cfg.assoc << " op " << i;
            } else if (op < 8) {
                ASSERT_EQ(c.flushLine(pa), ref.flushLine(pa))
                    << "assoc " << cfg.assoc << " op " << i;
            } else {
                ASSERT_EQ(c.contains(pa), ref.contains(pa))
                    << "assoc " << cfg.assoc << " op " << i;
            }
        }
        EXPECT_EQ(c.hits(), ref.hits_);
        EXPECT_EQ(c.misses(), ref.misses_);
        EXPECT_EQ(c.writebacks(), ref.writebacks_);
        EXPECT_GT(c.writebacks(), 0u);
    }
}

TEST(LookupReference, HierarchyMatchesReferenceAtOneAndEightCores)
{
    for (uint32_t cores : {1u, 8u}) {
        MachineConfig cfg;
        cfg.cores = cores;
        CacheHierarchy h(cfg);
        RefHierarchy ref(cfg);
        // Page frames spread past the L3, as the page table hands out.
        Stream s(cores, 3000, 1 << 16);
        for (int i = 0; i < 200000; ++i) {
            const uint64_t pa = s.next() & ((1ull << 32) - 1);
            const uint32_t core =
                static_cast<uint32_t>(s.rng().below(cores));
            if (s.rng().below(8) == 0) {
                h.flushLine(pa);
                ref.flushLine(pa);
                continue;
            }
            const bool is_write = s.rng().below(3) == 0;
            const auto got = h.accessClassified(core, pa, is_write);
            const auto want = ref.access(core, pa, is_write);
            ASSERT_EQ(got.latency, want.latency)
                << "cores " << cores << " op " << i;
            ASSERT_EQ(got.level, want.level)
                << "cores " << cores << " op " << i;
        }
        for (uint32_t c = 0; c < cores; ++c) {
            EXPECT_EQ(h.l1(c).hits(), ref.l1s_[c].hits_);
            EXPECT_EQ(h.l1(c).misses(), ref.l1s_[c].misses_);
            EXPECT_EQ(h.l1(c).writebacks(), ref.l1s_[c].writebacks_);
            EXPECT_EQ(h.l2(c).hits(), ref.l2s_[c].hits_);
            EXPECT_EQ(h.l2(c).misses(), ref.l2s_[c].misses_);
            EXPECT_EQ(h.l2(c).writebacks(), ref.l2s_[c].writebacks_);
        }
        EXPECT_EQ(h.l3().hits(), ref.l3_.hits_);
        EXPECT_EQ(h.l3().misses(), ref.l3_.misses_);
        EXPECT_EQ(h.l3().writebacks(), ref.l3_.writebacks_);
        EXPECT_EQ(h.memAccesses(), ref.memAccesses_);
        EXPECT_GT(h.memAccesses(), 0u);
        EXPECT_GT(h.l1(0).writebacks(), 0u);
    }
}

} // namespace
} // namespace sim
} // namespace poat
