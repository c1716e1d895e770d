#include "sim/cache.h"

#include <algorithm>

#include "common/bits.h"

namespace poat {
namespace sim {

Cache::Cache(std::string name, const CacheConfig &cfg)
    : name_(std::move(name)), assoc_(cfg.assoc), latency_(cfg.latency)
{
    const uint32_t lines = cfg.size_bytes / kLineBytes;
    POAT_ASSERT(lines % cfg.assoc == 0, "cache geometry mismatch");
    sets_ = lines / cfg.assoc;
    POAT_ASSERT(isPow2(sets_), "cache set count must be a power of two");
    tagShift_ = floorLog2(kLineBytes) + floorLog2(sets_);
    keys_.assign(lines, kInvalid);
    lru_.assign(lines, 0);
    dirty_.assign(lines, 0);
}

uint32_t
Cache::setOf(uint64_t paddr) const
{
    static_assert(isPow2(kLineBytes));
    return static_cast<uint32_t>((paddr >> floorLog2(kLineBytes)) &
                                 (sets_ - 1));
}

uint64_t
Cache::tagOf(uint64_t paddr) const
{
    return paddr >> tagShift_;
}

bool
Cache::access(uint64_t paddr, bool is_write)
{
    const size_t base = static_cast<size_t>(setOf(paddr)) * assoc_;
    const uint64_t tag = tagOf(paddr);
    uint64_t *keys = &keys_[base];
    uint64_t *lru = &lru_[base];
    uint8_t *dirty = &dirty_[base];
    ++tick_;

    for (uint32_t w = 0; w < assoc_; ++w) {
        if (keys[w] == tag) {
            lru[w] = tick_;
            dirty[w] |= is_write;
            ++hits_;
            return true;
        }
    }

    // Victim: an invalid way (age 0) if any, else the true-LRU way.
    // Ages of valid ways are distinct ticks >= 1, so which invalid way
    // fills is the only freedom, and no hit, miss or writeback depends
    // on a line's way.
    uint32_t victim = 0;
    for (uint32_t w = 1; w < assoc_; ++w) {
        if (lru[w] < lru[victim])
            victim = w;
    }
    ++misses_;
    if (dirty[victim])
        ++writebacks_;
    keys[victim] = tag;
    lru[victim] = tick_;
    dirty[victim] = is_write;
    return false;
}

bool
Cache::contains(uint64_t paddr) const
{
    const uint64_t *keys = &keys_[static_cast<size_t>(setOf(paddr)) * assoc_];
    const uint64_t tag = tagOf(paddr);
    for (uint32_t w = 0; w < assoc_; ++w) {
        if (keys[w] == tag)
            return true;
    }
    return false;
}

bool
Cache::flushLine(uint64_t paddr)
{
    const size_t base = static_cast<size_t>(setOf(paddr)) * assoc_;
    const uint64_t tag = tagOf(paddr);
    for (uint32_t w = 0; w < assoc_; ++w) {
        if (keys_[base + w] == tag) {
            if (!dirty_[base + w])
                return false;
            dirty_[base + w] = 0;
            ++writebacks_;
            return true;
        }
    }
    return false;
}

void
Cache::reset()
{
    std::fill(keys_.begin(), keys_.end(), kInvalid);
    std::fill(lru_.begin(), lru_.end(), 0);
    std::fill(dirty_.begin(), dirty_.end(), 0);
    tick_ = 0;
}

CacheHierarchy::CacheHierarchy(const MachineConfig &cfg)
    : l3_("L3", cfg.l3), memLatency_(cfg.mem_latency)
{
    const uint32_t n = cfg.cores ? cfg.cores : 1;
    l1s_.reserve(n);
    l2s_.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
        l1s_.emplace_back("L1D", cfg.l1d);
        l2s_.emplace_back("L2", cfg.l2);
    }
}

CacheHierarchy::AccessResult
CacheHierarchy::accessClassified(uint32_t core, uint64_t paddr,
                                 bool is_write)
{
    // Lower levels are filled (and LRU-touched) only when the upper
    // level misses, mimicking a mostly-inclusive hierarchy.
    if (l1s_[core].access(paddr, is_write))
        return {l1s_[core].latency(), Level::L1};
    if (l2s_[core].access(paddr, false))
        return {l2s_[core].latency(), Level::L2};
    if (l3_.access(paddr, false))
        return {l3_.latency(), Level::L3};
    ++memAccesses_;
    return {memLatency_, Level::Memory};
}

void
CacheHierarchy::flushLine(uint64_t paddr)
{
    for (Cache &c : l1s_)
        c.flushLine(paddr);
    for (Cache &c : l2s_)
        c.flushLine(paddr);
    l3_.flushLine(paddr);
}

void
CacheHierarchy::reset()
{
    for (Cache &c : l1s_)
        c.reset();
    for (Cache &c : l2s_)
        c.reset();
    l3_.reset();
}

} // namespace sim
} // namespace poat
