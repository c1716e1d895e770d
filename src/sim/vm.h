/**
 * @file
 * Virtual memory: demand-paged page table and the D-TLB.
 *
 * The paper relies on the conventional VA->PA machinery underneath both
 * translation designs: the Pipelined POLB emits virtual addresses that
 * go through the TLB like any load, and the Parallel POLB's miss path
 * performs a page-table walk after the POT walk. Frames are assigned on
 * first touch, sequentially, so physical addresses are dense and
 * deterministic for a given access order.
 */
#ifndef POAT_SIM_VM_H
#define POAT_SIM_VM_H

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/logging.h"
#include "pmem/addrspace.h"

namespace poat {
namespace sim {

/** Demand-paged page table: vpn -> pfn, filling frames on first use. */
class PageTable
{
  public:
    /** Physical frame of @p vaddr's page, allocating on first touch. */
    uint64_t
    translate(uint64_t vaddr)
    {
        const uint64_t vpn = vaddr / kPageSize;
        // Consecutive accesses often stay on one page; a mapping never
        // changes once made, so the memo is always current.
        if (vpn != lastVpn_) {
            auto [it, inserted] = map_.try_emplace(vpn, nextFrame_);
            if (inserted)
                ++nextFrame_;
            lastVpn_ = vpn;
            lastPfn_ = it->second;
        }
        return lastPfn_ * kPageSize + vaddr % kPageSize;
    }

    /** Frame number of @p vaddr's page (allocating on first touch). */
    uint64_t
    frameOf(uint64_t vaddr)
    {
        return translate(vaddr) / kPageSize;
    }

    size_t mappedPages() const { return map_.size(); }

  private:
    std::unordered_map<uint64_t, uint64_t> map_;
    uint64_t nextFrame_ = 1; // frame 0 unused so paddr 0 never appears
    uint64_t lastVpn_ = ~0ull; // no vpn: vaddr / kPageSize < 2^52
    uint64_t lastPfn_ = 0;
};

/**
 * Fully associative, true-LRU data TLB.
 *
 * A hit is found in O(1): the most recently used slot is checked
 * first, then an open-addressing index from VPN to slot. The index
 * holds exactly the resident VPNs, so it answers "resident?" as the
 * scan over every slot did. A miss still scans the slots' ages for
 * the true-LRU victim.
 */
class Tlb
{
  public:
    explicit Tlb(uint32_t entries)
        : vpn_(entries), lru_(entries),
          index_(indexSize(entries), kEmpty),
          mask_(static_cast<uint32_t>(index_.size()) - 1)
    {
        POAT_ASSERT(entries != 0, "TLB needs at least one entry");
    }

    /**
     * Look up @p vaddr's page, installing it on miss.
     * @return true on hit.
     */
    bool
    access(uint64_t vaddr)
    {
        const uint64_t vpn = vaddr / kPageSize;
        ++tick_;
        uint32_t slot = mru_;
        if (slot >= used_ || vpn_[slot] != vpn)
            slot = find(vpn);
        if (slot != kEmpty) {
            lru_[slot] = tick_;
            mru_ = slot;
            ++hits_;
            return true;
        }
        ++misses_;
        if (used_ < vpn_.size()) {
            slot = used_++;
        } else {
            slot = 0;
            for (uint32_t s = 1; s < used_; ++s) {
                if (lru_[s] < lru_[slot])
                    slot = s;
            }
            unindex(vpn_[slot]);
        }
        vpn_[slot] = vpn;
        lru_[slot] = tick_;
        index(slot);
        mru_ = slot;
        return false;
    }

    void
    reset()
    {
        std::fill(index_.begin(), index_.end(), kEmpty);
        used_ = 0;
        mru_ = 0;
        tick_ = 0;
    }

    uint64_t hits() const { return hits_; }
    uint64_t misses() const { return misses_; }

    double
    missRate() const
    {
        const uint64_t n = hits_ + misses_;
        return n ? static_cast<double>(misses_) / n : 0.0;
    }

  private:
    static constexpr uint32_t kEmpty = ~0u;

    /** Index buckets: a power of two at least 4x the entries. */
    static size_t
    indexSize(uint32_t entries)
    {
        size_t n = 8;
        while (n < 4ull * entries)
            n *= 2;
        return n;
    }

    uint32_t
    home(uint64_t vpn) const
    {
        return static_cast<uint32_t>((vpn * 0x9e3779b97f4a7c15ull) >> 32) &
               mask_;
    }

    /** Slot holding @p vpn, or kEmpty. */
    uint32_t
    find(uint64_t vpn) const
    {
        for (uint32_t i = home(vpn);; i = (i + 1) & mask_) {
            const uint32_t slot = index_[i];
            if (slot == kEmpty || vpn_[slot] == vpn)
                return slot;
        }
    }

    void
    index(uint32_t slot)
    {
        uint32_t i = home(vpn_[slot]);
        while (index_[i] != kEmpty)
            i = (i + 1) & mask_;
        index_[i] = slot;
    }

    /** Drop resident @p vpn from the index (linear-probe deletion). */
    void
    unindex(uint64_t vpn)
    {
        uint32_t hole = home(vpn);
        while (vpn_[index_[hole]] != vpn)
            hole = (hole + 1) & mask_;
        // Shift later members of the probe run back over the hole, so
        // find() never stops early at it.
        for (uint32_t i = (hole + 1) & mask_; index_[i] != kEmpty;
             i = (i + 1) & mask_) {
            const uint32_t h = home(vpn_[index_[i]]);
            // Movable iff its home is not cyclically within (hole, i].
            if (((i - h) & mask_) >= ((i - hole) & mask_)) {
                index_[hole] = index_[i];
                hole = i;
            }
        }
        index_[hole] = kEmpty;
    }

    std::vector<uint64_t> vpn_;    ///< slot -> resident vpn
    std::vector<uint64_t> lru_;    ///< slot -> tick of last use
    std::vector<uint32_t> index_;  ///< vpn-hashed buckets -> slot
    uint32_t mask_;
    uint32_t used_ = 0; ///< slots [0, used_) are resident
    uint32_t mru_ = 0;  ///< slot of the last hit or fill
    uint64_t tick_ = 0;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
};

} // namespace sim
} // namespace poat

#endif // POAT_SIM_VM_H
