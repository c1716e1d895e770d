/**
 * @file
 * Persistent pool: storage, on-media layout, and the NVM durability model.
 *
 * A pool is the file-like unit of persistence (paper section 2.1.1). Its
 * on-media layout is self-describing so a pool can be reopened (or
 * recovered after a crash) from its durable image alone:
 *
 *   [ PoolHeader | heap (allocator blocks) ... | undo-log region ]
 *
 * Durability model. The pool keeps two images: `data` (what the program
 * reads/writes — memory + caches) and `durable` (what is actually on
 * NVM). Stores touch only `data` and mark 64-byte lines dirty; CLWB plus
 * a fence makes lines durable. A simulated crash discards `data` in
 * favor of `durable`. Because a real cache may write back a dirty line
 * at any moment, tests can also force random early evictions; correct
 * failure-safe code (the undo log) must tolerate both extremes, which is
 * exactly what the recovery property tests check.
 *
 * Cost model. The volatile bookkeeping tracks only what was touched: a
 * flag per 4 KB page that was ever written (in either image) and a
 * state byte per 64-byte line. A crash copies back only the written
 * pages, and the allocator's free-extent sweep skips unwritten ones,
 * so a crash trial costs the bytes it wrote, not the pool size. A
 * snapshot of a crashed pool, which lets several trials recover from
 * one crash, holds those pages only.
 */
#ifndef POAT_PMEM_POOL_H
#define POAT_PMEM_POOL_H

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "pmem/addrspace.h"
#include "pmem/checksum.h"
#include "pmem/oid.h"

namespace poat {

/**
 * On-media header at offset 0 of every pool, crc32c-sealed and
 * replicated: a second copy lives at kMirrorOff (a different 64-byte
 * line inside the reserved header region), so a media fault in either
 * copy repairs from the other. Every header update writes and persists
 * both copies, primary first; on conflict between two *valid* copies
 * the primary wins (it is the commit point of a header update).
 */
struct PoolHeader
{
    static constexpr uint64_t kMagic = 0x504f41545f504f4cull; // "POAT_POL"
    static constexpr uint32_t kVersion = 2; ///< v2: crc + mirror
    /** Offset of the mirror copy (line 2 of the reserved header). */
    static constexpr uint32_t kMirrorOff = 128;

    uint64_t magic;
    uint32_t version;
    uint32_t pool_id;   ///< system-wide id; informational on media
    uint64_t pool_size; ///< total bytes including header and log
    uint32_t root_off;  ///< offset of root object payload; 0 = unset
    uint32_t root_size;
    uint32_t heap_off;  ///< first allocator block
    uint32_t heap_size;
    uint32_t log_off;   ///< undo-log region
    uint32_t log_size;
    uint32_t crc;       ///< crc32c over all preceding fields

    /**
     * Undo-log slot count, self-checked: the low half carries the
     * count, the high half its complement (encodeLogSlots). 0 — the
     * value every pool written before multi-slot logs existed carries —
     * decodes as one slot, so old images open unchanged. The field
     * sits after `crc` deliberately: it is outside the sealed region
     * (its complement is its own integrity check), so single-slot
     * pools stay byte- and checksum-identical to pre-slot ones.
     */
    uint32_t pad;

    /** Largest supported undo-log slot count (one per worker thread). */
    static constexpr uint32_t kMaxLogSlots = 256;

    /** Encode @p slots for `pad`; 1 slot encodes as legacy 0. */
    static constexpr uint32_t
    encodeLogSlots(uint32_t slots)
    {
        return slots <= 1 ? 0u
                          : (slots | ((slots ^ 0xffffu) << 16));
    }

    /**
     * Decode `pad` into a slot count. Anything that fails the
     * complement self-check or the range [1, kMaxLogSlots] reads as
     * one slot — the legacy layout — never as garbage geometry.
     */
    static constexpr uint32_t
    decodeLogSlots(uint32_t pad_value)
    {
        const uint32_t lo = pad_value & 0xffffu;
        const uint32_t hi = pad_value >> 16;
        if (pad_value == 0 || (lo ^ 0xffffu) != hi || lo < 2 ||
            lo > kMaxLogSlots) {
            return 1;
        }
        return lo;
    }

    /** CRC over every field before `crc`. */
    uint32_t
    computeCrc() const
    {
        return crc32c(this, offsetof(PoolHeader, crc));
    }
    bool crcValid() const { return crc == computeCrc(); }
    void seal() { crc = computeCrc(); }
    /** Full validity: sealed, magic, and sized for @p image_size. */
    bool
    valid(uint64_t image_size) const
    {
        return crcValid() && magic == kMagic && pool_size == image_size;
    }
};

static_assert(sizeof(PoolHeader) == 56);
static_assert(PoolHeader::kMirrorOff >= kLineSize &&
              PoolHeader::kMirrorOff % kLineSize == 0);

/** How CLWB interacts with the durable image (see file comment). */
enum class DurabilityPolicy : uint8_t
{
    Eager,  ///< CLWB writes the line back immediately (fence is ordering)
    Strict, ///< lines become durable only when a fence retires the CLWB
};

/** Why a dirty line is crossing into the durable image. */
enum class WriteBackCause : uint8_t
{
    Clwb,  ///< CLWB under the Eager policy
    Fence, ///< a fence retiring a staged CLWB (Strict policy)
    Evict, ///< simulated cache pressure (evictRandomLines)
};

/**
 * Allocator of pool images and of Pool's per-page and per-line
 * bookkeeping. Storage comes from calloc, so it is zero from the
 * start, and value-construction (what `PoolImage(n)` does to each
 * byte) is a no-op: a fresh image costs no write of its own. Whether
 * calloc itself writes depends on where glibc serves the block from.
 * The first large block of a size comes from fresh mmap'd pages that
 * stay unbacked until something stores to them. But glibc raises its
 * mmap threshold to the size of each mmap'd block it frees (up to
 * 32 MB), so after the first free, later images of that size (1 MB
 * and 29 MB alike) come from the brk heap, where calloc memsets
 * recycled memory. "Demand-zero" therefore holds only for the first
 * image of a size; the others are zeroed at calloc's memset speed.
 *
 * The no-op construct is only sound on memory calloc just returned.
 * Growing a vector inside its capacity (resize after a shrink) would
 * "construct" the new tail over stale bytes, so a PoolImage must never
 * be resized after construction; copy, move and assignment are fine.
 */
template <typename T>
struct ZeroedAllocator
{
    using value_type = T;

    ZeroedAllocator() = default;
    template <typename U>
    ZeroedAllocator(const ZeroedAllocator<U> &) noexcept
    {
    }

    T *
    allocate(size_t n)
    {
        void *p = std::calloc(n, sizeof(T));
        if (p == nullptr)
            throw std::bad_alloc();
        return static_cast<T *>(p);
    }
    void deallocate(T *p, size_t) noexcept { std::free(p); }

    /** Value-construct: calloc already zeroed the storage. */
    template <typename U>
    void
    construct(U *) noexcept
    {
    }

    friend bool
    operator==(const ZeroedAllocator &, const ZeroedAllocator &)
    {
        return true;
    }
};

/**
 * A pool image: the working or durable bytes of a pool, a closed
 * pool's "disk" copy, or an exported file. One type everywhere, so an
 * image is moved between owners, never converted. Never resize one
 * after construction (see ZeroedAllocator).
 */
using PoolImage = std::vector<uint8_t, ZeroedAllocator<uint8_t>>;

class Pool;

/**
 * The durable bytes of a crashed pool's written pages (Pool::snapshot),
 * enough for Pool::restore to put the pool back in that crashed state.
 * Never-written pages are zero in both images and are not stored.
 */
struct PoolSnapshot
{
    /** How many of the pool's flagged pages, in flag order, it holds. */
    size_t pages = 0;
    /** kPageSize bytes per page (a short last page leaves a gap). */
    std::vector<uint8_t> bytes;
};

/**
 * Fault-injection hook on the durability path.
 *
 * Every 64-byte line write-back into the durable image — the only way
 * data ever becomes persistent — first consults the installed hook.
 * Returning true lets the write-back happen; returning false suppresses
 * the durable copy while all volatile bookkeeping (dirty/staged lines)
 * proceeds unchanged, so the program's execution after a suppressed
 * write-back is bit-identical to an uninjected run. A crash-point
 * explorer uses this to freeze the durable image after the first k
 * events and then simulate power failure (see src/fault/).
 *
 * The word-granular entry point onWriteBackWords() refines the veto to
 * a bitmask over the line's eight 8-byte words, modeling a write-back
 * torn by the power failure itself: the masked-in words reach media,
 * the rest keep their old durable contents. The default implementation
 * delegates to onWriteBack(), so boolean hooks keep their exact
 * semantics (all words or none).
 */
class DurabilityHook
{
  public:
    /** All eight 8-byte words of a 64-byte line (an untorn write-back). */
    static constexpr uint8_t kFullLineMask = 0xff;

    virtual ~DurabilityHook() = default;

    /** Called before line @p line of @p pool is made durable. */
    virtual bool onWriteBack(Pool &pool, uint32_t line,
                             WriteBackCause cause) = 0;

    /**
     * Word-granular veto: bit w of the returned mask persists bytes
     * [8w, 8w+8) of the line. kFullLineMask is an ordinary write-back,
     * 0 a full suppression, anything else a torn line. Pool calls only
     * this entry point; the default routes to onWriteBack().
     */
    virtual uint8_t
    onWriteBackWords(Pool &pool, uint32_t line, WriteBackCause cause)
    {
        return onWriteBack(pool, line, cause) ? kFullLineMask : 0;
    }

    /**
     * Called by Pool::fence() under the Strict policy, before the first
     * write-back of a drain, with the full staged-line set about to be
     * retired (sorted ascending). The onWriteBackWords() calls that
     * follow — one per listed line, in the listed order, all with cause
     * Fence — are a single drain batch: hardware gives them no ordering
     * until the fence retires, so a real power failure mid-drain
     * persists an arbitrary subset. Not called for an empty staged set.
     */
    virtual void onFenceDrainBegin(Pool &pool,
                                   const std::vector<uint32_t> &pending)
    {
        (void)pool;
        (void)pending;
    }
};

/**
 * A persistent memory pool.
 *
 * Pool does storage and durability only; it emits no trace events and
 * applies no policy. Allocation lives in PoolAllocator, transactions in
 * UndoLog, and instruction accounting in PmemRuntime.
 */
class Pool
{
  public:
    /** Fraction of a fresh pool reserved for the undo log. */
    static constexpr uint32_t kDefaultLogSize = 64 * 1024;
    static constexpr uint32_t kHeaderSize = 256;
    /** Minimum total size that leaves room for header, heap, and log. */
    static constexpr uint64_t kMinSize = kHeaderSize + 4096 + kDefaultLogSize;

    /**
     * Create a fresh pool image.
     *
     * @param name User-visible pool name (like a file name).
     * @param pool_id System-wide id assigned by the registry; nonzero.
     * @param size Total pool bytes; clamped to [kMinSize, 4 GB].
     * @param log_size Bytes reserved for the undo-log region.
     * @param log_slots Undo-log slots the region is carved into (one
     *        per concurrent worker thread); 1 = the classic layout,
     *        byte-identical to pools created before slots existed.
     */
    Pool(std::string name, uint32_t pool_id, uint64_t size,
         uint32_t log_size = kDefaultLogSize, uint32_t log_slots = 1);

    /**
     * Reopen a pool from a durable image (recovery path). The image
     * becomes both the durable and the working copy. The superblock is
     * checksum-verified: a corrupt primary repairs from the mirror
     * (and vice versa, during the scrub pass that follows).
     * @throws MediaError if both superblock copies are corrupt.
     */
    Pool(std::string name, uint32_t pool_id, PoolImage durable_image);

    const std::string &name() const { return name_; }
    uint32_t id() const { return id_; }
    uint64_t size() const { return data_.size(); }
    const PoolHeader &header() const { return cachedHeader_; }

    /** Undo-log slots this pool's log region is carved into (>= 1). */
    uint32_t logSlots() const
    {
        return PoolHeader::decodeLogSlots(cachedHeader_.pad);
    }

    /** Virtual base address where this pool is currently mapped. */
    uint64_t vbase() const { return vbase_; }
    void setVbase(uint64_t vbase) { vbase_ = vbase; }

    /** Simulated virtual address of byte @p off within the pool. */
    uint64_t vaddrOf(uint32_t off) const { return vbase_ + off; }

    /** ObjectID of byte @p off within the pool. */
    ObjectID oidOf(uint32_t off) const { return ObjectID(id_, off); }

    /// @name Raw access (volatile image; marks dirty lines)
    /// @{
    void writeRaw(uint32_t off, const void *src, size_t n);
    void readRaw(uint32_t off, void *dst, size_t n) const;

    template <typename T>
    T
    readAs(uint32_t off) const
    {
        T v;
        readRaw(off, &v, sizeof(T));
        return v;
    }

    template <typename T>
    void
    writeAs(uint32_t off, const T &v)
    {
        writeRaw(off, &v, sizeof(T));
    }
    /// @}

    /// @name Durability (CLWB / SFENCE semantics)
    /// @{
    /** CLWB the line containing @p off. */
    void clwb(uint32_t off);

    /** SFENCE: all CLWB'd lines are durable after this returns. */
    void fence();

    /** Convenience: CLWB every line in [off, off+n) then fence. */
    void persist(uint32_t off, size_t n);

    /** Number of lines spanned by [off, off+n): the CLWB count. */
    static uint32_t lineSpan(uint32_t off, size_t n);

    /**
     * Simulate cache pressure: each currently dirty, un-flushed line is
     * independently written back with probability @p num/@p den.
     * Failure-safe code must remain correct under any such schedule.
     */
    void evictRandomLines(Rng &rng, uint64_t num, uint64_t den);

    /**
     * Simulate power failure: the working image reverts to durable.
     * Copies only the written pages (see anyPageWritten); every other
     * page is zero in both images already.
     */
    void crash();

    /**
     * Save the crashed state, right after crash(): the durable bytes of
     * every written page. Requires no dirty or staged line, so the
     * working image equals the durable one.
     */
    PoolSnapshot snapshot() const;

    /**
     * Put the pool back in the state @p snap saved: both images of a
     * page it holds get its bytes, pages written since then become zero
     * again, and no line is dirty or staged. Costs the bytes written,
     * not the pool size.
     */
    void restore(const PoolSnapshot &snap);

    /** Copy of the durable image (for offline recovery testing). */
    PoolImage durableImage() const { return durable_; }

    /**
     * Move the durable image out (pool close). The pool is left
     * without an image and must be destroyed next.
     */
    PoolImage takeDurableImage() { return std::move(durable_); }

    /**
     * Zero-copy view of the durable image. Valid until the next
     * durability-affecting call on this pool (write-back, crash,
     * destruction); callers that need the bytes to outlive the pool
     * must use durableImage().
     */
    const PoolImage &durableView() const { return durable_; }

    /**
     * Install (or with nullptr, remove) the fault-injection hook on
     * this pool's durability path. Not owned; must outlive the pool or
     * be removed first.
     */
    void setDurabilityHook(DurabilityHook *hook) { hook_ = hook; }
    DurabilityHook *durabilityHook() const { return hook_; }

    void setDurabilityPolicy(DurabilityPolicy p) { policy_ = p; }
    DurabilityPolicy durabilityPolicy() const { return policy_; }

    /** Count of lines dirty in cache and not yet written back. */
    size_t dirtyLineCount() const { return dirtyCount_; }

    /** Lines dirty in cache and not yet written back, ascending. */
    std::vector<uint32_t> dirtyLines() const;

    /**
     * Lines CLWB'd but not yet retired by a fence (Strict policy),
     * sorted ascending — the set a fence would drain right now. Always
     * empty under the Eager policy.
     */
    std::vector<uint32_t> stagedLines() const;
    /// @}

    /** Re-read the cached header copy from the working image. */
    void refreshHeader();

    /**
     * Seal @p h and write both superblock copies (primary then mirror)
     * into the working image; the caller persists them. Also updates
     * the cached header.
     */
    void storeHeader(PoolHeader h);

    /** Persist both superblock copies (after storeHeader). */
    void persistHeader();

    /**
     * Media-fault injection: overwrite @p n bytes at @p off of the
     * DURABLE image directly, bypassing the store/CLWB path — the model
     * of NVM losing or corrupting bits at rest. Call crash() afterwards
     * to expose the corruption to the working image, as a reboot would.
     */
    void corruptDurable(uint32_t off, const void *src, size_t n);

    /**
     * Whether any kPageSize page overlapping [off, off+n), n > 0, was
     * written: stores, media faults and reopening from an image flag
     * the pages they touch, and nothing clears a flag. Durable bytes
     * change only by writing back a stored line, by corruptDurable,
     * and by the create-time superblock copy, so an unflagged page is
     * zero in both the working and the durable image.
     */
    bool anyPageWritten(uint64_t off, uint64_t n) const;

    /**
     * Host-side checksum work accounting. Each pool defaults to a
     * private counter block; the registry points all of its pools at
     * one shared block so `pmem.checksum.*` aggregates per process.
     */
    ChecksumCounters &checksumCounters()
    {
        return counters_ ? *counters_ : ownCounters_;
    }

    /**
     * Point this pool at a shared counter block (nullptr reverts to the
     * private one). Work already counted privately — e.g. header seals
     * during construction, before the registry wires the shared block —
     * is folded into @p c so nothing is lost.
     */
    void
    setChecksumCounters(ChecksumCounters *c)
    {
        if (c && counters_ != c) {
            c->merge(ownCounters_);
            ownCounters_ = ChecksumCounters{};
        }
        counters_ = c;
    }

  private:
    /// @name lineState_ bits
    /// @{
    static constexpr uint8_t kDirty = 1;  ///< modified, not written back
    static constexpr uint8_t kStaged = 2; ///< CLWB'd, fence pending
    /// @}

    void writeBackLine(uint32_t line, WriteBackCause cause);
    void markWritten(uint64_t off, uint64_t n);
    /** Bytes of page @p page inside the pool (short for a last page). */
    uint64_t pageBytes(uint32_t page) const;
    /** Clear the dirty and staged state of every line of @p page. */
    void clearPageLines(uint32_t page);
    /** Size the page and line bookkeeping for data_ (all clear). */
    void initBookkeeping();

    std::string name_;
    uint32_t id_;
    uint64_t vbase_ = 0;
    PoolImage data_;    ///< working image (memory + caches)
    PoolImage durable_; ///< NVM image
    /** One flag per page: may be nonzero in either image. */
    std::vector<uint8_t, ZeroedAllocator<uint8_t>> pageWritten_;
    std::vector<uint32_t> writtenPages_; ///< the flagged pages, unsorted
    /** One kDirty | kStaged byte per line; set only on written pages. */
    std::vector<uint8_t, ZeroedAllocator<uint8_t>> lineState_;
    size_t dirtyCount_ = 0; ///< lines with kDirty set
    /**
     * Lines CLWB'd since the last fence, in CLWB order. A store that
     * re-dirties a staged line clears its kStaged bit but leaves the
     * entry, so readers filter on kStaged and drop duplicates.
     */
    std::vector<uint32_t> staged_;
    DurabilityPolicy policy_ = DurabilityPolicy::Eager;
    DurabilityHook *hook_ = nullptr; ///< not owned; may be null
    PoolHeader cachedHeader_{};
    ChecksumCounters ownCounters_{};
    ChecksumCounters *counters_ = nullptr; ///< shared block, if any
};

} // namespace poat

#endif // POAT_PMEM_POOL_H
