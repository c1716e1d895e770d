#include "pmem/pool.h"

#include <algorithm>

namespace poat {

Pool::Pool(std::string name, uint32_t pool_id, uint64_t size,
           uint32_t log_size, uint32_t log_slots)
    : name_(std::move(name)), id_(pool_id)
{
    POAT_ASSERT(pool_id != 0, "pool id 0 is reserved for OID_NULL");
    POAT_ASSERT(log_slots >= 1 && log_slots <= PoolHeader::kMaxLogSlots,
                "log slot count out of range");
    // Leave room for the header, at least a page of heap, and the log.
    size = std::max<uint64_t>(size, kHeaderSize + 4096 + log_size);
    size = std::min<uint64_t>(size, 1ull << 32);
    size = alignUp(size, kLineSize);
    POAT_ASSERT(log_size + kHeaderSize + kLineSize <= size,
                "log region does not fit in pool");

    data_ = PoolImage(size);
    initBookkeeping();

    PoolHeader h{};
    h.magic = PoolHeader::kMagic;
    h.version = PoolHeader::kVersion;
    h.pool_id = pool_id;
    h.pool_size = size;
    h.root_off = 0;
    h.root_size = 0;
    h.heap_off = kHeaderSize;
    h.log_size = log_size;
    h.log_off = static_cast<uint32_t>(size - log_size);
    h.heap_size = h.log_off - h.heap_off;
    h.pad = PoolHeader::encodeLogSlots(log_slots);
    storeHeader(h);

    // A fresh pool is fully durable from the start, like a newly created
    // and synced file. Only the superblock region was written, so the
    // durable image is zeros plus a copy of it (page 0, which the
    // superblock stores flagged).
    std::fill_n(lineState_.begin(), kHeaderSize / kLineSize, uint8_t{0});
    dirtyCount_ = 0;
    durable_ = PoolImage(size);
    std::memcpy(durable_.data(), data_.data(), kHeaderSize);
}

Pool::Pool(std::string name, uint32_t pool_id, PoolImage durable_image)
    : name_(std::move(name)), id_(pool_id), data_(std::move(durable_image))
{
    POAT_ASSERT(data_.size() >= kHeaderSize, "pool image too small");
    initBookkeeping();
    // Any page of an image may hold data.
    markWritten(0, data_.size());
    PoolHeader primary{};
    std::memcpy(&primary, data_.data(), sizeof(primary));
    if (primary.valid(data_.size())) {
        cachedHeader_ = primary;
    } else {
        // Corrupt primary superblock: repair from the mirror, or fail
        // with a precise diagnostic if both copies are gone. The scrub
        // pass re-checks (and re-syncs) both copies on recovery.
        PoolHeader mirror{};
        std::memcpy(&mirror, data_.data() + PoolHeader::kMirrorOff,
                    sizeof(mirror));
        checksumCounters().verifies += 2;
        if (!mirror.valid(data_.size())) {
            throw MediaError(name_, 0, MediaStructure::Superblock,
                             "both superblock copies are corrupt");
        }
        std::memcpy(data_.data(), &mirror, sizeof(mirror));
        cachedHeader_ = mirror;
    }
    durable_ = data_;
}

void
Pool::initBookkeeping()
{
    const uint64_t pages = (data_.size() + kPageSize - 1) / kPageSize;
    pageWritten_ = decltype(pageWritten_)(pages);
    lineState_ =
        decltype(lineState_)((data_.size() + kLineSize - 1) / kLineSize);
}

void
Pool::markWritten(uint64_t off, uint64_t n)
{
    for (uint64_t page = off / kPageSize; page <= (off + n - 1) / kPageSize;
         ++page) {
        if (pageWritten_[page] == 0) {
            pageWritten_[page] = 1;
            writtenPages_.push_back(static_cast<uint32_t>(page));
        }
    }
}

bool
Pool::anyPageWritten(uint64_t off, uint64_t n) const
{
    for (uint64_t page = off / kPageSize; page <= (off + n - 1) / kPageSize;
         ++page) {
        if (pageWritten_[page] != 0)
            return true;
    }
    return false;
}

void
Pool::storeHeader(PoolHeader h)
{
    h.seal();
    checksumCounters().superblock_updates += 1;
    checksumCounters().bytes_summed += offsetof(PoolHeader, crc);
    writeRaw(0, &h, sizeof(h));
    writeRaw(PoolHeader::kMirrorOff, &h, sizeof(h));
    cachedHeader_ = h;
}

void
Pool::persistHeader()
{
    persist(0, sizeof(PoolHeader));
    persist(PoolHeader::kMirrorOff, sizeof(PoolHeader));
}

void
Pool::corruptDurable(uint32_t off, const void *src, size_t n)
{
    POAT_ASSERT(static_cast<uint64_t>(off) + n <= durable_.size(),
                "media fault out of range");
    if (n == 0)
        return;
    std::memcpy(durable_.data() + off, src, n);
    markWritten(off, n);
}

void
Pool::writeRaw(uint32_t off, const void *src, size_t n)
{
    POAT_ASSERT(static_cast<uint64_t>(off) + n <= data_.size(),
                "pool write out of range");
    if (n == 0)
        return;
    std::memcpy(data_.data() + off, src, n);
    markWritten(off, n);
    const uint32_t first = off / kLineSize;
    const uint32_t last = (off + static_cast<uint32_t>(n) - 1) / kLineSize;
    for (uint32_t line = first; line <= last; ++line) {
        uint8_t &s = lineState_[line];
        dirtyCount_ += (s & kDirty) == 0;
        s = kDirty; // a new store re-dirties a staged line
    }
}

void
Pool::readRaw(uint32_t off, void *dst, size_t n) const
{
    POAT_ASSERT(static_cast<uint64_t>(off) + n <= data_.size(),
                "pool read out of range");
    std::memcpy(dst, data_.data() + off, n);
}

void
Pool::writeBackLine(uint32_t line, WriteBackCause cause)
{
    // The hook sees (and may veto or tear) every durable transition.
    // Volatile bookkeeping in the callers proceeds either way so that
    // execution after a suppressed write-back matches an uninjected run
    // exactly.
    uint8_t mask = DurabilityHook::kFullLineMask;
    if (hook_ != nullptr) {
        mask = hook_->onWriteBackWords(*this, line, cause);
        if (mask == 0)
            return;
    }
    const uint64_t base = static_cast<uint64_t>(line) * kLineSize;
    const uint64_t n = std::min<uint64_t>(kLineSize, data_.size() - base);
    if (mask == DurabilityHook::kFullLineMask) {
        std::memcpy(durable_.data() + base, data_.data() + base, n);
        return;
    }
    // Torn write-back: only the masked-in 8-byte words reach media; the
    // rest of the durable line keeps its pre-crash contents.
    static_assert(kLineSize == 8 * sizeof(uint64_t));
    for (uint32_t w = 0; w < 8; ++w) {
        if ((mask & (1u << w)) == 0)
            continue;
        const uint64_t off = base + w * sizeof(uint64_t);
        if (off >= base + n)
            break;
        const uint64_t wn = std::min<uint64_t>(sizeof(uint64_t),
                                               base + n - off);
        std::memcpy(durable_.data() + off, data_.data() + off, wn);
    }
}

void
Pool::clwb(uint32_t off)
{
    const uint32_t line = off / kLineSize;
    uint8_t &s = lineState_[line];
    if ((s & kDirty) == 0)
        return; // clean line: CLWB is a no-op
    if (policy_ == DurabilityPolicy::Eager) {
        writeBackLine(line, WriteBackCause::Clwb);
        s &= ~kDirty; // staged under Strict: the next fence still drains it
        --dirtyCount_;
    } else if ((s & kStaged) == 0) {
        s |= kStaged;
        staged_.push_back(line);
    }
}

void
Pool::fence()
{
    // Drain in ascending line order: the crash-point explorer indexes
    // drain events by position, so the order must be a deterministic
    // function of the staged set. The hook sees the whole batch before
    // the first write-back (a mid-drain power failure persists any
    // subset).
    const std::vector<uint32_t> lines = stagedLines();
    if (lines.empty()) {
        staged_.clear();
        return;
    }
    if (hook_ != nullptr)
        hook_->onFenceDrainBegin(*this, lines);
    for (uint32_t line : lines) {
        writeBackLine(line, WriteBackCause::Fence);
        dirtyCount_ -= (lineState_[line] & kDirty) != 0;
        lineState_[line] = 0;
    }
    staged_.clear();
}

std::vector<uint32_t>
Pool::stagedLines() const
{
    std::vector<uint32_t> lines;
    for (uint32_t line : staged_) {
        if (lineState_[line] & kStaged)
            lines.push_back(line);
    }
    std::sort(lines.begin(), lines.end());
    lines.erase(std::unique(lines.begin(), lines.end()), lines.end());
    return lines;
}

std::vector<uint32_t>
Pool::dirtyLines() const
{
    // Only a store dirties a line, and a store flags its page.
    std::vector<uint32_t> lines;
    lines.reserve(dirtyCount_);
    constexpr uint64_t kLinesPerPage = kPageSize / kLineSize;
    for (uint32_t page : writtenPages_) {
        if (lines.size() == dirtyCount_)
            break;
        const uint64_t first = page * kLinesPerPage;
        const uint64_t end =
            std::min<uint64_t>(first + kLinesPerPage, lineState_.size());
        for (uint64_t line = first; line < end; ++line) {
            if (lineState_[line] & kDirty)
                lines.push_back(static_cast<uint32_t>(line));
        }
    }
    std::sort(lines.begin(), lines.end());
    return lines;
}

void
Pool::persist(uint32_t off, size_t n)
{
    if (n == 0)
        return;
    const uint32_t first = off / kLineSize;
    const uint32_t last = (off + static_cast<uint32_t>(n) - 1) / kLineSize;
    for (uint32_t line = first; line <= last; ++line)
        clwb(line * kLineSize);
    fence();
}

uint32_t
Pool::lineSpan(uint32_t off, size_t n)
{
    if (n == 0)
        return 0;
    const uint32_t first = off / kLineSize;
    const uint32_t last = (off + static_cast<uint32_t>(n) - 1) / kLineSize;
    return last - first + 1;
}

void
Pool::evictRandomLines(Rng &rng, uint64_t num, uint64_t den)
{
    // Walk the dirty lines in ascending order, as fence() drains: each
    // line consumes one RNG draw, so the eviction schedule of an
    // ":eNUM/DEN" reproducer must be a function of the dirty set alone.
    std::vector<uint32_t> evicted;
    for (uint32_t line : dirtyLines()) {
        if (lineState_[line] & kStaged)
            continue;
        if (rng.chance(num, den)) {
            writeBackLine(line, WriteBackCause::Evict);
            evicted.push_back(line);
        }
    }
    for (uint32_t line : evicted)
        lineState_[line] = 0;
    dirtyCount_ -= evicted.size();
}

uint64_t
Pool::pageBytes(uint32_t page) const
{
    return std::min<uint64_t>(kPageSize, data_.size() - page * kPageSize);
}

void
Pool::clearPageLines(uint32_t page)
{
    constexpr uint64_t kLinesPerPage = kPageSize / kLineSize;
    const uint64_t line = page * kLinesPerPage;
    std::fill_n(lineState_.begin() + line,
                std::min(kLinesPerPage, lineState_.size() - line),
                uint8_t{0});
}

void
Pool::crash()
{
    // An unwritten page is zero in both images, so only written pages
    // can differ; only they can hold dirty or staged lines.
    for (uint32_t page : writtenPages_) {
        const uint64_t off = page * kPageSize;
        std::memcpy(data_.data() + off, durable_.data() + off,
                    pageBytes(page));
        clearPageLines(page);
    }
    dirtyCount_ = 0;
    staged_.clear();
    refreshHeader();
}

PoolSnapshot
Pool::snapshot() const
{
    POAT_ASSERT(dirtyCount_ == 0 && staged_.empty(),
                "snapshot of a pool with lines in flight");
    // Flags are never cleared and new ones are appended, so the pages
    // saved here stay the first `pages` entries of writtenPages_.
    PoolSnapshot snap;
    snap.pages = writtenPages_.size();
    snap.bytes.reserve(snap.pages * kPageSize);
    for (size_t i = 0; i < snap.pages; ++i) {
        const uint8_t *src = durable_.data() + writtenPages_[i] * kPageSize;
        snap.bytes.insert(snap.bytes.end(), src,
                          src + pageBytes(writtenPages_[i]));
        snap.bytes.resize((i + 1) * kPageSize);
    }
    return snap;
}

void
Pool::restore(const PoolSnapshot &snap)
{
    POAT_ASSERT(snap.pages <= writtenPages_.size() &&
                    snap.bytes.size() == snap.pages * kPageSize,
                "snapshot does not belong to this pool");
    for (size_t i = 0; i < writtenPages_.size(); ++i) {
        const uint32_t page = writtenPages_[i];
        const uint64_t off = page * kPageSize;
        const uint64_t n = pageBytes(page);
        if (i < snap.pages) {
            const uint8_t *src = snap.bytes.data() + i * kPageSize;
            std::memcpy(durable_.data() + off, src, n);
            std::memcpy(data_.data() + off, src, n);
        } else {
            // Written after the snapshot: zero in both images then.
            std::memset(durable_.data() + off, 0, n);
            std::memset(data_.data() + off, 0, n);
        }
        clearPageLines(page);
    }
    dirtyCount_ = 0;
    staged_.clear();
    refreshHeader();
}

void
Pool::refreshHeader()
{
    std::memcpy(&cachedHeader_, data_.data(), sizeof(cachedHeader_));
}

} // namespace poat
