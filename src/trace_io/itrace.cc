#include "trace_io/itrace.h"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace poat {
namespace trace_io {

namespace {

/** Soft cap on the recorder's in-memory buffer before an fwrite. */
constexpr size_t kFlushThreshold = 1u << 20;

constexpr uint64_t kFnvOffset = 14695981039346656037ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t
fnv1a(uint64_t hash, const uint8_t *data, size_t size)
{
    for (size_t i = 0; i < size; ++i) {
        hash ^= data[i];
        hash *= kFnvPrime;
    }
    return hash;
}

template <typename T>
void
putLe(uint8_t *out, T v)
{
    for (size_t i = 0; i < sizeof(T); ++i)
        out[i] = static_cast<uint8_t>(v >> (8 * i));
}

template <typename T>
T
getLe(const uint8_t *in)
{
    T v = 0;
    for (size_t i = 0; i < sizeof(T); ++i)
        v |= static_cast<T>(in[i]) << (8 * i);
    return v;
}

[[noreturn]] void
badFile(const std::string &path, const std::string &why)
{
    throw std::runtime_error("poat-itrace: " + path + ": " + why);
}

} // namespace

void
appendVarint(std::vector<uint8_t> &buf, uint64_t v)
{
    while (v >= 0x80) {
        buf.push_back(static_cast<uint8_t>(v) | 0x80);
        v >>= 7;
    }
    buf.push_back(static_cast<uint8_t>(v));
}

uint64_t
readVarint(const uint8_t *data, size_t size, size_t *pos)
{
    uint64_t v = 0;
    for (unsigned shift = 0; shift < 64; shift += 7) {
        if (*pos >= size)
            throw std::runtime_error(
                "poat-itrace: truncated varint in record region");
        const uint8_t byte = data[(*pos)++];
        v |= static_cast<uint64_t>(byte & 0x7f) << shift;
        if ((byte & 0x80) == 0)
            return v;
    }
    throw std::runtime_error("poat-itrace: varint exceeds 64 bits");
}

// --------------------------------------------------------------------
// TraceRecorder

TraceRecorder::TraceRecorder(TraceSink *inner, std::string path,
                             std::string fingerprint)
    : inner_(inner), path_(std::move(path)),
      fingerprint_(std::move(fingerprint)), hash_(kFnvOffset)
{
    // Unique temporary within the process and across processes sharing
    // a cache directory; the atomic rename in finish() publishes it.
    static std::atomic<uint64_t> counter{0};
    tmpPath_ = path_ + ".tmp." + std::to_string(::getpid()) + "." +
        std::to_string(counter.fetch_add(1));

    f_ = std::fopen(tmpPath_.c_str(), "wb");
    if (!f_)
        badFile(tmpPath_, "cannot create temporary trace file");

    uint8_t header[kHeaderSize] = {};
    std::memcpy(header, kMagic, sizeof(kMagic));
    putLe(header + 8, kFormatVersion);
    putLe(header + 12, static_cast<uint32_t>(fingerprint_.size()));
    // Event count, record bytes, and record hash are patched by
    // finish(); leave zeros.
    if (std::fwrite(header, 1, kHeaderSize, f_) != kHeaderSize ||
        std::fwrite(fingerprint_.data(), 1, fingerprint_.size(), f_) !=
            fingerprint_.size()) {
        abandon();
        badFile(tmpPath_, "cannot write trace header");
    }

    buf_.reserve(kFlushThreshold + 64);
    seqToTag_.push_back(kNoDep); // sequence number 0 = "no producer"
}

TraceRecorder::~TraceRecorder()
{
    abandon();
}

void
TraceRecorder::flushBuf()
{
    if (buf_.empty() || !f_)
        return;
    hash_ = fnv1a(hash_, buf_.data(), buf_.size());
    recordBytes_ += buf_.size();
    if (std::fwrite(buf_.data(), 1, buf_.size(), f_) != buf_.size()) {
        abandon();
        badFile(tmpPath_, "short write while recording");
    }
    buf_.clear();
}

void
TraceRecorder::finish()
{
    if (finished_)
        return;
    if (!f_)
        badFile(tmpPath_, "recorder already abandoned");
    flushBuf();

    uint8_t len[4];
    putLe(len, static_cast<uint32_t>(profile_.size()));
    uint8_t patch[24];
    putLe(patch + 0, events_);
    putLe(patch + 8, recordBytes_);
    putLe(patch + 16, hash_);
    const bool ok =
        std::fwrite(len, 1, sizeof(len), f_) == sizeof(len) &&
        std::fwrite(profile_.data(), 1, profile_.size(), f_) ==
            profile_.size() &&
        std::fseek(f_, 16, SEEK_SET) == 0 &&
        std::fwrite(patch, 1, sizeof(patch), f_) == sizeof(patch) &&
        std::fclose(f_) == 0;
    f_ = nullptr;
    if (!ok) {
        abandon();
        badFile(tmpPath_, "cannot finalize trace file");
    }
    if (std::rename(tmpPath_.c_str(), path_.c_str()) != 0) {
        abandon();
        badFile(path_, "cannot publish trace file");
    }
    finished_ = true;
}

void
TraceRecorder::abandon() noexcept
{
    if (f_) {
        std::fclose(f_);
        f_ = nullptr;
    }
    if (!finished_ && !tmpPath_.empty())
        std::remove(tmpPath_.c_str());
}

uint64_t
TraceRecorder::event(const Event &in)
{
    const KindInfo &k = kindInfo(in.kind);
    Event e = in;
    if (buf_.size() >= kFlushThreshold)
        flushBuf();
    buf_.push_back(static_cast<uint8_t>(e.kind));
    ++events_;
    for (unsigned i = 0; i < k.operands; ++i) {
        uint64_t &v = e.operands[i];
        const bool dep = (k.deps >> i) & 1;
        if (dep && v >= seqToTag_.size())
            v = kNoDep; // not a sequence number we handed out
        put(v);
        if (dep)
            v = seqToTag_[v];
    }
    if (k.named) {
        const size_t len = std::strlen(e.name);
        put(len);
        buf_.insert(buf_.end(), e.name, e.name + len);
    }
    const uint64_t tag = inner_ ? deliver(*inner_, e) : 0;
    if (!k.tag)
        return 0;
    seqToTag_.push_back(tag);
    return seqToTag_.size() - 1;
}

// --------------------------------------------------------------------
// TraceReplayer

TraceReplayer::TraceReplayer(const std::string &path) : path_(path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        badFile(path, "cannot open trace file");
    std::fseek(f, 0, SEEK_END);
    const long end = std::ftell(f);
    std::fseek(f, 0, SEEK_SET);
    std::vector<uint8_t> file(end > 0 ? static_cast<size_t>(end) : 0);
    const size_t got = file.empty()
        ? 0
        : std::fread(file.data(), 1, file.size(), f);
    std::fclose(f);
    if (got != file.size())
        badFile(path, "cannot read trace file");

    if (file.size() < kHeaderSize)
        badFile(path, "truncated header");
    if (std::memcmp(file.data(), kMagic, sizeof(kMagic)) != 0)
        badFile(path, "not a poat-itrace file (bad magic)");
    const uint32_t version = getLe<uint32_t>(file.data() + 8);
    if (version != kFormatVersion)
        badFile(path,
                "unsupported format version " + std::to_string(version) +
                    " (this build reads version " +
                    std::to_string(kFormatVersion) + ")");
    const uint32_t fpr_len = getLe<uint32_t>(file.data() + 12);
    eventCount_ = getLe<uint64_t>(file.data() + 16);
    const uint64_t record_bytes = getLe<uint64_t>(file.data() + 24);
    const uint64_t record_hash = getLe<uint64_t>(file.data() + 32);

    const size_t records_at = kHeaderSize + fpr_len;
    if (records_at > file.size() ||
        record_bytes > file.size() - records_at)
        badFile(path, "truncated record region");
    fingerprint_.assign(
        reinterpret_cast<const char *>(file.data() + kHeaderSize),
        fpr_len);

    const size_t trailer_at = records_at + static_cast<size_t>(record_bytes);
    if (file.size() - trailer_at < 4)
        badFile(path, "missing profile trailer");
    const uint32_t prof_len = getLe<uint32_t>(file.data() + trailer_at);
    if (file.size() - trailer_at - 4 != prof_len)
        badFile(path, "trailing garbage after profile");
    profile_.assign(
        reinterpret_cast<const char *>(file.data() + trailer_at + 4),
        prof_len);

    records_.assign(file.begin() + records_at,
                    file.begin() + trailer_at);
    if (fnv1a(kFnvOffset, records_.data(), records_.size()) !=
        record_hash)
        badFile(path, "record region corrupt (hash mismatch)");
}

void
TraceReplayer::replayInto(TraceSink &sink) const
{
    const uint8_t *d = records_.data();
    const size_t n = records_.size();
    size_t pos = 0;
    uint64_t events = 0;

    std::vector<uint64_t> tags;
    tags.reserve(1024);
    tags.push_back(kNoDep); // sequence number 0 = "no producer"
    auto dep = [&](uint64_t seq) -> uint64_t {
        if (seq >= tags.size())
            badFile(path_, "dep references a load that never happened");
        return tags[seq];
    };

    std::string name; // OpName's bytes, alive while it is delivered
    while (pos < n) {
        const uint8_t kind = d[pos++];
        if (kind < kMinEventKind || kind > kMaxEventKind)
            badFile(path_,
                    "unknown record kind " + std::to_string(kind) +
                        " at offset " + std::to_string(pos - 1));
        const KindInfo &k = kKinds[kind];
        Event e{k.kind, {}, nullptr};
        for (unsigned i = 0; i < k.operands; ++i) {
            const uint64_t v = readVarint(d, n, &pos);
            e.operands[i] = ((k.deps >> i) & 1) ? dep(v) : v;
        }
        if (k.named) {
            const uint64_t len = readVarint(d, n, &pos);
            if (len > n - pos)
                badFile(path_, std::string("truncated ") + k.name +
                                   " record");
            name.assign(reinterpret_cast<const char *>(d + pos),
                        static_cast<size_t>(len));
            pos += static_cast<size_t>(len);
            e.name = name.c_str();
        }
        const uint64_t tag = deliver(sink, e);
        if (k.tag)
            tags.push_back(tag);
        ++events;
    }
    if (events != eventCount_)
        badFile(path_,
                "event count mismatch: header says " +
                    std::to_string(eventCount_) + ", decoded " +
                    std::to_string(events));
}

bool
TraceReplayer::matches(const std::string &path,
                       const std::string &fingerprint) noexcept
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return false;
    uint8_t header[kHeaderSize];
    bool ok = std::fread(header, 1, kHeaderSize, f) == kHeaderSize &&
        std::memcmp(header, kMagic, sizeof(kMagic)) == 0 &&
        getLe<uint32_t>(header + 8) == kFormatVersion &&
        getLe<uint32_t>(header + 12) == fingerprint.size();
    if (ok) {
        std::string fpr(fingerprint.size(), '\0');
        ok = std::fread(fpr.data(), 1, fpr.size(), f) == fpr.size() &&
            fpr == fingerprint;
    }
    std::fclose(f);
    return ok;
}

} // namespace trace_io
} // namespace poat
