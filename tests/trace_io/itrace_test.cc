/**
 * @file
 * Unit tests for the poat-itrace v5 format: varint coding, recorder /
 * replayer roundtrips of every record kind, dep-tag canonicalization,
 * the pinned record encoding, and the required failure modes (every
 * malformed file must raise std::runtime_error with a descriptive
 * message, never UB).
 */
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "trace_io/itrace.h"

namespace poat {
namespace trace_io {
namespace {

std::string
tmpPath(const std::string &name)
{
    return testing::TempDir() + "itrace_test." + name + "." +
        std::to_string(::getpid()) + ".itrace";
}

/** Sink that journals every call (with deps) as one line of text. */
class JournalSink : public EventSink
{
  public:
    /**
     * Tags handed out for load-like events. Deliberately NOT dense
     * sequence numbers: start + stride mimic a core model whose tags
     * are uop sequence numbers, so canonicalization is actually
     * exercised.
     */
    JournalSink(uint64_t start, uint64_t stride)
        : next_(start), stride_(stride)
    {}

    std::vector<std::string> lines;
    std::set<EventKind> kinds;

    uint64_t
    event(const Event &e) override
    {
        const KindInfo &k = kindInfo(e.kind);
        std::string line = k.name;
        for (unsigned i = 0; i < k.operands; ++i)
            line += ((k.deps >> i) & 1) ? " d" + rel(e.operands[i])
                                        : " " + std::to_string(e.operands[i]);
        if (k.named)
            line += std::string(" ") + e.name;
        lines.push_back(std::move(line));
        kinds.insert(e.kind);
        return k.tag ? issue() : 0;
    }

  private:
    uint64_t
    issue()
    {
        issued_.push_back(next_);
        const uint64_t tag = next_;
        next_ += stride_;
        return tag;
    }

    /**
     * Render a dep tag relative to this sink's own issue order ("#3" =
     * my third load), so journals from sinks with different tag
     * schemes compare equal exactly when the dependence structure is
     * preserved.
     */
    std::string
    rel(uint64_t dep) const
    {
        if (dep == kNoDep)
            return "0";
        for (size_t i = 0; i < issued_.size(); ++i)
            if (issued_[i] == dep)
                return "#" + std::to_string(i + 1);
        return "?" + std::to_string(dep);
    }

    uint64_t next_;
    uint64_t stride_;
    std::vector<uint64_t> issued_;
};

/**
 * Drive a fixed scenario against any sink, chaining deps. It emits
 * every record kind, including a multi-byte opName and a lockWait key
 * that needs a 10-byte varint.
 */
void
runScenario(TraceSink &sink)
{
    sink.poolMapped(1, 0x7000'0000'0000ull, 1 << 20);
    sink.alu(3, kNoDep);
    const uint64_t a = sink.load(0x1000, kNoDep, kNoDep);
    const uint64_t b = sink.load(0x2000, a, kNoDep);
    sink.alu(1, b);
    sink.branch(true, 42, b);
    sink.store(0x3000, a);
    const uint64_t c = sink.nvLoad(ObjectID(1, 0x40), b, a);
    sink.nvStore(ObjectID(1, 0x80), c);
    sink.clwb(0x3000);
    sink.nvClwb(ObjectID(1, 0x80));
    sink.swTranslateBegin();
    const uint64_t d = sink.load(0x4000, c, kNoDep);
    sink.alu(2, d);
    sink.swTranslateEnd();
    sink.opName(7, "new_order/\xc3\xa9t\xc3\xa9");
    sink.txBegin(1, 7);
    sink.coreSwitch(1);
    sink.opSet(7);
    sink.lockWait(1, 0x8000'0000'0000'0001ull, 1, 2);
    sink.lockAcquired(1, 0x8000'0000'0000'0001ull, 1);
    sink.lockDeadlock(0, 0x55);
    sink.commitJoin(1);
    sink.commitBatch(2, 1);
    sink.txCommit(1);
    sink.lockReleased(1, 0x8000'0000'0000'0001ull);
    sink.txBegin(1, 7);
    sink.txAbort(1);
    sink.workerDone(1);
    sink.fence();
    sink.poolUnmapped(1);
}

constexpr uint64_t kScenarioEvents = 31;

/** Load a finished trace file into memory. */
std::string
slurp(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    std::ostringstream ss;
    ss << f.rdbuf();
    return ss.str();
}

TEST(Scenario, CoversEveryKind)
{
    JournalSink sink(1, 1);
    runScenario(sink);
    EXPECT_EQ(sink.lines.size(), kScenarioEvents);
    for (uint8_t k = kMinEventKind; k <= kMaxEventKind; ++k)
        EXPECT_TRUE(sink.kinds.count(static_cast<EventKind>(k)))
            << "runScenario never emits " << kKinds[k].name;
}

TEST(Varint, RoundtripsEdgeValues)
{
    const uint64_t values[] = {0,
                               1,
                               0x7f,
                               0x80,
                               0x3fff,
                               0x4000,
                               1ull << 32,
                               (1ull << 63) - 1,
                               ~0ull};
    std::vector<uint8_t> buf;
    for (const uint64_t v : values)
        appendVarint(buf, v);
    size_t pos = 0;
    for (const uint64_t v : values)
        EXPECT_EQ(readVarint(buf.data(), buf.size(), &pos), v);
    EXPECT_EQ(pos, buf.size());
}

TEST(Varint, TruncationThrows)
{
    std::vector<uint8_t> buf;
    appendVarint(buf, ~0ull);
    for (size_t cut = 0; cut < buf.size(); ++cut) {
        size_t pos = 0;
        EXPECT_THROW(readVarint(buf.data(), cut, &pos),
                     std::runtime_error);
    }
}

TEST(Varint, OverlongEncodingThrows)
{
    // 11 continuation bytes encode more than 64 bits.
    const std::vector<uint8_t> buf(11, 0x80);
    size_t pos = 0;
    EXPECT_THROW(readVarint(buf.data(), buf.size(), &pos),
                 std::runtime_error);
}

TEST(Recorder, RoundtripPreservesEventsAndDeps)
{
    const std::string path = tmpPath("roundtrip");
    JournalSink live(1, 1);

    {
        JournalSink inner(1, 1);
        TraceRecorder rec(&inner, path, "fpr");
        runScenario(rec);
        rec.setProfile("sidecar blob");
        rec.finish();

        // The capture run drove its inner sink exactly like a live run.
        runScenario(live);
        EXPECT_EQ(inner.lines, live.lines);
        EXPECT_EQ(rec.eventCount(), kScenarioEvents);
    }

    // The record region is pinned: changing its bytes invalidates every
    // cached trace, so it needs a kFormatVersion bump.
    const std::string file = slurp(path);
    uint64_t record_bytes = 0, record_hash = 0;
    for (int i = 7; i >= 0; --i) {
        record_bytes = record_bytes << 8 | static_cast<uint8_t>(file[24 + i]);
        record_hash = record_hash << 8 | static_cast<uint8_t>(file[32 + i]);
    }
    EXPECT_EQ(record_bytes, 155u);
    EXPECT_EQ(record_hash, 0x853b756656821c1cull);

    const TraceReplayer trace(path);
    EXPECT_EQ(trace.fingerprint(), "fpr");
    EXPECT_EQ(trace.profile(), "sidecar blob");
    EXPECT_EQ(trace.eventCount(), kScenarioEvents);

    JournalSink replayed(1, 1);
    trace.replayInto(replayed);
    EXPECT_EQ(replayed.lines, live.lines);
    // Raw name bytes and a 10-byte varint survive the file intact.
    EXPECT_EQ(replayed.lines[15], "opName 7 new_order/\xc3\xa9t\xc3\xa9");
    EXPECT_EQ(replayed.lines[19], "lockWait 1 9223372036854775809 1 2");

    // replayInto is repeatable: each replay starts a fresh tag map.
    JournalSink again(1, 1);
    trace.replayInto(again);
    EXPECT_EQ(again.lines, live.lines);

    std::remove(path.c_str());
}

TEST(Recorder, CanonicalizesSparseInnerTags)
{
    // Inner tags 1000, 1007, 1014, ... (OoO-style uop numbers); the
    // replay sink hands out 5, 10, 15, ... Dependence structure must
    // survive both remappings.
    const std::string path = tmpPath("canonical");
    {
        JournalSink inner(1000, 7);
        TraceRecorder rec(&inner, path, "fpr");
        // The workload sees canonical dense sequence numbers.
        const uint64_t a = rec.load(0x10, kNoDep, kNoDep);
        const uint64_t b = rec.load(0x20, a, kNoDep);
        EXPECT_EQ(a, 1u);
        EXPECT_EQ(b, 2u);
        rec.store(0x30, b);
        // The inner sink saw its own tags, not the canonical ones.
        EXPECT_EQ(inner.lines[1], "load 32 d#1 d0");
        EXPECT_EQ(inner.lines[2], "store 48 d#2");
        rec.finish();
    }

    const TraceReplayer trace(path);
    JournalSink sink(5, 5);
    trace.replayInto(sink);
    EXPECT_EQ(sink.lines[0], "load 16 d0 d0");
    EXPECT_EQ(sink.lines[1], "load 32 d#1 d0");
    EXPECT_EQ(sink.lines[2], "store 48 d#2");
    std::remove(path.c_str());
}

TEST(Recorder, UnknownDepClampsToNoDep)
{
    // A dep that is not a sequence number the recorder handed out
    // (e.g. garbage from a buggy caller) must degrade to kNoDep, not
    // index out of bounds.
    const std::string path = tmpPath("clamp");
    {
        JournalSink inner(1, 1);
        TraceRecorder rec(nullptr, path, "fpr");
        rec.store(0x10, 999);
        rec.finish();
    }
    const TraceReplayer trace(path);
    JournalSink sink(1, 1);
    trace.replayInto(sink);
    EXPECT_EQ(sink.lines[0], "store 16 d0");
    std::remove(path.c_str());
}

TEST(Recorder, AbandonedRecorderLeavesNoFile)
{
    const std::string path = tmpPath("abandon");
    {
        TraceRecorder rec(nullptr, path, "fpr");
        rec.alu(1, kNoDep);
        // No finish(): destructor must discard the temporary.
    }
    EXPECT_FALSE(TraceReplayer::matches(path, "fpr"));
    std::ifstream f(path);
    EXPECT_FALSE(f.good());
}

TEST(Replayer, MissingFileThrows)
{
    EXPECT_THROW(TraceReplayer("/nonexistent/nope.itrace"),
                 std::runtime_error);
}

TEST(Replayer, MatchesChecksFingerprintAndShape)
{
    const std::string path = tmpPath("matches");
    {
        TraceRecorder rec(nullptr, path, "the-right-fingerprint");
        runScenario(rec);
        rec.finish();
    }
    EXPECT_TRUE(TraceReplayer::matches(path, "the-right-fingerprint"));
    EXPECT_FALSE(TraceReplayer::matches(path, "some-other-fingerprint"));
    EXPECT_FALSE(TraceReplayer::matches(path + ".missing", "x"));
    std::remove(path.c_str());
}

void
spit(const std::string &path, const std::string &bytes)
{
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

class Corruption : public testing::Test
{
  protected:
    void
    SetUp() override
    {
        path_ = tmpPath("corrupt");
        TraceRecorder rec(nullptr, path_, "fpr-corruption-test");
        runScenario(rec);
        rec.setProfile("profile");
        rec.finish();
        good_ = slurp(path_);
        ASSERT_GT(good_.size(), kHeaderSize);
    }

    void TearDown() override { std::remove(path_.c_str()); }

    void
    expectThrows(const std::string &bytes, const char *what_substr)
    {
        spit(path_, bytes);
        try {
            TraceReplayer trace(path_);
            // Header defects throw in the constructor; record defects
            // may only surface during decode.
            NullTraceSink sink;
            trace.replayInto(sink);
            FAIL() << "expected std::runtime_error (" << what_substr
                   << ")";
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find(what_substr),
                      std::string::npos)
                << e.what();
        }
    }

    std::string path_;
    std::string good_;
};

TEST_F(Corruption, BadMagic)
{
    std::string bad = good_;
    bad[0] = 'X';
    expectThrows(bad, "bad magic");
}

TEST_F(Corruption, WrongVersion)
{
    std::string bad = good_;
    bad[8] = 99;
    expectThrows(bad, "unsupported format version");
}

TEST_F(Corruption, TruncatedHeader)
{
    expectThrows(good_.substr(0, kHeaderSize / 2), "truncated header");
}

TEST_F(Corruption, TruncatedRecords)
{
    expectThrows(good_.substr(0, good_.size() / 2), path_.c_str());
}

TEST_F(Corruption, MissingTrailer)
{
    // Cut exactly the profile trailer off the end.
    expectThrows(good_.substr(0, good_.size() - 4 - 7 - 1),
                 path_.c_str());
}

TEST_F(Corruption, FlippedRecordByteFailsHashCheck)
{
    std::string bad = good_;
    bad[kHeaderSize + 20 + 3] ^= 0x40; // inside the record region
    expectThrows(bad, "hash mismatch");
}

TEST_F(Corruption, TrailingGarbage)
{
    expectThrows(good_ + "extra", "trailing garbage");
}

TEST_F(Corruption, EventCountMismatch)
{
    // Patch the header's event count without touching the records.
    std::string bad = good_;
    bad[16] = static_cast<char>(kScenarioEvents + 3);
    expectThrows(bad, "event count mismatch");
}

} // namespace
} // namespace trace_io
} // namespace poat
