/**
 * @file
 * Media-fault exploration tests: the corruption-recovery matrix
 * (workloads x fault modes x structure kinds), outcome classification
 * (repaired / diagnosed / benign — never an undetected corruption),
 * determinism, fault-site enumeration, and the self-contained
 * reproducer grammar round trip.
 */
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "common/stats.h"
#include "fault/media.h"
#include "fault/injector.h"
#include "pmem/runtime.h"
#include "workloads/crash_support.h"

namespace poat {
namespace {

using fault::ExploreOptions;
using fault::MediaOptions;
using fault::MediaReport;
using fault::MediaSite;

MediaOptions
smallRun(const std::string &workload)
{
    MediaOptions o;
    o.base.workload = workload;
    o.base.steps = 6;
    o.base.seed = 3;
    o.base.jobs = 2;
    return o;
}

std::string
firstFailure(const MediaReport &rep)
{
    if (rep.failures.empty())
        return "";
    return rep.failures[0].repro() + "  " + rep.failures[0].why;
}

/** Every trial must land in exactly one of the three sanctioned bins. */
void
expectClassified(const MediaReport &rep)
{
    EXPECT_TRUE(rep.ok()) << firstFailure(rep);
    EXPECT_EQ(rep.repaired + rep.diagnosed + rep.benign, rep.trials);
}

// ---- the matrix: every micro workload, single and double faults ------

class MediaMatrix : public ::testing::TestWithParam<const char *>
{};

TEST_P(MediaMatrix, ExhaustiveSingleAndDoubleFaultsSurvive)
{
    MediaOptions o = smallRun(GetParam());
    o.doubles = 3; // three seeded double-fault trials per crash point
    const MediaReport rep = fault::exploreMedia(o);
    expectClassified(rep);
    EXPECT_GT(rep.total_events, 0u);
    EXPECT_EQ(rep.points, 5u) << "default five-point spread";
    EXPECT_GT(rep.sites, 0u);
    // Exhaustive singles (flip + tear per site) plus the doubles.
    EXPECT_GT(rep.trials, 0u);
    EXPECT_GT(rep.injected, rep.trials) << "doubles inject two faults";
    // The mirror-repair paths must actually exercise: at least one
    // trial per workload repairs instead of fail-stopping.
    EXPECT_GT(rep.repaired, 0u);
    EXPECT_GT(rep.diagnosed, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllMicroWorkloads, MediaMatrix,
                         ::testing::Values("LL", "BST", "SPS", "RBT",
                                           "BT", "B+T"),
                         [](const auto &info) {
                             std::string n = info.param;
                             if (n == "B+T")
                                 return std::string("BplusT");
                             return n;
                         });

TEST(Media, TpccSampledMatrixSurvives)
{
    // TPC-C has tens of thousands of fault sites; the matrix samples.
    MediaOptions o;
    o.base.workload = "TPCC";
    o.base.steps = 3;
    o.base.seed = 1;
    o.sample = 8;
    o.doubles = 2;
    o.points = {0}; // one frozen image keeps the test fast
    const MediaReport rep = fault::exploreMedia(o);
    expectClassified(rep);
    EXPECT_EQ(rep.trials, 10u); // 8 sampled singles + 2 doubles
}

// ---- structure-kind and block filters --------------------------------

TEST(Media, PerKindFaultsAreRepairedOrDiagnosed)
{
    struct Case
    {
        MediaStructure kind;
        bool expect_repairs; // mirror-backed kinds must repair
    };
    const Case cases[] = {
        {MediaStructure::Superblock, true},
        {MediaStructure::LogHeader, true},
        {MediaStructure::LogEntry, false},
        {MediaStructure::BlockHeader, false},
    };
    for (const Case &c : cases) {
        MediaOptions o = smallRun("B+T");
        o.kinds = {c.kind};
        const MediaReport rep = fault::exploreMedia(o);
        expectClassified(rep);
        EXPECT_GT(rep.trials, 0u) << mediaStructureName(c.kind);
        if (c.expect_repairs) {
            // Replicated structures always have an intact copy left
            // after a single fault, so every trial repairs.
            EXPECT_EQ(rep.repaired, rep.trials)
                << mediaStructureName(c.kind);
        }
    }
}

TEST(Media, BlockFilterSelectsAllocatedOrFree)
{
    MediaOptions alloc_only = smallRun("LL");
    alloc_only.kinds = {MediaStructure::BlockHeader};
    alloc_only.block_filter = 1;
    MediaOptions free_only = alloc_only;
    free_only.block_filter = 2;

    const MediaReport a = fault::exploreMedia(alloc_only);
    const MediaReport f = fault::exploreMedia(free_only);
    expectClassified(a);
    expectClassified(f);
    EXPECT_GT(a.trials, 0u);
    EXPECT_GT(f.trials, 0u);

    MediaOptions any = alloc_only;
    any.block_filter = 0;
    const MediaReport all = fault::exploreMedia(any);
    EXPECT_EQ(all.trials, a.trials + f.trials)
        << "allocated + free filters partition the block sites";
}

// ---- determinism and enumeration -------------------------------------

TEST(Media, DeterministicAcrossRuns)
{
    MediaOptions o = smallRun("BST");
    o.doubles = 2;
    const MediaReport a = fault::exploreMedia(o);
    const MediaReport b = fault::exploreMedia(o);
    EXPECT_EQ(a.total_events, b.total_events);
    EXPECT_EQ(a.sites, b.sites);
    EXPECT_EQ(a.trials, b.trials);
    EXPECT_EQ(a.injected, b.injected);
    EXPECT_EQ(a.repaired, b.repaired);
    EXPECT_EQ(a.diagnosed, b.diagnosed);
    EXPECT_EQ(a.benign, b.benign);
    ASSERT_EQ(a.failures.size(), b.failures.size());
}

TEST(Media, SiteEnumerationCoversEveryStructureKind)
{
    // Freeze a mid-run image by hand and check the site table shape:
    // per pool two superblock copies and two log-header copies, plus
    // block headers for the heap; entry sites appear when the log is
    // non-empty.
    PmemRuntime rt;
    auto driver = workloads::makeCrashDriver("LL", 6, 3);
    driver->setup(rt);
    for (uint64_t i = 0; i < 6; ++i)
        driver->step(rt, i);
    rt.registry().crashAll();

    const std::vector<MediaSite> sites =
        fault::enumerateMediaSites(rt.registry());
    size_t superblocks = 0, log_headers = 0, blocks = 0, allocated = 0;
    for (const MediaSite &s : sites) {
        switch (s.kind) {
        case MediaStructure::Superblock:
            ++superblocks;
            EXPECT_EQ(s.len, sizeof(PoolHeader));
            break;
        case MediaStructure::LogHeader:
            ++log_headers;
            EXPECT_EQ(s.len, sizeof(LogHeader));
            break;
        case MediaStructure::BlockHeader:
            ++blocks;
            allocated += s.allocated_block ? 1 : 0;
            break;
        default:
            break;
        }
    }
    const size_t pools = rt.registry().openIds().size();
    EXPECT_EQ(superblocks, 2 * pools) << "primary + mirror per pool";
    EXPECT_EQ(log_headers, 2 * pools) << "primary + mirror per pool";
    EXPECT_GT(blocks, 0u);
    EXPECT_GT(allocated, 0u);

    // Enumeration is deterministic on a frozen image.
    const std::vector<MediaSite> again =
        fault::enumerateMediaSites(rt.registry());
    ASSERT_EQ(again.size(), sites.size());
    for (size_t i = 0; i < sites.size(); ++i) {
        EXPECT_EQ(again[i].pool_id, sites[i].pool_id);
        EXPECT_EQ(again[i].off, sites[i].off);
        EXPECT_EQ(again[i].len, sites[i].len);
    }
}

TEST(Media, PublishExportsCounters)
{
    StatsRegistry stats;
    fault::exploreMedia(smallRun("LL")).publish(stats);
    EXPECT_GT(stats.counter("fault.media.sites"), 0u);
    EXPECT_GT(stats.counter("fault.media.trials"), 0u);
    EXPECT_GT(stats.counter("fault.media.repaired"), 0u);
    EXPECT_EQ(stats.counter("fault.media.failures"), 0u);
}

TEST(Media, RestoredTrialsKeepReport)
{
    // Reports of explorations that re-ran the workload for every media
    // trial. Trials now restore their point's crashed image, one
    // workload run per (point, slice) task, which must not move a
    // single counter or failure at any job count.
    struct Case
    {
        const char *workload;
        uint64_t steps, sample, doubles;
        uint32_t threads;
        uint64_t sched_seed;
        std::vector<uint64_t> want; ///< events .. benign
    };
    const Case cases[] = {
        {"B+T", 20, 0, 8, 0, 0, {384, 5, 49, 138, 178, 84, 54, 0}},
        {"LHT", 6, 40, 4, 3, 1, {275, 5, 49, 118, 138, 85, 33, 0}},
    };
    for (const Case &c : cases) {
        for (unsigned jobs : {1u, 4u}) {
            MediaOptions o;
            o.base.workload = c.workload;
            o.base.steps = c.steps;
            o.base.threads = c.threads;
            o.base.sched_seed = c.sched_seed;
            o.base.jobs = jobs;
            o.sample = c.sample;
            o.doubles = c.doubles;
            const MediaReport rep = fault::exploreMedia(o);
            const std::vector<uint64_t> got = {
                rep.total_events, rep.points,   rep.sites,
                rep.trials,       rep.injected, rep.repaired,
                rep.diagnosed,    rep.benign};
            EXPECT_EQ(got, c.want) << c.workload << " jobs=" << jobs;
            EXPECT_TRUE(rep.failures.empty()) << firstFailure(rep);
            if (jobs == 1) {
                // The profile pass plus one run per crash point.
                EXPECT_EQ(rep.workload_runs, rep.points + 1)
                    << c.workload;
            }
        }
    }
}

// ---- self-contained reproducers --------------------------------------

TEST(Media, ReproStringEncodesMediaAndEviction)
{
    fault::Failure f;
    f.workload = "B+T";
    f.steps = 50;
    f.seed = 1;
    f.k = 7;
    f.media = "17";
    EXPECT_EQ(f.repro(), "B+T:50:1:7:m17");
    f.media = "17+42";
    EXPECT_EQ(f.repro(), "B+T:50:1:7:m17+42");
    f.evict_num = 1;
    f.evict_den = 8;
    EXPECT_EQ(f.repro(), "B+T:50:1:7:m17+42:e1/8");
    f.media.clear();
    EXPECT_EQ(f.repro(), "B+T:50:1:7:e1/8");
}

TEST(Media, ReproRoundTripsThroughReplay)
{
    // A healthy trial replayed from its reproducer string reports
    // nothing — and needs no out-of-band options, the string carries
    // the media fault index and the eviction schedule itself.
    EXPECT_TRUE(fault::replayRepro("LL:5:2:3:m0").empty());
    EXPECT_TRUE(fault::replayRepro("LL:5:2:3:m0+5").empty());
    EXPECT_TRUE(fault::replayRepro("LL:5:2:3:m0:e1/8").empty());
    EXPECT_TRUE(fault::replayRepro("LL:5:2:3:e1/8").empty());
}

TEST(Media, MalformedReproThrows)
{
    // Media trials have no in-recovery crash point.
    EXPECT_THROW(fault::replayRepro("LL:5:2:3:4:m1"),
                 std::invalid_argument);
    EXPECT_THROW(fault::replayRepro("LL:5:2:3:m"), std::invalid_argument);
    EXPECT_THROW(fault::replayRepro("LL:5:2:3:mx"),
                 std::invalid_argument);
    EXPECT_THROW(fault::replayRepro("LL:5:2:3:m1+"),
                 std::invalid_argument);
    EXPECT_THROW(fault::replayRepro("LL:5:2:3:m1+2+3"),
                 std::invalid_argument);
    EXPECT_THROW(fault::replayRepro("LL:5:2:3:e1"),
                 std::invalid_argument);
    EXPECT_THROW(fault::replayRepro("LL:5:2:3:e1/0"),
                 std::invalid_argument);
    // A fault index past the image's site space is an error, not UB.
    EXPECT_THROW(fault::replayRepro("LL:5:2:3:m99999999"),
                 std::invalid_argument);
}

} // namespace
} // namespace poat
