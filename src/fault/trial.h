/**
 * @file
 * Shared trial machinery for the crash-point and media-fault explorers
 * (internal to src/fault/): the one workload run (WorkloadRun) under a
 * durability hook, the failure record every trial fills, the
 * recovered-state invariant checks, and seeded point selection. Both
 * explorers must agree on these bit-for-bit or a reproducer from one
 * would replay differently in the other.
 */
#ifndef POAT_FAULT_TRIAL_H
#define POAT_FAULT_TRIAL_H

#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "fault/explore.h"
#include "fault/injector.h"
#include "pmem/runtime.h"
#include "workloads/crash_support.h"

namespace poat {
namespace fault {
namespace detail {

/**
 * Completed-step counts the recovered state may legally show. A crash
 * that fired inside step s can recover to s (rolled back) or s + 1
 * (commit point was already durable); a crash during the eviction pass
 * after step i — or no crash at all — must recover to exactly the last
 * completed count, because eviction only writes back lines of data the
 * transactions already persisted.
 */
struct StepWindow
{
    uint64_t lo = 0;
    uint64_t hi = 0;
};

inline uint64_t
evictSeed(const ExploreOptions &opts)
{
    return opts.seed ^ 0x9e3779b97f4a7c15ull;
}

/**
 * Runtime options for one workload run: concurrent workloads need one
 * undo-log slot per engine worker (the drivers default to 2 when
 * opts.threads is 0, so the slot count must match that default).
 */
inline RuntimeOptions
trialRuntimeOptions(const ExploreOptions &opts)
{
    RuntimeOptions ro;
    if (workloads::isConcurrentCrashWorkload(opts.workload))
        ro.log_slots = opts.threads != 0 ? opts.threads : 2;
    return ro;
}

inline void
maybeEvict(PmemRuntime &rt, Rng &rng, const ExploreOptions &opts)
{
    if (opts.evict_num == 0)
        return;
    for (uint32_t id : rt.registry().openIds()) {
        rt.registry().get(id).pool.evictRandomLines(rng, opts.evict_num,
                                                    opts.evict_den);
    }
}

/**
 * Sentinel for "no profiled event count to check against" (the profile
 * pass itself, and replay of a reproducer string, which runs without
 * one).
 */
constexpr uint64_t kNoExpectedEvents = UINT64_MAX;

/**
 * Profile-pass contract: the profile and every trial must observe the
 * same durability-event count, or crash-point indices silently mean
 * different instants in different runs (a nondeterministic workload
 * truncates or shifts the crash-point space). Fails fast, naming both
 * counts.
 */
inline void
checkEventContract(uint64_t observed, uint64_t expected)
{
    if (expected == kNoExpectedEvents || observed == expected)
        return;
    throw std::runtime_error(
        "durability-event contract violated: profile pass counted " +
        std::to_string(expected) + " events but the trial observed " +
        std::to_string(observed) +
        " — the workload is nondeterministic under the hook");
}

/**
 * One run of the workload: the profile pass, and the first part of
 * every trial that does not restore a crashed image. A fresh runtime
 * (under the Strict policy when opts.strict) and driver run setup, then
 * every step with a hook installed, each step followed by the eviction
 * pass. The only place src/fault/ makes a CrashDriver.
 */
struct WorkloadRun
{
    explicit WorkloadRun(const ExploreOptions &o)
        : opts(o), rt(trialRuntimeOptions(o))
    {
    }

    /**
     * Run the workload under @p hook, attributing the first suppressed
     * write-back to the step (or eviction pass) it fired in, and check
     * the event contract.
     *
     * @param expected_events Profile-pass event total; the run must
     *        observe exactly this many durability events (see
     *        checkEventContract) or the whole exploration aborts.
     *        kNoExpectedEvents on the profile pass and the replay path.
     */
    void
    run(TrialHook &hook, uint64_t expected_events)
    {
        PoolRegistry &reg = rt.registry();
        if (opts.strict)
            reg.setDurabilityPolicy(DurabilityPolicy::Strict);
        driver = workloads::makeCrashDriver(opts.workload, opts.steps,
                                            opts.seed, opts.threads,
                                            opts.sched_seed);
        driver->setup(rt);
        reg.setDurabilityHook(&hook);
        Rng evict_rng(evictSeed(opts));
        w = {opts.steps, opts.steps};
        bool attributed = false;
        for (uint64_t i = 0; i < opts.steps; ++i) {
            driver->step(rt, i);
            if (!attributed && hook.fired()) {
                w = {i, i + 1};
                attributed = true;
            }
            maybeEvict(rt, evict_rng, opts);
            if (!attributed && hook.fired()) {
                w = {i + 1, i + 1};
                attributed = true;
            }
        }
        reg.setDurabilityHook(nullptr);
        checkEventContract(hook.observed(), expected_events);
    }

    const ExploreOptions &opts;
    PmemRuntime rt;
    std::unique_ptr<workloads::CrashDriver> driver;
    StepWindow w;
};

/**
 * A failure of the trial at crash point @p k of @p opts's workload,
 * with the fields every failure shares; the caller adds the trial's own
 * (recovery-crash stack, drain masks and diagnostics, or media fault).
 */
inline Failure
trialFailure(const ExploreOptions &opts, uint64_t k, const std::string &why)
{
    Failure f;
    f.workload = opts.workload;
    f.steps = opts.steps;
    f.seed = opts.seed;
    f.k = k;
    f.strict = opts.strict;
    f.evict_num = opts.evict_num;
    f.evict_den = opts.evict_den;
    f.sched_seed = opts.sched_seed;
    f.threads = opts.threads;
    f.why = why;
    return f;
}

/**
 * Post-recovery invariants: idle and legal undo logs, valid allocator
 * metadata, a recovered state the workload model accepts, and no
 * allocated-but-unreachable blocks. @p leaked accumulates leak counts
 * (only meaningful when the check fails with a leak).
 */
inline bool
checkRecovered(PmemRuntime &rt, workloads::CrashDriver &driver,
               const StepWindow &w, uint64_t *leaked, std::string *why)
{
    for (uint32_t id : rt.registry().openIds()) {
        OpenPool &op = rt.registry().get(id);
        // Every slot: a concurrent crash image can hold several
        // workers' undo logs in flight at once, and recovery must have
        // settled all of them.
        bool logs_idle = true;
        op.forEachLog([&logs_idle](UndoLog &log) {
            logs_idle = logs_idle && log.state() == LogHeader::kIdle;
        });
        if (!logs_idle) {
            *why = "undo log of pool '" + op.pool.name() +
                "' not idle after recovery";
            return false;
        }
        if (!op.alloc.validate()) {
            *why = "allocator metadata of pool '" + op.pool.name() +
                "' invalid after recovery";
            return false;
        }
    }
    if (!driver.verifyRecovered(rt, w.lo, w.hi, why))
        return false;
    std::map<uint32_t, std::set<uint32_t>> reach;
    if (driver.reachable(rt, &reach)) {
        uint64_t n = 0;
        for (uint32_t id : rt.registry().openIds()) {
            const std::set<uint32_t> &set = reach[id];
            for (uint32_t p :
                 rt.registry().get(id).alloc.allocatedPayloads()) {
                if (set.count(p) == 0)
                    ++n;
            }
        }
        if (n != 0) {
            *leaked += n;
            *why = std::to_string(n) +
                " allocated block(s) unreachable after recovery (leak)";
            return false;
        }
    }
    return true;
}

/** Event indices to crash at: all of [0, total) or a seeded sample. */
inline std::vector<uint64_t>
choosePoints(uint64_t total, uint64_t sample, uint64_t rng_seed)
{
    std::vector<uint64_t> ks;
    if (sample == 0 || sample >= total) {
        ks.resize(total);
        for (uint64_t i = 0; i < total; ++i)
            ks[i] = i;
        return ks;
    }
    std::set<uint64_t> chosen;
    Rng rng(rng_seed);
    while (chosen.size() < sample)
        chosen.insert(rng.below(total));
    ks.assign(chosen.begin(), chosen.end());
    return ks;
}

} // namespace detail
} // namespace fault
} // namespace poat

#endif // POAT_FAULT_TRIAL_H
