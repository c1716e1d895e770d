/**
 * @file
 * poat_perfbench: host-performance driver behind perfbench/run.py.
 *
 * It sits outside the program and times calls into its public entry
 * points only: driver::runExperiment and the detail::runExperiment
 * Live/Captured/Replayed paths, trace_io::TraceReplayer::replayInto,
 * PmemRuntime pool management, fault::explore and fault::replayRepro.
 * Each workload has a set-up step (repeated; run.py reports the median)
 * and a timed phase that cycles over the workload's fixed unit list for
 * --seconds, always finishing at least one full pass. The traced run
 * (--trace 1) replaces the timed phase by a layer decomposition of a
 * fixed unit subset, executed once without and once with spans; see
 * perfbench/README.md for the layers and how self time is attributed.
 *
 * Output: one JSON document (--out) with raw measurements, check
 * outcomes and, when traced, per-layer metrics; spans go to --spans.
 * run.py turns it into the printed report and the result line.
 */
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/cpi.h"
#include "common/rng.h"
#include "driver/experiment.h"
#include "driver/sweep.h"
#include "fault/explore.h"
#include "pmem/runtime.h"
#include "report/stats_diff.h"
#include "trace_io/itrace.h"
#include "workloads/harness.h"

using namespace poat;

namespace {

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

// ---------------------------------------------------------------------
// JSON output
// ---------------------------------------------------------------------

std::string
num(double v)
{
    if (!std::isfinite(v))
        return "null";
    char b[40];
    std::snprintf(b, sizeof(b), "%.17g", v);
    return b;
}

std::string
str(const std::string &s)
{
    return "\"" + bench::jsonEscape(s) + "\"";
}

std::string
arr(const std::vector<double> &xs)
{
    std::string s = "[";
    for (size_t i = 0; i < xs.size(); ++i)
        s += (i ? ", " : "") + num(xs[i]);
    return s + "]";
}

/** Insertion-ordered JSON object of pre-rendered values. */
class Obj
{
  public:
    Obj &
    put(const std::string &k, const std::string &raw)
    {
        kv_.emplace_back(k, raw);
        return *this;
    }
    Obj &put(const std::string &k, double v) { return put(k, num(v)); }
    Obj &
    putStr(const std::string &k, const std::string &v)
    {
        return put(k, str(v));
    }

    std::string
    render() const
    {
        std::string s = "{";
        for (size_t i = 0; i < kv_.size(); ++i)
            s += (i ? ", " : "") + str(kv_[i].first) + ": " +
                kv_[i].second;
        return s + "}";
    }

  private:
    std::vector<std::pair<std::string, std::string>> kv_;
};

// ---------------------------------------------------------------------
// Spans: recorded in memory around each call into the program, written
// out when the benchmark ends. Spans of one unit share its id.
// ---------------------------------------------------------------------

struct Span
{
    std::string name;
    double t0 = 0, t1 = 0;
    int parent = -1;
    uint64_t unit = 0;
};

class SpanLog
{
  public:
    explicit SpanLog(bool on) : on_(on) {}

    class Scope
    {
      public:
        Scope(SpanLog &log, const char *name, uint64_t unit) : log_(log)
        {
            if (!log_.on_)
                return;
            idx_ = static_cast<int>(log_.spans_.size());
            log_.spans_.push_back({name, now(), 0.0, log_.open_, unit});
            log_.open_ = idx_;
        }
        ~Scope()
        {
            if (idx_ < 0)
                return;
            log_.spans_[idx_].t1 = now();
            log_.open_ = log_.spans_[idx_].parent;
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanLog &log_;
        int idx_ = -1;
    };

    const std::vector<Span> &spans() const { return spans_; }

    /** Duration of the first span named @p name in unit @p unit. */
    double
    dur(uint64_t unit, const std::string &name) const
    {
        for (const Span &s : spans_)
            if (s.unit == unit && s.name == name)
                return s.t1 - s.t0;
        return 0.0;
    }

  private:
    bool on_;
    std::vector<Span> spans_;
    int open_ = -1;
};

/** Write the spans, one JSON object a line, and count them in @p o. */
void
writeSpans(const SpanLog &log, const std::string &path, Obj &o)
{
    std::ofstream os(path);
    for (const Span &s : log.spans())
        os << Obj().putStr("name", s.name).put("t0", s.t0).put("t1", s.t1)
                  .put("parent", s.parent)
                  .put("unit", static_cast<double>(s.unit)).render()
           << "\n";
    if (!os)
        throw std::runtime_error("cannot write " + path);
    o.put("spans", static_cast<double>(log.spans().size()));
}

/** Run @p fn under a span; return its seconds. */
double
spanned(SpanLog &log, const char *name, uint64_t unit,
        const std::function<void()> &fn)
{
    SpanLog::Scope s(log, name, unit);
    const double t0 = now();
    fn();
    return now() - t0;
}

/**
 * Self time per layer. Each span's self time (duration minus its
 * children) goes to the layer its call exercises; calls that cross
 * layers are split by sibling spans of the same unit that measure the
 * parts alone (derived, see README.md). Root "unit" spans and gaps
 * between them go to the residual, so the buckets sum to the wall.
 */
std::map<std::string, double>
attribute(const SpanLog &log, double wall)
{
    const std::vector<Span> &sp = log.spans();
    std::vector<double> child(sp.size(), 0.0);
    for (const Span &s : sp)
        if (s.parent >= 0)
            child[s.parent] += s.t1 - s.t0;

    std::map<std::string, double> out = {
        {"pmem_workloads", 0}, {"sim", 0}, {"trace_io", 0},
        {"fault", 0},          {"residual", 0}};
    double covered = 0;
    for (size_t i = 0; i < sp.size(); ++i) {
        const Span &s = sp[i];
        const double d = s.t1 - s.t0;
        const double self = d - child[i];
        if (s.parent < 0)
            covered += d;
        const std::string &n = s.name;
        // Take up to @p want from the span's remaining self time.
        double left = self;
        auto take = [&left](double want) {
            const double t = std::clamp(want, 0.0, left);
            left -= t;
            return t;
        };
        const double native =
            log.dur(s.unit, "driver.runExperimentLive.native");
        const double live = log.dur(s.unit, "driver.runExperimentLive");
        const double decode = log.dur(s.unit, "trace_io.TraceReplayer") +
            log.dur(s.unit, "trace_io.replayInto.counting");
        if (n == "unit") {
            out["residual"] += take(self);
        } else if (n.rfind("pmem.", 0) == 0 ||
                   n == "driver.runExperimentLive.native") {
            out["pmem_workloads"] += take(self);
        } else if (n == "driver.runExperimentLive") {
            out["pmem_workloads"] += take(native);
            out["sim"] += take(left);
        } else if (n == "driver.runExperimentCaptured") {
            out["pmem_workloads"] += take(native);
            out["sim"] += take(live - native);
            out["trace_io"] += take(left);
        } else if (n.rfind("trace_io.", 0) == 0) {
            out["trace_io"] += take(self);
        } else if (n.rfind("driver.runExperimentReplayed", 0) == 0) {
            out["trace_io"] += take(decode);
            out["sim"] += take(left);
        } else if (n.rfind("fault.", 0) == 0) {
            out["fault"] += take(self);
        }
        out["residual"] += left;
    }
    out["residual"] += wall - covered; // gaps between root spans
    return out;
}

// ---------------------------------------------------------------------
// Checks feeding fail_frac
// ---------------------------------------------------------------------

struct Checks
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> failures;

    void
    expect(bool ok, const std::string &what)
    {
        ++attempted;
        if (ok)
            return;
        ++failed;
        if (failures.size() < 20)
            failures.push_back(what);
    }

    std::string
    render() const
    {
        std::string f = "[";
        for (size_t i = 0; i < failures.size(); ++i)
            f += (i ? ", " : "") + str(failures[i]);
        return Obj()
            .put("attempted", static_cast<double>(attempted))
            .put("failed", static_cast<double>(failed))
            .put("failures", f + "]")
            .render();
    }
};

std::string
statsJson(const driver::ExperimentResult &r)
{
    std::ostringstream os;
    r.stats.dumpJson(os);
    return os.str();
}

/** Every core's CPI components sum to that core's cycles. */
void
checkCpi(Checks &c, const std::string &label,
         const driver::ExperimentResult &r)
{
    const report::FlatJson f =
        report::flattenJson("{\"s\": " + statsJson(r) + "}");
    bool ok = r.cpi.total() != 0;
    size_t cores = 0;
    for (const auto &[path, v] : f.numbers) {
        const std::string suffix = ".cycles";
        if (path.size() <= suffix.size() ||
            path.compare(path.size() - suffix.size(), suffix.size(),
                         suffix) != 0 ||
            path.rfind("s.core", 0) != 0)
            continue;
        const std::string prefix =
            path.substr(0, path.size() - suffix.size());
        double sum = 0;
        bool any = false;
        for (size_t i = 0; i < kCpiComponents; ++i) {
            auto it = f.numbers.find(prefix + ".cpi." +
                cpiComponentName(static_cast<CpiComponent>(i)));
            if (it != f.numbers.end()) {
                sum += it->second;
                any = true;
            }
        }
        if (!any)
            continue;
        ++cores;
        ok = ok && sum == v;
    }
    c.expect(ok && cores > 0, label + ": CPI components sum to cycles");
}

/** Serialized stats report in the layout of bench_util.h --stats-json. */
std::string
statsReport(const char *bench_name, const bench::BenchArgs &a,
            const std::vector<driver::ExperimentConfig> &cfgs,
            const std::vector<driver::ExperimentResult> &res)
{
    std::ostringstream os;
    os << "{\"bench\": " << str(bench_name)
       << ", \"quick\": " << (a.quick ? "true" : "false")
       << ", \"scale_pct\": " << a.scale_pct
       << ", \"tpcc_scale_pct\": " << a.tpcc_scale_pct
       << ", \"tpcc_txns\": " << a.tpcc_txns << ", \"runs\": [";
    for (size_t i = 0; i < res.size(); ++i) {
        char ipc[32];
        std::snprintf(ipc, sizeof(ipc), "%.6g", res[i].metrics.ipc());
        os << (i ? ", " : "") << "{\"label\": "
           << str(driver::configLabel(cfgs[i]))
           << ", \"config\": " << bench::BenchRecorder::configJson(cfgs[i])
           << ", \"cycles\": " << res[i].metrics.cycles
           << ", \"instructions\": " << res[i].metrics.instructions
           << ", \"ipc\": " << ipc << ", \"stats\": " << statsJson(res[i])
           << "}";
    }
    os << "]}";
    return os.str();
}

/**
 * Compare a stats report against a committed golden with stats_diff's
 * default bands. The golden's "summary" block holds bench-binary
 * headline metrics this harness does not recompute; every run is
 * compared.
 */
void
checkGolden(Checks &c, const std::string &golden_path,
            report::FlatJson golden, const std::string &report_json)
{
    std::erase_if(golden.numbers, [](const auto &kv) {
        return kv.first.rfind("summary.", 0) == 0;
    });
    const report::DiffResult d =
        report::diffStats(golden, report::flattenJson(report_json));
    std::string why = golden_path + " vs run: " +
        std::to_string(d.compared) + " compared";
    if (!d.ok())
        why += ", " + std::to_string(d.regressions.size()) +
            " regressions, " + std::to_string(d.mismatched_strings.size()) +
            " string mismatches, " +
            std::to_string(d.only_baseline.size() + d.only_candidate.size()) +
            " one-sided" +
            (d.regressions.empty() ? "" : " (first: " +
                 d.regressions[0].path + ")");
    c.expect(d.ok() && d.compared > 0, why);
}

/** Golden cycles of run @p i of a stats report. */
double
goldenCycles(const report::FlatJson &g, size_t i)
{
    auto it = g.numbers.find("runs[" + std::to_string(i) + "].cycles");
    return it == g.numbers.end() ? 0.0 : it->second;
}

report::FlatJson
readFlat(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return in ? report::flattenJson(ss.str()) : report::FlatJson{};
}

// ---------------------------------------------------------------------
// Timed phase
// ---------------------------------------------------------------------

struct Timed
{
    std::vector<double> unit_ms;
    std::vector<double> pass_s; ///< complete passes only
    double busy_s = 0;          ///< sum of unit times
    double work = 0;            ///< units, or trials for crash_btree
    double insns = 0;           ///< simulated instructions
};

/**
 * Cycle over units 0..n-1 until @p seconds have passed, finishing at
 * least one full pass. @p fn runs unit i of pass p and adds to the
 * Timed's work/insns.
 */
Timed
runTimed(size_t n, double seconds,
         const std::function<void(size_t, size_t, Timed &)> &fn)
{
    Timed t;
    const double t0 = now();
    for (size_t pass = 0;; ++pass) {
        const double p0 = now();
        size_t i = 0;
        for (; i < n; ++i) {
            if (pass > 0 && now() - t0 >= seconds)
                break;
            const double u0 = now();
            fn(i, pass, t);
            const double d = now() - u0;
            t.unit_ms.push_back(1e3 * d);
            t.busy_s += d;
        }
        if (i == n)
            t.pass_s.push_back(now() - p0);
        if (i < n || now() - t0 >= seconds)
            break;
    }
    return t;
}

std::string
timedJson(const Timed &t)
{
    return Obj()
        .put("unit_ms", arr(t.unit_ms))
        .put("pass_s", arr(t.pass_s))
        .put("busy_s", t.busy_s)
        .put("work", t.work)
        .put("insns", t.insns)
        .render();
}

std::vector<double>
setupReps(int reps, const std::function<void()> &fn)
{
    std::vector<double> out;
    for (int i = 0; i < reps; ++i) {
        const double t0 = now();
        fn();
        out.push_back(now() - t0);
    }
    return out;
}

/** Traced run: the same work untraced, then traced. */
struct TracedRun
{
    double untraced_s = 0;
    double traced_s = 0;
    std::map<std::string, double> layers; ///< self time per layer
};

TracedRun
tracePhases(SpanLog &log, const std::function<void(SpanLog &)> &work)
{
    TracedRun r;
    SpanLog off(false);
    double t0 = now();
    work(off);
    r.untraced_s = now() - t0;
    t0 = now();
    work(log);
    r.traced_s = now() - t0;
    r.layers = attribute(log, r.traced_s);
    return r;
}

// ---------------------------------------------------------------------
// Layer probes shared by every traced run
// ---------------------------------------------------------------------

/** CountingTraceSink that also sums the bytes of every mapped pool. */
class PoolBytesSink : public CountingTraceSink
{
  public:
    void
    poolMapped(uint32_t, uint64_t, uint64_t size) override
    {
        pool_bytes += size;
    }
    uint64_t pool_bytes = 0;
};

struct PoolProbe
{
    double create_s = 0, open_s = 0, mb = 0;
    std::vector<double> recover_ms;
};

/**
 * poolCreate / poolClose+poolOpen / crashAndRecover at the pool sizes
 * the workloads use (32 KB EACH pools, 8 MB RANDOM and LHT pools,
 * 64 MB ALL pools), once empty and once populated.
 */
void
poolProbes(SpanLog &log, uint64_t unit, PoolProbe &p)
{
    SpanLog::Scope u(log, "unit", unit);
    const uint64_t sizes[] = {32ull << 10, 8ull << 20, 64ull << 20};
    for (const bool populated : {false, true}) {
        for (const uint64_t size : sizes) {
            PmemRuntime rt;
            const std::string name =
                "probe" + std::to_string(size) + (populated ? "p" : "e");
            uint32_t id = 0;
            p.create_s += spanned(log, "pmem.poolCreate", unit, [&] {
                // EACH pools carry an 8 KB log (workloads/harness.cc).
                id = size < (1u << 20) ? rt.poolCreate(name, size, 8 * 1024)
                                       : rt.poolCreate(name, size);
            });
            if (populated)
                spanned(log, "pmem.populate", unit, [&] {
                    const uint64_t objs = std::min<uint64_t>(size / 512, 4096);
                    for (uint64_t i = 0; i < objs; ++i)
                        rt.persist(rt.pmalloc(id, 64), 64);
                });
            p.open_s +=
                spanned(log, "pmem.poolClose", unit,
                        [&] { rt.poolClose(id); }) +
                spanned(log, "pmem.poolOpen", unit, [&] { rt.poolOpen(name); });
            p.mb += static_cast<double>(size) / (1 << 20);
            if (populated)
                p.recover_ms.push_back(
                    1e3 * spanned(log, "pmem.crashAndRecover", unit,
                                  [&] { rt.crashAndRecover(); }));
        }
    }
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Tail: the highest percentile with at least ten samples beyond it. */
double
tail(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    if (v.size() < 11)
        return v.empty() ? 0.0 : v.back();
    return v[v.size() - 11];
}

/** Per-layer metrics, every name present (0 = not on this path). */
struct Layers
{
    std::map<std::string, double> m;

    Layers()
    {
        for (const char *k :
             {"pmem.pool_create_ms_per_mb", "pmem.pool_open_ms_per_mb",
              "pmem.recover_ms", "workloads.native_s",
              "pmem.pool_mb_created", "pmem.translate_calls",
              "pmem.checksum_bytes", "engine.commits", "engine.aborts",
              "engine.lock.waits", "engine.abort_frac",
              "sim.inorder_ns_per_insn", "sim.ooo_ns_per_insn",
              "trace_io.decode_ns_per_insn", "trace_io.encode_ns_per_insn",
              "trace_io.bytes_per_insn", "sim.polb.miss_rate",
              "sim.pot.walks", "fault.trial_ms_p50", "fault.trial_ms_tail",
              "fault.trials", "fault.recovery_trials",
              "fault.crashes_injected", "driver.fanout_efficiency"})
            m[k] = 0.0;
        for (size_t i = 0; i < kCpiComponents; ++i)
            m[std::string("sim.cpi.") +
              cpiComponentName(static_cast<CpiComponent>(i))] = 0.0;
    }

    void
    pools(const PoolProbe &p)
    {
        m["pmem.pool_create_ms_per_mb"] = 1e3 * p.create_s / p.mb;
        m["pmem.pool_open_ms_per_mb"] = 1e3 * p.open_s / p.mb;
        m["pmem.recover_ms"] = median(p.recover_ms);
    }

    /** Simulated counts of timing runs (stats reports). */
    void
    counts(const std::vector<driver::ExperimentResult> &runs)
    {
        CpiStack cpi;
        double insns = 0, polb_acc = 0, polb_miss = 0, attempts = 0;
        for (const auto &r : runs) {
            m["pmem.translate_calls"] += r.stats.get("sw_translate.calls");
            m["pmem.checksum_bytes"] +=
                r.stats.get("pmem.checksum.bytes_summed");
            m["engine.commits"] += r.engine.commits;
            m["engine.aborts"] += r.engine.aborts;
            m["engine.lock.waits"] += r.engine.lock_waits;
            attempts += r.engine.commits + r.engine.aborts;
            m["sim.pot.walks"] += r.stats.get("pot.walks");
            polb_acc += r.stats.get("polb.accesses");
            polb_miss += r.stats.get("polb.misses");
            cpi += r.cpi;
            insns += r.cpi.total() ? r.metrics.instructions : 0;
        }
        m["engine.abort_frac"] =
            attempts ? m["engine.aborts"] / attempts : 0.0;
        m["sim.polb.miss_rate"] = polb_acc ? polb_miss / polb_acc : 0.0;
        for (size_t i = 0; i < kCpiComponents; ++i)
            m[std::string("sim.cpi.") +
              cpiComponentName(static_cast<CpiComponent>(i))] =
                insns ? cpi.cycles[i] / insns : 0.0;
    }

    void
    traced(const TracedRun &t)
    {
        m["trace.untraced_wall_s"] = t.untraced_s;
        m["trace.wall_s"] = t.traced_s;
        m["trace.overhead_s"] = t.traced_s - t.untraced_s;
        for (const auto &[layer, s] : t.layers)
            m["layer." + layer + ".self_s"] = s;
    }

    std::string
    render() const
    {
        Obj o;
        for (const auto &[k, v] : m)
            o.put(k, v);
        return o.render();
    }
};

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

struct Args
{
    std::string workload;
    uint64_t seed = 42;
    double seconds = 10;
    bool trace = false;
    std::string out, spans, work_dir = ".";
};

struct Result
{
    Obj o;
    Checks checks;
    std::vector<double> setup_s;
    Timed timed;
    Layers layers;
};

/** Bench-binary arguments, parsed by the binaries' own parser so that
 *  --quick and --scale mean here what they mean there. */
bench::BenchArgs
benchArgs(std::vector<std::string> flags, uint64_t seed)
{
    flags.insert(flags.begin(), "poat_perfbench");
    flags.push_back("--jobs=1");
    flags.push_back("--seed=" + std::to_string(seed));
    std::vector<char *> argv;
    for (auto &f : flags)
        argv.push_back(f.data());
    return bench::BenchArgs::parse(static_cast<int>(argv.size()),
                                   argv.data());
}

/** The 72 configs of fig9a_speedup_inorder --quick --no-tpcc. */
std::vector<driver::ExperimentConfig>
fig9aConfigs(const bench::BenchArgs &a)
{
    std::vector<driver::ExperimentConfig> cfgs;
    for (const auto &wl : workloads::microbenchNames())
        for (const auto &[pattern, pname] : bench::patterns()) {
            (void)pname;
            cfgs.push_back(bench::microBase(a, wl, pattern));
            cfgs.push_back(bench::asOpt(bench::microBase(a, wl, pattern),
                                        sim::PolbDesign::Pipelined));
            cfgs.push_back(bench::asOpt(bench::microBase(a, wl, pattern),
                                        sim::PolbDesign::Parallel));
            cfgs.push_back(bench::asOpt(bench::microBase(a, wl, pattern),
                                        sim::PolbDesign::Pipelined,
                                        /*ideal=*/true));
        }
    return cfgs;
}

/** The 24 configs of fig_cores --quick, in its submission order. */
std::vector<driver::ExperimentConfig>
coresConfigs(const bench::BenchArgs &a)
{
    std::vector<driver::ExperimentConfig> cfgs;
    for (const char *wl : {"MTPCC", "LHT"})
        for (const uint32_t n : {1u, 2u, 4u, 8u})
            for (const auto mode :
                 {TranslationMode::Software, TranslationMode::Hardware}) {
                driver::ExperimentConfig c;
                c.workload = wl;
                if (c.workload == "MTPCC") {
                    c.placement = workloads::tpcc::Placement::All;
                    c.tpcc_scale_pct = a.tpcc_scale_pct;
                    c.tpcc_txns = a.tpcc_txns;
                } else {
                    c.scale_pct = a.scale_pct;
                }
                c.threads = n;
                c.sched_seed = 7; // fig_cores' fixed interleaving seed
                c.mode = mode;
                c.machine.core = sim::CoreType::InOrder;
                c.seed = a.seed;
                cfgs.push_back(c);
                if (c.workload == "MTPCC") {
                    c.tpcc_txns = 0; // setup-only calibration twin
                    cfgs.push_back(c);
                }
            }
    return cfgs;
}

/**
 * Layer decomposition accumulated over a traced run. A capture probe
 * runs a config live, natively (counting sink) and captured; a replay
 * probe loads the trace, replays it into a counting sink, and replays
 * it into in-order and OoO machines.
 */
struct Decomp
{
    std::vector<driver::ExperimentResult> runs; ///< for the stats counts
    double native_s = 0, encode_s = 0, encode_insns = 0;
    double decode_s = 0, sim_in_s = 0, sim_ooo_s = 0;
    double insns = 0, pool_bytes = 0, trace_bytes = 0;
};

driver::ExperimentResult
captureProbe(SpanLog &log, uint64_t unit, const driver::ExperimentConfig &cfg,
             const std::string &path, Decomp &d)
{
    driver::ExperimentResult live;
    const double live_s = spanned(log, "driver.runExperimentLive", unit, [&] {
        live = driver::detail::runExperimentLive(cfg);
    });
    driver::ExperimentConfig nat = cfg;
    nat.timing = false;
    d.native_s += spanned(log, "driver.runExperimentLive.native", unit,
                          [&] { driver::detail::runExperimentLive(nat); });
    d.encode_s += spanned(log, "driver.runExperimentCaptured", unit, [&] {
        driver::detail::runExperimentCaptured(cfg, path);
    }) - live_s;
    d.encode_insns += static_cast<double>(live.metrics.instructions);
    return live;
}

driver::ExperimentResult
replayProbe(SpanLog &log, uint64_t unit, const driver::ExperimentConfig &cfg,
            const std::string &path, Decomp &d)
{
    std::optional<trace_io::TraceReplayer> rep;
    PoolBytesSink sink;
    const double decode =
        spanned(log, "trace_io.TraceReplayer", unit,
                [&] { rep.emplace(path); }) +
        spanned(log, "trace_io.replayInto.counting", unit,
                [&] { rep->replayInto(sink); });
    d.decode_s += decode;
    d.insns += static_cast<double>(sink.instructions);
    d.pool_bytes += static_cast<double>(sink.pool_bytes);
    d.trace_bytes += static_cast<double>(std::filesystem::file_size(path));
    driver::ExperimentResult r;
    d.sim_in_s += spanned(log, "driver.runExperimentReplayed", unit, [&] {
        r = driver::detail::runExperimentReplayed(cfg, path);
    }) - decode;
    driver::ExperimentConfig ooo = cfg;
    ooo.machine.core = sim::CoreType::OutOfOrder;
    d.sim_ooo_s += spanned(log, "driver.runExperimentReplayed.ooo", unit, [&] {
        driver::detail::runExperimentReplayed(ooo, path);
    }) - decode;
    return r;
}

void
decompLayers(Layers &L, const Decomp &d)
{
    L.m["workloads.native_s"] = d.native_s;
    L.m["pmem.pool_mb_created"] = d.pool_bytes / (1 << 20);
    L.m["sim.inorder_ns_per_insn"] = 1e9 * d.sim_in_s / d.insns;
    L.m["sim.ooo_ns_per_insn"] = 1e9 * d.sim_ooo_s / d.insns;
    L.m["trace_io.decode_ns_per_insn"] = 1e9 * d.decode_s / d.insns;
    L.m["trace_io.encode_ns_per_insn"] = 1e9 * d.encode_s / d.encode_insns;
    L.m["trace_io.bytes_per_insn"] = d.trace_bytes / d.insns;
    L.counts(d.runs);
}

/**
 * Shared body of the two live-sweep workloads (paper_fig9a,
 * mtpcc_cores): set-up, timed phase over the configs at one sweep job,
 * output checks, and the traced decomposition of @p traced_units.
 */
void
liveSweep(const Args &args, Result &R, const char *bench_name,
          const std::vector<driver::ExperimentConfig> &cfgs,
          const bench::BenchArgs &ba, const std::string &golden,
          const std::vector<size_t> &traced_units,
          const std::function<void(Checks &,
                                   const std::vector<driver::ExperimentResult> &)>
              &pair_checks,
          const std::function<double(const std::vector<double> &)>
              &speedup)
{
    // Set-up: load the golden, warm the allocator and caches with the
    // cheapest config.
    report::FlatJson g;
    R.setup_s = setupReps(5, [&] {
        g = readFlat(golden);
        driver::runExperiment(cfgs[0]);
    });

    if (args.trace) {
        SpanLog log(true);
        Decomp d;
        PoolProbe pp;
        const TracedRun t = tracePhases(log, [&](SpanLog &l) {
            d = Decomp{};
            pp = PoolProbe{};
            const std::string path = args.work_dir + "/decomp.itrace";
            for (size_t i : traced_units) {
                SpanLog::Scope u(l, "unit", i);
                d.runs.push_back(captureProbe(l, i, cfgs[i], path, d));
                replayProbe(l, i, cfgs[i], path, d);
                std::filesystem::remove(path);
            }
            poolProbes(l, cfgs.size(), pp);
        });
        R.layers.pools(pp);
        decompLayers(R.layers, d);
        R.layers.traced(t);
        for (size_t k = 0; k < d.runs.size(); ++k)
            checkCpi(R.checks, driver::configLabel(cfgs[traced_units[k]]),
                     d.runs[k]);
        writeSpans(log, args.spans, R.o);
        return;
    }

    std::vector<driver::ExperimentResult> first(cfgs.size());
    R.timed = runTimed(cfgs.size(), args.seconds,
                       [&](size_t i, size_t pass, Timed &t) {
        driver::ExperimentResult r = driver::runExperiment(cfgs[i]);
        t.work += 1;
        t.insns += static_cast<double>(r.metrics.instructions);
        if (pass == 0)
            first[i] = std::move(r);
        else
            R.checks.expect(r.metrics.cycles == first[i].metrics.cycles &&
                                r.workload_checksum ==
                                    first[i].workload_checksum,
                            driver::configLabel(cfgs[i]) +
                                ": repeat run identical");
    });

    for (size_t i = 0; i < cfgs.size(); ++i)
        checkCpi(R.checks, driver::configLabel(cfgs[i]), first[i]);
    pair_checks(R.checks, first);
    std::vector<double> cycles, gcycles;
    for (size_t i = 0; i < cfgs.size(); ++i) {
        cycles.push_back(static_cast<double>(first[i].metrics.cycles));
        gcycles.push_back(goldenCycles(g, i));
    }
    R.o.put("sim_speedup", speedup(cycles));
    if (args.seed == 42) {
        checkGolden(R.checks, golden, g,
                    statsReport(bench_name, ba, cfgs, first));
        const double gs = speedup(gcycles);
        R.o.put("sim_speedup_golden", gs);
        R.checks.expect(gs == speedup(cycles),
                        "sim_speedup equals the golden's");
    }
}

double
geomeanRatio(const std::vector<std::pair<size_t, size_t>> &pairs,
             const std::vector<double> &cycles)
{
    std::vector<double> r;
    for (const auto &[b, o] : pairs)
        r.push_back(cycles[o] > 0 ? cycles[b] / cycles[o] : 0.0);
    return driver::geomean(r);
}

void
paperFig9a(const Args &args, Result &R)
{
    const bench::BenchArgs ba = benchArgs({"--quick", "--no-tpcc"}, args.seed);
    const auto cfgs = fig9aConfigs(ba);
    // Cell c holds BASE, Pipelined, Parallel, Ideal at 4c..4c+3; the
    // RANDOM cell of micro w is c = 3w + 2.
    std::vector<std::pair<size_t, size_t>> random_pipe;
    std::vector<size_t> traced;
    for (size_t w = 0; w < workloads::microbenchNames().size(); ++w) {
        const size_t base = 4 * (3 * w + 2);
        random_pipe.push_back({base, base + 1});
        traced.push_back(base);
        traced.push_back(base + 1);
    }
    R.o.put("configs", static_cast<double>(cfgs.size()));
    R.o.putStr("speedup_label",
               "in-order RANDOM Pipelined geomean, --quick scale (20%)");
    R.o.put("speedup_ref", 1.96);
    liveSweep(
        args, R, "fig9a_speedup_inorder", cfgs, ba,
        "bench/golden/fig9a_quick.json", traced,
        [&](Checks &c, const std::vector<driver::ExperimentResult> &res) {
            for (size_t b = 0; b < res.size(); b += 4)
                for (size_t v = 1; v < 4; ++v)
                    c.expect(res[b].workload_checksum ==
                                 res[b + v].workload_checksum,
                             driver::configLabel(cfgs[b + v]) +
                                 ": BASE/OPT checksums agree");
        },
        [&](const std::vector<double> &cyc) {
            return geomeanRatio(random_pipe, cyc);
        });
}

void
mtpccCores(const Args &args, Result &R)
{
    const bench::BenchArgs ba = benchArgs({"--quick"}, args.seed);
    const auto cfgs = coresConfigs(ba);
    // BASE/OPT pairs of the measured (non-calibration) runs, and the
    // calibration twins.
    std::vector<std::pair<size_t, size_t>> pairs, calib;
    size_t i = 0;
    for (const char *wl : {"MTPCC", "LHT"})
        for (int n = 0; n < 4; ++n) {
            if (std::string(wl) == "MTPCC") {
                pairs.push_back({i, i + 2});
                calib.push_back({i + 1, i + 3});
                i += 4;
            } else {
                pairs.push_back({i, i + 1});
                i += 2;
            }
        }
    // Traced subset: both workloads at 2 and 8 cores, BASE and OPT.
    const std::vector<size_t> traced = {4, 6, 12, 14, 18, 19, 22, 23};
    R.o.put("configs", static_cast<double>(cfgs.size()));
    R.o.putStr("speedup_label",
               "BASE/OPT makespan geomean, MTPCC+LHT 1-8 cores, "
               "--quick scale");
    liveSweep(
        args, R, "fig_cores", cfgs, ba,
        "bench/golden/fig_cores_quick.json", traced,
        [&](Checks &c, const std::vector<driver::ExperimentResult> &res) {
            for (const auto *ps : {&pairs, &calib})
                for (const auto &[b, o] : *ps)
                    c.expect(res[b].workload_checksum ==
                                 res[o].workload_checksum,
                             driver::configLabel(cfgs[o]) +
                                 ": BASE/OPT checksums agree");
        },
        [&](const std::vector<double> &cyc) {
            return geomeanRatio(pairs, cyc);
        });
}

/** Full-scale RANDOM capture of each micro, BASE and OPT. */
struct Capture
{
    driver::ExperimentConfig cfg;
    std::string path;
    std::string stats;
    uint64_t checksum = 0;
};

void
replayPolb(const Args &args, Result &R, uint32_t scale_pct)
{
    const bench::BenchArgs ba =
        benchArgs({"--scale=" + std::to_string(scale_pct)}, args.seed);
    std::vector<Capture> caps;
    R.setup_s = setupReps(3, [&] {
        caps.clear();
        for (const auto &wl : workloads::microbenchNames()) {
            const auto base =
                bench::microBase(ba, wl, workloads::PoolPattern::Random);
            for (const auto &cfg : {base, bench::asOpt(base)}) {
                Capture c{cfg, args.work_dir + "/" +
                                   driver::configLabel(cfg) + ".itrace",
                          "", 0};
                const auto r =
                    driver::detail::runExperimentCaptured(cfg, c.path);
                c.stats = statsJson(r);
                c.checksum = r.workload_checksum;
                caps.push_back(std::move(c));
            }
        }
    });
    for (size_t i = 0; i < caps.size(); i += 2)
        R.checks.expect(caps[i].checksum == caps[i + 1].checksum,
                        driver::configLabel(caps[i + 1].cfg) +
                            ": BASE/OPT checksums agree");

    // Units: BASE once per core; OPT per core x design x POLB size.
    struct Unit
    {
        size_t cap;
        driver::ExperimentConfig cfg;
    };
    std::vector<Unit> units;
    std::vector<std::pair<size_t, size_t>> ooo32; // BASE, OPT unit index
    for (size_t c = 0; c < caps.size(); c += 2) {
        size_t base_ooo = 0;
        for (const auto core :
             {sim::CoreType::InOrder, sim::CoreType::OutOfOrder}) {
            driver::ExperimentConfig b = caps[c].cfg;
            b.machine.core = core;
            if (core == sim::CoreType::OutOfOrder)
                base_ooo = units.size();
            units.push_back({c, b});
            for (const auto design :
                 {sim::PolbDesign::Pipelined, sim::PolbDesign::Parallel})
                for (const uint32_t entries : {8u, 32u, 128u}) {
                    driver::ExperimentConfig o = caps[c + 1].cfg;
                    o.machine.core = core;
                    o.machine.polb_design = design;
                    o.machine.polb_entries = entries;
                    if (core == sim::CoreType::OutOfOrder &&
                        design == sim::PolbDesign::Pipelined &&
                        entries == 32)
                        ooo32.push_back({base_ooo, units.size()});
                    units.push_back({c + 1, o});
                }
        }
    }
    R.o.put("configs", static_cast<double>(units.size()));
    R.o.put("scale_pct", scale_pct);
    R.o.putStr("speedup_label",
               "OoO RANDOM Pipelined 32-entry geomean, " +
                   std::to_string(scale_pct) + "% scale");
    R.o.put("speedup_ref", 1.58);

    auto isCapture = [&](const Unit &u) {
        const auto &m = u.cfg.machine;
        const auto &cm = caps[u.cap].cfg.machine;
        return m.core == cm.core && m.polb_design == cm.polb_design &&
            m.polb_entries == cm.polb_entries;
    };

    if (args.trace) {
        SpanLog log(true);
        Decomp d;
        PoolProbe pp;
        const TracedRun t = tracePhases(log, [&](SpanLog &l) {
            d = Decomp{};
            pp = PoolProbe{};
            for (size_t c = 0; c < caps.size(); ++c) {
                SpanLog::Scope u(l, "unit", c);
                d.runs.push_back(
                    replayProbe(l, c, caps[c].cfg, caps[c].path, d));
                if (c < 2) {
                    // Encode cost of the first micro's BASE and OPT.
                    const std::string p = args.work_dir + "/encode.itrace";
                    captureProbe(l, c, caps[c].cfg, p, d);
                    std::filesystem::remove(p);
                }
            }
            poolProbes(l, caps.size(), pp);
        });
        R.layers.pools(pp);
        decompLayers(R.layers, d);
        R.layers.traced(t);
        writeSpans(log, args.spans, R.o);
    } else {
        std::vector<double> cycles(units.size(), 0.0);
        R.timed = runTimed(units.size(), args.seconds,
                           [&](size_t i, size_t pass, Timed &t) {
            const Unit &u = units[i];
            const auto r =
                driver::detail::runExperimentReplayed(u.cfg, caps[u.cap].path);
            t.work += 1;
            t.insns += static_cast<double>(r.metrics.instructions);
            const std::string label = driver::configLabel(u.cfg);
            if (pass > 0) {
                R.checks.expect(cycles[i] ==
                                    static_cast<double>(r.metrics.cycles),
                                label + ": repeat replay identical");
                return;
            }
            cycles[i] = static_cast<double>(r.metrics.cycles);
            checkCpi(R.checks, label, r);
            R.checks.expect(r.workload_checksum == caps[u.cap].checksum,
                            label + ": replay checksum equals capture's");
            if (isCapture(u))
                R.checks.expect(statsJson(r) == caps[u.cap].stats,
                                label + ": replay reproduces the capture "
                                        "run's stats byte for byte");
        });
        std::vector<double> r;
        for (const auto &[b, o] : ooo32)
            r.push_back(cycles[b] / cycles[o]);
        R.o.put("sim_speedup", driver::geomean(r));
    }
    for (const Capture &c : caps)
        std::filesystem::remove(c.path);
}

/** Seeded reproducers for the traced run's per-trial spans. */
std::vector<std::string>
reproList(uint64_t seed, const std::map<std::string, uint64_t> &events)
{
    std::vector<std::string> out;
    Rng rng(seed ^ 0x5eedf00dull);
    for (int i = 0; i < 48; ++i) {
        fault::Failure f;
        f.workload = i % 2 ? "LL" : "B+T";
        f.steps = 50;
        f.seed = seed;
        f.k = rng.below(events.at(f.workload));
        if (i % 4 >= 2)
            f.stack = {rng.below(4)};
        out.push_back(f.repro());
    }
    return out;
}

void
crashBtree(const Args &args, Result &R)
{
    const unsigned threads = std::min(
        4u, std::max(1u, static_cast<unsigned>(sysconf(_SC_NPROCESSORS_ONLN))));
    auto batch = [&](const std::string &wl, uint64_t seed, unsigned jobs) {
        fault::ExploreOptions o;
        o.workload = wl;
        o.steps = 50;
        o.seed = seed;
        o.sample = 2 * threads;
        o.depth = 2;
        o.inner_cap = 4; // bounds a point's trials at 1 + 4 + 16
        o.jobs = jobs;
        return o;
    };
    R.o.put("threads", threads);
    R.o.put("steps", 50);
    R.o.put("sample_per_batch", 2.0 * threads);
    R.o.put("depth", 2);
    R.o.put("inner_cap", 4);

    // Set-up: profile passes that size the crash-point space of the
    // traced run's reproducers, then one warm-up batch per workload.
    std::map<std::string, uint64_t> events;
    R.setup_s = setupReps(5, [&] {
        for (const char *wl : {"B+T", "LL"}) {
            fault::ExploreOptions o = batch(wl, args.seed, 1);
            o.sample = 1;
            o.in_recovery = false;
            events[wl] = fault::explore(o).total_events;
            fault::explore(batch(wl, args.seed, threads));
        }
    });
    for (const auto &[wl, n] : events)
        R.checks.expect(n > 0, wl + ": profile pass saw durability events");

    if (args.trace) {
        SpanLog log(true);
        PoolProbe pp;
        std::vector<double> trial_ms;
        double t1 = 0, tn = 0;
        fault::ExploreReport rep;
        const auto repros = reproList(args.seed, events);
        const TracedRun t = tracePhases(log, [&](SpanLog &l) {
            trial_ms.clear();
            for (size_t i = 0; i < repros.size(); ++i) {
                SpanLog::Scope u(l, "unit", i);
                std::vector<fault::Failure> f;
                trial_ms.push_back(1e3 * spanned(l, "fault.replayRepro", i, [&] {
                    f = fault::replayRepro(repros[i]);
                }));
                R.checks.expect(f.empty(), repros[i] + ": trial passes");
            }
            const uint64_t id = repros.size();
            SpanLog::Scope u(l, "unit", id);
            t1 = spanned(l, "fault.explore.jobs1", id, [&] {
                rep = fault::explore(batch("B+T", args.seed, 1));
            });
            tn = spanned(l, "fault.explore.jobsN", id, [&] {
                rep = fault::explore(batch("B+T", args.seed, threads));
            });
            R.checks.expect(rep.ok(), "explorer reports zero failures");
            poolProbes(l, id + 1, pp);
        });
        R.layers.pools(pp);
        R.layers.m["fault.trial_ms_p50"] = median(trial_ms);
        R.layers.m["fault.trial_ms_tail"] = tail(trial_ms);
        R.layers.m["fault.trials"] = static_cast<double>(rep.trials);
        R.layers.m["fault.recovery_trials"] =
            static_cast<double>(rep.recovery_trials);
        R.layers.m["fault.crashes_injected"] =
            static_cast<double>(rep.crashes_injected);
        R.layers.m["driver.fanout_efficiency"] = t1 / (threads * tn);
        R.layers.traced(t);
        writeSpans(log, args.spans, R.o);
        return;
    }

    // Timed: a unit explores B+T then LL, each with its own seed, both
    // fanned out over `threads` workers; a pass is kUnits units.
    constexpr size_t kUnits = 4;
    R.o.put("units_per_pass", kUnits);
    R.timed = runTimed(kUnits, args.seconds,
                       [&](size_t i, size_t pass, Timed &t) {
        const uint64_t g = pass * kUnits + i;
        for (const char *wl : {"B+T", "LL"}) {
            const fault::ExploreReport rep = fault::explore(
                batch(wl, args.seed * 1000003 + g, threads));
            t.work += static_cast<double>(rep.trials + rep.recovery_trials);
            R.checks.expect(rep.ok() && rep.trials == 2 * threads,
                            std::string(wl) + " batch " + std::to_string(g) +
                                ": explorer reports zero failures");
        }
    });
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (i + 1 >= argc)
            throw std::invalid_argument("missing value for " + k);
        const std::string v = argv[++i];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::stoull(v);
        else if (k == "--seconds")
            a.seconds = std::stod(v);
        else if (k == "--trace")
            a.trace = v == "1";
        else if (k == "--out")
            a.out = v;
        else if (k == "--spans")
            a.spans = v;
        else if (k == "--work-dir")
            a.work_dir = v;
        else
            throw std::invalid_argument("unknown argument " + k);
    }
    if (a.out.empty())
        throw std::invalid_argument("--out is required");
    return a;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const Args args = parseArgs(argc, argv);
        Result R;
        if (args.workload == "paper_fig9a")
            paperFig9a(args, R);
        else if (args.workload == "replay_polb")
            replayPolb(args, R, 100);
        else if (args.workload == "crash_btree")
            crashBtree(args, R);
        else if (args.workload == "mtpcc_cores")
            mtpccCores(args, R);
        else
            throw std::invalid_argument("unknown workload " + args.workload);

        rusage ru{};
        getrusage(RUSAGE_SELF, &ru);
        R.o.put("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0);
        R.o.put("setup_s", arr(R.setup_s));
        R.o.put("timed", timedJson(R.timed));
        R.o.put("checks", R.checks.render());
        if (args.trace)
            R.o.put("layers", R.layers.render());
        R.o.put("manifest",
                Obj()
                    .putStr("build_type", POAT_BENCH_BUILD_TYPE)
                    .putStr("compiler", POAT_BENCH_COMPILER)
                    .putStr("cxx_flags", POAT_BENCH_CXX_FLAGS)
                    .put("nproc", static_cast<double>(
                                      sysconf(_SC_NPROCESSORS_ONLN)))
                    .render());
        std::ofstream os(args.out);
        os << R.o.render() << "\n";
        if (!os)
            throw std::runtime_error("cannot write " + args.out);
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "poat_perfbench: %s\n", e.what());
        return 2;
    }
}
