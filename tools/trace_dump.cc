/**
 * @file
 * Inspect a captured poat-itrace instruction trace.
 *
 *   trace_dump [--head=N] FILE.itrace
 *
 * Prints the header (format version, functional fingerprint, event
 * count, sidecar profile size), a per-event-kind record census, and —
 * with --head=N — the first N records in a readable one-per-line form.
 * Dep operands print as canonical load sequence numbers, exactly as
 * they are stored in the file (0 = no dependence).
 */
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "trace_io/itrace.h"

using namespace poat;

namespace {

/**
 * Counts records per kind and prints the first @p head of them, one
 * labelled operand per table column. Returns sequential tags from
 * load-like events so the deps the replayer feeds back in are the
 * file's own canonical sequence numbers — what prints is what is stored.
 */
class DumpSink : public trace_io::EventSink
{
  public:
    explicit DumpSink(uint64_t head) : head_(head) {}

    uint64_t counts[trace_io::kMaxEventKind + 1] = {};

    uint64_t
    event(const trace_io::Event &e) override
    {
        const trace_io::KindInfo &k = trace_io::kindInfo(e.kind);
        ++counts[static_cast<uint8_t>(e.kind)];
        const uint64_t seq = k.tag ? ++loads_ : 0;
        if (++seen_ > head_)
            return seq;
        std::printf("  %8" PRIu64 "  %-12s", seen_, k.name);
        for (unsigned i = 0; i < k.operands; ++i)
            std::printf(" %s=%" PRIu64, k.labels[i], e.operands[i]);
        if (k.named)
            std::printf(" name=%s", e.name);
        if (k.tag)
            std::printf(" -> seq=%" PRIu64, seq);
        std::printf("\n");
        return seq;
    }

  private:
    uint64_t head_;
    uint64_t seen_ = 0;
    uint64_t loads_ = 0;
};

void
usage()
{
    std::fprintf(stderr,
                 "usage: trace_dump [--head=N] FILE.itrace\n"
                 "  --head=N  also print the first N records\n");
}

} // namespace

int
main(int argc, char **argv)
{
    uint64_t head = 0;
    std::string file;
    for (int i = 1; i < argc; ++i) {
        const std::string s = argv[i];
        if (s.rfind("--head=", 0) == 0) {
            head = std::strtoull(s.c_str() + 7, nullptr, 10);
        } else if (s == "--help") {
            usage();
            return 0;
        } else if (!s.empty() && s[0] == '-') {
            std::fprintf(stderr, "unknown argument: %s\n", s.c_str());
            usage();
            return 2;
        } else if (file.empty()) {
            file = s;
        } else {
            usage();
            return 2;
        }
    }
    if (file.empty()) {
        usage();
        return 2;
    }

    try {
        const trace_io::TraceReplayer trace(file);
        std::printf("file:         %s\n", file.c_str());
        std::printf("format:       poat-itrace v%" PRIu32 "\n",
                    trace_io::kFormatVersion);
        std::printf("fingerprint:  %s\n", trace.fingerprint().c_str());
        std::printf("events:       %" PRIu64 "\n", trace.eventCount());
        std::printf("profile:      %zu bytes\n", trace.profile().size());

        DumpSink sink(head);
        if (head)
            std::printf("\nfirst %" PRIu64 " records:\n", head);
        trace.replayInto(sink);

        std::printf("\nrecords by kind:\n");
        for (uint8_t k = trace_io::kMinEventKind;
             k <= trace_io::kMaxEventKind; ++k)
            if (sink.counts[k])
                std::printf("  %-12s %12" PRIu64 "\n",
                            trace_io::kKinds[k].name, sink.counts[k]);
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "trace_dump: %s\n", e.what());
        return 1;
    }
}
