/**
 * @file
 * The poat-itrace event format as data: one Event record per TraceSink
 * call and one per-kind table (kKinds) giving each kind's name, operand
 * count and labels, which operands are dep tags, and whether it yields a
 * value tag. The recorder, replayer, trace_dump and the tests are loops
 * over this table; the only code that names the 26 TraceSink methods is
 * EventSink (call -> Event) and deliver() (Event -> call).
 *
 * Adding a kind: add the TraceSink virtual, an EventKind, its kKinds
 * row, and one line each in EventSink and deliver(). Operands travel in
 * the virtual's argument order; the record stores each as a varint.
 */
#ifndef POAT_TRACE_IO_EVENT_H
#define POAT_TRACE_IO_EVENT_H

#include <cstdint>

#include "pmem/trace.h"

namespace poat {
namespace trace_io {

/** Record kinds, one per TraceSink event; the value is the kind byte. */
enum class EventKind : uint8_t
{
    Alu = 1,
    Branch,
    Load,
    Store,
    NvLoad,
    NvStore,
    Clwb,
    NvClwb,
    Fence,
    PoolMapped,
    PoolUnmapped,
    SwTranslateBegin,
    SwTranslateEnd,
    TxBegin,
    TxCommit,
    TxAbort,
    OpName,
    CoreSwitch,
    LockWait,
    LockAcquired,
    LockReleased,
    LockDeadlock,
    OpSet,
    WorkerDone,
    CommitJoin,
    CommitBatch,
};

inline constexpr uint8_t kMinEventKind = 1;
inline constexpr uint8_t kMaxEventKind = 26;

/** One TraceSink call. */
struct Event
{
    EventKind kind;
    uint64_t operands[4]; ///< argument order; ObjectIDs raw, bools 0/1
    const char *name;     ///< OpName's name (null for every other kind)
};

/** Wire shape of one record kind. */
struct KindInfo
{
    EventKind kind;
    const char *name;      ///< the TraceSink method
    uint8_t operands;      ///< varint operands following the kind byte
    const char *labels[4]; ///< operand names, as trace_dump prints them
    uint8_t deps = 0;      ///< bit i set: operand i is a dep tag
    bool tag = false;      ///< returns a value tag (next load sequence)
    bool named = false;    ///< then a varint length and the raw name bytes
};

inline constexpr KindInfo kKinds[kMaxEventKind + 1] = {
    {EventKind{0}, "?", 0, {}},
    {EventKind::Alu, "alu", 2, {"count", "dep"}, 0b10},
    {EventKind::Branch, "branch", 3, {"taken", "pc", "dep"}, 0b100},
    {EventKind::Load, "load", 3, {"vaddr", "dep", "dep2"}, 0b110, true},
    {EventKind::Store, "store", 2, {"vaddr", "dep"}, 0b10},
    {EventKind::NvLoad, "nvLoad", 3, {"oid", "dep", "dep2"}, 0b110, true},
    {EventKind::NvStore, "nvStore", 2, {"oid", "dep"}, 0b10},
    {EventKind::Clwb, "clwb", 1, {"vaddr"}},
    {EventKind::NvClwb, "nvClwb", 1, {"oid"}},
    {EventKind::Fence, "fence", 0, {}},
    {EventKind::PoolMapped, "poolMapped", 3, {"pool", "vbase", "size"}},
    {EventKind::PoolUnmapped, "poolUnmapped", 1, {"pool"}},
    {EventKind::SwTranslateBegin, "swTranslateBegin", 0, {}},
    {EventKind::SwTranslateEnd, "swTranslateEnd", 0, {}},
    {EventKind::TxBegin, "txBegin", 2, {"pool", "op"}},
    {EventKind::TxCommit, "txCommit", 1, {"pool"}},
    {EventKind::TxAbort, "txAbort", 1, {"pool"}},
    {EventKind::OpName, "opName", 1, {"op"}, 0, false, true},
    {EventKind::CoreSwitch, "coreSwitch", 1, {"core"}},
    {EventKind::LockWait, "lockWait", 4, {"worker", "key", "mode", "edges"}},
    {EventKind::LockAcquired, "lockAcquired", 3, {"worker", "key", "mode"}},
    {EventKind::LockReleased, "lockReleased", 2, {"worker", "key"}},
    {EventKind::LockDeadlock, "lockDeadlock", 2, {"worker", "key"}},
    {EventKind::OpSet, "opSet", 1, {"op"}},
    {EventKind::WorkerDone, "workerDone", 1, {"worker"}},
    {EventKind::CommitJoin, "commitJoin", 1, {"worker"}},
    {EventKind::CommitBatch, "commitBatch", 2, {"members", "elided"}},
};

constexpr bool
kindsInOrder()
{
    for (uint8_t k = 0; k <= kMaxEventKind; ++k)
        if (static_cast<uint8_t>(kKinds[k].kind) != k)
            return false;
    return true;
}
static_assert(kindsInOrder(), "kKinds rows must follow EventKind order");

inline const KindInfo &
kindInfo(EventKind kind)
{
    return kKinds[static_cast<uint8_t>(kind)];
}

/**
 * TraceSink that turns every call into one Event handed to event(),
 * whose return value is the call's value tag (load-like kinds only).
 */
class EventSink : public TraceSink
{
  public:
    virtual uint64_t event(const Event &e) = 0;

    void alu(uint32_t count, uint64_t dep) override
    {
        emit(EventKind::Alu, count, dep);
    }
    void branch(bool taken, uint64_t pc, uint64_t dep) override
    {
        emit(EventKind::Branch, taken ? 1 : 0, pc, dep);
    }
    uint64_t load(uint64_t vaddr, uint64_t dep, uint64_t dep2) override
    {
        return emit(EventKind::Load, vaddr, dep, dep2);
    }
    void store(uint64_t vaddr, uint64_t dep) override
    {
        emit(EventKind::Store, vaddr, dep);
    }
    uint64_t nvLoad(ObjectID oid, uint64_t dep, uint64_t dep2) override
    {
        return emit(EventKind::NvLoad, oid.raw, dep, dep2);
    }
    void nvStore(ObjectID oid, uint64_t dep) override
    {
        emit(EventKind::NvStore, oid.raw, dep);
    }
    void clwb(uint64_t vaddr) override { emit(EventKind::Clwb, vaddr); }
    void nvClwb(ObjectID oid) override { emit(EventKind::NvClwb, oid.raw); }
    void fence() override { emit(EventKind::Fence); }
    void poolMapped(uint32_t pool, uint64_t vbase, uint64_t size) override
    {
        emit(EventKind::PoolMapped, pool, vbase, size);
    }
    void poolUnmapped(uint32_t pool) override
    {
        emit(EventKind::PoolUnmapped, pool);
    }
    void swTranslateBegin() override { emit(EventKind::SwTranslateBegin); }
    void swTranslateEnd() override { emit(EventKind::SwTranslateEnd); }
    void txBegin(uint32_t pool, uint32_t op) override
    {
        emit(EventKind::TxBegin, pool, op);
    }
    void txCommit(uint32_t pool) override { emit(EventKind::TxCommit, pool); }
    void txAbort(uint32_t pool) override { emit(EventKind::TxAbort, pool); }
    void opName(uint32_t op, const char *name) override
    {
        event(Event{EventKind::OpName, {op, 0, 0, 0}, name});
    }
    void coreSwitch(uint32_t core) override
    {
        emit(EventKind::CoreSwitch, core);
    }
    void opSet(uint32_t op) override { emit(EventKind::OpSet, op); }
    void lockWait(uint32_t worker, uint64_t key, uint8_t mode,
                  uint32_t edges) override
    {
        emit(EventKind::LockWait, worker, key, mode, edges);
    }
    void lockAcquired(uint32_t worker, uint64_t key, uint8_t mode) override
    {
        emit(EventKind::LockAcquired, worker, key, mode);
    }
    void lockReleased(uint32_t worker, uint64_t key) override
    {
        emit(EventKind::LockReleased, worker, key);
    }
    void lockDeadlock(uint32_t worker, uint64_t key) override
    {
        emit(EventKind::LockDeadlock, worker, key);
    }
    void workerDone(uint32_t worker) override
    {
        emit(EventKind::WorkerDone, worker);
    }
    void commitJoin(uint32_t worker) override
    {
        emit(EventKind::CommitJoin, worker);
    }
    void commitBatch(uint32_t members, uint32_t elided) override
    {
        emit(EventKind::CommitBatch, members, elided);
    }

  private:
    uint64_t
    emit(EventKind kind, uint64_t a = 0, uint64_t b = 0, uint64_t c = 0,
         uint64_t d = 0)
    {
        return event(Event{kind, {a, b, c, d}, nullptr});
    }
};

/**
 * Make the TraceSink call @p e records. @return the call's value tag
 * (0 for kinds without one). Operands are passed through as stored, so
 * dep operands must already be tags @p sink handed out.
 */
inline uint64_t
deliver(TraceSink &sink, const Event &e)
{
    const uint64_t *o = e.operands;
    const auto u32 = [](uint64_t v) { return static_cast<uint32_t>(v); };
    switch (e.kind) {
      case EventKind::Alu: sink.alu(u32(o[0]), o[1]); break;
      case EventKind::Branch: sink.branch(o[0] != 0, o[1], o[2]); break;
      case EventKind::Load: return sink.load(o[0], o[1], o[2]);
      case EventKind::Store: sink.store(o[0], o[1]); break;
      case EventKind::NvLoad: return sink.nvLoad(ObjectID(o[0]), o[1], o[2]);
      case EventKind::NvStore: sink.nvStore(ObjectID(o[0]), o[1]); break;
      case EventKind::Clwb: sink.clwb(o[0]); break;
      case EventKind::NvClwb: sink.nvClwb(ObjectID(o[0])); break;
      case EventKind::Fence: sink.fence(); break;
      case EventKind::PoolMapped:
        sink.poolMapped(u32(o[0]), o[1], o[2]);
        break;
      case EventKind::PoolUnmapped: sink.poolUnmapped(u32(o[0])); break;
      case EventKind::SwTranslateBegin: sink.swTranslateBegin(); break;
      case EventKind::SwTranslateEnd: sink.swTranslateEnd(); break;
      case EventKind::TxBegin: sink.txBegin(u32(o[0]), u32(o[1])); break;
      case EventKind::TxCommit: sink.txCommit(u32(o[0])); break;
      case EventKind::TxAbort: sink.txAbort(u32(o[0])); break;
      case EventKind::OpName: sink.opName(u32(o[0]), e.name); break;
      case EventKind::CoreSwitch: sink.coreSwitch(u32(o[0])); break;
      case EventKind::LockWait:
        sink.lockWait(u32(o[0]), o[1], static_cast<uint8_t>(o[2]),
                      u32(o[3]));
        break;
      case EventKind::LockAcquired:
        sink.lockAcquired(u32(o[0]), o[1], static_cast<uint8_t>(o[2]));
        break;
      case EventKind::LockReleased: sink.lockReleased(u32(o[0]), o[1]); break;
      case EventKind::LockDeadlock: sink.lockDeadlock(u32(o[0]), o[1]); break;
      case EventKind::OpSet: sink.opSet(u32(o[0])); break;
      case EventKind::WorkerDone: sink.workerDone(u32(o[0])); break;
      case EventKind::CommitJoin: sink.commitJoin(u32(o[0])); break;
      case EventKind::CommitBatch:
        sink.commitBatch(u32(o[0]), u32(o[1]));
        break;
    }
    return 0;
}

} // namespace trace_io
} // namespace poat

#endif // POAT_TRACE_IO_EVENT_H
