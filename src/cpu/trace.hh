/**
 * @file
 * The dynamic instruction-trace interface between workloads and the
 * main-processor model.
 *
 * A workload produces TraceRecords: each record represents a short run
 * of computation optionally followed by one memory reference.  The
 * dependsOnPrev flag marks pointer-chasing references whose address is
 * produced by the previous load; the processor model serializes those,
 * which is what puts dependent L2 misses into the paper's critical
 * [200, 280)-cycle inter-miss bin (Figure 6).
 */

#ifndef CPU_TRACE_HH
#define CPU_TRACE_HH

#include <cstdint>

#include "sim/types.hh"

namespace cpu {

/**
 * One unit of dynamic work from a workload.  The address comes first
 * so the record packs into 16 bytes with no interior padding: a
 * generated trace holds millions of them.
 */
struct TraceRecord
{
    /** Referenced address, or sim::invalidAddr for compute-only. */
    sim::Addr addr = sim::invalidAddr;
    /** ALU/branch work preceding the reference, in ops. */
    std::uint32_t computeOps = 0;
    /** True for a store, false for a load. */
    bool isWrite = false;
    /** The address was produced by the previous load (pointer chase). */
    bool dependsOnPrev = false;

    bool hasRef() const { return addr != sim::invalidAddr; }
};

static_assert(sizeof(TraceRecord) == 16,
              "TraceRecord must stay 16 bytes: generated traces hold "
              "millions of records in memory");

/** Source of a dynamic trace, implemented by every workload. */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /**
     * Produce the next record.
     * @return false when the workload has finished.
     */
    virtual bool next(TraceRecord &rec) = 0;
};

} // namespace cpu

#endif // CPU_TRACE_HH
