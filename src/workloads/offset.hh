/**
 * @file
 * OffsetWorkload: a per-core copy of a workload in a private slice of
 * the simulated address space.
 *
 * A multicore machine runs one workload instance per core.  Each
 * core's caches are private, but the memory-side structures (filter,
 * in-flight maps) key on (core, line), so cores could legally touch
 * the same addresses -- they would simply also share DRAM rows and
 * bus slots in ways a multiprogrammed mix does not.  To model the
 * paper's multiprogrammed setting, OffsetWorkload shifts every
 * reference of the wrapped workload by core * sim::coreAddrStride
 * (2^40) bytes: far above
 * any synthetic footprint (they live below 2^42... in fact below
 * 2^36) and far below the core-tag bits at bit 56 and the table
 * address ranges at 2^38, keeping every simulated address disjoint
 * per core.  Core 0 conventionally uses offset 0 so its stream is
 * bit-identical to the single-core run of the same workload and seed.
 */

#ifndef WORKLOADS_OFFSET_HH
#define WORKLOADS_OFFSET_HH

#include <memory>
#include <utility>

#include "workloads/workload.hh"

namespace workloads {

/** A workload translated into core @p core's address slice. */
class OffsetWorkload : public Workload
{
  public:
    OffsetWorkload(std::unique_ptr<Workload> inner, unsigned core)
        : inner_(std::move(inner)),
          offset_(sim::Addr(core) * sim::coreAddrStride)
    {
    }

    bool
    next(cpu::TraceRecord &rec) override
    {
        if (!inner_->next(rec))
            return false;
        // Reference-free compute records carry invalidAddr; shifting
        // it would turn them into (enormous) real references.
        if (rec.addr != sim::invalidAddr)
            rec.addr += offset_;
        return true;
    }

    std::string name() const override { return inner_->name(); }
    std::string source() const override { return inner_->source(); }
    void reset() override { inner_->reset(); }

    std::size_t
    footprintBytes() override
    {
        return inner_->footprintBytes();
    }

    std::size_t traceLength() override { return inner_->traceLength(); }

  private:
    std::unique_ptr<Workload> inner_;
    sim::Addr offset_;
};

} // namespace workloads

#endif // WORKLOADS_OFFSET_HH
