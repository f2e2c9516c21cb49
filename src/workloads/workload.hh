/**
 * @file
 * Workload infrastructure: the nine applications of Table 2.
 *
 * The paper drives its simulator with SPEC/NAS/Olden binaries; this
 * repository substitutes kernels that reproduce the same dynamic
 * memory-reference behaviour from the same algorithmic sources (CRS
 * sparse algebra, FFT transposes, network-simplex pointer chasing,
 * spanning-tree hash walks, dictionary lookups, Barnes-Hut octrees).
 * What matters for correlation prefetching is the *shape* of the L2
 * miss stream -- which patterns repeat, which references depend on the
 * previous load, how much compute separates misses -- and each kernel
 * is built to preserve that shape (see DESIGN.md, substitutions).
 *
 * Each workload deterministically generates its full dynamic trace
 * from a seed, so every prefetching configuration replays an identical
 * reference stream.
 */

#ifndef WORKLOADS_WORKLOAD_HH
#define WORKLOADS_WORKLOAD_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cpu/trace.hh"
#include "sim/mapped_alloc.hh"
#include "sim/random.hh"
#include "sim/types.hh"

namespace workloads {

/** Size/length multiplier for a workload instance. */
struct WorkloadParams
{
    std::uint64_t seed = 0xA11CE;
    /** 1.0 = evaluation size; tests use smaller scales. */
    double scale = 1.0;
};

/**
 * A generated trace in memory: records in order, stored in chunks of
 * traceChunkRecords (1 MiB each).  Every chunk but the last is full.
 */
inline constexpr std::size_t traceChunkRecords = std::size_t{1} << 16;
using TraceChunk = std::vector<
    cpu::TraceRecord,
    sim::RecyclingAllocator<cpu::TraceRecord, traceChunkRecords>>;
using TraceChunks = std::vector<TraceChunk>;

/**
 * Accumulates the dynamic trace of a kernel.  Records are appended
 * into fixed-size chunks, each reserved once and written once, so a
 * growing trace is never copied and never over-allocates by more than
 * one chunk (a doubling vector would copy every record on each growth
 * and briefly hold the old and new buffers together).
 */
class TraceBuilder
{
  public:
    /** Allocate a region of the simulated address space. */
    sim::Addr
    alloc(std::size_t bytes, std::size_t align = 64)
    {
        cursor_ = (cursor_ + align - 1) / align * align;
        const sim::Addr base = cursor_;
        cursor_ += bytes;
        return base;
    }

    /**
     * Allocate at a set-conflicting address: the region starts at the
     * next multiple of @p stride_bytes, so consecutive allocations
     * alias the same cache sets (used to reproduce the conflict-heavy
     * behaviour of Sparse/FT).
     */
    sim::Addr
    allocAligned(std::size_t bytes, std::size_t stride_bytes)
    {
        cursor_ = (cursor_ + stride_bytes - 1) / stride_bytes *
                  stride_bytes;
        const sim::Addr base = cursor_;
        cursor_ += bytes;
        return base;
    }

    /** Queue compute work to attach to the next reference. */
    void compute(std::uint32_t ops) { pendingOps_ += ops; }

    void
    load(sim::Addr addr, bool depends_on_prev = false)
    {
        append(cpu::TraceRecord{addr, takeOps(), false, depends_on_prev});
    }

    void
    store(sim::Addr addr, bool depends_on_prev = false)
    {
        append(cpu::TraceRecord{addr, takeOps(), true, depends_on_prev});
    }

    /** Flush pending compute as a reference-free record. */
    void
    flushCompute()
    {
        if (pendingOps_ > 0) {
            append(cpu::TraceRecord{sim::invalidAddr, takeOps(), false,
                                    false});
        }
    }

    /** Hand over the records appended so far. */
    TraceChunks takeChunks() { return std::move(chunks_); }
    std::size_t footprint() const { return cursor_ - base_; }

  private:
    std::uint32_t
    takeOps()
    {
        const std::uint32_t ops = pendingOps_;
        pendingOps_ = 0;
        return ops;
    }

    void
    append(const cpu::TraceRecord &rec)
    {
        if (chunks_.empty() || chunks_.back().size() == traceChunkRecords) {
            chunks_.emplace_back();
            chunks_.back().reserve(traceChunkRecords);
        }
        chunks_.back().push_back(rec);
    }

    static constexpr sim::Addr base_ = 0x1000'0000;
    sim::Addr cursor_ = base_;
    std::uint32_t pendingOps_ = 0;
    TraceChunks chunks_;
};

/**
 * A named, resettable workload: the interface every trace consumer
 * (System, benches, the interleaver) programs against.  Two families
 * implement it: SyntheticWorkload (the nine generated kernels below)
 * and trace-replay workloads streaming a captured corpus from disk
 * (workloads/trace_replay.hh, `makeWorkload("trace:<path>")`).
 */
class Workload : public cpu::TraceSource
{
  public:
    virtual std::string name() const = 0;

    /** Where the records come from: "synthetic" or "trace:<path>".
     *  Recorded in bench metadata to tell corpora runs apart. */
    virtual std::string source() const { return "synthetic"; }

    /** Rewind so the identical trace replays. */
    virtual void reset() = 0;

    /** Bytes of simulated address space the trace touches. */
    virtual std::size_t footprintBytes() = 0;

    /** Total number of records in the trace. */
    virtual std::size_t traceLength() = 0;
};

/** A workload whose trace is generated in memory by a kernel. */
class SyntheticWorkload : public Workload
{
  public:
    explicit SyntheticWorkload(const WorkloadParams &p) : params_(p) {}

    /** The read cursor points into chunks_, so copies would alias. */
    SyntheticWorkload(const SyntheticWorkload &) = delete;
    SyntheticWorkload &operator=(const SyntheticWorkload &) = delete;

    bool
    next(cpu::TraceRecord &rec) override
    {
        if (cur_ == end_ && !nextChunk())
            return false;
        rec = *cur_++;
        return true;
    }

    void
    reset() override
    {
        chunk_ = 0;
        cur_ = end_ = nullptr;
    }

    std::size_t
    footprintBytes() override
    {
        ensureGenerated();
        return footprint_;
    }

    std::size_t
    traceLength() override
    {
        ensureGenerated();
        return length_;
    }

  protected:
    /** Produce the full dynamic trace. */
    virtual void generate(TraceBuilder &tb, sim::Rng &rng) = 0;

    /** Scaled size helper: max(minimum, round(n * scale)). */
    std::size_t
    scaled(std::size_t n, std::size_t minimum = 16) const
    {
        const double v = static_cast<double>(n) * params_.scale;
        const auto r = static_cast<std::size_t>(v);
        return r < minimum ? minimum : r;
    }

    const WorkloadParams &params() const { return params_; }

  private:
    void
    ensureGenerated()
    {
        if (generated_)
            return;
        TraceBuilder tb;
        sim::Rng rng(params_.seed);
        generate(tb, rng);
        tb.flushCompute();
        chunks_ = tb.takeChunks();
        footprint_ = tb.footprint();
        length_ = 0;
        for (const auto &chunk : chunks_)
            length_ += chunk.size();
        generated_ = true;
    }

    /** Point the cursor at the next chunk; false past the last one. */
    bool
    nextChunk()
    {
        ensureGenerated();
        if (chunk_ == chunks_.size())
            return false;
        const auto &chunk = chunks_[chunk_++];
        cur_ = chunk.data();
        end_ = cur_ + chunk.size();
        return true;
    }

    WorkloadParams params_;
    bool generated_ = false;
    TraceChunks chunks_;
    std::size_t footprint_ = 0;
    std::size_t length_ = 0;
    /** Index of the chunk after the one being read. */
    std::size_t chunk_ = 0;
    const cpu::TraceRecord *cur_ = nullptr;
    const cpu::TraceRecord *end_ = nullptr;
};

/** The nine applications of Table 2, in the paper's order. */
const std::vector<std::string> &applicationNames();

/**
 * Construct a workload by name ("CG", "Equake", ..., "Tree"), or
 * replay a captured trace corpus via the "trace:<path>" scheme (the
 * WorkloadParams are ignored for replay: the trace carries its own
 * provenance).
 *
 * @throws std::invalid_argument for an unknown name or an empty
 *         trace: path, listing the valid names and schemes.
 * @throws trace::TraceError for an unreadable or corrupt trace file.
 */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       const WorkloadParams &p);

/**
 * The paper's per-application correlation-table rows (Table 2).
 * "trace:<path>" names resolve through the trace's recorded app
 * provenance; traces of unknown provenance (e.g. imported external
 * traces) get a mid-range 128K-row default.
 */
std::uint32_t tableNumRows(const std::string &app_name);

} // namespace workloads

#endif // WORKLOADS_WORKLOAD_HH
