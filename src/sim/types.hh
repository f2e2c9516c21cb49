/**
 * @file
 * Fundamental scalar types shared by every simulator component.
 *
 * All timing in the simulator is expressed in main-processor cycles
 * (1.6 GHz in the paper's configuration, Table 3).  The memory processor
 * runs at half that frequency; components that model it convert with
 * memProcCyclesToMain().
 */

#ifndef SIM_TYPES_HH
#define SIM_TYPES_HH

#include <cstdint>
#include <limits>

namespace sim {

/** A physical memory address (byte granularity). */
using Addr = std::uint64_t;

/** A point in simulated time, in main-processor cycles. */
using Cycle = std::uint64_t;

/** A count of instructions executed by a modeled core. */
using InstCount = std::uint64_t;

/** Sentinel for "no address". */
inline constexpr Addr invalidAddr = std::numeric_limits<Addr>::max();

/** Sentinel for "never" / unscheduled. */
inline constexpr Cycle neverCycle = std::numeric_limits<Cycle>::max();

/**
 * Ratio of main-processor cycles to memory-processor cycles.  The paper
 * models a 1.6 GHz main core and an 800 MHz memory core (Table 3).
 */
inline constexpr Cycle mainCyclesPerMemProcCycle = 2;

/** Convert a duration measured in memory-processor cycles to main cycles. */
constexpr Cycle
memProcCyclesToMain(Cycle mem_proc_cycles)
{
    return mem_proc_cycles * mainCyclesPerMemProcCycle;
}

// --- Multicore tagging ------------------------------------------------
//
// With --cores=N every miss/prefetch in flight below the L2 belongs to
// one core.  Rather than widening every map, event argument and filter
// key with a second field, the core id is packed into the upper bits of
// the line address: real addresses never reach bit 56 (core slices sit
// below maxCores * coreAddrStride = 2^46, VM frames start at
// vm::physFrameBase = 2^47), so bits [63:56] are free.  Core 0's key is
// numerically identical to the raw line address, which keeps every
// single-core data structure, event payload and checkpoint byte
// bit-identical to the pre-multicore simulator.

/** Maximum number of main processors (--cores). */
inline constexpr unsigned maxCores = 64;

/** Address-space stride between per-core workload copies: core c's
 *  trace is offset by c * coreAddrStride. */
inline constexpr Addr coreAddrStride = Addr(1) << 40;

/** Bit position of the core-id tag inside a packed (core,line) key. */
inline constexpr unsigned coreKeyShift = 56;

/** Pack a (core, L2-line address) pair into one map/event key. */
constexpr Addr
packCoreLine(unsigned core, Addr line)
{
    return line | (static_cast<Addr>(core) << coreKeyShift);
}

/** The core id of a packed key (0 for untagged single-core keys). */
constexpr unsigned
coreOfKey(Addr key)
{
    return static_cast<unsigned>(key >> coreKeyShift);
}

/** The raw line address of a packed key. */
constexpr Addr
lineOfKey(Addr key)
{
    return key & ((static_cast<Addr>(1) << coreKeyShift) - 1);
}

/**
 * Classification of the agent that generated a memory request.  Used to
 * implement the Verbose / Non-Verbose observation modes of Section 3.2:
 * in Non-Verbose mode the ULMT only sees Demand requests, while in
 * Verbose mode it also sees CpuPrefetch requests (the paper assumes
 * prefetch requests are distinguishable, as in the MIPS R10000).
 */
enum class RequestKind : std::uint8_t {
    Demand,      //!< A load/store miss from the main processor.
    CpuPrefetch, //!< Issued by the processor-side stream prefetcher.
    UlmtPrefetch //!< Issued by the user-level memory thread.
};

/** Which level of the hierarchy ultimately served an access. */
enum class ServedBy : std::uint8_t {
    L1,     //!< L1 hit.
    L2,     //!< L1 miss that hit in L2.
    Memory  //!< L2 miss serviced by main memory.
};

} // namespace sim

#endif // SIM_TYPES_HH
