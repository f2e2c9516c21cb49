/**
 * @file
 * Parameters of the ULMT prefetching algorithms (Table 4 defaults).
 */

#ifndef CORE_PARAMS_HH
#define CORE_PARAMS_HH

#include <cstdint>
#include <string>

namespace core {

/** Pair-based correlation-table parameters (Section 2.2 / 3.3). */
struct CorrelationParams
{
    /** Maximum number of misses the table stores predictions for. */
    std::uint32_t numRows = 128 * 1024;
    /** Immediate successors kept per miss (per level). */
    std::uint32_t numSucc = 2;
    /** Table associativity. */
    std::uint32_t assoc = 2;
    /** Levels of successors stored / prefetched (Chain, Replicated). */
    std::uint32_t numLevels = 3;
    /** Simulated base address of the table in main memory. */
    std::uint64_t tableBase = 0x40'0000'0000ULL;
};

/** Table 4: Base uses NumSucc=4, Assoc=4. */
inline CorrelationParams
baseDefaults(std::uint32_t num_rows)
{
    CorrelationParams p;
    p.numRows = num_rows;
    p.numSucc = 4;
    p.assoc = 4;
    p.numLevels = 1;
    return p;
}

/** Table 4: Chain/Repl use NumSucc=2, Assoc=2, NumLevels=3. */
inline CorrelationParams
chainReplDefaults(std::uint32_t num_rows, std::uint32_t num_levels = 3)
{
    CorrelationParams p;
    p.numRows = num_rows;
    p.numSucc = 2;
    p.assoc = 2;
    p.numLevels = num_levels;
    return p;
}

/** Software sequential prefetcher (Seq1 / Seq4) parameters. */
struct SeqParams
{
    std::uint32_t numSeq = 4;    //!< concurrent streams
    std::uint32_t numPref = 6;   //!< lines prefetched per trigger
    std::uint32_t lineBytes = 64;     //!< a power of two
    std::uint32_t historyDepth = 16;  //!< misses kept for detection, >= 1
    /**
     * How far past the observed miss the stream runs (0 = numPref).
     * A customization knob: the CG ULMT (Seq1+Repl, Verbose) uses a
     * deeper lookahead so its pushes land in the L2 before the
     * processor-side prefetcher asks for them (Section 5.2).
     */
    std::uint32_t lookaheadLines = 0;

    std::uint32_t
    lookahead() const
    {
        return lookaheadLines ? lookaheadLines : numPref;
    }
};

} // namespace core

#endif // CORE_PARAMS_HH
