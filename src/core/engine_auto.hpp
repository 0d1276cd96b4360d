/**
 * @file
 * The engine=auto cost model: picks the fastest CPU scan engine for a
 * workload from its compile-time shape — guide count, guide length,
 * mismatch budget d, PAM width, strand count — the way hyperscan's
 * runtime picks an implementation per database.
 *
 * The tradeoff being modelled (DESIGN.md §11):
 *
 *  - hscan-dfa scans one dense-table transition per symbol regardless
 *    of pattern count — the fastest path — but subset construction
 *    blows up in d and pattern count and is abandoned over the state
 *    budget, so it is only ranked first when the predicted automaton
 *    fits.
 *  - hscan-bitparallel (Shift-Or) costs one word op per pattern per
 *    mismatch row (d+1 rows) per symbol: immune to state blowup,
 *    linear in guides x d.
 *  - nfa-reference interprets the union NFA directly: slowest per
 *    symbol, but compiles anything in O(states); it anchors the chain
 *    as the always-works fallback.
 *
 * The model ranks all three by predicted ns/symbol from a measured
 * calibration table and returns the full ranking, so SearchSession can
 * feed it through the existing fallback machinery: a mispredicted DFA
 * (budget exceeded at compile time) degrades to the next choice with
 * no new mechanism. autoEngineRanking is the model's only entry point
 * for engine choice.
 */

#ifndef CRISPR_CORE_ENGINE_AUTO_HPP_
#define CRISPR_CORE_ENGINE_AUTO_HPP_

#include <cstddef>
#include <vector>

#include "core/engines.hpp"
#include "hscan/simd.hpp"

namespace crispr::core {

/** The compile-time shape of a workload, as the cost model sees it. */
struct WorkloadShape
{
    size_t guideCount = 0;
    size_t guideLength = 20;
    size_t pamLength = 3;
    int maxMismatches = 0;
    bool bothStrands = true;

    /** Patterns compiled: guides x strands. */
    size_t
    patternCount() const
    {
        return guideCount * (bothStrands ? 2 : 1);
    }

    size_t siteLength() const { return guideLength + pamLength; }
};

/**
 * Per-symbol cost constants, measured on this container's toolchain
 * (scripts/ci.sh keeps BENCH_service.json fresh; the constants below
 * were read off `bench_service` runs at 10/100/1000 guides, d=0..4).
 * They only need to be right in ratio, not absolutely — the ranking is
 * ordinal and compile-time fallback corrects mispredictions.
 */
struct AutoCalibration
{
    /** Dense-table DFA: one indexed load + store per symbol. */
    double dfaNsPerSymbol = 4.0;
    /**
     * Shift-Or: per pattern, per mismatch row, per 64-symbol word, at
     * the scalar kernel tier (one word op per pattern row).
     */
    double shiftOrNsPerPatternRow = 0.55;
    /**
     * Measured Shift-Or throughput multipliers for the vector kernels
     * (bench_hscan --simd-compare at d=3, 100 guides): AVX2 advances 4
     * pattern lanes per op, AVX-512 eight. Sub-linear in the lane
     * count because the row recurrence stays load/shift bound.
     */
    double shiftOrAvx2Speedup = 3.0;
    double shiftOrAvx512Speedup = 5.0;
    /**
     * The kernel tier the Shift-Or prediction assumes.
     * defaultAutoCalibration() resolves the process tier (CRISPR_SIMD
     * override, then CPUID), so engine=auto ranks with the throughput
     * the host will actually see; tests pin it for determinism.
     */
    hscan::SimdTier shiftOrTier = hscan::SimdTier::Scalar;
    /** NFA interpreter: per automaton state touched per symbol. */
    double nfaNsPerState = 1.6;
    /**
     * Subset-construction size proxy, fitted against measured union
     * Hamming DFAs at 1..64 guides, d = 0..4, site length 23 (the
     * d=0 states-per-pattern intercept, the per-mismatch growth
     * factor, and the sublinear cross-pattern sharing exponent):
     * states ~= intercept * patterns * growth^d * patterns^(share*d).
     * Compared against the DatabaseOptions::maxDfaStates budget.
     */
    double dfaStatesPerPatternRow = 30.0;
    double dfaGrowthPerMismatch = 5.55;
    double dfaSharingExponent = 0.25;
};

/** The measured defaults above. */
AutoCalibration defaultAutoCalibration();

/** Predicted scan cost in ns/symbol; Dfa/BitParallel/Reference only. */
double predictedNsPerSymbol(EngineKind kind, const WorkloadShape &shape,
                            const AutoCalibration &cal);

/** Predicted subset-construction size for the DFA path. */
double predictedDfaStates(const WorkloadShape &shape,
                          const AutoCalibration &cal);

/**
 * The full cost-model ranking for a workload, fastest predicted
 * engine first: always all of {HscanDfa, HscanBitParallel, Reference},
 * with a DFA predicted over `max_dfa_states` demoted below
 * BitParallel (it would burn a compile attempt first otherwise). The
 * front is the choice `session.engine_auto.<name>` counts.
 */
std::vector<EngineKind>
autoEngineRanking(const WorkloadShape &shape, uint32_t max_dfa_states,
                  const AutoCalibration &cal = defaultAutoCalibration());

} // namespace crispr::core

#endif // CRISPR_CORE_ENGINE_AUTO_HPP_
