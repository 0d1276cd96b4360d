#include "core/engine_auto.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"

namespace crispr::core {

AutoCalibration
defaultAutoCalibration()
{
    AutoCalibration cal;
    cal.shiftOrTier = hscan::resolveSimdTier();
    return cal;
}

namespace {

/** Shift-Or throughput multiplier for the calibration's tier. */
double
shiftOrTierSpeedup(const AutoCalibration &cal)
{
    switch (cal.shiftOrTier) {
      case hscan::SimdTier::Avx2:
        return cal.shiftOrAvx2Speedup;
      case hscan::SimdTier::Avx512:
        return cal.shiftOrAvx512Speedup;
      default:
        return 1.0;
    }
}

} // namespace

double
predictedDfaStates(const WorkloadShape &shape,
                   const AutoCalibration &cal)
{
    // Subset construction over the union Hamming NFA, fitted against
    // measured DFAs (see AutoCalibration): linear in patterns at d=0,
    // a ~5.5x growth factor per mismatch level, and a mild
    // patterns^(0.25*d) term for the cross-pattern sharing that
    // degrades as d grows. Deliberately a proxy, not a bound —
    // compile-time fallback catches underestimates.
    const double patterns = static_cast<double>(shape.patternCount());
    const double d = static_cast<double>(shape.maxMismatches);
    return cal.dfaStatesPerPatternRow * patterns *
           std::pow(cal.dfaGrowthPerMismatch, d) *
           std::pow(patterns, cal.dfaSharingExponent * d) *
           static_cast<double>(shape.siteLength()) / 23.0;
}

double
predictedNsPerSymbol(EngineKind kind, const WorkloadShape &shape,
                     const AutoCalibration &cal)
{
    const double patterns = static_cast<double>(shape.patternCount());
    const double rows = static_cast<double>(shape.maxMismatches + 1);
    const double words =
        static_cast<double>((shape.siteLength() + 63) / 64);
    switch (kind) {
      case EngineKind::HscanDfa:
        return cal.dfaNsPerSymbol;
      case EngineKind::HscanBitParallel:
        return cal.shiftOrNsPerPatternRow * patterns * rows * words /
               shiftOrTierSpeedup(cal);
      case EngineKind::Reference:
        // Active-set interpretation: cost tracks the union automaton
        // size (patterns x rows x site positions).
        return cal.nfaNsPerState * patterns * rows *
               static_cast<double>(shape.siteLength()) / 8.0;
      default:
        fatal("engine %d is outside the auto cost model",
              static_cast<int>(kind));
    }
}

std::vector<EngineKind>
autoEngineRanking(const WorkloadShape &shape, uint32_t max_dfa_states,
                  const AutoCalibration &cal)
{
    struct Entry
    {
        EngineKind kind;
        double cost;
        bool viable;
    };
    const bool dfa_fits =
        predictedDfaStates(shape, cal) <=
        static_cast<double>(max_dfa_states);
    std::vector<Entry> entries{
        {EngineKind::HscanDfa,
         predictedNsPerSymbol(EngineKind::HscanDfa, shape, cal),
         dfa_fits},
        {EngineKind::HscanBitParallel,
         predictedNsPerSymbol(EngineKind::HscanBitParallel, shape, cal),
         true},
        {EngineKind::Reference,
         predictedNsPerSymbol(EngineKind::Reference, shape, cal),
         true},
    };
    std::stable_sort(entries.begin(), entries.end(),
                     [](const Entry &a, const Entry &b) {
                         if (a.viable != b.viable)
                             return a.viable;
                         return a.cost < b.cost;
                     });
    std::vector<EngineKind> ranking;
    ranking.reserve(entries.size());
    for (const Entry &e : entries)
        ranking.push_back(e.kind);
    return ranking;
}

} // namespace crispr::core
