/**
 * @file
 * Guide specificity scoring: the downstream consumer of off-target
 * search results. Implements the position-weighted (MIT/Hsu-style)
 * per-site penalty and the aggregate specificity score
 *
 *   S(guide) = 100 / (1 + sum over off-target sites of s_site),
 *
 * where each site's s_site decays with its mismatch count and the
 * PAM-distal-ness of the mismatching positions. The exact published
 * weight table is reproduced for 20-nt guides; other lengths fall back
 * to a linear position ramp.
 */

#ifndef CRISPR_CORE_SCORE_HPP_
#define CRISPR_CORE_SCORE_HPP_

#include <vector>

#include "core/score_table.hpp"
#include "core/search.hpp"

namespace crispr::core {

/**
 * Single-site penalty in [0, 1]: 1 for a perfect off-target duplicate,
 * decaying with mismatch count and position. `mismatch_positions` are
 * 0-based protospacer positions (0 = PAM-distal end for the standard
 * 5'->3' guide orientation). Delegates to sitePenaltyFromWeights()
 * over scoreWeightTable() — the same primitives the in-scan path
 * uses, so a hit's precomputed `penalty` is bit-identical to calling
 * this on its hitMismatchPositions() (the scoring conformance tier
 * asserts exactly that).
 */
double sitePenalty(const std::vector<size_t> &mismatch_positions,
                   size_t guide_length);

/**
 * Mismatching protospacer positions of a hit (guide coordinates,
 * 5'->3'), recomputed against the genome.
 */
std::vector<size_t>
hitMismatchPositions(const genome::Sequence &genome,
                     const PatternSet &set, const OffTargetHit &hit);

/** Per-guide specificity summary. */
struct GuideScore
{
    uint32_t guide = 0;
    /**
     * Perfect (0-mismatch) sites — ALL of them, including duplicates.
     * This is deliberate and asymmetric with the penalty treatment:
     * every perfect site counts here (so `onTargets` answers "how many
     * places does this guide cut perfectly?"), while only perfect
     * sites *beyond the first* contribute to `penaltySum` (at full
     * penalty 1.0 — the first is the intended target). Tested in
     * tests/test_score.cpp.
     */
    size_t onTargets = 0;
    size_t offTargets = 0;  //!< sites with >= 1 mismatch
    double penaltySum = 0.0;
    /**
     * 100 / (1 + penaltySum). Exactly 100.0 (not merely close) for a
     * guide with no hits or only its single intended perfect site:
     * penaltySum stays exactly 0.0 in both cases, and the quotient is
     * exact. Never NaN — penalties are finite and non-negative.
     */
    double specificity = 100.0;
};

/**
 * Aggregate specificity per guide from a search result. Perfect sites
 * beyond the first are treated as off-target duplicates (full
 * penalty), matching the usual convention (see GuideScore::onTargets
 * for the counting convention). Re-walks the genome per hit via
 * hitMismatchPositions(); prefer scoreGuidesFromHits() when the
 * result carries in-scan penalties (the default).
 */
std::vector<GuideScore>
scoreGuides(const genome::Sequence &genome,
            const std::vector<Guide> &guides, const SearchResult &result);

/**
 * scoreGuides() without the genome: aggregates the penalties the scan
 * already computed (OffTargetHit::penalty), bit-identical to
 * scoreGuides() on the same result (tested) since both paths sum the
 * same doubles in the same hit order. Every search result carries
 * these in-scan penalties.
 */
std::vector<GuideScore>
scoreGuidesFromHits(size_t guide_count, const SearchResult &result);

} // namespace crispr::core

#endif // CRISPR_CORE_SCORE_HPP_
