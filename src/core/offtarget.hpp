/**
 * @file
 * Off-target hits: engine-independent, forward-genome-coordinate
 * results. Raw engine events ((pattern id, stream end index)) are
 * converted here, with the mismatch count recomputed against the
 * genome so every engine reports identical, verified hits.
 */

#ifndef CRISPR_CORE_OFFTARGET_HPP_
#define CRISPR_CORE_OFFTARGET_HPP_

#include <compare>
#include <cstdint>
#include <string>
#include <vector>

#include "automata/interp.hpp"
#include "core/compile.hpp"
#include "genome/sequence.hpp"

namespace crispr::core {

/** One off-target site. */
struct OffTargetHit
{
    uint32_t guide;     //!< guide index in the search's guide list
    Strand strand;
    uint64_t start;     //!< forward-genome offset of the site's first base
    int mismatches;     //!< Hamming distance within the protospacer

    /**
     * Mismatching protospacer positions in guide coordinates (bit p =
     * 0-based position p, 0 = PAM-distal), filled in-scan during hit
     * verification. Equals hitMismatchPositions() folded to a mask
     * (tested); 0 for a perfect site.
     */
    uint64_t mismatchMask = 0;

    /**
     * Position-weighted site penalty (MIT/Hsu-style), bit-identical to
     * post-hoc sitePenalty() on this hit's mismatch positions
     * (tested). 1.0 for a perfect site; 0.0 only from a direct
     * hitsFromEvents() call with `with_scores = false`.
     */
    double penalty = 0.0;

    auto operator<=>(const OffTargetHit &) const = default;
};

/**
 * Ranked-report order: penalty descending (most dangerous site
 * first), ties broken by (guide, start, strand) ascending. A total
 * order over verified hits (penalties are never NaN), so ranked
 * output is deterministic and bit-stable across shard counts and
 * chunk geometry.
 */
bool rankedHitBefore(const OffTargetHit &a, const OffTargetHit &b);

/**
 * Derive the ranked listing from a hit list: keep hits with
 * penalty >= score_threshold, order by rankedHitBefore, and truncate
 * to the top_k most dangerous (top_k = 0 keeps all). Equivalent to
 * filter-after-full-search by construction (tested by the scoring
 * conformance tier).
 */
std::vector<OffTargetHit> rankHits(const std::vector<OffTargetHit> &hits,
                                   double score_threshold, size_t top_k);

/**
 * Convert engine events to hits. Events carry the pattern id; the
 * pattern's stream orientation decides the coordinate mapping:
 *  - forward stream: start = end - len + 1
 *  - reversed stream: start = genome_len - 1 - end
 * The mismatch count is recomputed against the forward genome; events
 * that fail re-verification raise PanicError (an engine bug) unless
 * `drop_unverified` is set (used for the AP counter design, whose
 * shared-counter overlap artefacts can produce spurious events; the
 * count of dropped events is returned via `dropped`).
 *
 * The result is sorted by (guide, start, strand) and deduplicated.
 *
 * With `with_scores` (the default) each verified hit also carries its
 * mismatch-position mask and precomputed site penalty, derived from
 * the same verification walk — this is the in-scan scoring path every
 * engine (and the per-chunk streamed path) funnels through. The
 * weight table comes from the compiled set (PatternSet::scoreWeights)
 * when present, else from scoreWeightTable(). `with_scores = false`
 * (the boolean baseline) leaves mask/penalty at 0.
 */
std::vector<OffTargetHit>
hitsFromEvents(const genome::Sequence &genome, const PatternSet &set,
               const std::vector<automata::ReportEvent> &events,
               bool drop_unverified = false, size_t *dropped = nullptr,
               bool with_scores = true);

/** The site sequence of a hit as it reads 5'->3' on its strand. */
std::string hitSiteString(const genome::Sequence &genome,
                          const PatternSet &set, const OffTargetHit &hit);

/**
 * Aligned annotation of a hit against its guide: upper case where the
 * site matches the guide pattern, lower case at mismatching positions
 * (the CasOFFinder output convention).
 */
std::string hitAlignmentString(const genome::Sequence &genome,
                               const PatternSet &set,
                               const OffTargetHit &hit);

} // namespace crispr::core

#endif // CRISPR_CORE_OFFTARGET_HPP_
