/**
 * @file
 * Guide -> pattern compilation: expands a guide set into Hamming
 * pattern specs for both strands, in either of two stream orientations:
 *
 *  - SiteOrder (default): patterns are written in forward-genome
 *    coordinates and the forward genome stream is scanned once. The
 *    forward-strand pattern is guide+PAM; the reverse-strand pattern is
 *    its reverse complement (so the PAM leads it).
 *
 *  - PamFirst: every pattern leads with its exact (PAM) region — the
 *    orientation the AP counter design requires, because the PAM is the
 *    trigger that resets the mismatch counter. Reverse-strand patterns
 *    already lead with the PAM on the forward stream; forward-strand
 *    patterns are reversed (not complemented) and scanned against the
 *    *reversed* genome stream (a second pass).
 *
 * Report id = index into PatternSet::patterns.
 */

#ifndef CRISPR_CORE_COMPILE_HPP_
#define CRISPR_CORE_COMPILE_HPP_

#include <cstdint>
#include <vector>

#include "automata/builders.hpp"
#include "common/error.hpp"
#include "core/guide.hpp"

namespace crispr::core {

/** Strand of the genome the site lies on. */
enum class Strand : uint8_t
{
    Forward = 0,
    Reverse = 1,
};

/** Render a strand as "+" / "-". */
const char *strandStr(Strand s);

/** Stream orientation of compiled patterns (see file comment). */
enum class Orientation : uint8_t
{
    SiteOrder,
    PamFirst,
};

/** One compiled pattern. */
struct Pattern
{
    uint32_t guideIndex;
    Strand strand;
    /** Pattern matches against the reversed genome stream. */
    bool reversedStream;
    automata::HammingSpec spec;
};

/** The compiled set of patterns for a search. */
struct PatternSet
{
    std::vector<Pattern> patterns;
    size_t guideLength = 0;
    size_t pamLength = 0;
    Orientation orientation = Orientation::SiteOrder;
    int maxMismatches = 0;

    /**
     * Per-position mismatch weights (score_table.hpp), one per guide
     * position, baked in at compile time so every scan scores hits
     * in-flight without consulting global tables. Participates in
     * patternSetDigest() and the serialized engine-state envelope, so
     * a persisted compiled state can never replay with a different
     * weight table.
     */
    std::vector<double> scoreWeights;

    size_t siteLength() const { return guideLength + pamLength; }

    /** Specs of the patterns scanning the given stream direction. */
    std::vector<automata::HammingSpec>
    specsForStream(bool reversed) const;

    /** True if any pattern scans the reversed stream. */
    bool needsReversedStream() const;

    /**
     * The SiteOrder (forward-coordinate) spec of a pattern, used for
     * mismatch recomputation regardless of this set's orientation.
     */
    automata::HammingSpec forwardSpec(uint32_t pattern_id) const;
};

/**
 * Order-sensitive content digest of a pattern set (FNV-1a over a
 * canonical serialization). Engine::serializeState embeds it so a
 * persisted compiled state can never be paired with a different guide
 * set or compile configuration at load time.
 */
uint64_t patternSetDigest(const PatternSet &set);

/**
 * The guide-set checks every compile makes: InvalidArgument for an
 * empty set, mixed guide lengths, or a mismatch budget outside
 * [0, guide length]. SearchService runs them at submit, so a request
 * that cannot compile never joins a batch.
 */
common::Status validateGuideSet(const std::vector<Guide> &guides,
                                int max_mismatches);

/**
 * Compile guides x strands into a pattern set. All guides must share
 * one length. @param both_strands include reverse-strand patterns.
 * @return validateGuideSet's error when the set fails its checks.
 */
common::Expected<PatternSet>
tryBuildPatternSet(const std::vector<Guide> &guides, const PamSpec &pam,
                   int max_mismatches, bool both_strands,
                   Orientation orientation = Orientation::SiteOrder);

/** Throwing wrapper over tryBuildPatternSet (ErrorException). */
PatternSet buildPatternSet(const std::vector<Guide> &guides,
                           const PamSpec &pam, int max_mismatches,
                           bool both_strands,
                           Orientation orientation =
                               Orientation::SiteOrder);

} // namespace crispr::core

#endif // CRISPR_CORE_COMPILE_HPP_
