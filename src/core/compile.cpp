#include "core/compile.hpp"

#include <algorithm>

#include <bit>

#include "common/logging.hpp"
#include "common/serial.hpp"
#include "core/score_table.hpp"

namespace crispr::core {

using automata::HammingSpec;
using genome::BaseMask;

const char *
strandStr(Strand s)
{
    return s == Strand::Forward ? "+" : "-";
}

namespace {

/** Forward-coordinate site masks: guide then PAM. */
std::vector<BaseMask>
siteMasks(const Guide &guide, const PamSpec &pam)
{
    std::vector<BaseMask> masks;
    masks.reserve(guide.protospacer.size() + pam.size());
    for (size_t i = 0; i < guide.protospacer.size(); ++i) {
        masks.push_back(
            static_cast<BaseMask>(1u << guide.protospacer[i]));
    }
    for (BaseMask m : pam.masks())
        masks.push_back(m);
    return masks;
}

/** Reverse a mask vector without complementing (PamFirst fwd stream). */
std::vector<BaseMask>
reversedMasks(const std::vector<BaseMask> &m)
{
    return {m.rbegin(), m.rend()};
}

} // namespace

std::vector<HammingSpec>
PatternSet::specsForStream(bool reversed) const
{
    std::vector<HammingSpec> specs;
    for (const Pattern &p : patterns)
        if (p.reversedStream == reversed)
            specs.push_back(p.spec);
    return specs;
}

bool
PatternSet::needsReversedStream() const
{
    return std::any_of(patterns.begin(), patterns.end(),
                       [](const Pattern &p) { return p.reversedStream; });
}

automata::HammingSpec
PatternSet::forwardSpec(uint32_t pattern_id) const
{
    CRISPR_ASSERT(pattern_id < patterns.size());
    const Pattern &p = patterns[pattern_id];
    if (!p.reversedStream)
        return p.spec;
    // Un-reverse: the pattern was built as reverse(siteMasks) for the
    // reversed stream; its forward-coordinate form reverses it back and
    // mirrors the mismatch window.
    HammingSpec spec = p.spec;
    const size_t len = spec.masks.size();
    std::reverse(spec.masks.begin(), spec.masks.end());
    const size_t hi = std::min(spec.mismatchHi, len);
    spec.mismatchLo = len - hi;
    spec.mismatchHi = len - p.spec.mismatchLo;
    return spec;
}

common::Status
validateGuideSet(const std::vector<Guide> &guides, int max_mismatches)
{
    using common::Error;
    using common::ErrorCode;
    if (guides.empty())
        return Error(ErrorCode::InvalidArgument, "no guides given");
    if (max_mismatches < 0)
        return Error(ErrorCode::InvalidArgument,
                     "negative mismatch budget");
    const size_t glen = guides.front().protospacer.size();
    for (const Guide &g : guides) {
        if (g.protospacer.size() != glen)
            return Error(ErrorCode::InvalidArgument,
                         strprintf("all guides must share one length "
                                   "(got %zu and %zu)",
                                   glen, g.protospacer.size()))
                .withContext("guide", g.name);
    }
    if (static_cast<size_t>(max_mismatches) > glen)
        return Error(ErrorCode::InvalidArgument,
                     "mismatch budget exceeds the guide length");
    return {};
}

common::Expected<PatternSet>
tryBuildPatternSet(const std::vector<Guide> &guides, const PamSpec &pam,
                   int max_mismatches, bool both_strands,
                   Orientation orientation)
{
    if (auto valid = validateGuideSet(guides, max_mismatches); !valid.ok())
        return valid.error();
    const size_t glen = guides.front().protospacer.size();

    PatternSet set;
    set.guideLength = glen;
    set.pamLength = pam.size();
    set.orientation = orientation;
    set.maxMismatches = max_mismatches;
    set.scoreWeights = scoreWeightTable(glen);

    for (uint32_t gi = 0; gi < guides.size(); ++gi) {
        const std::vector<BaseMask> site = siteMasks(guides[gi], pam);
        const size_t len = site.size();

        // Forward strand.
        {
            Pattern p;
            p.guideIndex = gi;
            p.strand = Strand::Forward;
            p.spec.maxMismatches = max_mismatches;
            p.spec.reportId = static_cast<uint32_t>(set.patterns.size());
            if (orientation == Orientation::SiteOrder) {
                p.reversedStream = false;
                p.spec.masks = site;
                p.spec.mismatchLo = 0;
                p.spec.mismatchHi = glen;
            } else {
                // PamFirst: reversed site on the reversed stream.
                p.reversedStream = true;
                p.spec.masks = reversedMasks(site);
                p.spec.mismatchLo = pam.size();
                p.spec.mismatchHi = len;
            }
            set.patterns.push_back(std::move(p));
        }

        // Reverse strand: the site read on the forward stream is the
        // reverse complement; its PAM leads in both orientations.
        if (both_strands) {
            Pattern p;
            p.guideIndex = gi;
            p.strand = Strand::Reverse;
            p.reversedStream = false;
            p.spec.masks = genome::reverseComplementMasks(site);
            p.spec.maxMismatches = max_mismatches;
            p.spec.mismatchLo = pam.size();
            p.spec.mismatchHi = len;
            p.spec.reportId = static_cast<uint32_t>(set.patterns.size());
            set.patterns.push_back(std::move(p));
        }
    }
    return set;
}

uint64_t
patternSetDigest(const PatternSet &set)
{
    common::BlobWriter w;
    w.u64(set.guideLength);
    w.u64(set.pamLength);
    w.u8(static_cast<uint8_t>(set.orientation));
    w.u32(static_cast<uint32_t>(set.maxMismatches));
    w.u32(static_cast<uint32_t>(set.scoreWeights.size()));
    for (double weight : set.scoreWeights)
        w.u64(std::bit_cast<uint64_t>(weight));
    w.u32(static_cast<uint32_t>(set.patterns.size()));
    for (const Pattern &p : set.patterns) {
        w.u32(p.guideIndex);
        w.u8(static_cast<uint8_t>(p.strand));
        w.u8(p.reversedStream ? 1 : 0);
        w.u32(static_cast<uint32_t>(p.spec.maxMismatches));
        w.u64(p.spec.mismatchLo);
        w.u64(p.spec.mismatchHi == SIZE_MAX ? UINT64_MAX
                                            : p.spec.mismatchHi);
        w.u32(p.spec.reportId);
        w.str(std::string_view(
            reinterpret_cast<const char *>(p.spec.masks.data()),
            p.spec.masks.size()));
    }
    return common::fnv1a64(w.buffer());
}

PatternSet
buildPatternSet(const std::vector<Guide> &guides, const PamSpec &pam,
                int max_mismatches, bool both_strands,
                Orientation orientation)
{
    return tryBuildPatternSet(guides, pam, max_mismatches, both_strands,
                              orientation)
        .valueOrThrow();
}

} // namespace crispr::core
