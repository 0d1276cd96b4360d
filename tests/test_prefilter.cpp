/** @file Unit tests for the PAM-anchored prefilter engine. */

#include <gtest/gtest.h>

#include "baselines/brute.hpp"
#include "common/logging.hpp"
#include "hscan/prefilter.hpp"
#include "test_util.hpp"

namespace crispr::hscan {
namespace {

using automata::HammingSpec;

std::vector<HammingSpec>
guideSpecs(Rng &rng, int d, size_t count)
{
    std::vector<HammingSpec> specs;
    for (uint32_t i = 0; i < count; ++i)
        specs.push_back(crispr::test::randomGuideSpec(rng, 12, 3, d, i));
    return specs;
}

TEST(Prefilter, MatchesGoldenScan)
{
    Rng rng(205);
    for (int d = 0; d <= 4; ++d) {
        auto specs = guideSpecs(rng, d, 3);
        genome::Sequence g =
            crispr::test::randomGenome(rng, 20000, 0.01);
        PrefilterMatcher matcher(specs);
        auto got = matcher.scanAll(g);
        auto want = baselines::bruteForceScan(g, specs);
        EXPECT_EQ(got, want) << "d=" << d;
        EXPECT_GT(matcher.stats().anchorsProbed, 0u);
        EXPECT_GE(matcher.stats().anchorsHit,
                  matcher.stats().events / specs.size());
    }
}

TEST(Prefilter, SharesAnchorScansAcrossGuides)
{
    Rng rng(206);
    std::vector<HammingSpec> specs;
    for (uint32_t i = 0; i < 6; ++i) {
        auto s = crispr::test::randomGuideSpec(rng, 10, 0, 1, i);
        s.masks.push_back(genome::iupacMask('N'));
        s.masks.push_back(genome::iupacMask('G'));
        s.masks.push_back(genome::iupacMask('G'));
        s.mismatchHi = 10;
        specs.push_back(s);
    }
    PrefilterMatcher matcher(specs);
    EXPECT_EQ(matcher.shapeCount(), 1u);
    genome::Sequence g = crispr::test::randomGenome(rng, 5000);
    matcher.scanAll(g);
    // One anchor probe per position, not per (position, guide).
    EXPECT_EQ(matcher.stats().anchorsProbed, g.size() - 13 + 1);
}

TEST(Prefilter, RequiresAnAnchor)
{
    HammingSpec anchorless;
    anchorless.masks = genome::masksFromIupac("ACGT");
    anchorless.maxMismatches = 1;
    EXPECT_THROW(PrefilterMatcher(std::span(&anchorless, 1)),
                 FatalError);
}

} // namespace
} // namespace crispr::hscan
