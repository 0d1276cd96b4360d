/**
 * @file
 * The SIMD conformance matrix: proves every vector kernel tier
 * (scalar / AVX2 / AVX-512) of the Shift-Or matcher and the prefilter
 * anchor probe is bit-identical to the scalar reference — across lane
 * boundaries and ragged tails, chunk seams, the whole mismatch-budget
 * range, and the prefilter work-counter invariants — and that tier
 * dispatch resolves with the documented precedence (CRISPR_SIMD env
 * over the per-request tier over CPUID).
 *
 * Tiers the host or build cannot run are skipped with a logged note,
 * so the suite passes (and still proves scalar identity) on any
 * machine.
 */

#include <cstdio>
#include <cstdlib>
#include <optional>

#include <gtest/gtest.h>

#include "baselines/brute.hpp"
#include "common/logging.hpp"
#include "core/search.hpp"
#include "hscan/multipattern.hpp"
#include "hscan/prefilter.hpp"
#include "hscan/shiftor.hpp"
#include "hscan/simd.hpp"
#include "hscan/simd_shiftor.hpp"
#include "test_util.hpp"

namespace crispr::hscan {
namespace {

using automata::HammingSpec;
using automata::ReportEvent;
using genome::Sequence;

/**
 * The concrete tiers this host/build can execute, widest last. Tiers
 * that cannot run are announced once so a log of a green run on a
 * non-AVX host shows what was not covered.
 */
std::vector<SimdTier>
usableTiers()
{
    std::vector<SimdTier> tiers;
    for (SimdTier tier :
         {SimdTier::Scalar, SimdTier::Avx2, SimdTier::Avx512}) {
        if (simdTierUsable(tier)) {
            tiers.push_back(tier);
        } else {
            static bool noted[4] = {};
            if (!noted[static_cast<int>(tier)]) {
                noted[static_cast<int>(tier)] = true;
                std::printf("[  NOTE    ] SIMD tier %s not usable on "
                            "this host/build; skipping its cases\n",
                            simdTierName(tier));
            }
        }
    }
    return tiers;
}

/** Scoped save/set/restore of one environment variable. */
class EnvGuard
{
  public:
    explicit EnvGuard(const char *name) : name_(name)
    {
        if (const char *v = std::getenv(name))
            saved_ = v;
    }
    ~EnvGuard()
    {
        if (saved_)
            setenv(name_, saved_->c_str(), 1);
        else
            unsetenv(name_);
    }
    void set(const char *value) { setenv(name_, value, 1); }
    void clear() { unsetenv(name_); }

  private:
    const char *name_;
    std::optional<std::string> saved_;
};

std::vector<ReportEvent>
scalarScan(std::span<const HammingSpec> specs, const Sequence &g)
{
    ShiftOrMatcher m(specs);
    auto events = m.scanAll(g);
    automata::normalizeEvents(events);
    return events;
}

std::vector<ReportEvent>
tierScan(std::span<const HammingSpec> specs, const Sequence &g,
         SimdTier tier)
{
    SimdShiftOrMatcher m(specs, tier);
    auto events = m.scanAll(g);
    automata::normalizeEvents(events);
    return events;
}

TEST(SimdDispatch, TierTableIsCoherent)
{
    EXPECT_TRUE(simdTierUsable(SimdTier::Scalar));
    EXPECT_FALSE(simdTierUsable(SimdTier::Auto));
    EXPECT_TRUE(simdTierUsable(bestSimdTier()));

    for (SimdTier tier : {SimdTier::Auto, SimdTier::Scalar,
                          SimdTier::Avx2, SimdTier::Avx512})
        EXPECT_EQ(parseSimdTier(simdTierName(tier)), tier);
    EXPECT_EQ(parseSimdTier("sse9"), std::nullopt);

    EXPECT_EQ(simdTierGaugeValue(SimdTier::Scalar), 0.0);
    EXPECT_EQ(simdTierGaugeValue(SimdTier::Avx2), 1.0);
    EXPECT_EQ(simdTierGaugeValue(SimdTier::Avx512), 2.0);
}

TEST(SimdDispatch, EnvOverridesRequestedTier)
{
    EnvGuard env("CRISPR_SIMD");

    // No override: Auto resolves to the widest usable tier and a
    // concrete usable request is honoured verbatim.
    env.clear();
    EXPECT_EQ(resolveSimdTier(SimdTier::Auto), bestSimdTier());
    EXPECT_EQ(resolveSimdTier(SimdTier::Scalar), SimdTier::Scalar);
    EXPECT_EQ(resolveSimdTier(), bestSimdTier());

    // The env kill switch wins over any per-request tier.
    env.set("scalar");
    EXPECT_EQ(resolveSimdTier(SimdTier::Auto), SimdTier::Scalar);
    EXPECT_EQ(resolveSimdTier(bestSimdTier()), SimdTier::Scalar);

    // env=auto explicitly hands the choice back to CPUID.
    env.set("auto");
    EXPECT_EQ(resolveSimdTier(SimdTier::Scalar), bestSimdTier());

    // A vector tier in the env is honoured when usable.
    if (simdTierUsable(SimdTier::Avx2)) {
        env.set("avx2");
        EXPECT_EQ(resolveSimdTier(SimdTier::Scalar), SimdTier::Avx2);
    }

    // An unparseable value is ignored (warned once), not fatal.
    env.set("quantum");
    EXPECT_EQ(resolveSimdTier(SimdTier::Scalar), SimdTier::Scalar);
}

TEST(SimdDispatch, UnusableRequestDegradesBelowNeverAbove)
{
    EnvGuard env("CRISPR_SIMD");
    env.clear();
    // Whatever tier resolution returns must always be executable —
    // the never-an-illegal-instruction contract.
    for (SimdTier requested : {SimdTier::Auto, SimdTier::Scalar,
                               SimdTier::Avx2, SimdTier::Avx512}) {
        const SimdTier resolved = resolveSimdTier(requested);
        EXPECT_TRUE(simdTierUsable(resolved))
            << "requested " << simdTierName(requested);
        if (requested != SimdTier::Auto) {
            EXPECT_LE(static_cast<int>(resolved),
                      static_cast<int>(requested));
        }
    }
}

TEST(SimdShiftOr, LaneBoundaryPatternCounts)
{
    // Pattern counts straddling the 4-lane (AVX2) and 8-lane
    // (AVX-512) boundaries: padded lanes must never report.
    Rng rng(test::testSeed(8101));
    const Sequence g = test::randomGenome(rng, 3000, 0.01);
    for (size_t patterns : {1u, 3u, 4u, 5u, 7u, 8u, 9u, 16u, 17u}) {
        std::vector<HammingSpec> specs;
        for (uint32_t i = 0; i < patterns; ++i)
            specs.push_back(test::randomGuideSpec(rng, 10, 3, 2, i));
        const auto want = scalarScan(specs, g);
        EXPECT_EQ(want, baselines::bruteForceScan(g, specs));
        for (SimdTier tier : usableTiers())
            EXPECT_EQ(tierScan(specs, g, tier), want)
                << "patterns=" << patterns << " tier="
                << simdTierName(tier);
    }
}

TEST(SimdShiftOr, TailGenomeLengths)
{
    // Genome lengths 0 and +-1 around the vector block widths (32
    // positions for AVX2, 64 for AVX-512): the ragged tail and the
    // empty input must match the scalar reference exactly.
    Rng rng(test::testSeed(8102));
    std::vector<HammingSpec> specs;
    for (uint32_t i = 0; i < 5; ++i)
        specs.push_back(test::randomGuideSpec(rng, 8, 2, 1, i));
    for (size_t len : {0u, 1u, 9u, 10u, 11u, 31u, 32u, 33u, 63u, 64u,
                       65u, 127u, 128u, 129u}) {
        const Sequence g = test::randomGenome(rng, len);
        const auto want = scalarScan(specs, g);
        for (SimdTier tier : usableTiers())
            EXPECT_EQ(tierScan(specs, g, tier), want)
                << "len=" << len << " tier=" << simdTierName(tier);
    }
}

TEST(SimdShiftOr, ChunkSeamIdentityPerTier)
{
    // Streaming in ragged chunks (sizes coprime to every lane width)
    // through the same matcher must equal the whole-sequence scan.
    Rng rng(test::testSeed(8103));
    std::vector<HammingSpec> specs;
    for (uint32_t i = 0; i < 6; ++i)
        specs.push_back(test::randomGuideSpec(rng, 12, 3, 2, i));
    const Sequence g = test::randomGenome(rng, 2000, 0.01);

    for (SimdTier tier : usableTiers()) {
        SimdShiftOrMatcher whole(specs, tier);
        auto want = whole.scanAll(g);
        automata::normalizeEvents(want);

        for (size_t chunk : {1u, 7u, 41u, 333u}) {
            SimdShiftOrMatcher streamed(specs, tier);
            streamed.reset();
            std::vector<ReportEvent> got;
            auto sink = [&](uint32_t id, uint64_t end) {
                got.push_back(ReportEvent{id, end});
            };
            for (size_t at = 0; at < g.size(); at += chunk) {
                const size_t n = std::min(chunk, g.size() - at);
                streamed.scan({g.data() + at, n}, sink, at);
            }
            automata::normalizeEvents(got);
            EXPECT_EQ(got, want)
                << "chunk=" << chunk << " tier=" << simdTierName(tier);
        }
    }
}

TEST(SimdShiftOr, MismatchSaturationD0To5)
{
    // The full mismatch-budget range against the brute-force golden
    // scan, with heterogeneous budgets sharing one row block.
    Rng rng(test::testSeed(8104));
    const Sequence g = test::randomGenome(rng, 4000, 0.01);
    for (int d = 0; d <= 5; ++d) {
        std::vector<HammingSpec> specs;
        for (uint32_t i = 0; i < 6; ++i)
            specs.push_back(
                test::randomGuideSpec(rng, 10, 3, i % (d + 1), i));
        const auto want = baselines::bruteForceScan(g, specs);
        EXPECT_EQ(scalarScan(specs, g), want) << "d=" << d;
        for (SimdTier tier : usableTiers())
            EXPECT_EQ(tierScan(specs, g, tier), want)
                << "d=" << d << " tier=" << simdTierName(tier);
    }
}

TEST(SimdShiftOr, SixtyFourPositionPatterns)
{
    // Full-word patterns: the accept bit lives in bit 63, where a
    // shifted-in carry would corrupt a lane that mis-handled the
    // top bit.
    Rng rng(test::testSeed(8105));
    std::vector<HammingSpec> specs;
    for (uint32_t i = 0; i < 5; ++i)
        specs.push_back(test::randomSpec(rng, 64, 2, i));
    const Sequence g = test::randomGenome(rng, 3000);
    const auto want = baselines::bruteForceScan(g, specs);
    EXPECT_EQ(scalarScan(specs, g), want);
    for (SimdTier tier : usableTiers())
        EXPECT_EQ(tierScan(specs, g, tier), want)
            << "tier=" << simdTierName(tier);
}

TEST(SimdPrefilter, EventsAndStatsBitIdenticalAcrossTiers)
{
    Rng rng(test::testSeed(8106));
    std::vector<HammingSpec> specs;
    for (uint32_t i = 0; i < 8; ++i)
        specs.push_back(test::randomGuideSpec(rng, 20, 3, 3, i));

    // Genome lengths around the 32/64-position probe blocks plus a
    // large one spanning several blocks.
    for (size_t len : {0u, 22u, 23u, 24u, 63u, 64u, 65u, 127u, 128u,
                       129u, 5000u}) {
        const Sequence g = test::randomGenome(rng, len, 0.01);
        PrefilterMatcher scalar(specs);
        const auto want = scalar.scanAll(g);
        const PrefilterStats want_stats = scalar.stats();
        EXPECT_EQ(want, baselines::bruteForceScan(g, specs))
            << "len=" << len;

        for (SimdTier tier : usableTiers()) {
            PrefilterMatcher m(specs);
            m.setSimdTier(tier);
            EXPECT_EQ(m.simdTier(), tier);
            EXPECT_EQ(m.scanAll(g), want)
                << "len=" << len << " tier=" << simdTierName(tier);
            // The cascade itself must be identical, not just its
            // output: every tier probes, survives, and verifies the
            // exact same candidates.
            EXPECT_EQ(m.stats().anchorsProbed, want_stats.anchorsProbed);
            EXPECT_EQ(m.stats().anchorsHit, want_stats.anchorsHit);
            EXPECT_EQ(m.stats().verifications,
                      want_stats.verifications);
            EXPECT_EQ(m.stats().events, want_stats.events);
        }
    }
}

TEST(SimdPrefilter, StatInvariantsHold)
{
    Rng rng(test::testSeed(8107));
    std::vector<HammingSpec> specs;
    for (uint32_t i = 0; i < 10; ++i)
        specs.push_back(test::randomGuideSpec(rng, 20, 3, 3, i));
    const Sequence g = test::randomGenome(rng, 20000, 0.01);

    for (SimdTier tier : usableTiers()) {
        PrefilterMatcher m(specs);
        m.setSimdTier(tier);
        const auto events = m.scanAll(g);
        const PrefilterStats &s = m.stats();

        // A candidate can only come from a probed position, every
        // surviving candidate is verified against at least one spec,
        // and every event came out of a verification.
        EXPECT_GT(s.anchorsProbed, 0u);
        EXPECT_LE(s.anchorsHit, s.anchorsProbed);
        EXPECT_GE(s.verifications, s.anchorsHit);
        EXPECT_LE(s.events, s.verifications);
        EXPECT_EQ(s.events, events.size())
            << "tier=" << simdTierName(tier);

        // Verified hits are a subset of anchor survivors: every event
        // still satisfies the anchor predicate at its site.
        for (const ReportEvent &ev : events) {
            const HammingSpec &spec = specs[ev.reportId];
            const size_t start = ev.end + 1 - spec.masks.size();
            for (size_t j = std::min(spec.mismatchHi,
                                     spec.masks.size());
                 j < spec.masks.size(); ++j)
                EXPECT_TRUE(genome::maskMatches(spec.masks[j],
                                                g[start + j]))
                    << "tier=" << simdTierName(tier);
        }
    }
}

TEST(SimdSearch, RuntimeOptionsTierReachesTheScanAndEnvWins)
{
    EnvGuard env("CRISPR_SIMD");
    env.clear();

    Rng rng(test::testSeed(8108));
    std::vector<core::Guide> guides;
    static const char bases[] = "ACGT";
    for (int i = 0; i < 4; ++i) {
        std::string seq;
        for (int j = 0; j < 20; ++j)
            seq += bases[rng.below(4)];
        guides.push_back(
            core::makeGuide("g" + std::to_string(i), seq));
    }
    const Sequence g = test::randomGenome(rng, 50000);

    core::SearchConfig cfg;
    cfg.engine = core::EngineKind::HscanBitParallel;

    // The per-request tier reaches the kernel (scan.simd_tier gauge)
    // and every tier reports identical hits.
    std::optional<std::vector<core::OffTargetHit>> first;
    for (SimdTier tier : usableTiers()) {
        cfg.simdTier = tier;
        core::SearchResult res = core::search(g, guides, cfg);
        EXPECT_EQ(res.run.metrics.at("scan.simd_tier"),
                  simdTierGaugeValue(tier))
            << "tier=" << simdTierName(tier);
        if (first)
            EXPECT_EQ(res.hits, *first)
                << "tier=" << simdTierName(tier);
        else
            first = res.hits;
    }

    // The CRISPR_SIMD kill switch overrides the request.
    env.set("scalar");
    cfg.simdTier = bestSimdTier();
    core::SearchResult res = core::search(g, guides, cfg);
    EXPECT_EQ(res.run.metrics.at("scan.simd_tier"), 0.0);
    EXPECT_EQ(res.hits, *first);

    // And the same precedence holds on the prefilter cascade.
    env.clear();
    cfg.engine = core::EngineKind::HscanPrefilter;
    for (SimdTier tier : usableTiers()) {
        cfg.simdTier = tier;
        core::SearchResult pre = core::search(g, guides, cfg);
        EXPECT_EQ(pre.run.metrics.at("scan.simd_tier"),
                  simdTierGaugeValue(tier));
        EXPECT_EQ(pre.hits, *first) << "tier=" << simdTierName(tier);
        EXPECT_GT(pre.run.metrics.at("scan.prefilter.anchors_probed"),
                  0.0);
        EXPECT_LE(pre.run.metrics.at("scan.prefilter.anchors_hit"),
                  pre.run.metrics.at("scan.prefilter.anchors_probed"));
        EXPECT_GE(pre.run.metrics.at("scan.prefilter.verifications"),
                  pre.run.metrics.at("scan.prefilter.anchors_hit"));
    }
}

TEST(SimdSearch, ChunkedAndThreadedScansHonourTheTier)
{
    EnvGuard env("CRISPR_SIMD");
    env.clear();

    Rng rng(test::testSeed(8109));
    std::vector<core::Guide> guides;
    static const char bases[] = "ACGT";
    for (int i = 0; i < 3; ++i) {
        std::string seq;
        for (int j = 0; j < 20; ++j)
            seq += bases[rng.below(4)];
        guides.push_back(
            core::makeGuide("g" + std::to_string(i), seq));
    }
    const Sequence g = test::randomGenome(rng, 100000);

    core::SearchConfig serial;
    serial.engine = core::EngineKind::HscanBitParallel;
    serial.simdTier = SimdTier::Scalar;
    const core::SearchResult want = core::search(g, guides, serial);

    for (SimdTier tier : usableTiers()) {
        core::SearchConfig cfg = serial;
        cfg.simdTier = tier;
        cfg.threads = 4;
        cfg.chunkSize = 4096;
        core::SearchResult res = core::search(g, guides, cfg);
        EXPECT_EQ(res.hits, want.hits)
            << "tier=" << simdTierName(tier);
    }
}

} // namespace
} // namespace crispr::hscan
