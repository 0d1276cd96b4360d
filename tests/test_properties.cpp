/** @file Randomised property tests: all functional engines must agree
 *  on arbitrary (degenerate-mask, N-salted) pattern/genome inputs, not
 *  just the guide+PAM shapes the rest of the suite uses. */

#include <algorithm>

#include <gtest/gtest.h>

#include "ap/simulator.hpp"
#include "automata/builders.hpp"
#include "automata/dfa.hpp"
#include "automata/hopcroft.hpp"
#include "baselines/brute.hpp"
#include "baselines/casoffinder.hpp"
#include "baselines/casot.hpp"
#include "fpga/fabric.hpp"
#include "gpu/infant2.hpp"
#include "core/engine_registry.hpp"
#include "core/score.hpp"
#include "core/session.hpp"
#include "hscan/multipattern.hpp"
#include "hscan/prefilter.hpp"
#include "test_util.hpp"

namespace crispr {
namespace {

using automata::HammingSpec;
using automata::ReportEvent;

class RandomizedCrossValidation : public ::testing::TestWithParam<int>
{
};

TEST_P(RandomizedCrossValidation, AllEnginesAgree)
{
    Rng rng(static_cast<uint64_t>(GetParam()) * 7919);

    // Random multi-pattern set with arbitrary mismatch windows and
    // degenerate masks, over an N-salted genome.
    std::vector<HammingSpec> specs;
    const size_t num = 1 + rng.below(4);
    for (uint32_t i = 0; i < num; ++i) {
        const size_t len = 2 + rng.below(14);
        const int d = static_cast<int>(rng.below(4));
        specs.push_back(test::randomSpec(rng, len, d, i));
    }
    genome::Sequence g = test::randomGenome(rng, 2500, 0.03);

    const auto want = baselines::bruteForceScan(g, specs);

    // Reference interpreter.
    {
        std::vector<automata::Nfa> nfas;
        for (const auto &s : specs)
            nfas.push_back(automata::buildHammingNfa(s));
        automata::Nfa u = automata::unionNfas(nfas);
        automata::NfaInterpreter interp(u);
        auto got = interp.scanAll(g);
        automata::normalizeEvents(got);
        EXPECT_EQ(got, want) << "interpreter";

        // FPGA fabric.
        fpga::FpgaFabric fabric(u);
        EXPECT_EQ(fabric.scanAll(g), want) << "fpga";

        // iNFAnt2 with small chunks to stress seam handling.
        gpu::Infant2Engine infant(u, gpu::SimtModel{}, 256, 40);
        EXPECT_EQ(infant.scanAll(g), want) << "infant2";

        // AP matrix machine.
        ap::ApMachine machine = ap::fromNfa(u);
        ap::ApSimulator sim(machine);
        EXPECT_EQ(sim.scanAll(g), want) << "ap";

        // DFA (when it fits) incl. minimisation.
        auto dfa = automata::subsetConstruct(u, 1u << 16);
        if (dfa) {
            auto got_dfa = dfa->scanAll(g);
            automata::normalizeEvents(got_dfa);
            EXPECT_EQ(got_dfa, want) << "dfa";
            auto min = automata::hopcroftMinimize(*dfa);
            auto got_min = min.scanAll(g);
            automata::normalizeEvents(got_min);
            EXPECT_EQ(got_min, want) << "min-dfa";
        }
    }

    // HScan bit-parallel.
    {
        hscan::DatabaseOptions opts;
        opts.mode = hscan::ScanMode::BitParallel;
        hscan::Scanner scanner(hscan::Database::compile(specs, opts));
        auto got = scanner.scanAll(g);
        automata::normalizeEvents(got);
        EXPECT_EQ(got, want) << "shift-or";
    }

    // Baseline tools.
    EXPECT_EQ(baselines::casOffinderScan(g, specs).events, want)
        << "casoffinder";
    EXPECT_EQ(baselines::casOtScan(g, specs).events, want)
        << "casot-direct";
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomizedCrossValidation,
                         ::testing::Range(1, 13));

class GuideShapeCrossValidation : public ::testing::TestWithParam<int>
{
};

TEST_P(GuideShapeCrossValidation, RealisticShapesAgree)
{
    // Guide(20) + NRG PAM, both strands, planted near-miss sites at the
    // d boundary (exactly d and exactly d+1 mismatches).
    const int d = 1 + GetParam() % 4;
    Rng rng(static_cast<uint64_t>(GetParam()) * 104729);
    genome::Sequence g = test::randomGenome(rng, 8000);

    genome::Sequence guide = genome::randomGuide(rng, 20);
    genome::Sequence site = guide;
    site.append(genome::Sequence::fromString("AGG"));
    // Plant: one site at exactly d, one at exactly d+1 (must not hit).
    genome::Sequence at_d = genome::mutateSite(site, d, 0, 20, rng);
    genome::Sequence over_d = genome::mutateSite(site, d + 1, 0, 20, rng);
    genome::plantSite(g, 1000, at_d);
    genome::plantSite(g, 3000, over_d);

    HammingSpec fwd;
    fwd.masks = genome::masksFromIupac(guide.str() + "NRG");
    fwd.maxMismatches = d;
    fwd.mismatchLo = 0;
    fwd.mismatchHi = 20;
    fwd.reportId = 0;
    HammingSpec rev;
    rev.masks = genome::reverseComplementMasks(fwd.masks);
    rev.maxMismatches = d;
    rev.mismatchLo = 3;
    rev.mismatchHi = 23;
    rev.reportId = 1;
    std::vector<HammingSpec> specs = {fwd, rev};

    auto want = baselines::bruteForceScan(g, specs);
    EXPECT_TRUE(std::find(want.begin(), want.end(),
                          ReportEvent{0, 1022}) != want.end());
    EXPECT_TRUE(std::find(want.begin(), want.end(),
                          ReportEvent{0, 3022}) == want.end());

    hscan::Scanner scanner(hscan::Database::compile(specs));
    auto got = scanner.scanAll(g);
    automata::normalizeEvents(got);
    EXPECT_EQ(got, want);

    // PAM-anchored prefilter engine (the PAM is the anchor here).
    hscan::PrefilterMatcher prefilter(specs);
    EXPECT_EQ(prefilter.scanAll(g), want);

    // Multi-threaded chunked scan with odd seams; the guide's pattern
    // set is exactly {fwd, rev} above.
    const core::Engine &bitparallel =
        core::EngineRegistry::instance().engine(
            core::EngineKind::HscanBitParallel);
    auto compiled = std::make_shared<const core::CompiledPattern>(
        bitparallel.compile(
            core::buildPatternSet({core::makeGuide("g", guide.str())},
                                  core::pamNRG(), d, true),
            core::EngineParams{}));
    core::ChunkedScanOptions copts;
    copts.threads = 3;
    copts.chunkSize = 997;
    EXPECT_EQ(core::ChunkedScanner(bitparallel, compiled, copts)
                  .scan(g)
                  .events,
              want);

    baselines::CasOtConfig idx;
    idx.mode = baselines::CasOtMode::Indexed;
    EXPECT_EQ(baselines::casOtScan(g, specs, idx).events, want);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GuideShapeCrossValidation,
                         ::testing::Range(0, 8));

class ScoredHitProperty : public ::testing::TestWithParam<int>
{
};

// Differential scoring property: the mismatch-position mask filled
// in-scan equals the post-hoc hitMismatchPositions() recomputation for
// every hit on every engine (the bit-level twin of the penalty
// equality the scoring tier proves).
TEST_P(ScoredHitProperty, InScanMaskMatchesPostHocOnEveryEngine)
{
    const uint64_t seed =
        test::testSeed(0x5C03Eull * 1000003 + GetParam());
    Rng rng(seed);
    genome::Sequence g = test::randomGenome(rng, 6000);

    std::vector<core::Guide> guides;
    for (int i = 0; i < 2; ++i) {
        guides.push_back(core::makeGuide(
            "g" + std::to_string(i),
            genome::randomGuide(rng, 20).str()));
        genome::Sequence site = guides.back().protospacer;
        site.append(genome::Sequence::fromString("AGG"));
        for (int copy = 0; copy < 4; ++copy) {
            genome::Sequence mutated = genome::mutateSite(
                site, static_cast<int>(rng.below(4)), 0, 20, rng);
            if (rng.chance(0.3))
                mutated = mutated.reverseComplement();
            genome::plantSite(
                g, rng.below(g.size() - mutated.size() + 1), mutated);
        }
    }

    core::SearchConfig cfg;
    cfg.maxMismatches = 3;
    cfg.params.fullSimSymbolLimit = 4 << 10;
    core::SearchSession session(guides, cfg, /*cache_capacity=*/16);
    for (core::EngineKind kind :
         core::EngineRegistry::instance().kinds()) {
        core::SearchConfig engine_cfg = cfg;
        engine_cfg.engine = kind;
        auto got = session.trySearch(g, engine_cfg);
        if (!got.ok()) {
            const auto code = got.error().code();
            if (kind == core::EngineKind::HscanDfa &&
                (code == common::ErrorCode::CompileFailed ||
                 code == common::ErrorCode::ResourceExhausted))
                continue;
            FAIL() << "seed=" << seed << " engine="
                   << core::engineName(kind)
                   << " failed: " << got.error().str();
        }
        for (const core::OffTargetHit &hit : got.value().hits) {
            const auto positions = core::hitMismatchPositions(
                g, got.value().patterns, hit);
            EXPECT_EQ(hit.mismatchMask,
                      core::mismatchPositionsToMask(positions))
                << "seed=" << seed
                << " engine=" << core::engineName(kind)
                << " guide=" << hit.guide << " start=" << hit.start;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScoredHitProperty,
                         ::testing::Range(0, 4));

} // namespace
} // namespace crispr
