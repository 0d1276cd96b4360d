/** @file Cross-engine integration tests: every engine must return the
 *  identical verified hit set. This is the central correctness claim of
 *  the reproduction. */

#include <algorithm>

#include <gtest/gtest.h>

#include "common/logging.hpp"
#include "core/engine_registry.hpp"
#include "core/report.hpp"
#include "core/search.hpp"
#include "genome/generator.hpp"

namespace crispr::core {
namespace {

struct Workload
{
    genome::Sequence genome;
    std::vector<Guide> guides;
    std::vector<size_t> planted;
};

/** Genome with guides sampled from it and extra mutated sites planted. */
Workload
makeWorkload(uint64_t seed, size_t genome_len, size_t num_guides, int d)
{
    Workload w;
    genome::GenomeSpec gs;
    gs.length = genome_len;
    gs.seed = seed;
    gs.model = genome::CompositionModel::GcBiased;
    gs.n_fraction = 0.005;
    w.genome = genome::generateGenome(gs);
    w.guides = guidesFromGenome(w.genome, num_guides, 20, seed + 1);

    // Plant mutated sites (guide + NGG PAM) for guide 0.
    Rng rng(seed + 2);
    genome::Sequence site = w.guides[0].protospacer;
    site.append(genome::Sequence::fromString("TGG"));
    w.planted =
        genome::plantMutatedSites(w.genome, site, 4,
                                  std::max(0, d - 1), 0, 20, rng);
    return w;
}

class CrossEngine
    : public ::testing::TestWithParam<std::tuple<EngineKind, int>>
{
};

TEST_P(CrossEngine, AllEnginesAgreeWithBruteForce)
{
    auto [engine, d] = GetParam();
    Workload w = makeWorkload(100 + d, 20000, 3, d);

    SearchConfig golden;
    golden.maxMismatches = d;
    golden.engine = EngineKind::Brute;
    SearchResult want = search(w.genome, w.guides, golden);

    SearchConfig cfg;
    cfg.maxMismatches = d;
    cfg.engine = engine;
    SearchResult got = search(w.genome, w.guides, cfg);

    if (engine == EngineKind::ApCounter) {
        // The counter design aliases overlapping trigger windows onto
        // one shared counter (documented limitation, quantified by the
        // E11 ablation): spurious events are dropped by verification,
        // so surviving hits are a subset of the golden set; sites can
        // also be missed when a second trigger opens inside a window.
        for (const OffTargetHit &h : got.hits) {
            EXPECT_TRUE(std::find(want.hits.begin(), want.hits.end(),
                                  h) != want.hits.end());
        }
        return;
    }
    EXPECT_EQ(got.hits, want.hits);
    EXPECT_EQ(got.droppedEvents, 0u);

    // Planted sites for guide 0 must be present.
    for (size_t at : w.planted) {
        bool found = false;
        for (const OffTargetHit &h : got.hits) {
            found |= h.guide == 0 && h.start == at &&
                     h.strand == Strand::Forward;
        }
        EXPECT_TRUE(found) << "planted site at " << at << " missing";
    }
}

INSTANTIATE_TEST_SUITE_P(
    Engines, CrossEngine,
    ::testing::Combine(
        ::testing::Values(EngineKind::Reference, EngineKind::HscanAuto,
                          EngineKind::HscanBitParallel,
                          EngineKind::HscanPrefilter,
                          EngineKind::GpuInfant2, EngineKind::Fpga,
                          EngineKind::Ap, EngineKind::ApCounter,
                          EngineKind::CasOffinder, EngineKind::CasOt,
                          EngineKind::CasOtIndexed),
        ::testing::Values(0, 1, 2, 3)));

TEST(Search, TimingFieldsPopulated)
{
    Workload w = makeWorkload(7, 10000, 2, 2);
    for (EngineKind engine :
         {EngineKind::HscanAuto, EngineKind::Fpga, EngineKind::Ap,
          EngineKind::GpuInfant2, EngineKind::CasOffinder,
          EngineKind::CasOt}) {
        SearchConfig cfg;
        cfg.maxMismatches = 2;
        cfg.engine = engine;
        SearchResult res = search(w.genome, w.guides, cfg);
        EXPECT_GT(res.run.timing.totalSeconds, 0.0)
            << engineName(engine);
        EXPECT_GT(res.run.timing.kernelSeconds, 0.0)
            << engineName(engine);
        EXPECT_LE(res.run.timing.kernelSeconds,
                  res.run.timing.totalSeconds + 1e-12)
            << engineName(engine);
        EXPECT_FALSE(timingLine(res.run).empty());
    }
}

TEST(Search, SpatialEnginesExposeCapacityMetrics)
{
    Workload w = makeWorkload(8, 8000, 2, 2);
    SearchConfig cfg;
    cfg.maxMismatches = 2;

    cfg.engine = EngineKind::Fpga;
    auto fpga = search(w.genome, w.guides, cfg);
    EXPECT_GT(fpga.run.metrics.at("fpga.luts"), 0.0);
    EXPECT_GT(fpga.run.metrics.at("fpga.clock_mhz"), 0.0);

    cfg.engine = EngineKind::Ap;
    auto ap = search(w.genome, w.guides, cfg);
    EXPECT_GT(ap.run.metrics.at("ap.stes"), 0.0);
    EXPECT_GE(ap.run.metrics.at("ap.passes"), 1.0);

    cfg.engine = EngineKind::ApCounter;
    auto apc = search(w.genome, w.guides, cfg);
    EXPECT_GT(apc.run.metrics.at("ap.counters"), 0.0);
    // Counter design uses far fewer STEs than the matrix design.
    EXPECT_LT(apc.run.metrics.at("ap.stes"),
              ap.run.metrics.at("ap.stes"));
}

TEST(Search, AnalyticPathBeyondFullSimLimit)
{
    // Force the analytic path with a tiny full-sim limit; hits must be
    // unchanged.
    Workload w = makeWorkload(9, 12000, 2, 2);
    SearchConfig cfg;
    cfg.maxMismatches = 2;
    cfg.engine = EngineKind::Fpga;
    SearchResult full = search(w.genome, w.guides, cfg);
    cfg.params.fullSimSymbolLimit = 1;
    SearchResult analytic = search(w.genome, w.guides, cfg);
    EXPECT_EQ(full.hits, analytic.hits);
    EXPECT_NE(analytic.run.notes.find("analytic"), std::string::npos);

    cfg.engine = EngineKind::Ap;
    SearchResult ap = search(w.genome, w.guides, cfg);
    EXPECT_EQ(ap.hits, full.hits);

    cfg.engine = EngineKind::GpuInfant2;
    SearchResult gpu = search(w.genome, w.guides, cfg);
    EXPECT_EQ(gpu.hits, full.hits);

    cfg.engine = EngineKind::ApCounter;
    SearchResult apc = search(w.genome, w.guides, cfg);
    EXPECT_EQ(apc.hits, full.hits);
}

TEST(Search, WrongOrientationIsFatal)
{
    Workload w = makeWorkload(10, 2000, 1, 1);
    PatternSet site_order =
        buildPatternSet(w.guides, pamNRG(), 1, true);
    const EngineRegistry &registry = EngineRegistry::instance();
    EXPECT_THROW(registry.engine(EngineKind::ApCounter)
                     .compile(site_order, EngineParams{}),
                 crispr::FatalError);
    PatternSet pam_first = buildPatternSet(
        w.guides, pamNRG(), 1, true, Orientation::PamFirst);
    EXPECT_THROW(registry.engine(EngineKind::Fpga)
                     .compile(pam_first, EngineParams{}),
                 crispr::FatalError);
}

TEST(Search, NrgPamSupersetOfNggAndNag)
{
    Workload w = makeWorkload(11, 15000, 2, 2);
    SearchConfig cfg;
    cfg.maxMismatches = 2;
    cfg.engine = EngineKind::HscanAuto;

    cfg.pam = pamNGG();
    auto ngg = search(w.genome, w.guides, cfg);
    cfg.pam = pamNAG();
    auto nag = search(w.genome, w.guides, cfg);
    cfg.pam = pamNRG();
    auto nrg = search(w.genome, w.guides, cfg);

    EXPECT_EQ(nrg.hits.size(), ngg.hits.size() + nag.hits.size());
    for (const auto &h : ngg.hits)
        EXPECT_TRUE(std::find(nrg.hits.begin(), nrg.hits.end(), h) !=
                    nrg.hits.end());
}

} // namespace
} // namespace crispr::core
