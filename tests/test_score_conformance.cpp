/**
 * @file
 * Scoring conformance tier (ctest label `scoring`): the differential
 * proof behind in-scan position-weighted scoring. Asserts, with
 * bit-exact (EXPECT_EQ on doubles) comparisons, that
 *  (a) every engine's in-scan mismatch mask + site penalty equals the
 *      post-hoc hitMismatchPositions() / sitePenalty() recomputation,
 *  (b) a ranked search (topK / scoreThreshold) returns exactly
 *      rankHits() over the hits of an unranked full search — ranking
 *      never changes which hits exist,
 *  (c) the ranked listing is invariant across shard counts and
 *      chunk/thread geometry (bit-stable merge order), and
 *  (d) a serialized-database round trip (the v2 engine-state envelope
 *      that carries the weight table) preserves scored state exactly.
 *
 * Reproducibility: assertion messages carry the seed; rerun with
 * `CRISPR_TEST_SEED=<seed> ctest -L scoring`.
 */

#include <algorithm>
#include <filesystem>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "core/engine_registry.hpp"
#include "core/score.hpp"
#include "core/session.hpp"
#include "core/shard.hpp"
#include "test_util.hpp"

namespace crispr {
namespace {

namespace fs = std::filesystem;

using core::EngineKind;

/** RAII temp directory under the system temp root. */
struct TempDir
{
    fs::path path;

    explicit TempDir(const std::string &tag)
    {
        path = fs::temp_directory_path() /
               ("crispr_scoretest_" + tag + "_" +
                std::to_string(::getpid()));
        fs::remove_all(path);
        fs::create_directories(path);
    }

    ~TempDir() { fs::remove_all(path); }

    std::string str() const { return path.string(); }
};

core::Guide
randomGuide(Rng &rng, const std::string &name)
{
    static const char bases[] = "ACGT";
    std::string seq;
    for (int i = 0; i < 20; ++i)
        seq += bases[rng.below(4)];
    return core::makeGuide(name, seq);
}

/** A genome salted with planted near-miss sites (0..d mismatches, both
 *  strands) for every guide, so scored hits actually exist. */
struct ScoredWorkload
{
    genome::Sequence genome;
    std::vector<core::Guide> guides;
};

ScoredWorkload
makeScoredWorkload(uint64_t seed, size_t genome_len, size_t n_guides,
                   int d)
{
    Rng rng(seed);
    ScoredWorkload w;
    w.genome = test::randomGenome(rng, genome_len);
    for (size_t g = 0; g < n_guides; ++g) {
        w.guides.push_back(
            randomGuide(rng, "g" + std::to_string(g)));
        genome::Sequence site = w.guides.back().protospacer;
        site.append(genome::Sequence::fromString("AGG"));
        for (int copy = 0; copy < 6; ++copy) {
            const int mm = static_cast<int>(rng.below(d + 1));
            genome::Sequence mutated =
                genome::mutateSite(site, mm, 0, 20, rng);
            if (rng.chance(0.3))
                mutated = mutated.reverseComplement();
            genome::plantSite(
                w.genome,
                rng.below(genome_len - mutated.size() + 1), mutated);
        }
    }
    return w;
}

/** Serialize one record as FASTA text for the streamed-scan check. */
std::string
fastaOf(const genome::Sequence &seq)
{
    std::string out = ">chr\n";
    const std::string s = seq.str();
    for (size_t i = 0; i < s.size(); i += 70)
        out += s.substr(i, 70) + "\n";
    return out;
}

/** Per-hit differential check: in-scan mask and penalty vs the
 *  post-hoc recomputation. Bit-exact, not approximate. */
void
expectScoredExactly(const genome::Sequence &genome,
                    const core::SearchResult &result,
                    const std::string &label)
{
    for (const core::OffTargetHit &hit : result.hits) {
        const std::vector<size_t> positions =
            core::hitMismatchPositions(genome, result.patterns, hit);
        EXPECT_EQ(positions.size(),
                  static_cast<size_t>(hit.mismatches))
            << label << " guide=" << hit.guide
            << " start=" << hit.start;
        EXPECT_EQ(hit.mismatchMask,
                  core::mismatchPositionsToMask(positions))
            << label << " guide=" << hit.guide
            << " start=" << hit.start;
        EXPECT_EQ(hit.penalty,
                  core::sitePenalty(positions,
                                    result.patterns.guideLength))
            << label << " guide=" << hit.guide
            << " start=" << hit.start
            << " (in-scan penalty must be bit-identical to post-hoc "
               "sitePenalty)";
    }
}

// (a) Every engine's in-scan scores equal the post-hoc recomputation,
// bit for bit — hitsFromEvents is the single funnel, so the guarantee
// must hold on every registry engine, including survivors of the AP
// counter design's verification.
TEST(ScoreConformance, InScanScoresMatchPostHocOnEveryEngine)
{
    const uint64_t seed = test::testSeed(16001);
    const ScoredWorkload w = makeScoredWorkload(seed, 12000, 2, 3);

    core::SearchConfig cfg;
    cfg.maxMismatches = 3;
    cfg.params.fullSimSymbolLimit = 4 << 10;
    core::SearchSession session(w.guides, cfg, /*cache_capacity=*/16);

    auto reference = session.trySearch(w.genome);
    ASSERT_TRUE(reference.ok()) << reference.error().str();
    size_t mismatched_hits = 0;
    for (const auto &hit : reference.value().hits)
        if (hit.mismatches > 0)
            ++mismatched_hits;
    ASSERT_GE(mismatched_hits, 4u)
        << "workload seed=" << seed
        << " planted too few imperfect sites to prove anything";

    Rng trng(seed ^ 0x5C04Eull);
    for (EngineKind kind : core::EngineRegistry::instance().kinds()) {
        core::SearchConfig engine_cfg = cfg;
        engine_cfg.engine = kind;
        engine_cfg.threads = 1 + trng.below(4);
        engine_cfg.chunkSize = size_t{2048} << trng.below(3);
        const std::string label =
            std::string("seed=") + std::to_string(seed) +
            " engine=" + core::engineName(kind);
        auto got = session.trySearch(w.genome, engine_cfg);
        if (!got.ok()) {
            const auto code = got.error().code();
            if (kind == EngineKind::HscanDfa &&
                (code == common::ErrorCode::CompileFailed ||
                 code == common::ErrorCode::ResourceExhausted))
                continue;
            FAIL() << label << " failed: " << got.error().str();
        }
        expectScoredExactly(w.genome, got.value(), label);
        if (kind != EngineKind::ApCounter) {
            EXPECT_EQ(got.value().hits, reference.value().hits)
                << label
                << " (scored hits must stay engine-independent)";
        }
    }
}

// (a, streamed) The per-chunk verification path scores identically to
// the in-memory pass: whole OffTargetHit equality covers mask and
// penalty through operator==.
TEST(ScoreConformance, StreamedChunksScoreIdentically)
{
    const uint64_t seed = test::testSeed(16002);
    const ScoredWorkload w = makeScoredWorkload(seed, 9000, 2, 3);

    core::SearchConfig cfg;
    cfg.maxMismatches = 3;
    core::SearchSession session(w.guides, cfg);
    auto want = session.trySearch(w.genome);
    ASSERT_TRUE(want.ok()) << want.error().str();

    Rng rng(seed ^ 0xFEED);
    cfg.chunkSize = size_t{512} << rng.below(4);
    cfg.threads = 1 + rng.below(4);
    std::istringstream in(fastaOf(w.genome));
    auto streamed = session.trySearchStream(in, cfg);
    ASSERT_TRUE(streamed.ok()) << streamed.error().str();
    EXPECT_EQ(streamed.value().hits, want.value().hits)
        << "seed=" << seed << " chunk=" << cfg.chunkSize
        << " threads=" << cfg.threads;
    expectScoredExactly(w.genome, streamed.value(),
                        "streamed seed=" + std::to_string(seed));
}

// (b) Ranked mode is a view, not a different search: topK/threshold
// return exactly rankHits() over the unranked full result, and leave
// the full hit list untouched.
TEST(ScoreConformance, RankedEqualsFilterAfterFullSearch)
{
    const uint64_t seed = test::testSeed(16003);
    const ScoredWorkload w = makeScoredWorkload(seed, 16000, 3, 3);

    core::SearchConfig cfg;
    cfg.maxMismatches = 3;
    core::SearchSession session(w.guides, cfg);
    auto full = session.trySearch(w.genome);
    ASSERT_TRUE(full.ok()) << full.error().str();
    ASSERT_GE(full.value().hits.size(), 6u) << "seed=" << seed;
    EXPECT_FALSE(full.value().rankedMode);
    EXPECT_TRUE(full.value().ranked.empty());

    // A threshold equal to an actual hit penalty exercises the >=
    // boundary: that hit must be kept.
    std::vector<double> penalties;
    for (const auto &hit : full.value().hits)
        penalties.push_back(hit.penalty);
    std::sort(penalties.begin(), penalties.end());
    const double threshold = penalties[penalties.size() / 2];

    struct Knobs
    {
        size_t topK;
        double scoreThreshold;
    };
    const Knobs cases[] = {
        {3, 0.0},              // top-K only
        {0, threshold},        // threshold only (all survivors)
        {2, threshold},        // both
        {1000000, 0.0},        // K past the hit count: keeps all
    };
    for (const Knobs &k : cases) {
        core::SearchConfig ranked_cfg = cfg;
        ranked_cfg.topK = k.topK;
        ranked_cfg.scoreThreshold = k.scoreThreshold;
        auto ranked = session.trySearch(w.genome, ranked_cfg);
        ASSERT_TRUE(ranked.ok()) << ranked.error().str();
        const std::string label = "seed=" + std::to_string(seed) +
                                  " topK=" + std::to_string(k.topK) +
                                  " threshold=" +
                                  std::to_string(k.scoreThreshold);
        EXPECT_TRUE(ranked.value().rankedMode) << label;
        EXPECT_EQ(ranked.value().hits, full.value().hits)
            << label << " (ranking must not change the hit set)";
        const auto want = core::rankHits(full.value().hits,
                                         k.scoreThreshold, k.topK);
        EXPECT_EQ(ranked.value().ranked, want) << label;
        EXPECT_EQ(ranked.value().run.metrics.at("search.ranked"),
                  static_cast<double>(want.size()))
            << label;
        for (const auto &hit : ranked.value().ranked)
            EXPECT_GE(hit.penalty, k.scoreThreshold) << label;
        // Penalty-descending with deterministic tiebreaks.
        for (size_t i = 1; i < ranked.value().ranked.size(); ++i)
            EXPECT_FALSE(core::rankedHitBefore(
                ranked.value().ranked[i],
                ranked.value().ranked[i - 1]))
                << label << " rank " << i << " out of order";
    }
}

// (c) The ranked listing is bit-stable across shard counts and
// chunk/thread geometry: per-shard top-K merges to exactly the
// single-session listing (the superset argument in shard.hpp).
TEST(ScoreConformance, RankedInvariantAcrossShardsAndGeometry)
{
    const uint64_t seed = test::testSeed(16004);
    Rng rng(seed);
    const ScoredWorkload w = makeScoredWorkload(seed, 24000, 3, 3);
    auto genome =
        std::make_shared<const genome::Sequence>(w.genome);

    core::SearchConfig config;
    config.maxMismatches = 3;
    core::SearchSession session(w.guides, config);
    const core::SearchResult full = session.search(*genome);
    ASSERT_GE(full.hits.size(), 8u) << "seed=" << seed;
    const size_t top_k = full.hits.size() / 2;
    config.topK = top_k;
    const core::SearchResult reference =
        session.search(*genome, config);
    ASSERT_TRUE(reference.rankedMode);
    ASSERT_EQ(reference.ranked.size(), top_k);

    // Geometry invariance within one session first.
    for (int i = 0; i < 3; ++i) {
        core::SearchConfig geo = config;
        geo.chunkSize = size_t{512} << rng.below(5);
        geo.threads = 1 + rng.below(4);
        const core::SearchResult again = session.search(*genome, geo);
        EXPECT_EQ(again.ranked, reference.ranked)
            << "seed=" << seed << " chunk=" << geo.chunkSize
            << " threads=" << geo.threads;
    }

    // Invariance at every shard count, on the shard count's lanes or
    // on the request's own.
    const size_t kChunkSizes[] = {257, 1031, 4096};
    for (size_t shards : {1, 2, 4, 8}) {
        core::ShardOptions options;
        options.shards = shards;
        options.service.batchWindowSeconds = -1.0;
        core::ShardedSearchService service(options);

        core::RequestOptions request;
        request.genome = genome;
        request.config = config;
        request.config.chunkSize = kChunkSizes[rng.below(3)];
        if (const unsigned draw = static_cast<unsigned>(rng.below(3)))
            request.config.threads = 1u + draw;
        auto fut = service.trySubmit(w.guides, request);
        service.drain();
        auto served = fut.get();
        ASSERT_TRUE(served.ok())
            << shards << " shards seed=" << seed << ": "
            << served.error().message();
        EXPECT_TRUE(served.value().rankedMode) << shards << " shards";
        EXPECT_EQ(served.value().ranked, reference.ranked)
            << shards << " shards chunk="
            << request.config.chunkSize
            << " threads=" << request.config.threads
            << " seed=" << seed;
        EXPECT_EQ(served.value().hits, full.hits)
            << shards << " shards seed=" << seed;
    }
}

// (d) The serialized pattern database preserves scored state: a warm
// start from the v2 envelope (which carries the weight table) scores
// bit-identically to the cold compile that wrote it.
TEST(ScoreConformance, DatabaseRoundTripPreservesScoredState)
{
    const uint64_t seed = test::testSeed(16005);
    const ScoredWorkload w = makeScoredWorkload(seed, 10000, 2, 2);
    TempDir dir("roundtrip");

    core::SearchConfig cfg;
    cfg.maxMismatches = 2;
    cfg.engine = EngineKind::HscanBitParallel;
    cfg.databaseDir = dir.str();
    cfg.topK = 5;

    core::SearchSession cold(w.guides, cfg);
    const core::SearchResult cold_result = cold.search(w.genome);
    EXPECT_EQ(cold.compileCount(), 1u);
    EXPECT_EQ(cold.databaseMisses(), 1u);
    ASSERT_FALSE(cold_result.hits.empty()) << "seed=" << seed;

    core::SearchSession warm(w.guides, cfg);
    const core::SearchResult warm_result = warm.search(w.genome);
    EXPECT_EQ(warm.compileCount(), 0u);
    EXPECT_EQ(warm.databaseHits(), 1u);

    // Whole-struct equality: mask and penalty round-trip exactly.
    EXPECT_EQ(warm_result.hits, cold_result.hits) << "seed=" << seed;
    EXPECT_EQ(warm_result.ranked, cold_result.ranked)
        << "seed=" << seed;
    EXPECT_EQ(warm_result.patterns.scoreWeights,
              cold_result.patterns.scoreWeights);
    EXPECT_EQ(warm_result.patterns.scoreWeights,
              core::scoreWeightTable(20));
    expectScoredExactly(w.genome, warm_result,
                        "warm seed=" + std::to_string(seed));
}

} // namespace
} // namespace crispr
