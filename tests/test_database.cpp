/** @file Tests for the ahead-of-time pattern database tier: engine
 *  state serialization round-trips, corrupt/stale blob rejection, the
 *  SearchSession disk tier, SearchService pre-warm, and the engine=auto
 *  cost-model selection. */

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "common/logging.hpp"
#include "common/serial.hpp"
#include "core/engine_auto.hpp"
#include "core/engine_registry.hpp"
#include "core/pattern_db.hpp"
#include "core/service.hpp"
#include "core/session.hpp"
#include "genome/generator.hpp"
#include "test_util.hpp"

namespace crispr {
namespace {

namespace fs = std::filesystem;

core::Guide
randomGuide(Rng &rng, const std::string &name, size_t length = 20)
{
    static const char bases[] = "ACGT";
    std::string seq;
    for (size_t i = 0; i < length; ++i)
        seq += bases[rng.below(4)];
    return core::makeGuide(name, seq);
}

std::vector<core::Guide>
randomGuides(Rng &rng, size_t count, size_t length = 20)
{
    std::vector<core::Guide> guides;
    for (size_t i = 0; i < count; ++i)
        guides.push_back(
            randomGuide(rng, "g" + std::to_string(i), length));
    return guides;
}

genome::Sequence
testGenome(uint64_t seed, size_t length = 20000)
{
    genome::GenomeSpec gs;
    gs.length = length;
    gs.seed = seed;
    return genome::generateGenome(gs);
}

/** RAII temp directory under the system temp root. */
struct TempDir
{
    fs::path path;

    explicit TempDir(const std::string &tag)
    {
        path = fs::temp_directory_path() /
               ("crispr_dbtest_" + tag + "_" +
                std::to_string(::getpid()));
        fs::remove_all(path);
        fs::create_directories(path);
    }

    ~TempDir() { fs::remove_all(path); }

    std::string str() const { return path.string(); }
};

/** The engines that must support serialization (ISSUE acceptance). */
std::vector<core::EngineKind>
serializableEngines()
{
    return {core::EngineKind::HscanAuto, core::EngineKind::HscanDfa,
            core::EngineKind::HscanBitParallel,
            core::EngineKind::Reference};
}

core::PatternSet
patternSetFor(const std::vector<core::Guide> &guides, int d,
              const core::Engine &engine)
{
    return core::buildPatternSet(guides, core::pamNRG(), d,
                                 /*both_strands=*/true,
                                 engine.requiredOrientation());
}

TEST(EngineSerialization, CapabilityFlagMatchesTheEngineClass)
{
    const auto &registry = core::EngineRegistry::instance();
    for (core::EngineKind kind : serializableEngines())
        EXPECT_TRUE(registry.engine(kind).supportsSerialization())
            << core::engineName(kind);
    // Device-model engines report the capability cleanly absent.
    Rng rng(1);
    for (core::EngineKind kind :
         {core::EngineKind::Fpga, core::EngineKind::Ap,
          core::EngineKind::GpuInfant2, core::EngineKind::Brute}) {
        const core::Engine &engine = registry.engine(kind);
        EXPECT_FALSE(engine.supportsSerialization()) << engine.name();
        core::PatternSet set =
            patternSetFor(randomGuides(rng, 1), 1, engine);
        auto compiled = engine.tryCompile(set);
        ASSERT_TRUE(compiled.ok()) << engine.name();
        auto blob = engine.serializeState(compiled.value());
        ASSERT_FALSE(blob.ok()) << engine.name();
        EXPECT_EQ(blob.error().code(),
                  common::ErrorCode::UnsupportedEngine)
            << engine.name();
    }
}

TEST(EngineSerialization, RoundTripIsBitIdenticalPerEngineAndBudget)
{
    Rng rng(test::testSeed(9101));
    const genome::Sequence genome_seq = testGenome(9102);

    for (core::EngineKind kind : serializableEngines()) {
        const core::Engine &engine =
            core::EngineRegistry::instance().engine(kind);
        for (int d = 0; d <= 4; ++d) {
            // Shorter guides at high d keep the forced-DFA subset
            // construction inside a sane budget while still exercising
            // every mismatch tier.
            std::vector<core::Guide> guides =
                randomGuides(rng, 2, d >= 3 ? 12 : 20);
            core::EngineParams params;
            params.hscanOpts.maxDfaStates = 1u << 21;
            core::PatternSet set = patternSetFor(guides, d, engine);
            auto compiled = engine.tryCompile(set, params);
            ASSERT_TRUE(compiled.ok())
                << engine.name() << " d=" << d;

            auto blob = engine.serializeState(compiled.value());
            ASSERT_TRUE(blob.ok()) << engine.name() << " d=" << d;

            auto loaded =
                engine.deserializeState(set, params, blob.value());
            ASSERT_TRUE(loaded.ok())
                << engine.name() << " d=" << d << ": "
                << (loaded.ok() ? "" : loaded.error().message());
            EXPECT_GE(loaded.value().metrics.count(
                          "compile.from_database"),
                      1u);

            core::EngineRun cold = engine.scan(
                compiled.value(), core::SequenceView(genome_seq));
            core::EngineRun warm = engine.scan(
                loaded.value(), core::SequenceView(genome_seq));
            EXPECT_EQ(cold.events, warm.events)
                << engine.name() << " d=" << d;

            // And the blob itself is stable: re-serializing the loaded
            // state reproduces it bit for bit.
            auto reblob = engine.serializeState(loaded.value());
            ASSERT_TRUE(reblob.ok()) << engine.name() << " d=" << d;
            EXPECT_EQ(blob.value(), reblob.value())
                << engine.name() << " d=" << d;
        }
    }
}

TEST(EngineSerialization, RejectsTruncatedBitFlippedAndVersionBumped)
{
    Rng rng(test::testSeed(9103));
    const core::Engine &engine =
        core::EngineRegistry::instance().engine(
            core::EngineKind::HscanDfa);
    std::vector<core::Guide> guides = randomGuides(rng, 3);
    core::PatternSet set = patternSetFor(guides, 2, engine);
    auto compiled = engine.tryCompile(set);
    ASSERT_TRUE(compiled.ok());
    auto blob = engine.serializeState(compiled.value());
    ASSERT_TRUE(blob.ok());
    const std::vector<uint8_t> &good = blob.value();

    // A clean load works (baseline for the mutations below).
    ASSERT_TRUE(engine.deserializeState(set, {}, good).ok());

    // Truncation at every boundary class: header, mid-payload, tail.
    for (size_t keep : {size_t{0}, size_t{7}, size_t{27},
                        good.size() / 2, good.size() - 1}) {
        std::vector<uint8_t> cut(good.begin(),
                                 good.begin() +
                                     static_cast<long>(keep));
        auto result = engine.deserializeState(set, {}, cut);
        ASSERT_FALSE(result.ok()) << "kept " << keep;
        EXPECT_EQ(result.error().code(), common::ErrorCode::ParseError)
            << "kept " << keep;
    }

    // A single flipped payload bit trips the content hash.
    {
        std::vector<uint8_t> flipped = good;
        flipped[flipped.size() - 3] ^= 0x10;
        auto result = engine.deserializeState(set, {}, flipped);
        ASSERT_FALSE(result.ok());
        EXPECT_EQ(result.error().code(),
                  common::ErrorCode::ParseError);
    }

    // A bumped format version (envelope bytes 4..8) is version skew,
    // not corruption: InvalidArgument, so callers recompile.
    {
        std::vector<uint8_t> bumped = good;
        bumped[4] += 1;
        auto result = engine.deserializeState(set, {}, bumped);
        ASSERT_FALSE(result.ok());
        EXPECT_EQ(result.error().code(),
                  common::ErrorCode::InvalidArgument);
    }

    // Wrong engine: a DFA blob handed to the NFA reference engine.
    {
        const core::Engine &other =
            core::EngineRegistry::instance().engine(
                core::EngineKind::Reference);
        core::PatternSet other_set = patternSetFor(guides, 2, other);
        auto result = other.deserializeState(other_set, {}, good);
        ASSERT_FALSE(result.ok());
        EXPECT_EQ(result.error().code(),
                  common::ErrorCode::InvalidArgument);
    }

    // Wrong guide set: the embedded pattern-set digest catches it.
    {
        std::vector<core::Guide> other_guides = randomGuides(rng, 3);
        core::PatternSet other_set =
            patternSetFor(other_guides, 2, engine);
        auto result = engine.deserializeState(other_set, {}, good);
        ASSERT_FALSE(result.ok());
        EXPECT_EQ(result.error().code(),
                  common::ErrorCode::InvalidArgument);
    }
}

TEST(PatternDatabase, StoresLoadsAndPreloads)
{
    TempDir dir("store");
    auto db = core::PatternDatabase::open(dir.str());
    ASSERT_TRUE(db.ok());

    const std::vector<uint8_t> blob{1, 2, 3, 4, 5};
    EXPECT_FALSE(db.value()->load("missing").has_value());
    ASSERT_TRUE(db.value()->store("key-a", blob).ok());
    auto loaded = db.value()->load("key-a");
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(*loaded, blob);

    // The file on disk is the key's stable name, and a second open()
    // of the same directory shares the same instance.
    EXPECT_TRUE(fs::exists(dir.path /
                           core::PatternDatabase::fileNameFor("key-a")));
    auto again = core::PatternDatabase::open(dir.str());
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again.value().get(), db.value().get());
    EXPECT_EQ(db.value()->preload(), 1u);
    EXPECT_EQ(db.value()->residentCount(), 1u);
}

TEST(SearchSession, DatabaseTierWarmStartsBitIdentically)
{
    Rng rng(test::testSeed(9104));
    TempDir dir("session");
    std::vector<core::Guide> guides = randomGuides(rng, 3);
    const genome::Sequence genome_seq = testGenome(9105);

    core::SearchConfig cfg;
    cfg.maxMismatches = 2;
    cfg.engine = core::EngineKind::HscanDfa;
    cfg.params.hscanOpts.maxDfaStates = 1u << 21;
    cfg.databaseDir = dir.str();

    // Cold process: compiles, and persists the compiled state.
    core::SearchSession cold(guides, cfg);
    core::SearchResult cold_result = cold.search(genome_seq);
    EXPECT_EQ(cold.compileCount(), 1u);
    EXPECT_EQ(cold.databaseHits(), 0u);
    EXPECT_EQ(cold.databaseMisses(), 1u);
    EXPECT_EQ(cold_result.run.metrics.at("session.db_misses"), 1.0);

    // "Restarted" process: same guides + config, fresh session. The
    // compile is served from disk; hits are bit-identical.
    core::SearchSession warm(guides, cfg);
    core::SearchResult warm_result = warm.search(genome_seq);
    EXPECT_EQ(warm.compileCount(), 0u);
    EXPECT_EQ(warm.databaseHits(), 1u);
    EXPECT_EQ(warm.databaseMisses(), 0u);
    EXPECT_EQ(warm_result.run.metrics.at("session.db_hits"), 1.0);
    if (common::kMetricsEnabled) {
        EXPECT_EQ(warm_result.run.metrics.count(
                      "session.db_load_seconds.count"),
                  1u);
    }
    EXPECT_EQ(warm_result.run.metrics.at("compile.from_database"), 1.0);
    EXPECT_EQ(cold_result.hits, warm_result.hits);
    EXPECT_EQ(cold_result.run.events, warm_result.run.events);

    // A different mismatch budget is a different key: no stale blob
    // is served, the session compiles fresh.
    core::SearchConfig other = cfg;
    other.maxMismatches = 3;
    core::SearchSession third(guides, other);
    third.search(genome_seq);
    EXPECT_EQ(third.compileCount(), 1u);
    EXPECT_EQ(third.databaseHits(), 0u);
}

TEST(SearchSession, CorruptDatabaseEntryFallsBackToCompile)
{
    Rng rng(test::testSeed(9106));
    TempDir dir("corrupt");
    std::vector<core::Guide> guides = randomGuides(rng, 4);
    const genome::Sequence genome_seq = testGenome(9107, 8000);

    core::SearchConfig cfg;
    cfg.maxMismatches = 1;
    cfg.engine = core::EngineKind::HscanBitParallel;
    cfg.databaseDir = dir.str();

    core::SearchResult expected =
        core::SearchSession(guides, cfg).search(genome_seq);

    // Copy every stored blob, with one byte flipped, into a second
    // directory. The copy simulates a fresh process inheriting a
    // corrupted database: the first directory's shared in-memory tier
    // (which still holds the good bytes) must not mask the damage.
    TempDir corrupt_dir("corrupt2");
    size_t corrupted = 0;
    for (const auto &entry : fs::directory_iterator(dir.path)) {
        const fs::path copy =
            corrupt_dir.path / entry.path().filename();
        fs::copy_file(entry.path(), copy);
        std::fstream f(copy, std::ios::in | std::ios::out |
                                 std::ios::binary);
        f.seekg(-2, std::ios::end);
        char byte = 0;
        f.get(byte);
        f.seekp(-2, std::ios::end);
        f.put(static_cast<char>(byte ^ 0x40));
        ++corrupted;
    }
    ASSERT_GE(corrupted, 1u);

    // The corrupt blob is rejected, the session recompiles, results
    // are unaffected, and the rewritten blob serves the next session.
    core::SearchConfig corrupt_cfg = cfg;
    corrupt_cfg.databaseDir = corrupt_dir.str();
    setQuiet(true);
    core::SearchSession recovered(guides, corrupt_cfg);
    core::SearchResult result = recovered.search(genome_seq);
    setQuiet(false);
    EXPECT_EQ(recovered.compileCount(), 1u);
    EXPECT_EQ(recovered.databaseHits(), 0u);
    EXPECT_EQ(recovered.databaseMisses(), 1u);
    EXPECT_EQ(result.hits, expected.hits);

    core::SearchSession after(guides, corrupt_cfg);
    after.search(genome_seq);
    EXPECT_EQ(after.databaseHits(), 1u);
}

TEST(SearchService, PrewarmsFromTheDatabaseDirectory)
{
    Rng rng(test::testSeed(9108));
    TempDir dir("service");
    std::vector<core::Guide> guides = randomGuides(rng, 6);
    auto genome_seq =
        std::make_shared<const genome::Sequence>(testGenome(9109));

    core::ServiceOptions opts;
    opts.batchWindowSeconds = -1.0; // manual mode
    opts.databaseDir = dir.str();

    core::RequestOptions req;
    req.genome = genome_seq;
    req.config.maxMismatches = 2;
    req.config.engine = core::EngineKind::HscanDfa;

    core::SearchResult first;
    {
        core::SearchService service(opts);
        auto fut = service.submit(guides, req);
        service.drain();
        first = fut.get();
        EXPECT_EQ(service.metricsSnapshot().at("service.db_preloaded"),
                  0.0);
    }

    // Restarted service: construction preloads the blob the first
    // process persisted, and the request is served from it.
    {
        core::SearchService service(opts);
        EXPECT_EQ(service.metricsSnapshot().at("service.db_preloaded"),
                  1.0);
        auto fut = service.submit(guides, req);
        service.drain();
        core::SearchResult second = fut.get();
        EXPECT_EQ(second.hits, first.hits);
        EXPECT_EQ(second.run.metrics.at("session.db_hits"), 1.0);
        EXPECT_EQ(second.run.metrics.at("session.compiles"), 0.0);
    }
}

TEST(EngineAuto, CostModelRanksAndCountsItsChoice)
{
    // Small workload, tiny d, scalar Shift-Or: the dense-table DFA is
    // predicted to fit and wins on per-symbol cost. The tier is pinned
    // so the expectation is deterministic across hosts.
    core::AutoCalibration scalar_cal;
    scalar_cal.shiftOrTier = hscan::SimdTier::Scalar;
    core::WorkloadShape small;
    small.guideCount = 4;
    small.maxMismatches = 1;
    EXPECT_EQ(core::autoEngineRanking(small, 1u << 22, scalar_cal).front(),
              core::EngineKind::HscanDfa);

    // Same workload with a starved state budget: DFA is demoted below
    // Shift-Or instead of burning a doomed compile attempt.
    EXPECT_EQ(core::autoEngineRanking(small, 8, scalar_cal).front(),
              core::EngineKind::HscanBitParallel);

    // A vector Shift-Or tier only ever lowers the bit-parallel
    // prediction, so the crossover where Shift-Or overtakes the DFA
    // moves toward smaller workloads — never the other way.
    core::AutoCalibration avx512_cal = scalar_cal;
    avx512_cal.shiftOrTier = hscan::SimdTier::Avx512;
    for (size_t guides : {1u, 4u, 16u, 64u}) {
        core::WorkloadShape shape;
        shape.guideCount = guides;
        shape.maxMismatches = 2;
        const double scalar_ns = core::predictedNsPerSymbol(
            core::EngineKind::HscanBitParallel, shape, scalar_cal);
        const double avx512_ns = core::predictedNsPerSymbol(
            core::EngineKind::HscanBitParallel, shape, avx512_cal);
        EXPECT_LT(avx512_ns, scalar_ns) << "guides=" << guides;
        EXPECT_EQ(core::predictedNsPerSymbol(core::EngineKind::HscanDfa,
                                             shape, avx512_cal),
                  core::predictedNsPerSymbol(core::EngineKind::HscanDfa,
                                             shape, scalar_cal));
    }

    // Every ranking is a permutation of the full CPU chain, so the
    // fallback machinery always has somewhere to go.
    for (size_t guides : {1u, 10u, 100u, 1000u}) {
        for (int d = 0; d <= 4; ++d) {
            core::WorkloadShape shape;
            shape.guideCount = guides;
            shape.maxMismatches = d;
            auto ranking = core::autoEngineRanking(shape, 1u << 22);
            ASSERT_EQ(ranking.size(), 3u);
            std::sort(ranking.begin(), ranking.end());
            EXPECT_TRUE(std::is_sorted(ranking.begin(), ranking.end()));
        }
    }

    EXPECT_STREQ(core::engineName(core::EngineKind::Auto), "auto");
}

TEST(EngineAuto, SearchHitsAreBitIdenticalToTheSelectedEngine)
{
    Rng rng(test::testSeed(9110));
    const genome::Sequence genome_seq = testGenome(9111);

    // Sweep workload shapes that steer the model to different
    // choices; whatever auto picks must match that engine exactly.
    struct Case
    {
        size_t guides;
        int d;
    };
    for (Case c : {Case{2, 1}, Case{16, 2}, Case{64, 3}}) {
        std::vector<core::Guide> guides = randomGuides(rng, c.guides);

        core::SearchConfig auto_cfg;
        auto_cfg.maxMismatches = c.d;
        auto_cfg.engine = core::EngineKind::Auto;
        core::SearchSession session(guides, auto_cfg);
        core::SearchResult picked = session.search(genome_seq);

        // The session recorded its choice.
        const auto metrics = session.metricsSnapshot();
        core::WorkloadShape shape;
        shape.guideCount = c.guides;
        shape.maxMismatches = c.d;
        const core::EngineKind choice = core::autoEngineRanking(
            shape, auto_cfg.params.hscanOpts.maxDfaStates).front();
        EXPECT_EQ(metrics.at(std::string("session.engine_auto.") +
                             core::engineName(choice)),
                  1.0)
            << "guides=" << c.guides << " d=" << c.d;

        // Bit-identity against every engine auto can select. A forced
        // engine that cannot serve the workload at all (hscan-dfa
        // exceeding its state budget at the largest shape) is no
        // conformance statement — auto demotes it and is covered by
        // the fallback test below.
        for (core::EngineKind kind : serializableEngines()) {
            core::SearchConfig forced = auto_cfg;
            forced.engine = kind;
            auto direct = core::SearchSession(guides, forced)
                              .trySearch(genome_seq);
            if (!direct.ok())
                continue;
            EXPECT_EQ(picked.hits, direct.value().hits)
                << "auto vs " << core::engineName(kind)
                << " guides=" << c.guides << " d=" << c.d;
        }
    }
}

TEST(EngineAuto, FallsBackThroughTheRankingOnCompileFailure)
{
    Rng rng(test::testSeed(9112));
    // A guide load and budget that forces the DFA attempt to fail
    // (8 states can never hold the subset construction), so auto must
    // degrade through its ranking and still serve the search.
    std::vector<core::Guide> guides = randomGuides(rng, 4);
    const genome::Sequence genome_seq = testGenome(9113, 8000);

    core::SearchConfig cfg;
    cfg.maxMismatches = 1;
    cfg.engine = core::EngineKind::Auto;
    cfg.params.hscanOpts.maxDfaStates = 8;

    core::SearchSession session(guides, cfg);
    auto result = session.trySearch(genome_seq);
    ASSERT_TRUE(result.ok());

    core::SearchConfig reference = cfg;
    reference.engine = core::EngineKind::Reference;
    core::SearchResult expected =
        core::SearchSession(guides, reference).search(genome_seq);
    EXPECT_EQ(result.value().hits, expected.hits);
}

} // namespace
} // namespace crispr
