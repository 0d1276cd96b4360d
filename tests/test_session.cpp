/** @file Tests for the engine registry, compile-once SearchSession,
 *  and the engine-agnostic chunked scan pipeline. */

#include <atomic>
#include <memory>
#include <set>
#include <sstream>
#include <thread>

#include <gtest/gtest.h>

#include "common/logging.hpp"
#include "core/engine_registry.hpp"
#include "core/session.hpp"
#include "genome/fasta.hpp"
#include "genome/generator.hpp"
#include "test_util.hpp"

namespace crispr {
namespace {

core::Guide
randomGuide(Rng &rng, const std::string &name)
{
    static const char bases[] = "ACGT";
    std::string seq;
    for (int i = 0; i < 20; ++i)
        seq += bases[rng.below(4)];
    return core::makeGuide(name, seq);
}

std::vector<core::Guide>
randomGuides(Rng &rng, size_t count)
{
    std::vector<core::Guide> guides;
    for (size_t i = 0; i < count; ++i)
        guides.push_back(randomGuide(rng, "g" + std::to_string(i)));
    return guides;
}

TEST(EngineRegistry, CoversEveryKindAndRoundTripsNames)
{
    const auto &registry = core::EngineRegistry::instance();

    std::set<std::string> names;
    for (core::EngineKind kind : registry.kinds()) {
        const core::Engine &engine = registry.engine(kind);
        EXPECT_EQ(engine.kind(), kind);
        EXPECT_STREQ(engine.name(), core::engineName(kind));
        // Names are unique and look up the same adapter.
        EXPECT_TRUE(names.insert(engine.name()).second);
        const core::Engine *by_name = registry.findByName(engine.name());
        ASSERT_NE(by_name, nullptr);
        EXPECT_EQ(by_name->kind(), kind);
    }
    EXPECT_EQ(registry.findByName("no-such-engine"), nullptr);

    // Only the AP counter design needs the PamFirst orientation, and
    // only CPU engines accept chunked scans.
    for (core::EngineKind kind : registry.kinds()) {
        const core::Engine &engine = registry.engine(kind);
        EXPECT_EQ(engine.requiredOrientation() ==
                      core::Orientation::PamFirst,
                  kind == core::EngineKind::ApCounter)
            << engine.name();
        const bool device_model =
            kind == core::EngineKind::GpuInfant2 ||
            kind == core::EngineKind::Fpga ||
            kind == core::EngineKind::Ap ||
            kind == core::EngineKind::ApCounter;
        EXPECT_EQ(engine.supportsChunkedScan(), !device_model)
            << engine.name();
    }
}

TEST(SearchSession, CompilesOnceAcrossTenSearches)
{
    Rng rng(811);
    std::vector<core::Guide> guides = randomGuides(rng, 100);

    core::SearchConfig cfg;
    cfg.maxMismatches = 1;
    cfg.engine = core::EngineKind::HscanAuto;
    core::SearchSession session(guides, cfg);

    core::SearchResult last;
    for (int i = 0; i < 10; ++i) {
        genome::GenomeSpec gs;
        gs.length = 4000;
        gs.seed = 8110 + i;
        last = session.search(genome::generateGenome(gs));
    }
    EXPECT_EQ(session.compileCount(), 1u);
    EXPECT_EQ(session.cacheHits(), 9u);
    EXPECT_EQ(last.run.metrics.at("session.compiles"), 1.0);
    EXPECT_EQ(last.run.metrics.at("session.cache_hits"), 9.0);

    // A different config compiles again; repeating it hits the cache.
    core::SearchConfig other = cfg;
    other.maxMismatches = 2;
    genome::GenomeSpec gs;
    gs.length = 4000;
    gs.seed = 8199;
    genome::Sequence g = genome::generateGenome(gs);
    session.search(g, other);
    EXPECT_EQ(session.compileCount(), 2u);
    session.search(g, other);
    EXPECT_EQ(session.compileCount(), 2u);
    EXPECT_EQ(session.cacheHits(), 10u);
}

TEST(SearchSession, ReuseIsBitIdenticalToOneShotSearch)
{
    Rng rng(812);
    std::vector<core::Guide> guides = randomGuides(rng, 3);
    genome::Sequence site = guides[0].protospacer;
    site.append(genome::Sequence::fromString("AGG"));

    core::SearchConfig cfg;
    cfg.maxMismatches = 3;
    core::SearchSession session(guides, cfg);
    for (int i = 0; i < 3; ++i) {
        genome::GenomeSpec gs;
        gs.length = 20000;
        gs.seed = 8120 + i;
        genome::Sequence g = genome::generateGenome(gs);
        genome::plantSite(g, 500 + 333 * i, site);

        core::SearchResult fresh = core::search(g, guides, cfg);
        core::SearchResult reused = session.search(g);
        EXPECT_EQ(reused.hits, fresh.hits);
        EXPECT_EQ(reused.run.events, fresh.run.events);
        EXPECT_EQ(reused.droppedEvents, fresh.droppedEvents);
    }
    EXPECT_EQ(session.compileCount(), 1u);
}

TEST(ChunkedScan, SeamStraddlingSitesMatchWholeScan)
{
    // Sites planted across every chunk seam, one per mismatch count:
    // chunked events must be bit-identical to one whole-genome scan for
    // every chunk-capable engine, serial and threaded.
    const size_t chunk = 512;
    core::Guide guide = core::makeGuide("g0", "GATTACAGATTACAGATTAC");
    genome::Sequence site = guide.protospacer;
    site.append(genome::Sequence::fromString("TGG"));

    Rng rng(813);
    genome::Sequence g = test::randomGenome(rng, 6000);
    for (int d = 0; d <= 4; ++d) {
        genome::Sequence s =
            d == 0 ? site : genome::mutateSite(site, d, 0, 20, rng);
        // Straddle seam d+1: start 10 before it, end 13 after.
        genome::plantSite(g, (d + 1) * chunk - 10, s);
    }

    for (int d = 0; d <= 4; ++d) {
        core::PatternSet set = core::buildPatternSet(
            {guide}, core::pamNGG(), d, /*both_strands=*/true);
        for (core::EngineKind kind :
             core::EngineRegistry::instance().kinds()) {
            const core::Engine &engine =
                core::EngineRegistry::instance().engine(kind);
            if (!engine.supportsChunkedScan())
                continue;
            auto compiled = std::make_shared<const core::CompiledPattern>(
                engine.compile(set, core::EngineParams{}));
            core::EngineRun whole =
                engine.scan(*compiled, core::SequenceView(g));
            ASSERT_FALSE(whole.events.empty())
                << engine.name() << " d=" << d;
            for (unsigned threads : {1u, 3u}) {
                core::ChunkedScanOptions opts;
                opts.chunkSize = chunk;
                opts.threads = threads;
                core::EngineRun chunked =
                    core::ChunkedScanner(engine, compiled, opts).scan(g);
                EXPECT_EQ(chunked.events, whole.events)
                    << engine.name() << " d=" << d
                    << " threads=" << threads;
                EXPECT_EQ(chunked.metrics.at("scan.chunks"), 12.0);
            }
        }
    }
}

TEST(ChunkedScan, RejectsDeviceModelEngines)
{
    core::Guide guide = core::makeGuide("g0", "GATTACAGATTACAGATTAC");
    core::PatternSet set =
        core::buildPatternSet({guide}, core::pamNGG(), 1, true);
    const core::Engine &fpga =
        core::EngineRegistry::instance().engine(core::EngineKind::Fpga);
    auto compiled = std::make_shared<const core::CompiledPattern>(
        fpga.compile(set, core::EngineParams{}));
    EXPECT_THROW(core::ChunkedScanner(fpga, compiled), FatalError);
}

/** One guide compiled for hscan-bitparallel (site length 23). */
std::shared_ptr<const core::CompiledPattern>
bitParallelGuide(const core::Engine &engine)
{
    core::Guide guide = core::makeGuide("g0", "GATTACAGATTACAGATTAC");
    return std::make_shared<const core::CompiledPattern>(engine.compile(
        core::buildPatternSet({guide}, core::pamNGG(), 1, true),
        core::EngineParams{}));
}

TEST(ChunkedScan, EmptyAndTinyInputs)
{
    const core::Engine &engine = core::EngineRegistry::instance().engine(
        core::EngineKind::HscanBitParallel);
    auto compiled = bitParallelGuide(engine);
    core::ChunkedScanOptions opts;
    opts.threads = 3;
    const core::ChunkedScanner scanner(engine, compiled, opts);

    auto empty = scanner.tryScan(genome::Sequence());
    ASSERT_TRUE(empty.ok()) << empty.error().str();
    EXPECT_TRUE(empty.value().events.empty());

    Rng rng(203);
    genome::Sequence tiny = test::randomGenome(rng, 5);
    auto got = scanner.tryScan(tiny);
    ASSERT_TRUE(got.ok()) << got.error().str();
    EXPECT_EQ(got.value().events,
              engine.scan(*compiled, core::SequenceView(tiny)).events);
}

TEST(ChunkedScan, RejectsChunkSmallerThanPattern)
{
    const core::Engine &engine = core::EngineRegistry::instance().engine(
        core::EngineKind::HscanBitParallel);
    auto compiled = bitParallelGuide(engine);
    const std::vector<core::Guide> guides = {
        core::makeGuide("g0", "GATTACAGATTACAGATTAC")};
    Rng rng(204);
    genome::Sequence g = test::randomGenome(rng, 100);
    genome::Sequence site = guides[0].protospacer;
    site.append(genome::Sequence::fromString("TGG"));
    genome::plantSite(g, 30, site); // straddles the seam at 46

    // The overlap is pattern length - 1 = 22: a chunk no longer than
    // it cannot own any window.
    core::ChunkedScanOptions opts;
    for (size_t chunk : {size_t{4}, size_t{22}}) {
        opts.chunkSize = chunk;
        common::Status st =
            core::ChunkedScanner::validate(engine, compiled, opts);
        ASSERT_FALSE(st.ok()) << "chunk=" << chunk;
        EXPECT_EQ(st.error().code(), common::ErrorCode::InvalidArgument);
        EXPECT_THROW(core::ChunkedScanner(engine, compiled, opts),
                     FatalError);

        core::SearchConfig cfg;
        cfg.engine = core::EngineKind::HscanBitParallel;
        cfg.maxMismatches = 1;
        cfg.threads = 2;
        cfg.chunkSize = chunk;
        auto res = core::SearchSession(guides, cfg).trySearch(g);
        ASSERT_FALSE(res.ok()) << "chunk=" << chunk;
        EXPECT_EQ(res.error().code(), common::ErrorCode::InvalidArgument);
    }

    // A chunk of exactly the pattern length is the smallest accepted.
    opts.chunkSize = 23;
    opts.threads = 2;
    auto got = core::ChunkedScanner(engine, compiled, opts).tryScan(g);
    ASSERT_TRUE(got.ok()) << got.error().str();
    EXPECT_FALSE(got.value().events.empty());
    EXPECT_EQ(got.value().events,
              engine.scan(*compiled, core::SequenceView(g)).events);
}

TEST(SearchSession, ThreadsPlumbedForEveryChunkCapableEngine)
{
    Rng rng(814);
    std::vector<core::Guide> guides = randomGuides(rng, 2);
    genome::Sequence site = guides[1].protospacer;
    site.append(genome::Sequence::fromString("CGG"));
    genome::Sequence g = test::randomGenome(rng, 9000);
    genome::plantSite(g, 2048 - 7, site); // straddles a chunk seam

    for (core::EngineKind kind :
         core::EngineRegistry::instance().kinds()) {
        if (!core::EngineRegistry::instance()
                 .engine(kind)
                 .supportsChunkedScan())
            continue;
        core::SearchConfig serial;
        serial.maxMismatches = 2;
        serial.engine = kind;
        core::SearchConfig threaded = serial;
        threaded.threads = 3;
        threaded.chunkSize = 2048;

        core::SearchSession session(guides, serial);
        core::SearchResult want = session.search(g);
        core::SearchResult got = session.search(g, threaded);
        EXPECT_EQ(got.hits, want.hits) << core::engineName(kind);
        EXPECT_EQ(got.run.events, want.run.events)
            << core::engineName(kind);
        EXPECT_EQ(got.run.metrics.at("scan.threads"), 3.0)
            << core::engineName(kind);
        // One compilation serves both the serial and the chunked scan.
        EXPECT_EQ(session.compileCount(), 1u) << core::engineName(kind);
    }
}

TEST(SearchSession, StreamedFastaMatchesInMemorySearch)
{
    Rng rng(815);
    std::vector<core::Guide> guides = randomGuides(rng, 2);
    genome::Sequence site = guides[0].protospacer;
    site.append(genome::Sequence::fromString("GGG"));

    std::vector<genome::FastaRecord> records;
    for (int r = 0; r < 3; ++r) {
        genome::Sequence chr = test::randomGenome(rng, 5000, 0.01);
        genome::plantSite(chr, 1000 + 700 * r, site);
        records.push_back({"chr" + std::to_string(r), "", chr});
    }
    // A reverse-strand site before the forward ones exercises the
    // cross-strand hit ordering of the streamed merge.
    genome::plantSite(records[0].seq, 200, site.reverseComplement());
    std::ostringstream fasta;
    genome::writeFasta(fasta, records);
    genome::Sequence all = genome::concatenateRecords(records);

    for (core::EngineKind kind : {core::EngineKind::HscanAuto,
                                  core::EngineKind::CasOffinder}) {
        for (unsigned threads : {1u, 3u}) {
            core::SearchConfig cfg;
            cfg.maxMismatches = 3;
            cfg.engine = kind;
            cfg.threads = threads;
            cfg.chunkSize = 1777;
            core::SearchSession session(guides, cfg);

            core::SearchResult want = session.search(all);
            std::istringstream in(fasta.str());
            core::SearchResult streamed = session.searchStream(in);
            EXPECT_EQ(streamed.hits, want.hits)
                << core::engineName(kind) << " threads=" << threads;
            EXPECT_EQ(streamed.run.events, want.run.events)
                << core::engineName(kind) << " threads=" << threads;
            EXPECT_EQ(streamed.droppedEvents, 0u);
            // Compiled once, reused by the streamed pass.
            EXPECT_EQ(session.compileCount(), 1u);
            EXPECT_GE(streamed.run.metrics.at("scan.chunks"), 8.0);
        }
    }
}

TEST(SearchSession, StreamingRejectsDeviceModelEngines)
{
    Rng rng(816);
    core::SearchConfig cfg;
    cfg.engine = core::EngineKind::GpuInfant2;
    core::SearchSession session(randomGuides(rng, 1), cfg);
    std::istringstream in(">chr\nACGTACGT\n");
    EXPECT_THROW(session.searchStream(in), FatalError);
}

TEST(SearchSession, LruEvictsLeastRecentlyUsedCompilation)
{
    Rng rng(818);
    std::vector<core::Guide> guides = randomGuides(rng, 3);
    genome::GenomeSpec gs;
    gs.length = 4000;
    gs.seed = 8180;
    genome::Sequence g = genome::generateGenome(gs);

    core::SearchConfig base;
    base.engine = core::EngineKind::HscanAuto;
    core::SearchConfig d0 = base, d1 = base, d2 = base;
    d0.maxMismatches = 0;
    d1.maxMismatches = 1;
    d2.maxMismatches = 2;

    core::SearchSession session(guides, base, /*cache_capacity=*/2);
    session.search(g, d0);
    session.search(g, d1);
    EXPECT_EQ(session.compileCount(), 2u);

    // Touch d0 so d1 is the LRU entry, then overflow the capacity.
    session.search(g, d0);
    EXPECT_EQ(session.cacheHits(), 1u);
    session.search(g, d2); // evicts d1
    EXPECT_EQ(session.compileCount(), 3u);

    session.search(g, d0); // still cached
    session.search(g, d2); // still cached
    EXPECT_EQ(session.compileCount(), 3u);
    session.search(g, d1); // evicted: recompiles
    EXPECT_EQ(session.compileCount(), 4u);
}

TEST(SearchSession, ConcurrentSearchesShareOneCompilation)
{
    Rng rng(819);
    std::vector<core::Guide> guides = randomGuides(rng, 20);
    genome::GenomeSpec gs;
    gs.length = 6000;
    gs.seed = 8190;
    genome::Sequence g = genome::generateGenome(gs);

    core::SearchConfig cfg;
    cfg.maxMismatches = 2;
    cfg.engine = core::EngineKind::HscanAuto;
    core::SearchSession session(guides, cfg);
    core::SearchResult want = session.search(g);
    session.clearCache();

    // A fresh cache hammered by many threads with one config: the
    // compile lock must serialise them onto a single compilation.
    core::SearchSession fresh(guides, cfg);
    constexpr int kThreads = 8;
    std::vector<core::SearchResult> results(kThreads);
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t)
        pool.emplace_back(
            [&, t] { results[t] = fresh.search(g); });
    for (auto &t : pool)
        t.join();
    EXPECT_EQ(fresh.compileCount(), 1u);
    EXPECT_EQ(fresh.cacheHits(), kThreads - 1u);
    for (const core::SearchResult &r : results)
        EXPECT_EQ(r.hits, want.hits);
}

TEST(SearchSession, ClearCacheRacingSearchesIsSafe)
{
    Rng rng(820);
    std::vector<core::Guide> guides = randomGuides(rng, 10);
    genome::GenomeSpec gs;
    gs.length = 5000;
    gs.seed = 8200;
    genome::Sequence g = genome::generateGenome(gs);

    core::SearchConfig cfg;
    cfg.maxMismatches = 1;
    cfg.engine = core::EngineKind::HscanAuto;
    core::SearchSession session(guides, cfg);
    core::SearchResult want = session.search(g);

    // Searches hold shared_ptrs to compiled patterns, so evicting the
    // cache mid-search must neither crash nor corrupt results.
    std::atomic<bool> stop{false};
    std::thread clearer([&] {
        while (!stop.load())
            session.clearCache();
    });
    constexpr int kThreads = 4;
    std::vector<std::thread> pool;
    std::atomic<int> mismatches{0};
    for (int t = 0; t < kThreads; ++t)
        pool.emplace_back([&] {
            for (int i = 0; i < 8; ++i) {
                core::SearchResult r = session.search(g);
                if (r.hits != want.hits)
                    mismatches.fetch_add(1);
            }
        });
    for (auto &t : pool)
        t.join();
    stop.store(true);
    clearer.join();
    EXPECT_EQ(mismatches.load(), 0);
    // Every search still succeeded; compiles just stopped being shared.
    EXPECT_GE(session.compileCount(), 1u);
}

TEST(Engines, RuntimeThreadsDriveParallelScan)
{
    Rng rng(817);
    std::vector<core::Guide> guides = randomGuides(rng, 2);
    genome::Sequence g = test::randomGenome(rng, 8000);

    core::SearchConfig serial;
    serial.maxMismatches = 2;
    serial.engine = core::EngineKind::HscanAuto;

    core::SearchConfig threaded = serial;
    threaded.runtime().threads = 3;
    threaded.runtime().chunkSize = 1 << 10;

    core::SearchSession session(guides, serial);
    core::SearchResult want = session.search(g);
    core::SearchResult got = session.search(g, threaded);
    EXPECT_EQ(got.hits, want.hits);
    EXPECT_EQ(got.run.metrics.at("scan.threads"), 3.0);
}

} // namespace
} // namespace crispr
