/** @file Fault-injection recovery tests (ctest label: fault).
 *
 *  Every scenario arms a named common::faultpoints point and drives a
 *  real SearchSession / ChunkedScanner through it, asserting the
 *  process survives, the typed error code (when the failure is
 *  terminal), and the recovery metrics (session.fallbacks,
 *  scan.retries, search.timed_out, parse.records_dropped). */

#include <memory>
#include <sstream>

#include <gtest/gtest.h>

#include "common/faultpoints.hpp"
#include "core/engine_registry.hpp"
#include "core/session.hpp"
#include "genome/fasta.hpp"
#include "test_util.hpp"

namespace crispr {
namespace {

namespace fp = common::faultpoints;
using common::ErrorCode;

/** A workload with a planted d=0 site so every scan has real hits. */
struct Workload
{
    std::vector<core::Guide> guides;
    genome::Sequence genome;

    explicit Workload(uint64_t seed, size_t genome_len = 6000)
    {
        guides.push_back(
            core::makeGuide("g0", "GATTACAGATTACAGATTAC"));
        genome::Sequence site = guides[0].protospacer;
        site.append(genome::Sequence::fromString("TGG"));
        Rng rng(seed);
        genome = test::randomGenome(rng, genome_len);
        genome::plantSite(genome, 1500, site);
    }

    core::SearchConfig
    config(core::EngineKind engine) const
    {
        core::SearchConfig cfg;
        cfg.maxMismatches = 2;
        cfg.engine = engine;
        return cfg;
    }
};

class FaultRecovery : public ::testing::Test
{
  protected:
    void SetUp() override { fp::resetAll(); }
    void TearDown() override { fp::resetAll(); }
};

TEST_F(FaultRecovery, FallsBackWhenCompileFails)
{
    Workload w(901);
    core::SearchConfig cfg = w.config(core::EngineKind::HscanAuto);
    cfg.fallbacks = {core::EngineKind::Reference};
    core::SearchSession session(w.guides, cfg);

    // The unfaulted answer, from the fallback engine directly.
    core::SearchResult want =
        core::search(w.genome, w.guides,
                     w.config(core::EngineKind::Reference));
    ASSERT_FALSE(want.hits.empty());

    fp::armFailOnce("session.compile");
    auto got = session.trySearch(w.genome);
    ASSERT_TRUE(got.ok()) << got.error().str();
    EXPECT_EQ(got.value().run.kind, core::EngineKind::Reference);
    EXPECT_EQ(got.value().hits, want.hits);
    EXPECT_EQ(got.value().run.metrics.at("session.fallbacks"), 1.0);
    EXPECT_EQ(got.value().run.metrics.at(
                  std::string("session.failures.") +
                  core::engineName(core::EngineKind::HscanAuto)),
              1.0);
    EXPECT_EQ(session.engineFailures(core::EngineKind::HscanAuto), 1u);
    EXPECT_EQ(session.engineFailures(core::EngineKind::Reference), 0u);
}

TEST_F(FaultRecovery, FallsBackWhenScanFails)
{
    Workload w(902);
    core::SearchConfig cfg = w.config(core::EngineKind::HscanAuto);
    cfg.fallbacks = {core::EngineKind::Reference};
    core::SearchSession session(w.guides, cfg);

    fp::armFailOnce("engine.scan");
    auto got = session.trySearch(w.genome);
    ASSERT_TRUE(got.ok()) << got.error().str();
    EXPECT_EQ(got.value().run.kind, core::EngineKind::Reference);
    EXPECT_FALSE(got.value().hits.empty());
    EXPECT_EQ(got.value().run.metrics.at("session.fallbacks"), 1.0);
    EXPECT_EQ(session.engineFailures(core::EngineKind::HscanAuto), 1u);
}

TEST_F(FaultRecovery, ChainExhaustionReturnsLastError)
{
    Workload w(903);
    core::SearchConfig cfg = w.config(core::EngineKind::HscanAuto);
    cfg.fallbacks = {core::EngineKind::Reference};
    core::SearchSession session(w.guides, cfg);

    // Both the primary and the fallback compile attempts fail.
    fp::armProbability("session.compile", 1.0);
    auto got = session.trySearch(w.genome);
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.error().code(), ErrorCode::FaultInjected);
    // The error names every engine that was tried.
    bool found = false;
    for (const auto &[key, value] : got.error().context())
        if (key == "engines_tried")
            found = value.find(core::engineName(
                        core::EngineKind::Reference)) !=
                    std::string::npos;
    EXPECT_TRUE(found) << got.error().str();
    EXPECT_EQ(session.engineFailures(core::EngineKind::HscanAuto), 1u);
    EXPECT_EQ(session.engineFailures(core::EngineKind::Reference), 1u);
}

TEST_F(FaultRecovery, RetriesTransientChunkFault)
{
    Workload w(904);
    core::SearchConfig cfg = w.config(core::EngineKind::HscanAuto);
    core::SearchSession session(w.guides, cfg);
    core::SearchResult want = session.search(w.genome);
    ASSERT_FALSE(want.hits.empty());

    core::SearchConfig retrying = cfg;
    retrying.chunkSize = 1024;
    retrying.threads = 1;
    retrying.scanRetries = 2;

    fp::armFailNth("chunk.scan", 2);
    auto got = session.trySearch(w.genome, retrying);
    ASSERT_TRUE(got.ok()) << got.error().str();
    EXPECT_EQ(got.value().hits, want.hits);
    // Every injected chunk failure becomes exactly one retry.
    EXPECT_EQ(got.value().run.metrics.at("scan.retries"),
              static_cast<double>(fp::failures("chunk.scan")));
    EXPECT_GE(fp::failures("chunk.scan"), 1u);
    EXPECT_EQ(got.value().run.metrics.at("scan.chunks_skipped"), 0.0);
    EXPECT_EQ(got.value().run.metrics.at("session.fallbacks"), 0.0);
}

TEST_F(FaultRecovery, RetryBudgetExhaustionIsTypedNotFatal)
{
    Workload w(905);
    core::SearchConfig cfg = w.config(core::EngineKind::HscanAuto);
    cfg.chunkSize = 1024;
    cfg.scanRetries = 1;
    core::SearchSession session(w.guides, cfg);

    // Every attempt of every chunk fails: the retry budget runs out
    // and the scan surfaces the injected error instead of dying.
    fp::armProbability("chunk.scan", 1.0);
    auto got = session.trySearch(w.genome);
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.error().code(), ErrorCode::FaultInjected);
    EXPECT_EQ(session.engineFailures(core::EngineKind::HscanAuto), 1u);
}

TEST_F(FaultRecovery, ExpiredDeadlineYieldsPartialTimedOutResult)
{
    Workload w(906, 20000);
    core::SearchConfig cfg = w.config(core::EngineKind::HscanAuto);
    cfg.chunkSize = 1024;
    cfg.deadline = common::Deadline::after(0.0);
    core::SearchSession session(w.guides, cfg);

    auto got = session.trySearch(w.genome);
    ASSERT_TRUE(got.ok()) << got.error().str();
    EXPECT_TRUE(got.value().timedOut);
    EXPECT_EQ(got.value().run.metrics.at("search.timed_out"), 1.0);
    EXPECT_GT(got.value().run.metrics.at("scan.chunks_skipped"), 0.0);
    EXPECT_TRUE(got.value().hits.empty());
}

TEST_F(FaultRecovery, ExpiredDeadlineOnDeviceModelEngineNeverStarts)
{
    Workload w(907);
    core::SearchConfig cfg = w.config(core::EngineKind::Fpga);
    cfg.deadline = common::Deadline::after(0.0);
    core::SearchSession session(w.guides, cfg);

    // Device-model engines cannot stop mid-scan; an already-expired
    // deadline degrades to an empty timed-out run.
    auto got = session.trySearch(w.genome);
    ASSERT_TRUE(got.ok()) << got.error().str();
    EXPECT_TRUE(got.value().timedOut);
    EXPECT_TRUE(got.value().hits.empty());
}

TEST_F(FaultRecovery, CancellationStopsAStreamMidway)
{
    // Drive ChunkedScanner directly with a manual token cancelled by
    // the chunk observer after the first chunk lands.
    Workload w(908);
    const core::Engine &engine = core::EngineRegistry::instance()
                                     .engine(core::EngineKind::HscanAuto);
    core::PatternSet set = core::buildPatternSet(
        w.guides, core::pamNGG(), 2, /*both_strands=*/true);
    auto compiled = std::make_shared<const core::CompiledPattern>(
        engine.compile(set, core::EngineParams{}));

    common::Deadline token = common::Deadline::manual();
    core::ChunkedScanOptions opts;
    opts.chunkSize = 512;
    opts.threads = 1;
    opts.deadline = token;

    std::vector<genome::FastaRecord> records{{"chr0", "", w.genome}};
    std::ostringstream fasta;
    genome::writeFasta(fasta, records);
    std::istringstream in(fasta.str());
    genome::FastaStreamReader reader(in);

    size_t chunks_seen = 0;
    auto run = core::ChunkedScanner(engine, compiled, opts)
                   .tryScanStream(reader, [&](const core::ChunkScanView &) {
                       if (++chunks_seen == 1)
                           token.cancel();
                   });
    ASSERT_TRUE(run.ok()) << run.error().str();
    EXPECT_EQ(run.value().metrics.at("search.cancelled"), 1.0);
    // Cancellation is not a timeout: the token had no time limit.
    EXPECT_EQ(run.value().metrics.at("search.timed_out"), 0.0);
    // Far fewer chunks than the ~12 the full stream holds.
    EXPECT_LT(run.value().metrics.at("scan.chunks"), 4.0);
}

TEST_F(FaultRecovery, StreamFallsBackBeforeConsumingTheStream)
{
    // A device-model primary fails the chunkability check before any
    // byte is read, so the fallback engine scans the intact stream.
    Workload w(909);
    core::SearchConfig cfg = w.config(core::EngineKind::Fpga);
    cfg.fallbacks = {core::EngineKind::HscanAuto};
    core::SearchSession session(w.guides, cfg);

    core::SearchResult want =
        session.search(w.genome, w.config(core::EngineKind::HscanAuto));
    ASSERT_FALSE(want.hits.empty());

    std::vector<genome::FastaRecord> records{{"chr0", "", w.genome}};
    std::ostringstream fasta;
    genome::writeFasta(fasta, records);
    std::istringstream in(fasta.str());
    auto got = session.trySearchStream(in, cfg);
    ASSERT_TRUE(got.ok()) << got.error().str();
    EXPECT_EQ(got.value().run.kind, core::EngineKind::HscanAuto);
    EXPECT_EQ(got.value().hits, want.hits);
    EXPECT_EQ(got.value().run.metrics.at("session.fallbacks"), 1.0);
    EXPECT_EQ(session.engineFailures(core::EngineKind::Fpga), 1u);
}

TEST_F(FaultRecovery, StreamWithoutFallbackIsTypedUnsupported)
{
    Workload w(910);
    core::SearchSession session(w.guides,
                                w.config(core::EngineKind::Fpga));
    std::istringstream in(">chr\nACGTACGT\n");
    auto got = session.trySearchStream(in);
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.error().code(), ErrorCode::UnsupportedEngine);
}

TEST_F(FaultRecovery, MalformedStreamIsTypedParseError)
{
    Workload w(911);
    core::SearchSession session(w.guides,
                                w.config(core::EngineKind::HscanAuto));
    std::istringstream in("ACGT before any header\n>chr\nACGT\n");
    auto got = session.trySearchStream(in);
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.error().code(), ErrorCode::ParseError);
}

TEST_F(FaultRecovery, InjectedRecordFaultIsTypedInStrictMode)
{
    Workload w(912);
    core::SearchSession session(w.guides,
                                w.config(core::EngineKind::HscanAuto));
    std::vector<genome::FastaRecord> records{{"chr0", "", w.genome}};
    std::ostringstream fasta;
    genome::writeFasta(fasta, records);

    fp::armFailOnce("fasta.record");
    std::istringstream in(fasta.str());
    auto got = session.trySearchStream(in);
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.error().code(), ErrorCode::ParseError);
}

TEST_F(FaultRecovery, LenientStreamDropsFaultedRecordAndContinues)
{
    // Two single-record chromosomes, a site planted in each; the
    // injected fault drops the first record, so only the second
    // record's hits survive — shifted to the front of the stream.
    Workload w(913);
    genome::Sequence site = w.guides[0].protospacer;
    site.append(genome::Sequence::fromString("TGG"));
    Rng rng(9130);
    genome::Sequence chr1 = test::randomGenome(rng, 3000);
    genome::plantSite(chr1, 700, site);

    core::SearchConfig cfg = w.config(core::EngineKind::HscanAuto);
    cfg.lenientFasta = true;
    core::SearchSession session(w.guides, cfg);

    core::SearchResult want = session.search(chr1);
    ASSERT_FALSE(want.hits.empty());

    std::vector<genome::FastaRecord> records{{"chr0", "", w.genome},
                                             {"chr1", "", chr1}};
    std::ostringstream fasta;
    genome::writeFasta(fasta, records);

    fp::armFailOnce("fasta.record");
    std::istringstream in(fasta.str());
    auto got = session.trySearchStream(in);
    ASSERT_TRUE(got.ok()) << got.error().str();
    EXPECT_EQ(got.value().run.metrics.at("parse.records_dropped"), 1.0);
    EXPECT_EQ(got.value().hits, want.hits);
}

TEST_F(FaultRecovery, EnvSpecStringArmsPoints)
{
    // armFromSpec is the same parser armFromEnv feeds
    // $CRISPR_FAULTPOINTS through; end-to-end: arming engine.scan via a
    // spec string fails the primary and falls back.
    Workload w(914);
    core::SearchConfig cfg = w.config(core::EngineKind::HscanAuto);
    cfg.fallbacks = {core::EngineKind::Reference};
    core::SearchSession session(w.guides, cfg);

    ASSERT_EQ(fp::armFromSpec("engine.scan=once"), 1u);
    auto got = session.trySearch(w.genome);
    ASSERT_TRUE(got.ok()) << got.error().str();
    EXPECT_EQ(got.value().run.kind, core::EngineKind::Reference);
    EXPECT_EQ(got.value().run.metrics.at("session.fallbacks"), 1.0);
}

} // namespace
} // namespace crispr
