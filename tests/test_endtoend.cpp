/** @file End-to-end integration: FASTA file on disk -> multi-record
 *  search -> record-coordinate report -> CSV, the full application
 *  workflow of the offtarget_report example. */

#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "ap/capacity.hpp"
#include "core/engine_registry.hpp"
#include "core/report.hpp"
#include "genome/generator.hpp"
#include "genome/record_map.hpp"

namespace crispr {
namespace {

TEST(EndToEnd, FastaFileToVerifiedCsv)
{
    // Build a two-record reference with one planted site per record.
    const std::string path = "/tmp/crispr_e2e.fa";
    core::Guide guide =
        core::makeGuide("g0", "GATTACAGATTACAGATTAC");
    genome::Sequence site = guide.protospacer;
    site.append(genome::Sequence::fromString("CGG"));

    genome::GenomeSpec gs;
    gs.length = 40000;
    gs.seed = 501;
    genome::Sequence chr1 = genome::generateGenome(gs);
    gs.seed = 502;
    genome::Sequence chr2 = genome::generateGenome(gs);
    Rng rng(503);
    genome::plantSite(chr1, 1234, site);
    genome::plantSite(chr2, 31000,
                      genome::mutateSite(site, 2, 0, 20, rng));

    std::vector<genome::FastaRecord> records;
    records.push_back({"chr1", "left", chr1});
    records.push_back({"chr2", "right", chr2});
    genome::writeFastaFile(path, records);

    // The application workflow.
    auto loaded = genome::readFastaFile(path);
    genome::Sequence ref = genome::concatenateRecords(loaded);
    genome::RecordMap map = genome::RecordMap::fromRecords(loaded);

    core::SearchConfig cfg;
    cfg.maxMismatches = 2;
    cfg.pam = core::pamNGG();
    core::SearchResult res = core::search(ref, {guide}, cfg);

    // Both planted sites are found at their record coordinates.
    bool found1 = false, found2 = false;
    for (const core::OffTargetHit &hit : res.hits) {
        auto loc = map.locateWindow(hit.start, res.patterns.siteLength());
        ASSERT_TRUE(loc.withinRecord);
        if (loc.name == "chr1" && loc.offset == 1234 &&
            hit.mismatches == 0)
            found1 = true;
        if (loc.name == "chr2" && loc.offset == 31000 &&
            hit.mismatches == 2)
            found2 = true;
    }
    EXPECT_TRUE(found1);
    EXPECT_TRUE(found2);

    // CSV round-trip contains every hit.
    std::ostringstream csv;
    core::writeHitsCsv(csv, ref, {guide}, res);
    size_t lines = 0;
    for (char c : csv.str())
        lines += c == '\n';
    EXPECT_EQ(lines, res.hits.size() + 1); // header + rows

    // The record-coordinate report prints chr names.
    std::ostringstream report;
    core::printHits(report, ref, {guide}, res, SIZE_MAX, &map);
    EXPECT_NE(report.str().find("chr1:1234"), std::string::npos);
    EXPECT_NE(report.str().find("chr2:31000"), std::string::npos);
}

TEST(EndToEnd, EveryEngineFindsThePlantedSites)
{
    core::Guide guide =
        core::makeGuide("g0", "CTTGCAAGTACCTTGCAAGT");
    genome::Sequence site = guide.protospacer;
    site.append(genome::Sequence::fromString("AGG"));
    genome::GenomeSpec gs;
    gs.length = 30000;
    gs.seed = 504;
    genome::Sequence ref = genome::generateGenome(gs);
    genome::plantSite(ref, 7777, site);
    // Reverse-strand copy.
    genome::Sequence rc = site.reverseComplement();
    genome::plantSite(ref, 21000, rc);

    for (core::EngineKind kind :
         {core::EngineKind::HscanAuto, core::EngineKind::HscanPrefilter,
          core::EngineKind::Fpga, core::EngineKind::Ap,
          core::EngineKind::GpuInfant2, core::EngineKind::CasOffinder,
          core::EngineKind::CasOt}) {
        core::SearchConfig cfg;
        cfg.maxMismatches = 1;
        cfg.engine = kind;
        core::SearchResult res = core::search(ref, {guide}, cfg);
        bool fwd = false, rev = false;
        for (const auto &hit : res.hits) {
            fwd |= hit.start == 7777 &&
                   hit.strand == core::Strand::Forward;
            rev |= hit.start == 21000 &&
                   hit.strand == core::Strand::Reverse;
        }
        EXPECT_TRUE(fwd) << core::engineName(kind);
        EXPECT_TRUE(rev) << core::engineName(kind);
    }
}

TEST(EndToEnd, EveryEngineReportsDroppedEvents)
{
    // Every adapter publishes an events.dropped metric agreeing with
    // the verifier; only the AP counter design (the documented tolerant
    // exception) may drop anything.
    core::Guide guide =
        core::makeGuide("g0", "CTTGCAAGTACCTTGCAAGT");
    genome::GenomeSpec gs;
    gs.length = 20000;
    gs.seed = 505;
    genome::Sequence ref = genome::generateGenome(gs);

    for (core::EngineKind kind :
         core::EngineRegistry::instance().kinds()) {
        core::SearchConfig cfg;
        cfg.maxMismatches = 2;
        cfg.engine = kind;
        core::SearchResult res = core::search(ref, {guide}, cfg);
        ASSERT_EQ(res.run.metrics.count("events.dropped"), 1u)
            << core::engineName(kind);
        EXPECT_EQ(res.run.metrics.at("events.dropped"),
                  static_cast<double>(res.droppedEvents))
            << core::engineName(kind);
        if (kind != core::EngineKind::ApCounter) {
            EXPECT_EQ(res.droppedEvents, 0u) << core::engineName(kind);
        }
    }
}

TEST(EndToEnd, ApEstimateInputBandwidthBound)
{
    // With a slow host link the AP kernel is paced by input delivery,
    // not the 133 MHz symbol rate.
    ap::ApDeviceSpec slow;
    slow.inputBandwidth = 50e6; // 50 MB/s
    const uint64_t symbols = 100 << 20;
    ap::ApTimeBreakdown t = ap::estimateRun(symbols, 0, 1, slow);
    EXPECT_NEAR(t.kernelSeconds,
                static_cast<double>(symbols) / 50e6, 1e-3);
}

} // namespace
} // namespace crispr
