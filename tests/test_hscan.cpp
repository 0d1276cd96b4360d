/** @file Unit tests for the HScan database and scanner facade. */

#include <gtest/gtest.h>

#include "baselines/brute.hpp"
#include "common/logging.hpp"
#include "hscan/multipattern.hpp"
#include "test_util.hpp"

namespace crispr::hscan {
namespace {

using automata::HammingSpec;

std::vector<HammingSpec>
smallSpecs(Rng &rng, int d, size_t count = 3)
{
    std::vector<HammingSpec> specs;
    for (uint32_t i = 0; i < count; ++i)
        specs.push_back(crispr::test::randomGuideSpec(rng, 8, 3, d, i));
    return specs;
}

TEST(Database, AutoPicksDfaForSmallSets)
{
    Rng rng(1);
    Database db = Database::compile(smallSpecs(rng, 1));
    EXPECT_EQ(db.effectiveMode(), ScanMode::Dfa);
    EXPECT_TRUE(db.dfaPrototype().has_value());
}

TEST(Database, AutoFallsBackToBitParallel)
{
    Rng rng(2);
    DatabaseOptions opts;
    opts.maxDfaStates = 8; // absurdly small cap
    Database db = Database::compile(smallSpecs(rng, 2), opts);
    EXPECT_EQ(db.effectiveMode(), ScanMode::BitParallel);
    EXPECT_FALSE(db.dfaPrototype().has_value());
}

TEST(Database, ForcedDfaOverBudgetIsFatal)
{
    Rng rng(3);
    DatabaseOptions opts;
    opts.mode = ScanMode::Dfa;
    opts.maxDfaStates = 8;
    EXPECT_THROW(Database::compile(smallSpecs(rng, 2), opts), FatalError);
}

TEST(Database, EmptyIsFatal)
{
    EXPECT_THROW(Database::compile({}), FatalError);
}

TEST(Database, SerializeRoundTrip)
{
    Rng rng(4);
    auto specs = smallSpecs(rng, 2);
    for (ScanMode mode : {ScanMode::Dfa, ScanMode::BitParallel}) {
        DatabaseOptions opts;
        opts.mode = mode;
        opts.maxDfaStates = 1u << 20;
        Database db = Database::compile(specs, opts);
        auto back = Database::deserializeCompiled(db.serializeCompiled());
        ASSERT_TRUE(back.ok()) << back.error().str();
        EXPECT_EQ(back.value().effectiveMode(), db.effectiveMode());
        EXPECT_EQ(back.value().dfaPrototype().has_value(),
                  mode == ScanMode::Dfa);
        ASSERT_EQ(back.value().specs().size(), specs.size());
        for (size_t i = 0; i < specs.size(); ++i) {
            const HammingSpec &got = back.value().specs()[i];
            EXPECT_EQ(got.masks, specs[i].masks);
            EXPECT_EQ(got.maxMismatches, specs[i].maxMismatches);
            EXPECT_EQ(got.mismatchLo, specs[i].mismatchLo);
            EXPECT_EQ(got.mismatchHi, specs[i].mismatchHi);
            EXPECT_EQ(got.reportId, specs[i].reportId);
        }
    }
}

TEST(Database, DeserializeRejectsGarbage)
{
    const std::vector<uint8_t> tiny{1, 2, 3};
    auto short_blob = Database::deserializeCompiled(tiny);
    ASSERT_FALSE(short_blob.ok());
    EXPECT_EQ(short_blob.error().code(), common::ErrorCode::ParseError);

    Rng rng(5);
    auto blob =
        Database::compile(smallSpecs(rng, 1)).serializeCompiled();
    blob.pop_back();
    auto truncated = Database::deserializeCompiled(blob);
    ASSERT_FALSE(truncated.ok());
    EXPECT_EQ(truncated.error().code(), common::ErrorCode::ParseError);
    blob.push_back(0);
    blob.push_back(0);
    auto trailing = Database::deserializeCompiled(blob);
    ASSERT_FALSE(trailing.ok());
    EXPECT_EQ(trailing.error().code(), common::ErrorCode::ParseError);
}

TEST(Scanner, BothPathsAgreeWithGolden)
{
    Rng rng(6);
    auto specs = smallSpecs(rng, 2, 4);
    genome::Sequence g = crispr::test::randomGenome(rng, 4000, 0.01);
    auto want = baselines::bruteForceScan(g, specs);

    for (ScanMode mode : {ScanMode::Dfa, ScanMode::BitParallel}) {
        DatabaseOptions opts;
        opts.mode = mode;
        opts.maxDfaStates = 1u << 20;
        Database db = Database::compile(specs, opts);
        Scanner scanner(db);
        auto got = scanner.scanAll(g);
        automata::normalizeEvents(got);
        EXPECT_EQ(got, want) << "mode " << static_cast<int>(mode);
        EXPECT_EQ(scanner.mode(), mode);
    }
}

TEST(Scanner, StatsAccumulateAndReset)
{
    Rng rng(7);
    Database db = Database::compile(smallSpecs(rng, 0));
    Scanner scanner(db);
    genome::Sequence g = crispr::test::randomGenome(rng, 100);
    scanner.scanAll(g);
    EXPECT_EQ(scanner.stats().symbols, 100u);
    scanner.reset();
    EXPECT_EQ(scanner.stats().symbols, 0u);
}

TEST(Scanner, ChunkedScanEqualsWhole)
{
    Rng rng(8);
    auto specs = smallSpecs(rng, 2);
    genome::Sequence g = crispr::test::randomGenome(rng, 900);
    Database db = Database::compile(specs);
    Scanner whole(db);
    auto expect = whole.scanAll(g);

    Scanner chunked(db);
    chunked.reset();
    std::vector<automata::ReportEvent> got;
    auto sink = [&](uint32_t id, uint64_t end) {
        got.push_back(automata::ReportEvent{id, end});
    };
    for (size_t at = 0; at < g.size(); at += 111) {
        size_t n = std::min<size_t>(111, g.size() - at);
        chunked.scan({g.data() + at, n}, sink, at);
    }
    EXPECT_EQ(got, expect);
    EXPECT_EQ(chunked.stats().symbols, g.size());
}

TEST(Database, InfoMentionsPathAndCounts)
{
    Rng rng(9);
    Database db = Database::compile(smallSpecs(rng, 1));
    std::string info = db.info();
    EXPECT_NE(info.find("3 patterns"), std::string::npos);
    EXPECT_NE(info.find("dfa"), std::string::npos);
}

} // namespace
} // namespace crispr::hscan
