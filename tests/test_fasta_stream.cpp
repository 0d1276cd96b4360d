/** @file Unit tests for the streaming FASTA reader. */

#include <sstream>

#include <gtest/gtest.h>

#include "common/logging.hpp"
#include "genome/fasta.hpp"
#include "genome/fasta_stream.hpp"
#include "hscan/multipattern.hpp"
#include "test_util.hpp"

namespace crispr::genome {
namespace {

std::string
sampleFasta()
{
    return ">chr1 first\nACGTACGT\nACGT\n"
           ">chr2\nTT\r\nTT\n\n"
           ">chr3\nGGGgggNRY\n";
}

Sequence
streamAll(const std::string &text, size_t chunk)
{
    std::istringstream in(text);
    FastaStreamReader reader(in);
    Sequence all;
    std::vector<uint8_t> buf;
    while (reader.next(chunk, buf))
        for (uint8_t c : buf)
            all.push_back(c);
    return all;
}

TEST(FastaStream, MatchesConcatenatedWholeFileRead)
{
    std::istringstream in(sampleFasta());
    auto records = readFasta(in);
    Sequence want = concatenateRecords(records);

    for (size_t chunk : {1u, 3u, 7u, 100u, 10000u})
        EXPECT_EQ(streamAll(sampleFasta(), chunk), want)
            << "chunk " << chunk;
}

// An empty record still owns its separator: consecutive record
// boundaries must not collapse into one N, or every offset after the
// empty record is off by one between a loaded and a streamed genome.
TEST(FastaStream, EmptyRecordKeepsItsSeparator)
{
    const std::string text = ">r1\nACGT\n>r2\n>r3\nGGCC\n";
    std::istringstream in(text);
    const Sequence want = concatenateRecords(readFasta(in));
    ASSERT_EQ(want, Sequence::fromString("ACGTNNGGCC"));
    for (size_t chunk : {1u, 4u, 5u, 100u})
        EXPECT_EQ(streamAll(text, chunk), want) << "chunk " << chunk;

    // A trailing empty record keeps its separator too.
    const std::string trailing = ">r1\nACGT\n>r2\n";
    std::istringstream trailing_in(trailing);
    EXPECT_EQ(streamAll(trailing, 3),
              concatenateRecords(readFasta(trailing_in)));

    std::istringstream offsets_in(text);
    FastaStreamReader reader(offsets_in);
    std::vector<uint8_t> buf;
    while (reader.next(3, buf)) {
    }
    ASSERT_EQ(reader.records().size(), 3u);
    EXPECT_EQ(reader.records()[1].start, 5u);
    EXPECT_EQ(reader.records()[2].start, 6u);
}

TEST(FastaStream, TracksRecordOffsets)
{
    std::istringstream in(sampleFasta());
    FastaStreamReader reader(in);
    std::vector<uint8_t> buf;
    while (reader.next(5, buf)) {
    }
    ASSERT_EQ(reader.records().size(), 3u);
    EXPECT_EQ(reader.records()[0].name, "chr1");
    EXPECT_EQ(reader.records()[0].start, 0u);
    EXPECT_EQ(reader.records()[1].name, "chr2");
    EXPECT_EQ(reader.records()[1].start, 13u); // 12 bases + separator
    EXPECT_EQ(reader.records()[2].name, "chr3");
    EXPECT_EQ(reader.records()[2].start, 18u);
    EXPECT_EQ(reader.offset(), 27u);
}

TEST(FastaStream, ErrorsMatchWholeFileReader)
{
    {
        std::istringstream in("ACGT\n");
        FastaStreamReader reader(in);
        std::vector<uint8_t> buf;
        EXPECT_THROW(reader.next(10, buf), FatalError);
    }
    {
        std::istringstream in("");
        FastaStreamReader reader(in);
        std::vector<uint8_t> buf;
        EXPECT_THROW(reader.next(10, buf), FatalError);
    }
    {
        std::istringstream in(">r\nAC1T\n");
        FastaStreamReader reader(in);
        std::vector<uint8_t> buf;
        EXPECT_THROW(reader.next(10, buf), FatalError);
    }
}

TEST(FastaStream, TryNextReturnsTypedParseErrors)
{
    struct Case
    {
        const char *text;
        const char *what;
    };
    for (const Case &c :
         {Case{"ACGT\n", "before any"}, Case{"", "no records"},
          Case{">r\nAC1T\n", "invalid character"},
          Case{">\nACGT\n", "empty record name"}}) {
        std::istringstream in(c.text);
        FastaStreamReader reader(in);
        std::vector<uint8_t> buf;
        auto got = reader.tryNext(10, buf);
        ASSERT_FALSE(got.ok()) << c.text;
        EXPECT_EQ(got.error().code(), common::ErrorCode::ParseError)
            << c.text;
        EXPECT_NE(got.error().message().find(c.what),
                  std::string::npos)
            << got.error().str();
    }
}

TEST(FastaStream, LenientModeSkipsMalformedRecords)
{
    // A headerless prefix, a nameless record, and a record with an
    // invalid character (truncated at the bad byte, remainder
    // skipped) are each dropped; the good records still stream.
    const std::string text = "ACGT\n"
                             ">\nTTTT\n"
                             ">good1\nACGT\n"
                             ">bad\nGG1GG\nCCCC\n"
                             ">good2\nTTTT\n";
    std::istringstream in(text);
    FastaStreamReader reader(in, FastaStreamOptions{/*lenient=*/true});
    Sequence all;
    std::vector<uint8_t> buf;
    while (reader.next(5, buf))
        for (uint8_t c : buf)
            all.push_back(c);
    EXPECT_EQ(reader.recordsDropped(), 3u);
    // good1, then bad's emitted prefix "GG", then good2 — each record
    // separated by a single N.
    EXPECT_EQ(all, Sequence::fromString("ACGTNGGNTTTT"));
    ASSERT_EQ(reader.records().size(), 3u);
    EXPECT_EQ(reader.records()[0].name, "good1");
    EXPECT_EQ(reader.records()[1].name, "bad");
    EXPECT_EQ(reader.records()[2].name, "good2");

    // Leniency still needs at least one well-formed record.
    std::istringstream none(">\nACGT\n");
    FastaStreamReader none_reader(none,
                                  FastaStreamOptions{/*lenient=*/true});
    auto got = none_reader.tryNext(10, buf);
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.error().code(), common::ErrorCode::ParseError);
}

TEST(FastaStream, LenientModeStillAcceptsCleanInput)
{
    std::istringstream strict_in(sampleFasta());
    Sequence want = concatenateRecords(readFasta(strict_in));

    std::istringstream in(sampleFasta());
    FastaStreamReader reader(in, FastaStreamOptions{/*lenient=*/true});
    Sequence all;
    std::vector<uint8_t> buf;
    while (reader.next(7, buf))
        for (uint8_t c : buf)
            all.push_back(c);
    EXPECT_EQ(all, want);
    EXPECT_EQ(reader.recordsDropped(), 0u);
}

TEST(FastaStream, DrivesStreamingScanIdentically)
{
    // Scanning the stream chunk-by-chunk through an HScan scanner must
    // equal scanning the concatenated sequence in one go.
    Rng rng(411);
    std::vector<FastaRecord> records;
    for (int r = 0; r < 3; ++r) {
        records.push_back(
            {"r" + std::to_string(r), "",
             crispr::test::randomGenome(rng, 4000, 0.01)});
    }
    std::ostringstream fasta_text;
    writeFasta(fasta_text, records);

    std::vector<automata::HammingSpec> specs;
    for (uint32_t i = 0; i < 3; ++i)
        specs.push_back(crispr::test::randomGuideSpec(rng, 10, 3, 2, i));
    hscan::Database db = hscan::Database::compile(specs);

    hscan::Scanner whole(db);
    Sequence all = concatenateRecords(records);
    auto want = whole.scanAll(all);
    automata::normalizeEvents(want);

    std::istringstream in(fasta_text.str());
    FastaStreamReader reader(in);
    hscan::Scanner streaming(db);
    streaming.reset();
    std::vector<automata::ReportEvent> got;
    std::vector<uint8_t> buf;
    uint64_t at = 0;
    while (reader.next(1777, buf)) {
        streaming.scan(buf,
                       [&](uint32_t id, uint64_t end) {
                           got.push_back(
                               automata::ReportEvent{id, end});
                       },
                       at);
        at += buf.size();
    }
    automata::normalizeEvents(got);
    EXPECT_EQ(got, want);
}

} // namespace
} // namespace crispr::genome
