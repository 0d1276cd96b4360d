/** @file Unit tests for FASTA I/O. */

#include <sstream>

#include <gtest/gtest.h>

#include "common/logging.hpp"
#include "genome/fasta.hpp"

namespace crispr::genome {
namespace {

TEST(Fasta, ParsesMultiRecord)
{
    std::istringstream in(">chr1 human chromosome 1\nACGT\nACGT\n"
                          ">chr2\nTTTT\n");
    auto recs = readFasta(in);
    ASSERT_EQ(recs.size(), 2u);
    EXPECT_EQ(recs[0].name, "chr1");
    EXPECT_EQ(recs[0].comment, "human chromosome 1");
    EXPECT_EQ(recs[0].seq.str(), "ACGTACGT");
    EXPECT_EQ(recs[1].name, "chr2");
    EXPECT_TRUE(recs[1].comment.empty());
    EXPECT_EQ(recs[1].seq.str(), "TTTT");
}

TEST(Fasta, HandlesCrlfAndBlankLines)
{
    std::istringstream in(">r\r\nAC\r\n\r\nGT\r\n");
    auto recs = readFasta(in);
    ASSERT_EQ(recs.size(), 1u);
    EXPECT_EQ(recs[0].seq.str(), "ACGT");
}

TEST(Fasta, SoftMaskedAndDegenerateBases)
{
    std::istringstream in(">r\nacgtRYn\n");
    auto recs = readFasta(in);
    EXPECT_EQ(recs[0].seq.str(), "ACGTNNN");
}

TEST(Fasta, RejectsDataBeforeHeader)
{
    std::istringstream in("ACGT\n>r\nACGT\n");
    EXPECT_THROW(readFasta(in), FatalError);
}

TEST(Fasta, RejectsEmptyInput)
{
    std::istringstream in("");
    EXPECT_THROW(readFasta(in), FatalError);
}

TEST(Fasta, RejectsEmptyRecordName)
{
    std::istringstream in(">\nACGT\n");
    EXPECT_THROW(readFasta(in), FatalError);
}

TEST(Fasta, RoundTripsThroughWriter)
{
    std::vector<FastaRecord> recs;
    recs.push_back({"a", "first", Sequence::fromString("ACGTACGTACGT")});
    recs.push_back({"b", "", Sequence::fromString("NNNN")});
    std::ostringstream out;
    writeFasta(out, recs, 5);
    std::istringstream in(out.str());
    auto back = readFasta(in);
    ASSERT_EQ(back.size(), 2u);
    EXPECT_EQ(back[0].name, "a");
    EXPECT_EQ(back[0].comment, "first");
    EXPECT_EQ(back[0].seq, recs[0].seq);
    EXPECT_EQ(back[1].seq, recs[1].seq);
}

TEST(Fasta, WriterWrapsLines)
{
    std::vector<FastaRecord> recs;
    recs.push_back({"a", "", Sequence::fromString("ACGTACG")});
    std::ostringstream out;
    writeFasta(out, recs, 4);
    EXPECT_EQ(out.str(), ">a\nACGT\nACG\n");
}

TEST(Fasta, ConcatenateInsertsSeparators)
{
    std::vector<FastaRecord> recs;
    recs.push_back({"a", "", Sequence::fromString("AC")});
    recs.push_back({"b", "", Sequence::fromString("GT")});
    std::vector<size_t> bounds;
    Sequence all = concatenateRecords(recs, &bounds);
    EXPECT_EQ(all.str(), "ACNGT");
    ASSERT_EQ(bounds.size(), 2u);
    EXPECT_EQ(bounds[0], 0u);
    EXPECT_EQ(bounds[1], 3u);
}

TEST(Fasta, FileRoundTrip)
{
    const std::string path = "/tmp/crispr_test_roundtrip.fa";
    std::vector<FastaRecord> recs;
    recs.push_back({"chrT", "test", Sequence::fromString("ACGTNACGT")});
    writeFastaFile(path, recs);
    auto back = readFastaFile(path);
    ASSERT_EQ(back.size(), 1u);
    EXPECT_EQ(back[0].seq, recs[0].seq);
    EXPECT_THROW(readFastaFile("/tmp/does_not_exist.fa"), FatalError);
}

} // namespace
} // namespace crispr::genome
