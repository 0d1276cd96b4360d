/**
 * @file
 * FASTA reading and writing. Real reference genomes (hg19 etc.) drop in
 * through this path unchanged; the test-suite and the synthetic-genome
 * generator round-trip through it.
 */

#ifndef CRISPR_GENOME_FASTA_HPP_
#define CRISPR_GENOME_FASTA_HPP_

#include <iosfwd>
#include <string>
#include <vector>

#include "genome/sequence.hpp"

namespace crispr::genome {

/** One FASTA record: a header name plus its sequence. */
struct FastaRecord
{
    std::string name;    //!< text after '>' up to first whitespace
    std::string comment; //!< remainder of the header line (may be empty)
    Sequence seq;
};

/**
 * Parse all records from a FASTA stream.
 * Handles multi-record files, CRLF line endings, blank lines, stray
 * whitespace inside sequence lines, lower-case (soft-masked) bases, and
 * degenerate IUPAC letters (mapped to N). A file with no '>' header or
 * with invalid sequence characters raises FatalError. (Lenient
 * decoding lives in FastaStreamReader, the reader GenomeStore and
 * streamed searches use.)
 */
std::vector<FastaRecord> readFasta(std::istream &in);

/** Parse all records from a FASTA file on disk. */
std::vector<FastaRecord> readFastaFile(const std::string &path);

/** Write records in FASTA format with the given line width. */
void writeFasta(std::ostream &out, const std::vector<FastaRecord> &records,
                size_t line_width = 70);

/** Write records to a file on disk. */
void writeFastaFile(const std::string &path,
                    const std::vector<FastaRecord> &records,
                    size_t line_width = 70);

/**
 * Concatenate all records of a FASTA file into a single scan stream,
 * inserting one 'N' between records so no match can span a record
 * boundary. @param[out] boundaries start offset of each record within
 * the concatenated stream (may be null).
 */
Sequence concatenateRecords(const std::vector<FastaRecord> &records,
                            std::vector<size_t> *boundaries = nullptr);

} // namespace crispr::genome

#endif // CRISPR_GENOME_FASTA_HPP_
