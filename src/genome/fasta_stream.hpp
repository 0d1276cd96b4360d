/**
 * @file
 * Streaming FASTA reader: decodes a (possibly multi-gigabyte)
 * multi-record FASTA into genome-code chunks without materialising the
 * whole reference, inserting the same single-N record separators as
 * concatenateRecords() — one per record boundary, empty records
 * included — so chunked scanning over the stream is bit-identical to
 * scanning the concatenated sequence (tested). GenomeStore decodes
 * FASTA refs with this reader too.
 *
 * Robustness: CRLF line endings, blank lines, and stray whitespace
 * inside sequence lines are accepted in both modes. Malformed input
 * (sequence data before any header, an empty record name, an invalid
 * sequence character) is a typed ParseError via tryNext() — or, in
 * lenient mode, the malformed record is skipped and counted in
 * recordsDropped() instead. Because the reader cannot rewind what it
 * already emitted, a record found invalid mid-sequence in lenient mode
 * is truncated at the bad character (the emitted prefix stays in the
 * stream) and its remainder is skipped.
 */

#ifndef CRISPR_GENOME_FASTA_STREAM_HPP_
#define CRISPR_GENOME_FASTA_STREAM_HPP_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace crispr::genome {

/** Streaming-reader options. */
struct FastaStreamOptions
{
    /** Skip malformed records (counted) instead of erroring. */
    bool lenient = false;
};

/** Incremental FASTA decoder. */
class FastaStreamReader
{
  public:
    /** @param in FASTA text stream; must outlive the reader. */
    explicit FastaStreamReader(std::istream &in,
                               FastaStreamOptions options = {});

    /**
     * Decode up to `max_codes` further genome codes into `out`
     * (cleared first). @return false when the stream is exhausted and
     * nothing was produced; ParseError on malformed input (strict
     * mode) or a record-free stream.
     */
    common::Expected<bool> tryNext(size_t max_codes,
                                   std::vector<uint8_t> &out);

    /** Throwing wrapper over tryNext() (ErrorException). */
    bool next(size_t max_codes, std::vector<uint8_t> &out);

    /** Global stream offset of the next code to be produced. */
    uint64_t offset() const { return offset_; }

    /** Malformed records skipped so far (lenient mode). */
    size_t recordsDropped() const { return recordsDropped_; }

    /** Names of the records seen so far, with their stream offsets. */
    struct RecordInfo
    {
        std::string name;
        uint64_t start;
    };
    const std::vector<RecordInfo> &records() const { return records_; }

  private:
    /** Skip the rest of the current record and count it dropped. */
    void dropRecord();

    std::istream &in_;
    FastaStreamOptions options_;
    uint64_t offset_ = 0;
    bool sawRecord_ = false;
    size_t pendingSeparators_ = 0; //!< record separators not yet emitted
    bool skippingRecord_ = false; //!< lenient: discard until next '>'
    size_t recordsDropped_ = 0;
    std::string line_;
    size_t linePos_ = 0;
    std::vector<RecordInfo> records_;
};

} // namespace crispr::genome

#endif // CRISPR_GENOME_FASTA_STREAM_HPP_
