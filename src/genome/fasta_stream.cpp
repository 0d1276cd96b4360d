#include "genome/fasta_stream.hpp"

#include <istream>

#include "common/faultpoints.hpp"
#include "common/logging.hpp"
#include "genome/alphabet.hpp"

namespace crispr::genome {

using common::Error;
using common::ErrorCode;

FastaStreamReader::FastaStreamReader(std::istream &in,
                                     FastaStreamOptions options)
    : in_(in), options_(options)
{
}

void
FastaStreamReader::dropRecord()
{
    ++recordsDropped_;
    skippingRecord_ = true;
    line_.clear();
    linePos_ = 0;
}

common::Expected<bool>
FastaStreamReader::tryNext(size_t max_codes, std::vector<uint8_t> &out)
{
    out.clear();
    CRISPR_ASSERT(max_codes > 0);

    while (out.size() < max_codes) {
        if (pendingSeparators_ > 0) {
            out.push_back(kCodeN);
            ++offset_;
            --pendingSeparators_;
            continue;
        }
        if (linePos_ >= line_.size()) {
            // Fetch the next non-empty line.
            if (!std::getline(in_, line_)) {
                line_.clear();
                linePos_ = 0;
                break;
            }
            if (!line_.empty() && line_.back() == '\r')
                line_.pop_back();
            linePos_ = 0;
            if (line_.empty())
                continue;
            if (line_[0] == '>') {
                skippingRecord_ = false;
                std::string header = line_.substr(1);
                auto ws = header.find_first_of(" \t");
                std::string name =
                    ws == std::string::npos ? header
                                            : header.substr(0, ws);
                line_.clear();
                const bool injected =
                    common::faultpoints::shouldFail("fasta.record");
                if (name.empty() || injected) {
                    const char *what =
                        injected ? "injected fasta.record fault"
                                 : "empty record name";
                    if (!options_.lenient)
                        return Error(
                            ErrorCode::ParseError,
                            strprintf("FASTA stream: %s", what));
                    dropRecord();
                    continue;
                }
                // One separator per record boundary, even around an
                // empty record, as concatenateRecords() inserts them.
                if (sawRecord_)
                    ++pendingSeparators_;
                sawRecord_ = true;
                // The record starts after its pending separator.
                records_.push_back(RecordInfo{
                    std::move(name), offset_ + pendingSeparators_});
                continue;
            }
            if (skippingRecord_) {
                line_.clear();
                continue;
            }
            if (!sawRecord_) {
                if (!options_.lenient)
                    return Error(ErrorCode::ParseError,
                                 "FASTA stream: sequence data before "
                                 "any '>' header");
                // The headerless prefix counts as one dropped record.
                dropRecord();
                continue;
            }
        }
        while (linePos_ < line_.size() && out.size() < max_codes) {
            const char c = line_[linePos_++];
            if (c == ' ' || c == '\t' || c == '\r')
                continue; // stray whitespace inside a sequence line
            uint8_t code = baseCode(c);
            if (code == kCodeInvalid) {
                code = iupacMask(c) != 0 ? kCodeN : kCodeInvalid;
            }
            if (code == kCodeInvalid) {
                if (!options_.lenient)
                    return Error(
                        ErrorCode::ParseError,
                        strprintf(
                            "FASTA stream: invalid character '%c'",
                            c));
                // Truncate at the bad character; skip the remainder.
                dropRecord();
                break;
            }
            out.push_back(code);
            ++offset_;
        }
    }
    if (out.empty() && !sawRecord_)
        return Error(ErrorCode::ParseError,
                     "FASTA stream contains no records");
    return !out.empty();
}

bool
FastaStreamReader::next(size_t max_codes, std::vector<uint8_t> &out)
{
    return tryNext(max_codes, out).valueOrThrow();
}

} // namespace crispr::genome
