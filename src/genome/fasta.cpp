#include "genome/fasta.hpp"

#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/logging.hpp"

namespace crispr::genome {

std::vector<FastaRecord>
readFasta(std::istream &in)
{
    std::vector<FastaRecord> records;
    std::string line;
    std::string pending; // accumulated sequence text of the open record

    auto flush = [&] {
        if (!records.empty())
            records.back().seq = Sequence::fromString(pending);
        pending.clear();
    };

    size_t line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (line.empty())
            continue;
        if (line[0] == '>') {
            flush();
            FastaRecord rec;
            std::string header = line.substr(1);
            auto ws = header.find_first_of(" \t");
            if (ws == std::string::npos) {
                rec.name = header;
            } else {
                rec.name = header.substr(0, ws);
                auto rest = header.find_first_not_of(" \t", ws);
                if (rest != std::string::npos)
                    rec.comment = header.substr(rest);
            }
            if (rec.name.empty())
                fatal("FASTA line %zu: empty record name", line_no);
            records.push_back(std::move(rec));
            continue;
        }
        if (records.empty())
            fatal("FASTA line %zu: sequence data before any '>' header",
                  line_no);
        for (char c : line) {
            if (c == ' ' || c == '\t')
                continue;
            if (baseCode(c) == kCodeInvalid && iupacMask(c) == 0)
                fatal("FASTA line %zu: invalid character '%c'", line_no,
                      c);
            pending += c;
        }
    }
    flush();
    if (records.empty())
        fatal("FASTA input contains no records");
    return records;
}

std::vector<FastaRecord>
readFastaFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open FASTA file '%s'", path.c_str());
    return readFasta(in);
}

void
writeFasta(std::ostream &out, const std::vector<FastaRecord> &records,
           size_t line_width)
{
    CRISPR_ASSERT(line_width > 0);
    for (const auto &rec : records) {
        out << '>' << rec.name;
        if (!rec.comment.empty())
            out << ' ' << rec.comment;
        out << '\n';
        std::string ascii = rec.seq.str();
        for (size_t i = 0; i < ascii.size(); i += line_width)
            out << ascii.substr(i, line_width) << '\n';
    }
}

void
writeFastaFile(const std::string &path,
               const std::vector<FastaRecord> &records, size_t line_width)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot open '%s' for writing", path.c_str());
    writeFasta(out, records, line_width);
}

Sequence
concatenateRecords(const std::vector<FastaRecord> &records,
                   std::vector<size_t> *boundaries)
{
    Sequence out;
    if (boundaries)
        boundaries->clear();
    for (size_t r = 0; r < records.size(); ++r) {
        if (r > 0)
            out.push_back(kCodeN); // separator: no cross-record matches
        if (boundaries)
            boundaries->push_back(out.size());
        out.append(records[r].seq);
    }
    return out;
}

} // namespace crispr::genome
