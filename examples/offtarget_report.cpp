/**
 * @file
 * Off-target report: the CasOFFinder-style command-line workflow on
 * top of the library. Reads a (multi-record) FASTA reference and a
 * guide list, searches on a selectable engine, and writes a hit report
 * or CSV.
 *
 * Usage:
 *   offtarget_report --fasta ref.fa --guides guides.txt --d 3 \
 *       --pam NRG --engine hscan [--csv out.csv]
 *
 * `guides.txt`: one `name<TAB>sequence` or bare sequence per line.
 * Without --fasta a demo genome is generated so the example is
 * runnable out of the box.
 */

#include <fstream>
#include <iostream>
#include <sstream>

#include "common/cli.hpp"
#include "common/logging.hpp"
#include "core/engine_registry.hpp"
#include "core/report.hpp"
#include "core/score.hpp"
#include "core/session.hpp"
#include "genome/fasta.hpp"
#include "genome/generator.hpp"

using namespace crispr;

namespace {

core::EngineKind
engineByName(const std::string &name)
{
    // "auto" is a selector with no registry entry (the session expands
    // it through the cost model), so it resolves before findByName.
    if (name == "auto")
        return core::EngineKind::Auto;
    const core::Engine *engine =
        core::EngineRegistry::instance().findByName(name);
    if (engine)
        return engine->kind();
    std::string known = "auto";
    for (core::EngineKind kind :
         core::EngineRegistry::instance().kinds()) {
        if (!known.empty())
            known += ", ";
        known += core::engineName(kind);
    }
    fatal("unknown engine '%s' (one of: %s)", name.c_str(),
          known.c_str());
}

std::vector<core::Guide>
loadGuides(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open guide file '%s'", path.c_str());
    std::vector<core::Guide> guides;
    std::string line;
    size_t n = 0;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string a, b;
        ls >> a >> b;
        if (b.empty())
            guides.push_back(
                core::makeGuide("g" + std::to_string(n), a));
        else
            guides.push_back(core::makeGuide(a, b));
        ++n;
    }
    if (guides.empty())
        fatal("guide file '%s' contains no guides", path.c_str());
    return guides;
}

} // namespace

int
main(int argc, char **argv)
{
    Cli cli("Search a reference genome for gRNA off-target sites");
    cli.addString("fasta", "", "reference FASTA (empty: demo genome)");
    cli.addString("guides", "", "guide list file (empty: demo guides)");
    cli.addInt("d", 3, "maximum mismatches in the protospacer");
    cli.addString("pam", "NRG", "PAM IUPAC pattern (3' of protospacer)");
    cli.addString("engine", "hscan",
                  "search engine (\"auto\" = cost-model selection)");
    cli.addInt("threads", 1,
               "worker threads for the CPU engines (0 = all cores)");
    cli.addBool("forward-only", "skip the reverse strand");
    cli.addString("csv", "", "also write hits as CSV to this file");
    cli.addInt("max-lines", 50, "max hit lines to print");
    cli.addInt("top-k", 0,
               "rank the K most dangerous sites by in-scan penalty "
               "(0 = no ranked report)");
    cli.addString("score-threshold", "0",
                  "ranked report: keep sites with penalty >= this");
    cli.addString("ranked-csv", "",
                  "write the ranked report as CSV to this file");
    if (!cli.parse(argc, argv))
        return 0;

    try {
        genome::Sequence genome_seq;
        genome::RecordMap record_map;
        bool have_map = false;
        if (cli.getString("fasta").empty()) {
            inform("no --fasta given; generating a 4 MB demo genome");
            genome::GenomeSpec spec;
            spec.length = 4 << 20;
            spec.seed = 99;
            genome_seq = genome::generateGenome(spec);
        } else {
            auto records =
                genome::readFastaFile(cli.getString("fasta"));
            genome_seq = genome::concatenateRecords(records);
            record_map = genome::RecordMap::fromRecords(records);
            have_map = true;
            inform("loaded %zu record(s), %zu bases", records.size(),
                   genome_seq.size());
        }

        std::vector<core::Guide> guides;
        if (cli.getString("guides").empty()) {
            inform("no --guides given; sampling 3 demo guides from "
                   "the reference");
            guides = core::guidesFromGenome(genome_seq, 3, 20, 1);
        } else {
            guides = loadGuides(cli.getString("guides"));
        }

        core::SearchConfig config;
        config.maxMismatches = static_cast<int>(cli.getInt("d"));
        config.pam = core::PamSpec{cli.getString("pam")};
        config.bothStrands = !cli.getBool("forward-only");
        config.engine = engineByName(cli.getString("engine"));
        config.threads =
            static_cast<unsigned>(cli.getInt("threads"));
        config.topK = static_cast<size_t>(cli.getInt("top-k"));
        config.scoreThreshold =
            std::stod(cli.getString("score-threshold"));

        core::SearchSession session(guides, config);
        core::SearchResult result = session.search(genome_seq);

        std::cout << core::timingLine(result.run) << "\n\n";
        core::printHits(std::cout, genome_seq, guides, result,
                        static_cast<size_t>(cli.getInt("max-lines")),
                        have_map ? &record_map : nullptr);
        std::cout << '\n';
        core::printSummary(std::cout, guides, result);

        // Specificity ranking (Hsu/MIT-style aggregate score).
        auto scores = core::scoreGuides(genome_seq, guides, result);
        std::cout << "\nguide\ton-targets\toff-targets\tspecificity\n";
        for (const auto &s : scores) {
            std::cout << guides[s.guide].name << '\t' << s.onTargets
                      << '\t' << s.offTargets << '\t'
                      << strprintf("%.1f", s.specificity) << '\n';
        }

        if (result.rankedMode) {
            std::cout << "\nranked sites (penalty desc, top "
                      << (config.topK > 0
                              ? std::to_string(config.topK)
                              : std::string("all"))
                      << "):\n";
            core::printRanked(std::cout, genome_seq, guides, result,
                              have_map ? &record_map : nullptr);
        }

        if (!cli.getString("ranked-csv").empty()) {
            std::ofstream csv(cli.getString("ranked-csv"));
            if (!csv)
                fatal("cannot open '%s'",
                      cli.getString("ranked-csv").c_str());
            core::writeRankedCsv(csv, genome_seq, guides, result);
            inform("wrote %zu ranked sites to %s",
                   result.ranked.size(),
                   cli.getString("ranked-csv").c_str());
        }

        if (!cli.getString("csv").empty()) {
            std::ofstream csv(cli.getString("csv"));
            if (!csv)
                fatal("cannot open '%s'",
                      cli.getString("csv").c_str());
            core::writeHitsCsv(csv, genome_seq, guides, result);
            inform("wrote %zu hits to %s", result.hits.size(),
                   cli.getString("csv").c_str());
        }
    } catch (const FatalError &e) {
        std::cerr << "error: " << e.what() << '\n';
        return 1;
    }
    return 0;
}
