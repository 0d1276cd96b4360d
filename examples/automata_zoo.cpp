/**
 * @file
 * Automata zoo: builds every automaton design the library knows for a
 * guide, prints their shapes, and dumps ANML so the designs can be
 * inspected or fed to external automata tooling (VASim-style).
 *
 * Usage:
 *   automata_zoo [--guide ACGT...] [--d 3] [--out-dir /tmp]
 */

#include <fstream>
#include <iostream>

#include "ap/anml.hpp"
#include "ap/machine.hpp"
#include "automata/dot.hpp"
#include "automata/builders.hpp"
#include "automata/dfa.hpp"
#include "automata/hopcroft.hpp"
#include "common/cli.hpp"
#include "common/logging.hpp"
#include "common/table.hpp"
#include "core/compile.hpp"
#include "fpga/resource.hpp"

using namespace crispr;

int
main(int argc, char **argv)
{
    Cli cli("Inspect the automata designs for one guide");
    cli.addString("guide", "GACGCATAAAGATGAGACGC", "20-nt protospacer");
    cli.addInt("d", 3, "mismatch budget");
    cli.addString("out-dir", "", "write ANML files here (optional)");
    if (!cli.parse(argc, argv))
        return 0;

    try {
        const int d = static_cast<int>(cli.getInt("d"));
        core::Guide guide =
            core::makeGuide("g", cli.getString("guide"));
        core::PatternSet site = core::buildPatternSet(
            {guide}, core::pamNRG(), d, true);
        core::PatternSet pam_first = core::buildPatternSet(
            {guide}, core::pamNRG(), d, true,
            core::Orientation::PamFirst);

        std::cout << "guide: " << guide.protospacer.str() << " + NRG, d="
                  << d << "\n\n";

        Table table({"design", "states/STEs", "edges/wires", "extras",
                     "fan-out", "FPGA LUTs", "FPGA clock"});

        // Mismatch-matrix NFA, forward pattern.
        automata::Nfa fwd =
            automata::buildHammingNfa(site.patterns[0].spec);
        automata::NfaStats fs = automata::computeStats(fwd);
        fpga::ResourceEstimate fres = fpga::estimateResources(fs);
        table.row()
            .add("matrix NFA (fwd strand)")
            .add(static_cast<uint64_t>(fs.states))
            .add(static_cast<uint64_t>(fs.edges))
            .add("-")
            .add(static_cast<uint64_t>(fs.maxFanOut))
            .add(static_cast<uint64_t>(fres.luts))
            .add(strprintf("%.0f MHz", fres.clockHz / 1e6));

        // Both strands merged.
        std::vector<automata::Nfa> both;
        for (const core::Pattern &p : site.patterns)
            both.push_back(automata::buildHammingNfa(p.spec));
        automata::Nfa merged = automata::unionNfas(both);
        automata::NfaStats ms = automata::computeStats(merged);
        fpga::ResourceEstimate mres = fpga::estimateResources(ms);
        table.row()
            .add("matrix NFA (both strands)")
            .add(static_cast<uint64_t>(ms.states))
            .add(static_cast<uint64_t>(ms.edges))
            .add("-")
            .add(static_cast<uint64_t>(ms.maxFanOut))
            .add(static_cast<uint64_t>(mres.luts))
            .add(strprintf("%.0f MHz", mres.clockHz / 1e6));

        // AP counter design (PAM-first orientation).
        ap::ApMachine counter =
            ap::buildCounterMachine(pam_first.patterns[1].spec);
        ap::MachineStats cs = counter.stats();
        table.row()
            .add("AP counter design (rev strand)")
            .add(static_cast<uint64_t>(cs.stes))
            .add(static_cast<uint64_t>(cs.wires))
            .add(strprintf("%zu ctr, %zu gate", cs.counters, cs.gates))
            .add("-")
            .add("-")
            .add("133 MHz (AP)");

        // DFA, if it fits.
        auto dfa = automata::subsetConstruct(fwd, 1u << 18);
        if (dfa) {
            automata::Dfa min = automata::hopcroftMinimize(*dfa);
            table.row()
                .add("DFA (fwd, minimised)")
                .add(static_cast<uint64_t>(min.size()))
                .add(static_cast<uint64_t>(min.size() * 5))
                .add(formatBytes(min.tableBytes()))
                .add("1 (deterministic)")
                .add("-")
                .add("-");
        } else {
            table.row()
                .add("DFA (fwd)")
                .add("over 262144-state budget")
                .add("-")
                .add("-")
                .add("-")
                .add("-")
                .add("-");
        }
        std::cout << table.str();

        if (!cli.getString("out-dir").empty()) {
            const std::string dir = cli.getString("out-dir");
            auto dump = [&](const std::string &name,
                            const automata::Nfa &nfa) {
                const std::string path = dir + "/" + name + ".anml";
                std::ofstream out(path);
                if (!out)
                    fatal("cannot write '%s'", path.c_str());
                ap::writeMachineAnml(out, ap::fromNfa(nfa), name);
                std::cout << "wrote " << path << '\n';
            };
            dump("matrix_fwd", fwd);
            dump("matrix_both", merged);
            const std::string dot_path = dir + "/matrix_fwd.dot";
            std::ofstream dot(dot_path);
            if (!dot)
                fatal("cannot write '%s'", dot_path.c_str());
            automata::writeDot(dot, fwd, "matrix_fwd");
            std::cout << "wrote " << dot_path << '\n';
        }
    } catch (const FatalError &e) {
        std::cerr << "error: " << e.what() << '\n';
        return 1;
    }
    return 0;
}
