/** @file Unit tests for ANML serialisation — plain STE networks
 *  (homogeneous automata via ap::fromNfa) and full machines with
 *  counters and gates — plus the umbrella-header compile check. */

#include <gtest/gtest.h>

#include "crispr.hpp" // umbrella header: must compile standalone

#include "ap/anml.hpp"
#include "ap/simulator.hpp"
#include "test_util.hpp"

namespace crispr::ap {
namespace {

ApMachine
counterMachine()
{
    automata::HammingSpec spec;
    spec.masks = genome::masksFromIupac("CGG" "ACGTACGTAC");
    spec.maxMismatches = 2;
    spec.mismatchLo = 3;
    spec.mismatchHi = 13;
    spec.reportId = 9;
    return buildCounterMachine(spec);
}

bool
sameMachine(const ApMachine &a, const ApMachine &b)
{
    if (a.size() != b.size() || a.wires().size() != b.wires().size())
        return false;
    for (ElemId e = 0; e < a.size(); ++e) {
        const Element &x = a.element(e);
        const Element &y = b.element(e);
        if (x.kind != y.kind || x.cls != y.cls || x.start != y.start ||
            x.target != y.target || x.mode != y.mode ||
            x.gate != y.gate || x.report != y.report ||
            (x.report && x.reportId != y.reportId) || x.name != y.name)
            return false;
    }
    for (size_t w = 0; w < a.wires().size(); ++w) {
        const Wire &x = a.wires()[w];
        const Wire &y = b.wires()[w];
        if (x.from != y.from || x.to != y.to || x.port != y.port ||
            x.inverted != y.inverted)
            return false;
    }
    return true;
}

TEST(ApAnml, RoundTripsCounterMachine)
{
    ApMachine m = counterMachine();
    ApMachine back = machineAnmlFromString(machineAnmlString(m));
    EXPECT_TRUE(sameMachine(m, back));
}

TEST(ApAnml, RoundTripPreservesBehaviour)
{
    ApMachine m = counterMachine();
    ApMachine back = machineAnmlFromString(machineAnmlString(m));
    crispr::Rng rng(401);
    genome::Sequence g = crispr::test::randomGenome(rng, 2000);
    ApSimulator sa(m), sb(back);
    EXPECT_EQ(sa.scanAll(g), sb.scanAll(g));
}

TEST(ApAnml, OutputContainsElementMarkup)
{
    std::string text = machineAnmlString(counterMachine(), "net");
    EXPECT_NE(text.find("<counter id="), std::string::npos);
    EXPECT_NE(text.find("at-target=\"latch\""), std::string::npos);
    EXPECT_NE(text.find("<boolean id="), std::string::npos);
    EXPECT_NE(text.find("function=\"and\""), std::string::npos);
    EXPECT_NE(text.find("port=\"count\""), std::string::npos);
    EXPECT_NE(text.find("port=\"reset\""), std::string::npos);
    EXPECT_NE(text.find("inverted=\"1\""), std::string::npos);
    EXPECT_NE(text.find("report-code=\"9\""), std::string::npos);
}

TEST(ApAnml, ParseErrors)
{
    EXPECT_THROW(machineAnmlFromString("<counter id=\"a\"/>"),
                 FatalError);
    EXPECT_THROW(
        machineAnmlFromString("<wire from=\"a\" to=\"b\"/>"),
        FatalError);
    EXPECT_THROW(machineAnmlFromString(
                     "<boolean id=\"a\" function=\"and\"/>"
                     "<boolean id=\"a\" function=\"or\"/>"),
                 FatalError);
    // Malformed numbers: non-numeric, signed, trailing junk, and
    // values past UINT32_MAX (4294967297 must not wrap to 1).
    for (const char *bad : {"x", "-1", "+1", "7q", " 7",
                            "99999999999999999999", "4294967296",
                            "4294967297"}) {
        const std::string v = bad;
        EXPECT_THROW(machineAnmlFromString(
                         "<state-transition-element id=\"a\" "
                         "symbol-set=\"A\" report-code=\"" +
                         v + "\"/>"),
                     FatalError)
            << "report-code=" << v;
        EXPECT_THROW(machineAnmlFromString(
                         "<counter id=\"c\" count-target=\"" + v +
                         "\"/>"),
                     FatalError)
            << "count-target=" << v;
    }
    ApMachine max = machineAnmlFromString(
        "<state-transition-element id=\"a\" symbol-set=\"A\" "
        "report-code=\"4294967295\"/>");
    ASSERT_EQ(max.size(), 1u);
    EXPECT_EQ(max.element(0).reportId, UINT32_MAX);
}

TEST(ApAnml, RoundTripsPlainSteNetworkToo)
{
    crispr::Rng rng(402);
    auto spec = crispr::test::randomGuideSpec(rng, 10, 3, 2, 3);
    ApMachine m = fromNfa(automata::buildHammingNfa(spec));
    ApMachine back = machineAnmlFromString(machineAnmlString(m));
    EXPECT_TRUE(sameMachine(m, back));
}

/** Element e of the machine is state e of the automaton, with the
 *  same class, start kind, report and successors. */
bool
sameAsNfa(const ApMachine &m, const automata::Nfa &nfa)
{
    if (m.size() != nfa.size())
        return false;
    std::vector<std::vector<automata::StateId>> out(m.size());
    for (const Wire &w : m.wires()) {
        if (w.port != Port::In || w.inverted)
            return false;
        out[w.from].push_back(w.to);
    }
    for (ElemId e = 0; e < m.size(); ++e) {
        const Element &x = m.element(e);
        const auto &y = nfa.state(e);
        if (x.kind != ElemKind::Ste || x.cls != y.cls ||
            x.start != y.start || x.report != y.report ||
            (x.report && x.reportId != y.reportId) || out[e] != y.out)
            return false;
    }
    return true;
}

TEST(Anml, RoundTripsHammingAutomaton)
{
    crispr::Rng rng(5);
    auto spec = crispr::test::randomGuideSpec(rng, 10, 3, 2, 17);
    automata::Nfa nfa = automata::buildHammingNfa(spec);
    ApMachine back =
        machineAnmlFromString(machineAnmlString(fromNfa(nfa)));
    EXPECT_TRUE(sameAsNfa(back, nfa));
}

TEST(Anml, RoundTripPreservesBehaviour)
{
    crispr::Rng rng(6);
    auto spec = crispr::test::randomGuideSpec(rng, 8, 3, 1, 3);
    automata::Nfa nfa = automata::buildHammingNfa(spec);
    ApMachine back =
        machineAnmlFromString(machineAnmlString(fromNfa(nfa)));
    genome::Sequence g = crispr::test::randomGenome(rng, 1000);
    automata::NfaInterpreter interp(nfa);
    auto want = interp.scanAll(g);
    automata::normalizeEvents(want);
    EXPECT_EQ(ApSimulator(back).scanAll(g), want);
}

TEST(Anml, OutputContainsExpectedMarkup)
{
    automata::Nfa nfa;
    auto a = nfa.addState(automata::SymbolClass::parse("[AG]"),
                          automata::StartKind::AllInput);
    auto b = nfa.addState(automata::SymbolClass::parse("T"));
    nfa.addEdge(a, b);
    nfa.setReport(b, 9);
    std::string text = machineAnmlString(fromNfa(nfa), "net1");
    EXPECT_NE(text.find("automata-network id=\"net1\""),
              std::string::npos);
    EXPECT_NE(text.find("symbol-set=\"[AG]\""), std::string::npos);
    EXPECT_NE(text.find("start=\"all-input\""), std::string::npos);
    EXPECT_NE(text.find("report-code=\"9\""), std::string::npos);
    // A plain STE network nests its edges instead of listing wires.
    EXPECT_NE(text.find("<activate-on-match element=\"e1\"/>"),
              std::string::npos);
    EXPECT_EQ(text.find("<wire"), std::string::npos);
}

TEST(Anml, ParseErrors)
{
    // STE without a symbol-set, and with an unknown start kind.
    EXPECT_THROW(
        machineAnmlFromString("<state-transition-element id=\"a\"/>"),
        FatalError);
    EXPECT_THROW(
        machineAnmlFromString("<state-transition-element id=\"a\" "
                              "symbol-set=\"A\" start=\"bogus\"/>"),
        FatalError);
    // Duplicate STE id.
    EXPECT_THROW(
        machineAnmlFromString("<state-transition-element id=\"a\" "
                              "symbol-set=\"A\"/>"
                              "<state-transition-element id=\"a\" "
                              "symbol-set=\"C\"/>"),
        FatalError);
    // Nested edge to an unknown element, and one outside any element.
    EXPECT_THROW(
        machineAnmlFromString("<state-transition-element id=\"a\" "
                              "symbol-set=\"A\">"
                              "<activate-on-match element=\"zz\"/>"
                              "</state-transition-element>"),
        FatalError);
    EXPECT_THROW(
        machineAnmlFromString("<activate-on-match element=\"a\"/>"),
        FatalError);
}

} // namespace
} // namespace crispr::ap
