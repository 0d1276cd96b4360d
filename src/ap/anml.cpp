#include "ap/anml.hpp"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <istream>
#include <map>
#include <ostream>
#include <sstream>

#include "common/logging.hpp"

namespace crispr::ap {

using automata::StartKind;

namespace {

const char *
startAttr(StartKind k)
{
    switch (k) {
      case StartKind::None:
        return "none";
      case StartKind::StartOfData:
        return "start-of-data";
      case StartKind::AllInput:
        return "all-input";
    }
    return "none";
}

StartKind
parseStart(const std::string &s)
{
    if (s == "none")
        return StartKind::None;
    if (s == "start-of-data")
        return StartKind::StartOfData;
    if (s == "all-input")
        return StartKind::AllInput;
    fatal("ANML: unknown start kind '%s'", s.c_str());
}

std::string
attrOf(const std::string &tag, const std::string &name)
{
    const std::string needle = name + "=\"";
    auto at = tag.find(needle);
    if (at == std::string::npos)
        return "";
    at += needle.size();
    auto end = tag.find('"', at);
    if (end == std::string::npos)
        fatal("ANML: unterminated attribute '%s'", name.c_str());
    return tag.substr(at, end - at);
}

/** A numeric attribute value: decimal, at most UINT32_MAX. */
uint32_t
parseU32(const std::string &text, const char *attr)
{
    uint64_t value = 0;
    const char *first = text.data();
    const char *last = first + text.size();
    auto [end, ec] = std::from_chars(first, last, value);
    if (text.empty() || ec != std::errc() || end != last ||
        value > UINT32_MAX)
        fatal("ANML: %s '%s' is not a 32-bit unsigned integer", attr,
              text.c_str());
    return static_cast<uint32_t>(value);
}

/** Only STEs joined by plain input wires: the nested form applies. */
bool
plainSteNetwork(const ApMachine &machine)
{
    return std::all_of(machine.elements().begin(),
                       machine.elements().end(),
                       [](const Element &el) {
                           return el.kind == ElemKind::Ste;
                       }) &&
           std::all_of(machine.wires().begin(), machine.wires().end(),
                       [](const Wire &w) {
                           return w.port == Port::In && !w.inverted;
                       });
}

const char *
portAttr(Port p)
{
    switch (p) {
      case Port::In:
        return "in";
      case Port::CountUp:
        return "count";
      case Port::Reset:
        return "reset";
    }
    return "in";
}

Port
parsePort(const std::string &s)
{
    if (s.empty() || s == "in")
        return Port::In;
    if (s == "count")
        return Port::CountUp;
    if (s == "reset")
        return Port::Reset;
    fatal("ANML: unknown port '%s'", s.c_str());
}

} // namespace

void
writeMachineAnml(std::ostream &out, const ApMachine &machine,
                 const std::string &network_id)
{
    // A plain STE network nests each element's successors as
    // <activate-on-match> children; anything with counter or gate
    // ports lists <wire> elements after the elements instead.
    const bool nested = plainSteNetwork(machine);
    std::vector<std::vector<ElemId>> successors(nested ? machine.size()
                                                       : 0);
    if (nested)
        for (const Wire &w : machine.wires())
            successors[w.from].push_back(w.to);

    out << "<anml version=\"1.0\">\n";
    out << "  <automata-network id=\"" << network_id << "\">\n";
    for (ElemId e = 0; e < machine.size(); ++e) {
        const Element &el = machine.element(e);
        switch (el.kind) {
          case ElemKind::Ste:
            out << "    <state-transition-element id=\"e" << e
                << "\" symbol-set=\"" << el.cls.str() << "\" start=\""
                << startAttr(el.start) << "\"";
            break;
          case ElemKind::Counter:
            out << "    <counter id=\"e" << e << "\" count-target=\""
                << el.target << "\" at-target=\""
                << (el.mode == CounterMode::Latch ? "latch" : "pulse")
                << "\"";
            break;
          case ElemKind::Gate:
            out << "    <boolean id=\"e" << e << "\" function=\""
                << (el.gate == GateType::And ? "and" : "or") << "\"";
            break;
        }
        if (el.report)
            out << " report-code=\"" << el.reportId << "\"";
        if (!el.name.empty())
            out << " label=\"" << el.name << "\"";
        if (!nested || successors[e].empty()) {
            out << "/>\n";
            continue;
        }
        out << ">\n";
        for (ElemId t : successors[e])
            out << "      <activate-on-match element=\"e" << t
                << "\"/>\n";
        out << "    </state-transition-element>\n";
    }
    if (!nested) {
        for (const Wire &w : machine.wires()) {
            out << "    <wire from=\"e" << w.from << "\" to=\"e"
                << w.to << "\" port=\"" << portAttr(w.port) << "\"";
            if (w.inverted)
                out << " inverted=\"1\"";
            out << "/>\n";
        }
    }
    out << "  </automata-network>\n";
    out << "</anml>\n";
}

std::string
machineAnmlString(const ApMachine &machine, const std::string &network_id)
{
    std::ostringstream os;
    writeMachineAnml(os, machine, network_id);
    return os.str();
}

ApMachine
readMachineAnml(std::istream &in)
{
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    return machineAnmlFromString(text);
}

ApMachine
machineAnmlFromString(const std::string &text)
{
    ApMachine machine;
    std::map<std::string, ElemId> ids;
    struct PendingWire
    {
        std::string from, to;
        Port port;
        bool inverted;
    };
    std::vector<PendingWire> wires;

    size_t pos = 0;
    std::string open_ste; // id of the STE whose children we are in
    while (true) {
        auto lt = text.find('<', pos);
        if (lt == std::string::npos)
            break;
        auto gt = text.find('>', lt);
        if (gt == std::string::npos)
            fatal("ANML: unterminated tag");
        std::string tag = text.substr(lt + 1, gt - lt - 1);
        pos = gt + 1;

        ElemId id = kInvalidElem;
        if (tag.rfind("state-transition-element", 0) == 0) {
            std::string symbols = attrOf(tag, "symbol-set");
            std::string start = attrOf(tag, "start");
            if (symbols.empty())
                fatal("ANML: STE without symbol-set");
            id = machine.addSte(
                automata::SymbolClass::parse(symbols),
                start.empty() ? StartKind::None : parseStart(start),
                attrOf(tag, "label"));
            open_ste = tag.back() == '/' ? "" : attrOf(tag, "id");
        } else if (tag == "/state-transition-element") {
            open_ste.clear();
            continue;
        } else if (tag.rfind("activate-on-match", 0) == 0) {
            if (open_ste.empty())
                fatal("ANML: activate-on-match outside an element");
            wires.push_back(PendingWire{open_ste,
                                        attrOf(tag, "element"),
                                        Port::In, false});
            continue;
        } else if (tag.rfind("counter", 0) == 0) {
            const std::string target = attrOf(tag, "count-target");
            if (target.empty())
                fatal("ANML: counter without count-target");
            const std::string mode = attrOf(tag, "at-target");
            id = machine.addCounter(
                parseU32(target, "count-target"),
                mode == "pulse" ? CounterMode::Pulse
                                : CounterMode::Latch,
                attrOf(tag, "label"));
        } else if (tag.rfind("boolean", 0) == 0) {
            const std::string fn = attrOf(tag, "function");
            id = machine.addGate(fn == "or" ? GateType::Or
                                            : GateType::And,
                                 attrOf(tag, "label"));
        } else if (tag.rfind("wire", 0) == 0) {
            wires.push_back(PendingWire{
                attrOf(tag, "from"), attrOf(tag, "to"),
                parsePort(attrOf(tag, "port")),
                attrOf(tag, "inverted") == "1"});
            continue;
        } else {
            continue; // <anml>, <automata-network>, closers
        }
        const std::string name = attrOf(tag, "id");
        if (name.empty())
            fatal("ANML: element without id");
        if (ids.count(name))
            fatal("ANML: duplicate element id '%s'", name.c_str());
        ids[name] = id;
        const std::string report = attrOf(tag, "report-code");
        if (!report.empty())
            machine.setReport(id, parseU32(report, "report-code"));
    }

    for (const PendingWire &w : wires) {
        auto from = ids.find(w.from);
        auto to = ids.find(w.to);
        if (from == ids.end() || to == ids.end())
            fatal("ANML: wire references unknown element");
        machine.connect(from->second, to->second, w.port, w.inverted);
    }
    machine.validate();
    return machine;
}

} // namespace crispr::ap
