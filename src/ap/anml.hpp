/**
 * @file
 * ANML serialisation of AP machines (the Automata Processor's network
 * markup language), the library's one ANML codec. A plain STE network
 * (e.g. ap::fromNfa of a homogeneous automaton) is written in the
 * nested form: each <state-transition-element> lists its successors
 * as <activate-on-match> children. A machine with counters or boolean
 * gates lists its connections as <wire> elements with ports instead.
 * The parser reads both forms. Round-trip safe: writer output parses
 * back to an identical machine (a plain network's wires come back
 * grouped by source element).
 */

#ifndef CRISPR_AP_ANML_HPP_
#define CRISPR_AP_ANML_HPP_

#include <iosfwd>
#include <string>

#include "ap/machine.hpp"

namespace crispr::ap {

/** Serialise a machine as ANML-style XML. */
void writeMachineAnml(std::ostream &out, const ApMachine &machine,
                      const std::string &network_id = "offtarget");

/** Serialise to a string. */
std::string machineAnmlString(const ApMachine &machine,
                              const std::string &network_id =
                                  "offtarget");

/**
 * Parse ANML produced by writeMachineAnml(). Raises FatalError on
 * malformed input, including a report-code or count-target that is
 * not a decimal number of at most UINT32_MAX.
 */
ApMachine readMachineAnml(std::istream &in);

/** Parse from a string. */
ApMachine machineAnmlFromString(const std::string &text);

} // namespace crispr::ap

#endif // CRISPR_AP_ANML_HPP_
