/**
 * @file
 * Compiled pattern database (the analogue of hs_database): a set of
 * Hamming pattern specs compiled once, scanned many times, and
 * serialisable in its compiled form (serializeCompiled, the `.cpdb`
 * payload) so compilation can be done offline.
 */

#ifndef CRISPR_HSCAN_DATABASE_HPP_
#define CRISPR_HSCAN_DATABASE_HPP_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "automata/builders.hpp"
#include "common/error.hpp"
#include "hscan/dfa_scanner.hpp"

namespace crispr::hscan {

struct ShiftOrSoA;

/** Scan-path selection. */
enum class ScanMode : uint8_t
{
    Auto,        //!< DFA if it fits the state budget, else bit-parallel
    Dfa,         //!< force the DFA path (fatal if over budget)
    BitParallel, //!< force the bit-parallel path
};

/** Compile-time options. */
struct DatabaseOptions
{
    ScanMode mode = ScanMode::Auto;
    uint32_t maxDfaStates = 1u << 17;
    bool minimizeDfa = true;
};

/**
 * The compiled database: pattern specs, the chosen scan path, and (for
 * the DFA path) the compiled automaton, kept so scanners are cheap to
 * spawn.
 */
class Database
{
  public:
    /** Compile a database from pattern specs. */
    static Database compile(std::vector<automata::HammingSpec> specs,
                            const DatabaseOptions &opts = {});

    /** Which path was chosen. */
    ScanMode effectiveMode() const { return effective_; }

    const std::vector<automata::HammingSpec> &specs() const
    {
        return specs_;
    }

    const DatabaseOptions &options() const { return opts_; }

    /** Compiled DFA prototype; engaged iff effectiveMode() == Dfa. */
    const std::optional<DfaScanner> &dfaPrototype() const
    {
        return dfaProto_;
    }

    /**
     * Shared Shift-Or structure-of-arrays layout for the vectorized
     * kernels (simd_shiftor.hpp); engaged iff effectiveMode() ==
     * BitParallel. Built once at compile/deserialize and shared by
     * every Scanner spawned from this database, at any SIMD tier.
     */
    const std::shared_ptr<const ShiftOrSoA> &simdLayout() const
    {
        return simdLayout_;
    }

    /**
     * Serialise the *compiled* form: specs + options + the chosen
     * path's artifact — on the DFA path, the dense transition tables
     * themselves. deserializeCompiled() of the blob restores a
     * scan-ready database without re-running subset construction or
     * minimization, which is what makes warm fleet restart a load
     * instead of a compile (the Hyperscan serialized-database idiom).
     */
    std::vector<uint8_t> serializeCompiled() const;

    /**
     * Reconstruct a scan-ready database from a serializeCompiled()
     * blob. @return a typed Error for truncated/corrupt/version-skewed
     * blobs (content-hash envelope; see common/serial.hpp).
     */
    static common::Expected<Database>
    deserializeCompiled(std::span<const uint8_t> blob);

    /** Human-readable one-line summary. */
    std::string info() const;

  private:
    Database() = default;

    std::vector<automata::HammingSpec> specs_;
    DatabaseOptions opts_;
    ScanMode effective_ = ScanMode::BitParallel;
    std::optional<DfaScanner> dfaProto_;
    std::shared_ptr<const ShiftOrSoA> simdLayout_;
};

} // namespace crispr::hscan

#endif // CRISPR_HSCAN_DATABASE_HPP_
