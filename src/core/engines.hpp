/**
 * @file
 * Engine kinds, tunables and run records. The adapters themselves live
 * in src/core/engines/ — one translation unit per platform, each
 * registering with core::EngineRegistry (engine_registry.hpp), which
 * lists them (kinds()) and looks them up. core::Engine and
 * core::SearchSession (engine.hpp, session.hpp) compile a pattern set
 * once and reuse it.
 */

#ifndef CRISPR_CORE_ENGINES_HPP_
#define CRISPR_CORE_ENGINES_HPP_

#include <map>
#include <string>
#include <vector>

#include "ap/capacity.hpp"
#include "ap/simulator.hpp"
#include "automata/interp.hpp"
#include "baselines/casoffinder.hpp"
#include "baselines/casot.hpp"
#include "core/compile.hpp"
#include "fpga/resource.hpp"
#include "genome/sequence.hpp"
#include "gpu/infant2.hpp"
#include "hscan/database.hpp"

namespace crispr::core {

/** Every engine/tool the library can run a search on. */
enum class EngineKind
{
    /**
     * Not an adapter: a cost-model selector that SearchSession expands
     * into a ranked chain of CPU engines (hscan-dfa / hscan-bitparallel
     * / nfa-reference) per workload — see core/engine_auto.hpp. The
     * recommended production engine.
     */
    Auto,
    Brute,            //!< golden O(n*L) verifier
    Reference,        //!< homogeneous-NFA interpreter
    HscanAuto,        //!< HScan, DFA if it fits, else bit-parallel
    HscanDfa,         //!< HScan, forced DFA path
    HscanBitParallel, //!< HScan, forced bit-parallel path
    HscanPrefilter,   //!< HScan, PAM-anchored prefilter + confirm
    GpuInfant2,       //!< iNFAnt2 functional sim + SIMT timing model
    Fpga,             //!< spatial fabric sim + resource/clock model
    Ap,               //!< AP, mismatch-matrix design (STEs only)
    ApCounter,        //!< AP, counter design (requires PamFirst set)
    CasOffinder,      //!< baseline tool (GPU device model)
    CasOt,            //!< baseline tool, direct mode (measured CPU)
    CasOtIndexed,     //!< baseline tool, seed-index mode
};

/** Printable engine name ("auto" for the Auto selector). */
const char *engineName(EngineKind kind);

/** Per-engine tunables (defaults reproduce the paper's setups). */
struct EngineParams
{
    hscan::DatabaseOptions hscanOpts;
    gpu::SimtModel gpuModel;
    size_t gpuChunk = 1 << 20;
    fpga::FpgaDeviceSpec fpgaSpec;
    ap::ApDeviceSpec apSpec;
    ap::ApSimConfig apSimConfig;
    baselines::CasOtConfig casotConfig;
    baselines::GpuDeviceModel casoffinderModel;

    /**
     * Full cycle simulation limit for the spatial engines: genomes
     * larger than this use the analytic timing model with events from
     * the (functionally equivalent, verified) fast CPU path.
     */
    uint64_t fullSimSymbolLimit = 8ull << 20;
};

/** Timing record of one engine run. */
struct EngineTiming
{
    double compileSeconds = 0.0;   //!< measured pattern/db compile time
    double hostSeconds = 0.0;      //!< measured host execution time
    double modelKernelSeconds = 0.0; //!< modelled device kernel time
    double modelTotalSeconds = 0.0;  //!< modelled device end-to-end time

    /**
     * The engine's comparable execution time: modelled device time for
     * device engines, measured host time for CPU engines.
     */
    double kernelSeconds = 0.0;
    double totalSeconds = 0.0;
};

/** Result of one engine run. */
struct EngineRun
{
    EngineKind kind;
    std::vector<automata::ReportEvent> events; //!< normalised
    EngineTiming timing;
    std::map<std::string, double> metrics; //!< engine-specific counters
    std::string notes;
};

} // namespace crispr::core

#endif // CRISPR_CORE_ENGINES_HPP_
