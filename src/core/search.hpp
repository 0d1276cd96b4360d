/**
 * @file
 * The library's top-level entry point: off-target search of a guide set
 * against a genome on a chosen engine.
 *
 * @code
 *   using namespace crispr;
 *   auto genome = genome::readFastaFile("hg.fa");
 *   auto seq = genome::concatenateRecords(genome);
 *   std::vector<core::Guide> guides = {
 *       core::makeGuide("g1", "GGGTGGGGGGAGTTTGCTCC")};
 *   core::SearchConfig cfg;
 *   cfg.maxMismatches = 3;
 *   cfg.engine = core::EngineKind::HscanAuto;
 *   core::SearchResult res = core::search(seq, guides, cfg);
 * @endcode
 */

#ifndef CRISPR_CORE_SEARCH_HPP_
#define CRISPR_CORE_SEARCH_HPP_

#include <memory>
#include <string>
#include <vector>

#include "common/deadline.hpp"
#include "common/executor.hpp"
#include "common/trace.hpp"
#include "core/engines.hpp"
#include "core/offtarget.hpp"
#include "core/options.hpp"
#include "hscan/simd.hpp"

namespace crispr::core {

/**
 * The compile-relevant half of a search configuration: everything a
 * compiled pattern depends on. Two searches whose CompileOptions agree
 * can share one compilation (SearchSession's cache key is derived from
 * this struct alone) and — when their guide sets are compatible — one
 * genome pass (SearchService's coalescing key is derived from it plus
 * the engine chain).
 */
struct CompileOptions
{
    PamSpec pam = pamNRG();    //!< NGG + NAG in one class, per the paper
    int maxMismatches = 3;
    bool bothStrands = true;
    EngineKind engine = EngineKind::HscanAuto;
    EngineParams params;

    /**
     * Directory of ahead-of-time compiled pattern blobs (the disk tier
     * under SearchSession's in-memory compile cache; see
     * core/pattern_db.hpp). Empty = no disk tier. When set, a compile
     * cache miss first tries to load the engine's serialized state
     * (keyed by engine + these options + the guide-set digest) and a
     * fresh compilation is persisted back for the next process. The
     * recommended production config pairs this with
     * `engine = EngineKind::Auto`.
     */
    std::string databaseDir;
};

/**
 * The runtime half of a search configuration: how a scan executes —
 * none of it affects which compilation serves the request, and none
 * of it affects what hits come back (geometry-independence is
 * tested), only how the pass runs. The execution-tuning knobs
 * themselves (threads, simdTier, executor, chunkSize, deadline,
 * retries, trace) live in the shared ExecutionOptions base
 * (core/options.hpp), which ChunkedScanOptions inherits and
 * ServiceOptions embeds as its default layer — one definition instead
 * of three per-site copies.
 */
struct RuntimeOptions : ExecutionOptions
{
    /**
     * Engines tried in order when `engine` fails to compile or scan
     * (the paper's cross-platform degradation: AP down -> same workload
     * on FPGA/GPU/CPU). Every request walks its own chain: one
     * request's failure never skips an engine for another. Failures
     * are counted per engine and the run's `session.fallbacks` metric
     * records how many engines failed before the one that served.
     * Duplicates of `engine` are ignored.
     */
    std::vector<EngineKind> fallbacks;

    /**
     * FASTA leniency, for streamed searches and for FASTA refs loaded
     * through a GenomeStore (both decode with FastaStreamReader): skip
     * malformed input instead of failing — a nameless record whole, a
     * record with an invalid character from that character on.
     * Streamed searches count the skips in `parse.records_dropped`.
     */
    bool lenientFasta = false;

    ExecutionOptions &execution() { return *this; }
    const ExecutionOptions &execution() const { return *this; }
};

/**
 * Search configuration: CompileOptions + RuntimeOptions in one value.
 * The flat field names (`cfg.maxMismatches`, `cfg.threads`, ...) keep
 * working through the base classes, so existing call sites compile
 * unchanged; new code that cares about the compile/runtime split uses
 * the `compile()` / `runtime()` views.
 */
struct SearchConfig : CompileOptions, RuntimeOptions
{
    CompileOptions &compile() { return *this; }
    const CompileOptions &compile() const { return *this; }
    RuntimeOptions &runtime() { return *this; }
    const RuntimeOptions &runtime() const { return *this; }
};

/**
 * Canonical serialization of the compile-relevant options (pam,
 * mismatch budget, strands, and the cache-key-relevant engine params).
 * SearchSession's compile cache key is `engine name + '|' + this`;
 * SearchService's coalescing key builds on it too. The device-model
 * specs (fpgaSpec, apSpec, gpuModel, apSimConfig, casoffinderModel)
 * are deployment constants and deliberately excluded — see the caching
 * caveat in session.hpp.
 */
std::string compileOptionsKey(const CompileOptions &options);

/** Search result: verified hits plus the raw engine run. */
struct SearchResult
{
    std::vector<OffTargetHit> hits;
    PatternSet patterns;
    EngineRun run;
    size_t droppedEvents = 0; //!< unverifiable events (AP counter design)
    /** Deadline expired mid-scan: `hits` is a partial prefix. */
    bool timedOut = false;

    /**
     * Ranked report (rankHits over `hits`): populated when the request
     * engaged a ranked knob (ExecutionOptions::topK / scoreThreshold),
     * ordered penalty-descending with deterministic tiebreaks and
     * truncated to topK. On a timed-out partial result this is the
     * ranking of the partial hit set — still duplicate- and
     * phantom-free. Empty (with rankedMode false) otherwise.
     */
    std::vector<OffTargetHit> ranked;
    /** The request asked for a ranked report. */
    bool rankedMode = false;
};

/**
 * Run a one-shot off-target search. Compiles the guide set, scans, and
 * verifies in one call; repeated searches over one guide set should
 * hold a SearchSession (session.hpp) instead, which caches the
 * compilation — and concurrent requests should go through a
 * SearchService (service.hpp), which coalesces them into shared genome
 * passes.
 */
SearchResult search(const genome::Sequence &genome,
                    const std::vector<Guide> &guides,
                    const SearchConfig &config = {});

} // namespace crispr::core

#endif // CRISPR_CORE_SEARCH_HPP_
