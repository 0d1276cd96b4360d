/**
 * @file
 * ExecutionOptions: the one definition of the execution-tuning knobs
 * that RequestOptions, RuntimeOptions, and ServiceOptions used to
 * re-declare independently (threads, SIMD tier, executor, chunk
 * geometry, deadline, retry budget, tracing). RuntimeOptions and
 * ChunkedScanOptions inherit it; ServiceOptions embeds one as the
 * service-wide default layer.
 *
 * Precedence (documented for the public API in crispr.hpp): a value
 * set on the request wins; a request field left at its built-in
 * default inherits the service's `ServiceOptions::defaults`; a service
 * field left at its built-in default leaves the built-in in force.
 *
 * Every field here except the ranked-report knobs is pure tuning — it
 * may change how a pass executes, never which events it reports
 * (tested). The ranked-report knobs (`scoreThreshold`, `topK`) shape
 * only the derived `SearchResult::ranked` listing — the verified
 * `hits` list is never filtered by them.
 */

#ifndef CRISPR_CORE_OPTIONS_HPP_
#define CRISPR_CORE_OPTIONS_HPP_

#include <cstddef>

#include "common/deadline.hpp"
#include "common/trace.hpp"
#include "hscan/simd.hpp"

namespace crispr::common {
class Executor;
} // namespace crispr::common

namespace crispr::core {

/**
 * The shared execution-tuning layer. See the file comment for the
 * request > service-default > built-in precedence contract.
 */
struct ExecutionOptions
{
    /**
     * Worker threads for chunk-capable (CPU) engines: 1 = serial (the
     * paper's single-core setups — never touches the shared pool),
     * 0 = all hardware threads, n = n. Multi-threaded scans run as
     * tasks on the process-wide work-stealing Executor (shared by
     * every concurrent request), not on freshly spawned threads.
     * Device-model engines (GPU/FPGA/AP) always consume the whole
     * stream and ignore this.
     */
    unsigned threads = 1;

    /**
     * Requested SIMD tier for the vector-capable CPU scan kernels
     * (hscan Shift-Or, prefilter anchor probe). Resolved per scan
     * against the CRISPR_SIMD env override (which wins) and host
     * CPUID; an unsupported request degrades to the widest usable
     * tier. Every tier reports bit-identical hits (tested), so this
     * is runtime tuning like `threads`, not a result knob.
     */
    hscan::SimdTier simdTier = hscan::SimdTier::Auto;

    /**
     * Pool multi-threaded scans schedule onto; nullptr = the
     * process-wide Executor::shared(). Instanced pools are for tests
     * and benchmarks.
     */
    common::Executor *executor = nullptr;

    /** Emit-zone size per chunk when scanning chunked or streamed. */
    size_t chunkSize = 4 << 20;

    /**
     * Cooperative deadline / cancel token: checked between chunks (and
     * before an unchunkable whole-genome scan starts), so an expired or
     * cancelled search stops early and reports the partial results with
     * `search.timed_out` = 1. Default: unlimited.
     */
    common::Deadline deadline;

    /**
     * Per-chunk retries for transient scan failures (exponential
     * backoff from 1 ms, capped at 50 ms). 0 = fail fast.
     */
    unsigned scanRetries = 0;

    /**
     * Optional trace sink: when set, the search records RAII spans
     * (search, parse, pattern.compile, engine.compile, scan,
     * chunk.scan, report) into it, serializable to chrome://tracing
     * JSON via TraceSink::writeJson. The sink must outlive the search.
     */
    common::TraceSink *trace = nullptr;

    /**
     * Ranked-report mode, part 1: keep only hits whose in-scan site
     * penalty is >= this in `SearchResult::ranked`. 0.0 (the default)
     * keeps every hit — penalties of verified hits are always > 0.
     * Setting either ranked knob turns the ranked listing on; `hits`
     * itself is never filtered.
     */
    double scoreThreshold = 0.0;

    /**
     * Ranked-report mode, part 2: truncate `SearchResult::ranked` to
     * the K most dangerous sites (penalty descending, ties by guide /
     * position / strand — a total order, so the listing is bit-stable
     * across shard counts and chunk geometry, tested). 0 = unlimited.
     */
    size_t topK = 0;

    /** True when either ranked-report knob is engaged. */
    bool rankedRequested() const
    {
        return topK > 0 || scoreThreshold > 0.0;
    }
};

} // namespace crispr::core

#endif // CRISPR_CORE_OPTIONS_HPP_
