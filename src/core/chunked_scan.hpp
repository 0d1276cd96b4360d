/**
 * @file
 * Engine-agnostic chunked scanning: drives any chunk-capable (CPU)
 * engine adapter over a genome in fixed-size chunks — in memory across
 * a thread pool, or streamed from a FASTA reader so multi-gigabyte
 * references never need full residency. Each chunk re-scans enough
 * leading overlap that no seam-straddling window is lost; an event is
 * emitted by exactly the chunk whose emit zone contains its end index,
 * so results are bit-identical to a single whole-genome scan (tested
 * for every CPU engine). This is the library's one chunked scan path.
 *
 * Fault tolerance (see DESIGN.md "Failure model"): the per-chunk
 * granularity is also the recovery granularity. A Deadline in the
 * options is polled before each chunk is dispatched, so an expired or
 * cancelled scan stops early and returns the partial events with
 * `search.timed_out` = 1; transient chunk failures are retried with
 * capped exponential backoff (`scan.retries` metric); and the `try*`
 * entry points return typed errors instead of throwing.
 */

#ifndef CRISPR_CORE_CHUNKED_SCAN_HPP_
#define CRISPR_CORE_CHUNKED_SCAN_HPP_

#include <atomic>
#include <functional>
#include <memory>

#include "common/deadline.hpp"
#include "common/error.hpp"
#include "common/executor.hpp"
#include "common/trace.hpp"
#include "core/engine.hpp"
#include "core/options.hpp"
#include "genome/fasta_stream.hpp"

namespace crispr::core {

/**
 * Chunked-scan options: exactly the shared execution-tuning layer
 * (core/options.hpp) — chunk geometry, threads, SIMD tier, deadline,
 * retry budget, executor, and trace. The fields used to be
 * re-declared here; SearchSession now hands its RuntimeOptions
 * straight through via the common base.
 */
struct ChunkedScanOptions : ExecutionOptions
{
};

/**
 * Per-chunk observation, delivered in stream order. `buffer` holds the
 * chunk including its leading overlap, so every emitted event's full
 * match window is resident — the hook streaming consumers use to
 * verify hits without the whole genome in memory.
 */
struct ChunkScanView
{
    const genome::Sequence &buffer; //!< overlap + emit zone
    uint64_t bufferStart;           //!< global offset of buffer[0]
    /** Buffer-local events of this chunk's emit zone only. */
    const std::vector<automata::ReportEvent> &events;
};

using ChunkObserver = std::function<void(const ChunkScanView &)>;

/** The chunked scan pipeline over one compiled pattern. */
class ChunkedScanner
{
  public:
    /**
     * Whether the (engine, compiled, options) triple can be chunk
     * scanned: the engine must be chunk-capable, the pattern compiled
     * for it, and the chunk size larger than the pattern length.
     * Callers on the request path check this before constructing.
     */
    static common::Status
    validate(const Engine &engine,
             const std::shared_ptr<const CompiledPattern> &compiled,
             const ChunkedScanOptions &options);

    /**
     * @param engine a chunk-capable adapter (ErrorException — a
     * FatalError — when validate() would fail);
     * @param compiled its compiled pattern, shared across chunks.
     */
    ChunkedScanner(const Engine &engine,
                   std::shared_ptr<const CompiledPattern> compiled,
                   const ChunkedScanOptions &options = {});

    /**
     * Scan an in-memory genome chunk-by-chunk across the thread pool.
     * Events are global-coordinate, normalised, and bit-identical to
     * engine.scan() over the whole sequence — unless the deadline
     * expires, in which case the run carries the partial events with
     * `search.timed_out` = 1 and `scan.chunks_skipped` > 0. A chunk
     * that still fails after the retry budget returns ScanFailed.
     *
     * At most min(threads, chunk count) lanes run: a genome shorter
     * than threads x chunkSize scans on fewer lanes than requested.
     */
    common::Expected<EngineRun>
    tryScan(const genome::Sequence &seq) const;

    /**
     * Scan a FASTA stream without materialising the reference: chunks
     * are decoded, scanned (overlapping scans run on the thread pool),
     * and discarded. `observer`, when set, sees every chunk with its
     * events in stream order while the chunk is still resident.
     * Parse failures surface as ParseError; a scan that fails after
     * retries as ScanFailed (the stream is part-consumed either way).
     */
    common::Expected<EngineRun>
    tryScanStream(genome::FastaStreamReader &reader,
                  const ChunkObserver &observer = {}) const;

    /** Throwing wrappers over tryScan / tryScanStream. */
    EngineRun scan(const genome::Sequence &seq) const;
    EngineRun scanStream(genome::FastaStreamReader &reader,
                         const ChunkObserver &observer = {}) const;

    /** Leading re-scan length (longest pattern - 1). */
    size_t overlap() const { return overlap_; }

  private:
    std::vector<automata::ReportEvent>
    scanChunkLocal(std::span<const uint8_t> window, size_t emit_offset,
                   std::atomic<uint64_t> &retries,
                   common::Histogram chunk_latency) const;
    EngineRun makeRun(std::vector<automata::ReportEvent> events,
                      size_t chunks, unsigned threads,
                      double wall_seconds, uint64_t bytes,
                      const common::MetricsRegistry &scan_metrics)
        const;

    const Engine &engine_;
    std::shared_ptr<const CompiledPattern> compiled_;
    ChunkedScanOptions options_;
    size_t overlap_ = 0;
};

} // namespace crispr::core

#endif // CRISPR_CORE_CHUNKED_SCAN_HPP_
