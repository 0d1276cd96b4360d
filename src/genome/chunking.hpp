/**
 * @file
 * Chunk planning for seam-safe scans: splitting a stream of `n` symbols
 * into fixed-size emit zones, each re-scanning `overlap` leading symbols
 * so that no window straddling a seam is lost. Events whose end index
 * falls before a chunk's emit zone belong to the previous chunk and are
 * dropped, which makes chunked results bit-identical to a single scan
 * (no cross-chunk deduplication needed). Used by the engine-agnostic
 * core::ChunkedScanner.
 */

#ifndef CRISPR_GENOME_CHUNKING_HPP_
#define CRISPR_GENOME_CHUNKING_HPP_

#include <cstddef>
#include <vector>

namespace crispr::genome {

/** One planned chunk: scan [leadFrom, end), emit events in [emitFrom, end). */
struct ScanChunk
{
    size_t emitFrom; //!< first position this chunk reports for
    size_t leadFrom; //!< scan start (emitFrom minus up to `overlap`)
    size_t end;      //!< one past the last position scanned
};

/**
 * Plan the chunks covering [0, n). `chunkSize` is the emit-zone size
 * and must exceed `overlap` (fatal otherwise); `overlap` must be at
 * least the longest pattern length minus one for seam safety.
 */
std::vector<ScanChunk> planScanChunks(size_t n, size_t chunk_size,
                                      size_t overlap);

/**
 * Resolve a worker-thread request: 0 means all hardware threads (at
 * least 1), anything else is returned unchanged. Thin wrapper over
 * common::Executor::resolveThreads — the executor owns the
 * 0-means-all-cores convention, so every scan path resolves the same
 * way and nested parallel scans (a service batch over a chunked
 * engine) cannot multiply worker counts.
 */
unsigned resolveThreads(unsigned requested);

} // namespace crispr::genome

#endif // CRISPR_GENOME_CHUNKING_HPP_
