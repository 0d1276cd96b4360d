/**
 * @file
 * ShardedSearchService: horizontal scale-out of the serving layer.
 * The coordinator partitions each request's genome into N contiguous
 * byte ranges — one per in-process shard worker — scatters the request
 * as N sub-requests whose `scanRange` restricts the emit interval to
 * that shard's slice, and gathers the shard results into one merged
 * SearchResult that is bit-identical to a single-shard (or direct
 * session) search at every shard count.
 *
 * @code
 *   core::ShardOptions opts;
 *   opts.shards = 4;
 *   core::ShardedSearchService service(opts);
 *   core::RequestOptions req;
 *   req.genomeRef = core::GenomeRef::packed("hg38.2bit");
 *   auto fut = service.submit({guide}, req);   // scanned by 4 workers
 *   core::SearchResult merged = fut.get();
 * @endcode
 *
 * Why the merge is exact (DESIGN.md §14):
 *  - Shard boundaries reuse the ChunkedScanner's seam machinery: a
 *    non-whole scanRange re-reads up to the compiled pattern overlap
 *    *before* its begin offset but emits only events ending inside
 *    [begin, end). The shard ranges are disjoint and cover [0, n), so
 *    every site is owned by exactly one shard — the same rule that
 *    already makes chunk geometry invisible within one scan.
 *  - Hits are re-sorted with hitsFromEvents' comparator and
 *    deduplicated; events go through automata::normalizeEvents. Both
 *    are idempotent, so a union of disjoint emit intervals collapses
 *    to exactly the single-pass result. Device-model engines (no
 *    chunked scan) consume the whole stream per shard; their repeated
 *    full-genome results deduplicate away in the same merge.
 *
 * Topology: the N workers are ordinary SearchServices sharing ONE
 * GenomeStore, so a genome referenced by every shard is decoded once
 * and a packed (".2bit") reference is additionally mmap-shared — one
 * physical copy of the packed payload regardless of shard count
 * (`store.mmap_bytes`). Worker i always serves slice i of a given
 * genome, so per-worker request coalescing keeps working: two
 * requests for the same reference land on each worker with identical
 * scanRanges and merge into one pass there.
 *
 * Gathers run as tasks on the process-wide Executor and join their
 * shard futures with the executor's *helping* wait, so a gather
 * blocked on a busy pool executes other tasks (including its own
 * shards' chunk work) instead of deadlocking — safe even on a
 * single-core host. Gathers themselves are submitted with
 * TaskOptions::mayBlock, which helping loops skip: a shard
 * dispatcher's mid-scan helper must never pick up a gather that may
 * wait on a sub-request queued behind that very dispatcher
 * (executor.hpp documents the rule).
 *
 * Deadlines stay per-request: every sub-request carries the caller's
 * deadline; a shard that runs out of time returns its partial prefix
 * with `timedOut` set, and the merged result is the union of whatever
 * the shards produced, `timedOut` if any shard was cut short
 * (`shard.partials`).
 *
 * Thread-safety: every public method may be called from any thread.
 */

#ifndef CRISPR_CORE_SHARD_HPP_
#define CRISPR_CORE_SHARD_HPP_

#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <vector>

#include "core/service.hpp"

namespace crispr::core {

/** Coordinator-wide options. */
struct ShardOptions
{
    /**
     * Shard worker count (clamped to at least 1). Each worker is a
     * full SearchService with its own admission queue, batching
     * window, and breaker board; shards = 1 degenerates to a plain
     * SearchService behind the same API.
     */
    size_t shards = 1;

    /** Options applied to every shard worker (service.hpp). */
    ServiceOptions service;
};

/**
 * The scatter-gather serving front end: SearchService's submit API
 * over N shard workers that each scan one slice of the genome.
 */
class ShardedSearchService
{
  public:
    explicit ShardedSearchService(
        ShardOptions options = {},
        std::shared_ptr<GenomeStore> store = nullptr);

    /** Serves every still-pending request, then joins the gathers. */
    ~ShardedSearchService();

    ShardedSearchService(const ShardedSearchService &) = delete;
    ShardedSearchService &operator=(const ShardedSearchService &) = delete;

    /**
     * Submit a search request; mirrors SearchService::submit. The
     * genome is resolved once at the coordinator
     * (resolveRequestGenome, through the shared store),
     * scattered across the shard workers, and the future resolves
     * with the merged result. A caller-supplied non-whole
     * `config.scanRange` is honoured: the coordinator partitions that
     * interval instead of the whole genome.
     */
    std::future<SearchResult> submit(std::vector<Guide> guides,
                                     RequestOptions options);

    /** Typed-error variant: the future carries Expected instead. */
    std::future<common::Expected<SearchResult>>
    trySubmit(std::vector<Guide> guides, RequestOptions options);

    /**
     * Dispatch every worker's pending requests on the caller's thread
     * (the manual-mode path), then wait for the in-flight gathers to
     * merge. @return coordinator requests completed during the call.
     */
    size_t drain();

    /** Block until no request is pending, executing, or gathering. */
    void flush();

    /** The genome cache shared by every shard worker. */
    GenomeStore &store() { return *store_; }
    std::shared_ptr<GenomeStore> sharedStore() { return store_; }

    size_t shardCount() const { return workers_.size(); }

    /** Direct access to one shard worker (tests and introspection). */
    SearchService &worker(size_t shard) { return *workers_[shard]; }

    /**
     * Aggregated health: queue depth / bytes / executing summed over
     * the workers, store totals from the shared store (mmap-resident
     * and heap-decoded bytes reported separately), pressure and
     * accepting as the worst worker's view, breakers from worker 0
     * (every worker shares the coordinator's options).
     */
    ServiceHealth health() const;

    /** Coordinator shard.* metrics + summed worker service.* metrics
     *  + the shared store / breaker / executor views. */
    std::map<std::string, double> metricsSnapshot() const;

    size_t requestCount() const { return requests_.value(); }
    /** Completed scatter-gather cycles. */
    size_t gatherCount() const { return gathers_.value(); }
    /** Merged results cut short by a deadline (timedOut set). */
    size_t partialCount() const { return partials_.value(); }
    /** Requests completed with an error (resolution or shard). */
    size_t errorCount() const { return errors_.value(); }

  private:
    using Completion =
        std::function<void(common::Expected<SearchResult>)>;

    void enqueue(std::vector<Guide> guides, RequestOptions options,
                 Completion complete);
    /**
     * Join every in-flight gather with the executor's helping wait —
     * safe to call from inside a pool worker (the caller executes
     * queued tasks, including the gathers themselves, while waiting).
     */
    void waitGathersIdle();

    /**
     * Fold the shard results into one canonical SearchResult: first
     * shard error (by shard index) wins; otherwise hits are
     * concatenated + re-sorted + deduplicated, events re-normalised,
     * additive scan metrics summed, timings folded as the max across
     * shards (the parallel wall-clock view), and rates recomputed.
     *
     * Ranked mode: per-shard top-K listings merge exactly. Any hit in
     * the global top-K has fewer than K hits ranked above it globally,
     * hence fewer than K within its own shard, so it survives its
     * shard's truncation — the concatenation is a superset of the
     * global top-K, and re-sorting under the same total order +
     * re-truncating to `top_k` (the request's effective K) yields the
     * single-shard listing bit-for-bit at every shard count. A
     * timed-out shard contributes its partial ranking; the merge stays
     * duplicate- and phantom-free because every entry is one shard's
     * verified hit.
     */
    static common::Expected<SearchResult>
    mergeShardResults(std::vector<common::Expected<SearchResult>> shards,
                      size_t top_k);

    const ShardOptions options_;
    std::shared_ptr<GenomeStore> store_;
    std::vector<std::unique_ptr<SearchService>> workers_;

    mutable std::mutex mutex_;
    /** Futures of the gather tasks still in flight (pruned lazily). */
    std::list<std::future<void>> gatherTasks_;

    mutable common::MetricsRegistry metrics_;
    common::Counter requests_;
    common::Counter subRequests_;
    common::Counter gathers_;
    common::Counter partials_;
    common::Counter errors_;
    common::Counter completed_;
    common::Histogram gatherSeconds_;
    common::Gauge shardCountGauge_;
};

} // namespace crispr::core

#endif // CRISPR_CORE_SHARD_HPP_
