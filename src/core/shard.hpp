/**
 * @file
 * ShardedSearchService: the serving front end with `shards` scan lanes
 * per request. It owns ONE SearchService whose requests default to
 * `shards` lanes (ExecutionOptions::threads), so a request compiles its
 * guide set once and the ChunkedScanner splits its genome pass across
 * the process-wide Executor — the data-parallel chunking of one shared
 * pattern structure that the paper's one-pass-many-guides lever needs.
 *
 * @code
 *   core::ShardOptions opts;
 *   opts.shards = 4;
 *   core::ShardedSearchService service(opts);
 *   core::RequestOptions req;
 *   req.genomeRef = core::GenomeRef::packed("hg38.2bit");
 *   auto fut = service.submit({guide}, req);   // scanned on 4 lanes
 *   core::SearchResult result = fut.get();
 * @endcode
 *
 * Why results are identical at every shard count (DESIGN.md §14): the
 * lane count is execution tuning, like chunk geometry. Every event is
 * emitted by exactly the chunk whose emit zone holds its end index, so
 * hits, events and ranked listings do not depend on how many lanes
 * scanned the chunks (tested). A genome shorter than
 * shards x chunkSize has fewer chunks than lanes and scans on fewer.
 *
 * Thread-safety: every public method may be called from any thread.
 */

#ifndef CRISPR_CORE_SHARD_HPP_
#define CRISPR_CORE_SHARD_HPP_

#include <future>
#include <memory>
#include <vector>

#include "core/service.hpp"

namespace crispr::core {

/** Front-end options. */
struct ShardOptions
{
    /**
     * Scan lanes a request gets when neither it nor
     * `service.defaults` sets `threads` (clamped to at least 1). A
     * request's own `threads` still wins (request > service default >
     * built-in).
     */
    size_t shards = 1;

    /** Options of the one SearchService behind the front end. */
    ServiceOptions service;
};

/** SearchService's submit API with `shards` default scan lanes. */
class ShardedSearchService
{
  public:
    explicit ShardedSearchService(
        ShardOptions options = {},
        std::shared_ptr<GenomeStore> store = nullptr);

    ShardedSearchService(const ShardedSearchService &) = delete;
    ShardedSearchService &operator=(const ShardedSearchService &) = delete;

    /** SearchService::submit. */
    std::future<SearchResult> submit(std::vector<Guide> guides,
                                     RequestOptions options)
    {
        return service_.submit(std::move(guides), std::move(options));
    }

    /** SearchService::trySubmit. */
    std::future<common::Expected<SearchResult>>
    trySubmit(std::vector<Guide> guides, RequestOptions options)
    {
        return service_.trySubmit(std::move(guides), std::move(options));
    }

    /** SearchService::drain: dispatch pending requests on the caller's
     *  thread. @return requests served. */
    size_t drain() { return service_.drain(); }

    /** Block until no request is pending or executing. */
    void flush() { service_.flush(); }

    /** The genome cache requests resolve `genomeRef` against. */
    GenomeStore &store() { return service_.store(); }
    std::shared_ptr<GenomeStore> sharedStore()
    {
        return service_.sharedStore();
    }

    /** Default scan lanes per request. */
    size_t shardCount() const { return shards_; }

    ServiceHealth health() const { return service_.health(); }

    /** The service's snapshot plus `shard.count`. */
    std::map<std::string, double> metricsSnapshot() const;

    size_t requestCount() const { return service_.requestCount(); }
    /** Results cut short by a deadline (timedOut set). */
    size_t partialCount() const { return service_.partialCount(); }

  private:
    const size_t shards_;
    SearchService service_;
};

} // namespace crispr::core

#endif // CRISPR_CORE_SHARD_HPP_
