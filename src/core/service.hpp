/**
 * @file
 * SearchService: the serving front end of the library. Callers submit
 * asynchronous search requests; the service coalesces requests that
 * share a compatible configuration (PAM, mismatch budget, strands,
 * engine chain, engine params) and the same resident genome into one
 * merged PatternSet, runs a single compile + chunked scan per batch
 * window, and demultiplexes the hits back to each requester by guide
 * ownership — so N concurrent single-guide requests cost one genome
 * pass instead of N. This is the paper's central throughput lever (one
 * automaton pass serves many gRNAs at once) turned into an API.
 *
 * @code
 *   core::SearchService service;           // windowed batching
 *   core::RequestOptions req;
 *   req.genomeRef = core::GenomeRef::fasta("hg38.fa"); // loaded once
 *   req.config.maxMismatches = 3;
 *   auto f1 = service.submit({guideA}, req);   // these coalesce into
 *   auto f2 = service.submit({guideB}, req);   // one genome pass
 *   core::SearchResult r1 = f1.get(), r2 = f2.get();
 * @endcode
 *
 * Batching semantics (DESIGN.md "Serving layer"):
 *  - The coalescing key is (genome identity, guide length,
 *    engine + fallback chain, compileOptionsKey). Runtime options do
 *    not split batches; the batch runs with the runtime options of its
 *    earliest request.
 *  - Deadlines stay per-request: the batch scan runs under the most
 *    permissive member deadline (checked per chunk by the existing
 *    ChunkedScanner machinery), a request whose own deadline expires
 *    is completed with `timedOut` set, and a request already expired
 *    at dispatch completes immediately without costing a scan.
 *  - A batch whose merged compile or scan fails degrades to
 *    per-request serial execution (`service.batch_splits`), so one
 *    request's guides can never poison its batchmates.
 *  - Results are bit-identical to per-request search() calls: the
 *    merged pattern set is the concatenation of the members' sets, and
 *    hits/events/patterns are filtered and re-indexed per requester.
 *
 * Overload protection (DESIGN.md §12) is one bound: the admission
 * queue is bounded in requests and bytes, and an arrival past either
 * bound is resolved by a reject-new / drop-oldest policy — the loser
 * completes at once with Error::overloaded. A request whose guide set
 * cannot compile (empty, mixed lengths, budget outside [0, length]) is
 * refused at submit with ErrorCode::InvalidArgument, so it never joins
 * (or splits) a batch. Each request walks its own engine chain with
 * fallbacks; nothing carries one request's failure over to the next.
 * health() reports the queue for readiness probes.
 *
 * Thread-safety: every public method may be called from any thread.
 */

#ifndef CRISPR_CORE_SERVICE_HPP_
#define CRISPR_CORE_SERVICE_HPP_

#include <chrono>
#include <condition_variable>
#include <functional>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/genome_store.hpp"
#include "core/search.hpp"

namespace crispr::core {

/**
 * What happens when a request arrives and the admission queue is at
 * its request or byte bound (DESIGN.md §12).
 */
enum class AdmissionPolicy : uint8_t
{
    /** Refuse the new arrival with Error::overloaded (the default:
     *  callers with retry logic back off; queued work is preserved). */
    RejectNew,
    /** Admit the arrival and shed the oldest queued request(s) with
     *  Error::overloaded — freshest-work-wins, for callers whose old
     *  requests have stale deadlines anyway. */
    DropOldest,
};

/** Service-wide batching + admission options. */
struct ServiceOptions
{
    /**
     * Service-default execution layer (core/options.hpp): a submitted
     * request whose execution field is still at its built-in default
     * inherits the value set here (request > service default >
     * built-in; the precedence contract documented in crispr.hpp).
     * ShardedSearchService sets `threads` here to its shard count
     * when the caller left it at the built-in 1.
     */
    ExecutionOptions defaults;

    /**
     * Seconds a batch window stays open after the first pending
     * request arrives (more arrivals ride along). Negative = manual
     * mode: no dispatcher thread runs and requests accumulate until
     * drain() — the deterministic mode tests and benches use.
     */
    double batchWindowSeconds = 0.002;

    /** Dispatch early once this many requests are pending. */
    size_t maxBatchRequests = 64;

    /**
     * Admission queue bound in requests (0 = unbounded). An arrival
     * past the bound is resolved per `admissionPolicy`; shed/rejected
     * requests complete promptly with Error::overloaded and never
     * cost a scan.
     */
    size_t maxQueueRequests = 4096;

    /**
     * Admission queue bound in queued work bytes — the sum of the
     * pending requests' genome sizes (0 = unbounded). Bounds memory
     * and scan backlog together for mixed genome sizes.
     */
    size_t maxQueueBytes = 0;

    /** Policy at either queue bound. */
    AdmissionPolicy admissionPolicy = AdmissionPolicy::RejectNew;

    /**
     * Ahead-of-time pattern database directory (core/pattern_db.hpp).
     * When set, the service preloads every blob in it at construction
     * (`service.db_preloaded`) — the millisecond-restart path — and
     * every request whose own config names no databaseDir inherits
     * this one, so the per-batch sessions hit the warmed disk tier
     * instead of recompiling.
     */
    std::string databaseDir;
};

/**
 * A point-in-time health snapshot (health()): what a readiness probe
 * or operator dashboard needs to decide "is this instance taking
 * traffic, and should it be".
 */
struct ServiceHealth
{
    size_t queueDepth = 0;       //!< admitted requests waiting
    size_t queuedBytes = 0;      //!< their summed genome bytes
    size_t executingBatches = 0; //!< dispatch cycles in flight
    bool accepting = true;       //!< queue bounds not currently hit
    size_t executorQueueDepth = 0; //!< process-wide pool backlog
    size_t storeBytes = 0;         //!< decoded genome bytes
    size_t storeEntries = 0;

    /** The readiness-probe verdict: the queue admits arrivals. */
    bool ready() const { return accepting; }
};

/** Per-request options: which genome to scan, and how. */
struct RequestOptions
{
    /** Decoded reference to scan (shared, immutable). */
    SharedSequence genome;

    /**
     * Alternative to `genome`: a typed reference (in-memory key,
     * FASTA path, or packed ".2bit" file) resolved through the
     * service's GenomeStore at submit time (load-once, LRU-cached).
     * `genome` wins when both are set.
     */
    GenomeRef genomeRef;

    /**
     * Compile options form the coalescing key; runtime options ride
     * along (the batch adopts its earliest request's runtime options,
     * except the deadline, which stays per-request).
     */
    SearchConfig config;
};

/** The batching search front end. */
class SearchService
{
  public:
    explicit SearchService(ServiceOptions options = {},
                           std::shared_ptr<GenomeStore> store = nullptr);

    /** Serves every still-pending request before returning. */
    ~SearchService();

    SearchService(const SearchService &) = delete;
    SearchService &operator=(const SearchService &) = delete;

    /**
     * Submit a search request. The future resolves when the request's
     * batch completes; get() throws ErrorException on failure, mirrors
     * SearchSession::search otherwise.
     */
    std::future<SearchResult> submit(std::vector<Guide> guides,
                                     RequestOptions options);

    /** Typed-error variant: the future carries Expected instead. */
    std::future<common::Expected<SearchResult>>
    trySubmit(std::vector<Guide> guides, RequestOptions options);

    /**
     * Dispatch every pending request on the caller's thread (the only
     * dispatch path in manual mode; also usable to cut a window
     * short). @return requests served.
     */
    size_t drain();

    /** Block until no request is pending or executing. */
    void flush();

    /** The genome cache requests resolve `genomeRef` against. */
    GenomeStore &store() { return *store_; }
    std::shared_ptr<GenomeStore> sharedStore() { return store_; }

    /** Point-in-time health snapshot (queue, executor, store). */
    ServiceHealth health() const;

    /** Cumulative service.* (+ store.*, executor) metrics. */
    std::map<std::string, double> metricsSnapshot() const;

    size_t requestCount() const { return requests_.value(); }
    /** Merged passes executed (a solo request still counts one). */
    size_t batchCount() const { return batches_.value(); }
    /** Requests that shared a genome pass with at least one other. */
    size_t coalescedCount() const { return coalesced_.value(); }
    /** Merged runs degraded to per-request serial execution. */
    size_t batchSplitCount() const { return batchSplits_.value(); }
    /** Arrivals refused at a queue bound (RejectNew). */
    size_t rejectedCount() const { return rejected_.value(); }
    /** Queued requests shed to make room (DropOldest). */
    size_t shedCount() const { return shed_.value(); }
    /** Requests completed with `timedOut` set: expired before
     *  dispatch, expired by demux, or cut short mid-scan. */
    size_t partialCount() const { return partials_.value(); }

  private:
    using Completion =
        std::function<void(common::Expected<SearchResult>)>;

    struct Pending
    {
        std::vector<Guide> guides;
        SharedSequence genome;
        SearchConfig config;
        Completion complete;
        std::chrono::steady_clock::time_point arrival;
        size_t bytes = 0; //!< genome bytes (queue byte bound)
    };

    void enqueue(std::vector<Guide> guides, RequestOptions options,
                 Completion complete);
    void loop();
    /** Swap out the whole queue (resets queued-work accounting). */
    std::vector<Pending> takeQueueLocked();
    /** Group by coalescing key and execute each group. */
    void dispatch(std::vector<Pending> pending);
    /** Run one compatible group as one or more merged passes. */
    void executeGroup(std::vector<Pending> group);
    /** One merged compile+scan serving `members`, demuxed per member. */
    void executeMerged(std::vector<Pending> members);
    /** Per-request serial fallback after a failed merged run. */
    void executeSingle(Pending member);
    /** Complete a dispatched member, counting a timed-out result. */
    void finish(Pending &member, common::Expected<SearchResult> result);

    static std::string coalescingKey(const Pending &request);
    static common::Deadline
    combinedDeadline(const std::vector<Pending> &members);
    /** Empty timed-out result for a request expired before dispatch. */
    static SearchResult expiredResult(const Pending &member);
    /** Slice `batch` down to one member's guides, re-indexed. */
    static SearchResult demux(const SearchResult &batch, size_t offset,
                              size_t count, size_t batch_requests,
                              size_t batch_guides);

    const ServiceOptions options_;
    std::shared_ptr<GenomeStore> store_;

    mutable std::mutex mutex_;
    std::condition_variable cv_;     //!< wakes the dispatcher
    std::condition_variable idleCv_; //!< wakes flush()
    std::vector<Pending> queue_;
    size_t queuedBytes_ = 0; //!< sum of queued genome bytes
    size_t executing_ = 0;
    bool stop_ = false;
    bool flushRequested_ = false;
    std::thread worker_;

    mutable common::MetricsRegistry metrics_;
    common::Counter requests_;
    common::Counter batches_;
    common::Counter coalesced_;
    common::Counter batchSplits_;
    common::Counter expired_;
    common::Counter partials_;
    common::Counter rejected_;
    common::Counter shed_;
    common::Histogram batchSize_;
    common::Gauge queueDepthGauge_;
    common::Gauge queuedBytesGauge_;
};

} // namespace crispr::core

#endif // CRISPR_CORE_SERVICE_HPP_
