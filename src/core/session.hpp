/**
 * @file
 * SearchSession: the compile-once unit of the search API. A session
 * owns a guide set and an LRU cache of compiled patterns keyed by
 * (engine, mismatch budget, PAM, strands, orientation), so repeated
 * search() calls against different genomes — or streamed chunks of one
 * huge genome — never recompile. This is the object a server loop
 * holds per client.
 *
 * @code
 *   core::SearchSession session(guides, config);
 *   auto chr1 = session.search(chr1_seq);   // compiles once
 *   auto chr2 = session.search(chr2_seq);   // cache hit
 *   std::ifstream fa("hg38.fa");
 *   auto all = session.searchStream(fa);    // chunked, O(chunk) memory
 * @endcode
 *
 * Fault tolerance (DESIGN.md "Failure model"): the trySearch /
 * trySearchStream entry points never call fatal() for malformed input,
 * engine failure, or config errors — they return a typed
 * common::Error. A config's `fallbacks` list is tried in order when an
 * engine fails to compile or scan (the paper's cross-platform
 * degradation); every call walks the whole chain afresh, so one
 * call's failure never skips an engine for the next. The `deadline`
 * bounds the scan cooperatively per chunk, and `scanRetries` retries
 * transient chunk failures. The
 * legacy search()/searchStream() wrappers throw the same errors as
 * ErrorException (a FatalError).
 *
 * Thread-safety: the compile cache is internally locked; concurrent
 * search() calls on one session are safe and share compilations.
 *
 * Caching caveat: a CompiledPattern captures the EngineParams it was
 * compiled with. The cache key covers the compile-relevant fields
 * (hscan options, GPU chunk, CasOT indexing, full-sim limit); the
 * device-model specs (fpgaSpec, apSpec, gpuModel, apSimConfig,
 * casoffinderModel) are treated as deployment constants — call
 * clearCache() after changing them mid-session.
 */

#ifndef CRISPR_CORE_SESSION_HPP_
#define CRISPR_CORE_SESSION_HPP_

#include <functional>
#include <iosfwd>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "core/chunked_scan.hpp"
#include "core/search.hpp"

namespace crispr::core {

class PatternDatabase;

/** A compile-once search session over a fixed guide set. */
class SearchSession
{
  public:
    /** @param cache_capacity compiled patterns kept (LRU evicted). */
    explicit SearchSession(std::vector<Guide> guides,
                           SearchConfig config = {},
                           size_t cache_capacity = 4);

    /**
     * Search an in-memory genome with the session's config (or a
     * per-call one; recompiles only when the config's cache key
     * differs from every cached entry). The config's engine is tried
     * first, then each of config.fallbacks in order; the error of the
     * last engine is returned when every one fails. A timed-out search
     * succeeds with partial hits and result.timedOut set.
     */
    common::Expected<SearchResult>
    trySearch(const genome::Sequence &genome);
    common::Expected<SearchResult>
    trySearch(const genome::Sequence &genome,
              const SearchConfig &config);

    /**
     * Search a FASTA text stream chunk-by-chunk without materialising
     * the reference; hits are verified per chunk while its window is
     * resident. Chunk-capable (CPU) engines only — a device-model
     * engine falls through to the next chunk-capable fallback, or
     * returns UnsupportedEngine. Engine fallback applies only to
     * failures before the stream is consumed (lookup, capability,
     * compile); a mid-stream scan or parse failure is returned as-is
     * since the stream cannot be rewound. Hit coordinates are
     * concatenated-stream offsets, as produced by
     * genome::concatenateRecords (single-N record separators).
     */
    common::Expected<SearchResult> trySearchStream(std::istream &fasta);
    common::Expected<SearchResult>
    trySearchStream(std::istream &fasta, const SearchConfig &config);

    /** Throwing wrappers over the try* APIs (ErrorException). */
    SearchResult search(const genome::Sequence &genome);
    SearchResult search(const genome::Sequence &genome,
                        const SearchConfig &config);
    SearchResult searchStream(std::istream &fasta);
    SearchResult searchStream(std::istream &fasta,
                              const SearchConfig &config);

    const std::vector<Guide> &guides() const { return guides_; }
    const SearchConfig &config() const { return config_; }

    /** Pattern compilations performed (cache misses) so far. */
    size_t compileCount() const;
    /** search() calls served from the compile cache so far. */
    size_t cacheHits() const;
    /** Compilations loaded from the on-disk pattern database so far. */
    size_t databaseHits() const;
    /** Disk-tier lookups that fell through to a fresh compile. */
    size_t databaseMisses() const;
    /** Compile/scan failures recorded against one engine so far. */
    size_t engineFailures(EngineKind kind) const;

    /**
     * Snapshot of the session's cumulative metrics (session.compiles,
     * session.cache_hits, session.db_hits, session.db_misses,
     * session.db_store_failures, session.db_load_seconds.*,
     * session.engine_auto.<choice>, session.failures.<name>), as merged
     * into every run's metric map.
     */
    std::map<std::string, double> metricsSnapshot() const;

    /** Drop every cached compilation. */
    void clearCache();

  private:
    /**
     * One scan with an engine's compiled pattern. A failure falls
     * through to the next engine unless the step sets `terminal`
     * (it consumed input it cannot replay).
     */
    using ScanStep = std::function<common::Expected<SearchResult>(
        const Engine &, const std::shared_ptr<const CompiledPattern> &,
        bool &terminal)>;

    /**
     * The engine-chain walk behind trySearch and trySearchStream: per
     * engine of engineChain(config), registry lookup, compiledFor and
     * `step`; each failure is counted in session.failures.<name>. The
     * first success gets its result metrics, ranked listing and
     * session snapshot.
     */
    common::Expected<SearchResult> searchChain(const SearchConfig &config,
                                               const ScanStep &step);
    common::Expected<std::shared_ptr<const CompiledPattern>>
    compiledFor(const SearchConfig &config, const Engine &engine);
    /** Compile cache key: engine name + compileOptionsKey(options). */
    std::string cacheKey(const CompileOptions &options,
                         const Engine &engine) const;
    /**
     * Disk-tier key: the cache key plus the guide-set digest, so one
     * database directory can serve many sessions and guide sets.
     */
    std::string databaseKey(const CompileOptions &options,
                            const Engine &engine) const;
    /**
     * config.engine then config.fallbacks, deduplicated in order.
     * EngineKind::Auto is expanded in place into the cost model's
     * ranked CPU chain (engine_auto.hpp), counting the first choice in
     * `session.engine_auto.<name>`.
     */
    std::vector<EngineKind>
    engineChain(const SearchConfig &config) const;
    void recordEngineFailure(const char *name);

    std::vector<Guide> guides_;
    SearchConfig config_;
    size_t capacity_;

    mutable std::mutex mutex_; //!< guards cache_ only
    std::list<std::pair<std::string,
                        std::shared_ptr<const CompiledPattern>>>
        cache_; //!< front = most recently used

    /**
     * Session-lifetime observability: the registry is internally
     * synchronized, so counters are bumped without mutex_ and
     * searchChain merges a snapshot into every served run's metric
     * map.
     */
    mutable common::MetricsRegistry metrics_;
    common::Counter compiles_;
    common::Counter cacheHits_;
    common::Counter dbHits_;
    common::Counter dbMisses_;
    common::Counter dbStoreFailures_;
};

} // namespace crispr::core

#endif // CRISPR_CORE_SESSION_HPP_
