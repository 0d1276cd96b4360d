/**
 * @file
 * GenomeStore: a keyed, ref-counted cache of decoded genome::Sequence
 * objects, so every batch and every request that names the same
 * reference scans shared immutable memory instead of re-parsing FASTA.
 *
 * Genome identity is a typed GenomeRef (stable id + source kind:
 * in-memory | FASTA file | packed ".2bit" file). FASTA refs decode
 * with genome::FastaStreamReader — the reader streamed searches use,
 * so a loaded and a streamed file are the same genome. Packed refs
 * are mapped through genome::PackedFile and decoded once; every
 * request then shares the decoded Sequence, and the mapping is
 * released as soon as it has been decoded.
 *
 * Load-once semantics: concurrent tryLoad() calls for one ref share
 * a single parse — the first caller runs the loader while the racers
 * block on the same future, so a reference is never decoded twice no
 * matter how many requests land at once. Failed loads are not cached
 * (the next get retries).
 *
 * The cache is LRU-bounded by total decoded bytes (`store.bytes`).
 * Eviction drops the store's reference only: callers hold plain
 * shared_ptrs, so a sequence still in use by an in-flight scan stays
 * alive until the last scan releases it — eviction can never pull a
 * genome out from under a batch.
 *
 * Metrics (metricsSnapshot()): `store.hits`, `store.misses`,
 * `store.loads`, `store.evictions`, `store.bytes`, `store.entries`,
 * `store.deadline_exceeded`.
 */

#ifndef CRISPR_CORE_GENOME_STORE_HPP_
#define CRISPR_CORE_GENOME_STORE_HPP_

#include <functional>
#include <future>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/deadline.hpp"
#include "common/error.hpp"
#include "common/metrics.hpp"
#include "genome/sequence.hpp"

namespace crispr::core {

/** Shared, immutable handle to a cached genome. */
using SharedSequence = std::shared_ptr<const genome::Sequence>;

/** Where a GenomeRef's bytes come from. */
enum class GenomeSource : uint8_t
{
    Memory,     //!< an in-store sequence put() under a chosen id
    FastaFile,  //!< a FASTA path, parsed + concatenated on first load
    PackedFile, //!< a ".2bit" packed file, mapped + decoded on first load
};

/**
 * Typed genome identity: a stable id plus its source kind. This is
 * the one way requests and the service name a reference
 * (RequestOptions::genomeRef). Two refs are the same genome iff their
 * key()s agree.
 */
struct GenomeRef
{
    GenomeSource source = GenomeSource::Memory;
    /** Memory: the store key. Fasta/Packed: the file path. */
    std::string id;

    static GenomeRef
    memory(std::string key)
    {
        return GenomeRef{GenomeSource::Memory, std::move(key)};
    }
    static GenomeRef
    fasta(std::string path)
    {
        return GenomeRef{GenomeSource::FastaFile, std::move(path)};
    }
    static GenomeRef
    packed(std::string path)
    {
        return GenomeRef{GenomeSource::PackedFile, std::move(path)};
    }

    bool empty() const { return id.empty(); }

    /** The store's cache key: the id, prefixed for packed files. */
    std::string
    key() const
    {
        return source == GenomeSource::PackedFile ? "2bit:" + id : id;
    }

    bool operator==(const GenomeRef &) const = default;
};

/** A keyed, LRU-byte-bounded cache of decoded genomes. */
class GenomeStore
{
  public:
    /** Decodes one genome on a cache miss (run without the lock). */
    using Loader = std::function<common::Expected<genome::Sequence>()>;

    /** @param max_bytes total decoded bytes kept (LRU evicted). */
    explicit GenomeStore(size_t max_bytes = kDefaultMaxBytes);
    ~GenomeStore();

    GenomeStore(const GenomeStore &) = delete;
    GenomeStore &operator=(const GenomeStore &) = delete;

    /**
     * Resolve a typed ref: the cached sequence under ref.key(), or
     * the result of loading it from its source. Memory refs never
     * load — an absent memory ref is InvalidArgument (put() it
     * first). FASTA refs decode the file with FastaStreamReader
     * (`lenient` as in FastaStreamOptions; a lenient load is cached
     * apart from a strict one of the same path); packed refs map and
     * decode it. Load-once and deadline semantics are those of
     * tryGetOrLoad().
     */
    common::Expected<SharedSequence>
    tryLoad(const GenomeRef &ref, bool lenient = false,
            const common::Deadline &deadline = {});

    /** Throwing wrapper over tryLoad (ErrorException). */
    SharedSequence load(const GenomeRef &ref, bool lenient = false);

    /** Insert an already-decoded sequence under a typed ref. */
    SharedSequence put(const GenomeRef &ref, genome::Sequence seq);

    /** The cached sequence, or nullptr; counts a store hit or miss. */
    SharedSequence get(const GenomeRef &ref);

    /** Drop one ref (callers' shared_ptrs stay valid). */
    bool erase(const GenomeRef &ref);

    /**
     * The sequence cached under `key`, or the result of running
     * `loader` to fill it. Exactly one racer runs the loader; the rest
     * wait for its result. A loader error is returned to every waiter
     * and evicted immediately, so a later call retries the load.
     *
     * Deadline-awareness: a caller whose `deadline` has already
     * expired — or expires while waiting on another caller's in-flight
     * load — returns `deadline_exceeded` promptly (counted as
     * `store.deadline_exceeded`) instead of blocking for the full
     * decode. The load itself is never abandoned: the loader-running
     * caller ignores its own deadline so racers and later requests
     * still get the cached sequence.
     */
    common::Expected<SharedSequence>
    tryGetOrLoad(const std::string &key, const Loader &loader,
                 const common::Deadline &deadline = {});

    /** Drop every entry (callers' shared_ptrs stay valid). */
    void clear();

    size_t bytes() const;     //!< decoded bytes currently cached
    size_t entryCount() const;
    size_t hits() const;
    size_t misses() const;
    size_t evictions() const;
    /** Loads/waits abandoned because the caller's deadline expired. */
    size_t deadlineExceededCount() const;

    /** Snapshot of the store.* metrics. */
    std::map<std::string, double> metricsSnapshot() const;

    /** Merge the store.* metrics into an existing map. */
    void mergeMetricsInto(std::map<std::string, double> &out) const;

    static constexpr size_t kDefaultMaxBytes = size_t(8) << 30;

  private:
    using LoadResult = common::Expected<SharedSequence>;

    struct Entry
    {
        std::string key;
        /** Ready (or in-flight) load result shared by every waiter. */
        std::shared_future<LoadResult> future;
        /** Distinguishes this slot from a re-created one (erase race). */
        uint64_t id = 0;
        /** Decoded size once ready; 0 while the load is in flight. */
        size_t bytes = 0;
        bool ready = false;
    };

    /** Drop ready LRU entries until the byte budget holds. */
    void evictOverBudgetLocked();
    /** Release an entry's byte accounting. */
    void dropEntryBytesLocked(const Entry &entry);
    std::list<Entry>::iterator findLocked(const std::string &key);

    const size_t maxBytes_;

    mutable std::mutex mutex_;
    std::list<Entry> entries_; //!< front = most recently used
    size_t bytes_ = 0;         //!< sum of ready entries' bytes
    uint64_t nextId_ = 1;

    mutable common::MetricsRegistry metrics_;
    common::Counter hits_;
    common::Counter misses_;
    common::Counter loads_;
    common::Counter evictions_;
    common::Counter deadlineExceeded_;
    common::Gauge bytesGauge_;
    common::Gauge entriesGauge_;
};

} // namespace crispr::core

#endif // CRISPR_CORE_GENOME_STORE_HPP_
