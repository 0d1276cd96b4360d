#include "core/genome_store.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>

#include "genome/fasta_stream.hpp"
#include "genome/packed.hpp"

namespace crispr::core {

using common::Error;
using common::ErrorCode;

GenomeStore::GenomeStore(size_t max_bytes)
    : maxBytes_(max_bytes), hits_(metrics_.counter("store.hits")),
      misses_(metrics_.counter("store.misses")),
      loads_(metrics_.counter("store.loads")),
      evictions_(metrics_.counter("store.evictions")),
      deadlineExceeded_(metrics_.counter("store.deadline_exceeded")),
      bytesGauge_(metrics_.gauge("store.bytes")),
      entriesGauge_(metrics_.gauge("store.entries"))
{
}

GenomeStore::~GenomeStore() = default;

std::list<GenomeStore::Entry>::iterator
GenomeStore::findLocked(const std::string &key)
{
    for (auto it = entries_.begin(); it != entries_.end(); ++it)
        if (it->key == key)
            return it;
    return entries_.end();
}

void
GenomeStore::dropEntryBytesLocked(const Entry &entry)
{
    if (entry.ready)
        bytes_ -= entry.bytes;
}

void
GenomeStore::evictOverBudgetLocked()
{
    // Walk from the LRU end, skipping in-flight loads (their size is
    // unknown and a waiter owns their future). An evicted sequence
    // stays alive for whoever still holds its shared_ptr.
    auto it = entries_.end();
    while (bytes_ > maxBytes_ && it != entries_.begin()) {
        --it;
        if (!it->ready)
            continue;
        dropEntryBytesLocked(*it);
        it = entries_.erase(it);
        evictions_.inc();
    }
    bytesGauge_.set(static_cast<double>(bytes_));
    entriesGauge_.set(static_cast<double>(entries_.size()));
}

common::Expected<SharedSequence>
GenomeStore::tryGetOrLoad(const std::string &key, const Loader &loader,
                          const common::Deadline &deadline)
{
    // A request that is already dead must not queue behind (or start) a
    // multi-second decode it can never use.
    if (deadline.expired()) {
        deadlineExceeded_.inc();
        return Error(deadline.cancelled() ? ErrorCode::Cancelled
                                          : ErrorCode::DeadlineExceeded,
                     "deadline expired before genome load")
            .withContext("key", key);
    }

    std::promise<LoadResult> promise;
    std::shared_future<LoadResult> fut;
    uint64_t my_id = 0;
    bool load_here = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = findLocked(key);
        if (it != entries_.end()) {
            hits_.inc();
            entries_.splice(entries_.begin(), entries_, it);
            fut = it->future;
        } else {
            misses_.inc();
            loads_.inc();
            fut = promise.get_future().share();
            my_id = nextId_++;
            entries_.push_front(Entry{key, fut, my_id, 0, false});
            entriesGauge_.set(static_cast<double>(entries_.size()));
            load_here = true;
        }
    }
    if (!load_here) {
        // Wait in bounded slices so a deadline that expires (or a
        // token cancelled) while another caller decodes returns
        // promptly; the decode itself continues and fills the cache
        // for everyone else. A ready future exits on the first probe.
        for (;;) {
            const double slice =
                std::clamp(deadline.remainingSeconds(), 0.0, 0.01);
            if (fut.wait_for(std::chrono::duration<double>(slice)) ==
                std::future_status::ready)
                break;
            if (deadline.expired()) {
                deadlineExceeded_.inc();
                return Error(deadline.cancelled()
                                 ? ErrorCode::Cancelled
                                 : ErrorCode::DeadlineExceeded,
                             "deadline expired waiting for genome "
                             "load")
                    .withContext("key", key);
            }
        }
        return fut.get();
    }

    // Cache miss: this caller decodes while every racer on the same
    // key waits on the shared future — one parse, many readers.
    LoadResult result = [&]() -> LoadResult {
        auto loaded = loader();
        if (!loaded.ok())
            return Error(loaded.error());
        return SharedSequence(std::make_shared<const genome::Sequence>(
            std::move(loaded).value()));
    }();

    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = findLocked(key);
        // The entry may be gone (erase()/clear() raced the load) or
        // re-created by a later load; only finish our own slot.
        if (it != entries_.end() && it->id == my_id) {
            if (result.ok()) {
                it->bytes = result.value()->size();
                it->ready = true;
                bytes_ += it->bytes;
                evictOverBudgetLocked();
            } else {
                // Errors are not cached: drop the slot so the next
                // get retries the load.
                entries_.erase(it);
                entriesGauge_.set(
                    static_cast<double>(entries_.size()));
            }
        }
    }
    promise.set_value(result);
    return result;
}

common::Expected<SharedSequence>
GenomeStore::tryLoad(const GenomeRef &ref, bool lenient,
                     const common::Deadline &deadline)
{
    if (ref.empty())
        return Error(ErrorCode::InvalidArgument,
                     "empty genome reference");
    switch (ref.source) {
    case GenomeSource::Memory: {
        // Memory refs never load from anywhere: they must have been
        // put() first.
        if (SharedSequence seq = get(ref))
            return seq;
        return Error(ErrorCode::InvalidArgument,
                     "in-memory genome ref is not in the store "
                     "(put() it first)")
            .withContext("key", ref.key());
    }
    case GenomeSource::FastaFile:
        // Decoded by the reader streamed searches use, so a loaded and
        // a streamed FASTA are the same genome. Lenient decoding can
        // differ from strict, so the two are cached apart.
        return tryGetOrLoad(
            lenient ? "lenient:" + ref.key() : ref.key(),
            [&]() -> common::Expected<genome::Sequence> {
                std::ifstream in(ref.id, std::ios::binary);
                if (!in)
                    return Error(ErrorCode::InvalidArgument,
                                 "cannot open FASTA file")
                        .withContext("path", ref.id);
                genome::FastaStreamReader reader(
                    in, genome::FastaStreamOptions{lenient});
                std::vector<uint8_t> codes;
                std::vector<uint8_t> chunk;
                for (;;) {
                    auto more = reader.tryNext(size_t(1) << 20, chunk);
                    if (!more.ok())
                        return Error(more.error())
                            .withContext("path", ref.id);
                    if (!more.value())
                        return genome::Sequence(std::move(codes));
                    codes.insert(codes.end(), chunk.begin(), chunk.end());
                }
            },
            deadline);
    case GenomeSource::PackedFile:
        return tryGetOrLoad(
            ref.key(),
            [&]() -> common::Expected<genome::Sequence> {
                auto mapped = genome::PackedFile::map(ref.id);
                if (!mapped.ok())
                    return Error(mapped.error());
                return mapped.value()->unpack();
            },
            deadline);
    }
    return Error(ErrorCode::InvalidArgument,
                 "unknown genome ref source");
}

SharedSequence
GenomeStore::load(const GenomeRef &ref, bool lenient)
{
    return tryLoad(ref, lenient).valueOrThrow();
}

SharedSequence
GenomeStore::put(const GenomeRef &ref, genome::Sequence seq)
{
    const std::string key = ref.key();
    auto ptr = std::make_shared<const genome::Sequence>(std::move(seq));
    std::promise<LoadResult> promise;
    std::shared_future<LoadResult> fut = promise.get_future().share();
    promise.set_value(LoadResult(SharedSequence(ptr)));

    std::lock_guard<std::mutex> lock(mutex_);
    if (auto it = findLocked(key); it != entries_.end()) {
        dropEntryBytesLocked(*it);
        entries_.erase(it);
    }
    entries_.push_front(Entry{key, fut, nextId_++, ptr->size(), true});
    bytes_ += ptr->size();
    evictOverBudgetLocked();
    return ptr;
}

SharedSequence
GenomeStore::get(const GenomeRef &ref)
{
    std::shared_future<LoadResult> fut;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = findLocked(ref.key());
        if (it == entries_.end()) {
            misses_.inc();
            return nullptr;
        }
        hits_.inc();
        entries_.splice(entries_.begin(), entries_, it);
        fut = it->future;
    }
    // An in-flight load resolves here; a failed one reads as absent.
    const LoadResult &result = fut.get();
    return result.ok() ? result.value() : nullptr;
}

bool
GenomeStore::erase(const GenomeRef &ref)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = findLocked(ref.key());
    if (it == entries_.end())
        return false;
    dropEntryBytesLocked(*it);
    entries_.erase(it);
    bytesGauge_.set(static_cast<double>(bytes_));
    entriesGauge_.set(static_cast<double>(entries_.size()));
    return true;
}

void
GenomeStore::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    entries_.clear();
    bytes_ = 0;
    bytesGauge_.set(0.0);
    entriesGauge_.set(0.0);
}

size_t
GenomeStore::bytes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return bytes_;
}

size_t
GenomeStore::entryCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

size_t
GenomeStore::hits() const
{
    return hits_.value();
}

size_t
GenomeStore::misses() const
{
    return misses_.value();
}

size_t
GenomeStore::evictions() const
{
    return evictions_.value();
}

size_t
GenomeStore::deadlineExceededCount() const
{
    return deadlineExceeded_.value();
}

std::map<std::string, double>
GenomeStore::metricsSnapshot() const
{
    return metrics_.toMap();
}

void
GenomeStore::mergeMetricsInto(std::map<std::string, double> &out) const
{
    metrics_.mergeInto(out);
}

} // namespace crispr::core
