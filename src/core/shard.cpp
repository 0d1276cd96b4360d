#include "core/shard.hpp"

#include <algorithm>
#include <chrono>

#include "automata/interp.hpp"
#include "common/logging.hpp"
#include "common/stopwatch.hpp"

namespace crispr::core {

using common::Error;
using common::ErrorCode;
using common::Expected;

namespace {

/**
 * Per-shard run metrics that add up across shards (work done), as
 * opposed to timings and rates, which fold as the max (the shards run
 * concurrently, so the slowest shard is the wall clock).
 */
bool
isAdditiveMetric(const std::string &key)
{
    return key == "scan.bytes" || key == "scan.chunks" ||
           key == "scan.chunks_skipped" || key == "scan.retries" ||
           key == "events.dropped" || key == "parse.records_dropped";
}

bool
futureReady(const std::future<void> &fut)
{
    return fut.wait_for(std::chrono::seconds(0)) ==
           std::future_status::ready;
}

} // namespace

ShardedSearchService::ShardedSearchService(
    ShardOptions options, std::shared_ptr<GenomeStore> store)
    : options_(std::move(options)),
      store_(store ? std::move(store)
                   : std::make_shared<GenomeStore>()),
      requests_(metrics_.counter("shard.requests")),
      subRequests_(metrics_.counter("shard.subrequests")),
      gathers_(metrics_.counter("shard.gathers")),
      partials_(metrics_.counter("shard.partials")),
      errors_(metrics_.counter("shard.errors")),
      completed_(metrics_.counter("shard.completed")),
      gatherSeconds_(metrics_.histogram("shard.gather_seconds")),
      shardCountGauge_(metrics_.gauge("shard.count"))
{
    // Gathers run as tasks on the shared pool: touching it here pins
    // its construction before ours, so a coordinator living in a
    // static is destroyed (and drained) before the pool unwinds.
    common::Executor::shared();
    const size_t shard_count = std::max<size_t>(1, options_.shards);
    workers_.reserve(shard_count);
    for (size_t i = 0; i < shard_count; ++i)
        workers_.push_back(
            std::make_unique<SearchService>(options_.service, store_));
    shardCountGauge_.set(static_cast<double>(shard_count));
}

ShardedSearchService::~ShardedSearchService()
{
    // Serve every queued sub-request so each shard future resolves,
    // then join the gathers before the workers they read from die.
    for (auto &worker : workers_)
        worker->flush();
    waitGathersIdle();
}

std::future<SearchResult>
ShardedSearchService::submit(std::vector<Guide> guides,
                             RequestOptions options)
{
    auto promise = std::make_shared<std::promise<SearchResult>>();
    std::future<SearchResult> fut = promise->get_future();
    enqueue(std::move(guides), std::move(options),
            [promise](Expected<SearchResult> result) {
                if (result.ok())
                    promise->set_value(std::move(result).value());
                else
                    promise->set_exception(std::make_exception_ptr(
                        common::ErrorException(result.error())));
            });
    return fut;
}

std::future<Expected<SearchResult>>
ShardedSearchService::trySubmit(std::vector<Guide> guides,
                                RequestOptions options)
{
    auto promise =
        std::make_shared<std::promise<Expected<SearchResult>>>();
    std::future<Expected<SearchResult>> fut = promise->get_future();
    enqueue(std::move(guides), std::move(options),
            [promise](Expected<SearchResult> result) {
                promise->set_value(std::move(result));
            });
    return fut;
}

void
ShardedSearchService::enqueue(std::vector<Guide> guides,
                              RequestOptions options,
                              Completion complete)
{
    requests_.inc();
    if (guides.empty()) {
        errors_.inc();
        completed_.inc();
        complete(Error(ErrorCode::InvalidArgument,
                       "request contains no guides"));
        return;
    }

    // Resolve the genome once at the coordinator so every shard scans
    // the same shared sequence — and a packed ref is mmapped exactly
    // once in the shared store no matter the shard count.
    auto resolved = resolveRequestGenome(options, *store_);
    if (!resolved.ok()) {
        errors_.inc();
        completed_.inc();
        complete(resolved.error());
        return;
    }
    const SharedSequence genome = std::move(resolved).value();

    // Partition the requested interval — the whole genome unless the
    // caller restricted config.scanRange — into one contiguous slice
    // per worker. Worker i always owns slice i, so repeated requests
    // for one reference coalesce inside each worker as usual.
    const uint64_t n = genome->size();
    uint64_t base_begin = 0;
    uint64_t base_end = n;
    if (!options.config.scanRange.whole()) {
        base_begin = std::min<uint64_t>(options.config.scanRange.begin, n);
        base_end = std::min<uint64_t>(
            std::max(options.config.scanRange.end, base_begin), n);
    }
    const uint64_t span = base_end - base_begin;
    const size_t k = workers_.size();

    struct Slice
    {
        size_t worker;
        ScanRange range;
    };
    std::vector<Slice> slices;
    if (k == 1 || span == 0) {
        // Degenerate scatter: hand the caller's own range through
        // (whole-genome {0,0} included) so a 1-shard coordinator is
        // exactly a plain SearchService. Empty intervals stay with
        // worker 0 rather than minting a {b,b} range per shard, which
        // would collide with the {0,0}-means-whole convention at b=0.
        slices.push_back(Slice{0, options.config.scanRange});
    } else {
        // Balanced split: the first span % k slices get one extra
        // byte. Empty slices (k > span) are skipped — a shard with no
        // bases to own contributes nothing to the merge anyway.
        const uint64_t chunk = span / k;
        const uint64_t extra = span % k;
        uint64_t at = base_begin;
        for (size_t i = 0; i < k && at < base_end; ++i) {
            const uint64_t len = chunk + (i < extra ? 1 : 0);
            if (len == 0)
                continue;
            slices.push_back(Slice{i, ScanRange{at, at + len}});
            at += len;
        }
    }

    // Scatter: one sub-request per slice, same guides, same deadline,
    // scanRange narrowed to the slice. The ChunkedScanner re-reads the
    // seam overlap before each slice's begin, so boundary-straddling
    // sites land with (exactly) the shard whose slice owns their end.
    std::vector<std::future<Expected<SearchResult>>> futures;
    futures.reserve(slices.size());
    for (size_t i = 0; i < slices.size(); ++i) {
        RequestOptions sub = options;
        sub.genome = genome;
        sub.genomeRef = GenomeRef{};
        sub.config.scanRange = slices[i].range;
        subRequests_.inc();
        std::vector<Guide> sub_guides = i + 1 == slices.size()
                                            ? std::move(guides)
                                            : guides;
        futures.push_back(workers_[slices[i].worker]->trySubmit(
            std::move(sub_guides), std::move(sub)));
    }

    // Gather: a pool task joins the shard futures with the helping
    // wait (it executes other queued work — including its own shards'
    // chunk tasks — while blocked, so scatter-gather cannot deadlock
    // the pool, even single-core) and completes the caller's promise
    // with the merged result.
    struct GatherState
    {
        std::vector<std::future<Expected<SearchResult>>> futures;
        Completion complete;
    };
    auto state = std::make_shared<GatherState>();
    state->futures = std::move(futures);
    state->complete = std::move(complete);

    // The effective top-K for the merged ranking mirrors the workers'
    // request > service-default precedence: each worker applies its
    // service defaults to the sub-request it serves, so the gather
    // must truncate with the same K those shards ranked under.
    size_t top_k = options.config.topK;
    if (top_k == 0)
        top_k = options_.service.defaults.topK;

    // mayBlock: a gather waits on shard futures, so it must only run
    // on dedicated pool workers (or a coordinator-side opt-in wait) —
    // never inside a scan's helping loop, where it could wait on a
    // sub-request queued behind the very thread helping it along.
    common::TaskOptions gather_opts;
    gather_opts.mayBlock = true;
    std::future<void> gathered = common::Executor::shared().submit(
        [this, state, top_k] {
            Stopwatch timer;
            Expected<SearchResult> merged =
                [&]() -> Expected<SearchResult> {
                try {
                    std::vector<Expected<SearchResult>> results;
                    results.reserve(state->futures.size());
                    for (auto &fut : state->futures) {
                        common::Executor::shared().wait(fut);
                        results.push_back(fut.get());
                    }
                    return mergeShardResults(std::move(results), top_k);
                } catch (const std::exception &e) {
                    // A broken worker promise (teardown race) turns
                    // into an error result instead of a lost future.
                    return Error(ErrorCode::Internal, e.what());
                }
            }();
            gathers_.inc();
            gatherSeconds_.observe(timer.seconds());
            if (!merged.ok())
                errors_.inc();
            else if (merged.value().timedOut)
                partials_.inc();
            state->complete(std::move(merged));
            completed_.inc();
        },
        gather_opts);

    std::lock_guard<std::mutex> lock(mutex_);
    // Lazy prune keeps the list proportional to in-flight gathers.
    while (!gatherTasks_.empty() && futureReady(gatherTasks_.front()))
        gatherTasks_.pop_front();
    gatherTasks_.push_back(std::move(gathered));
}

Expected<SearchResult>
ShardedSearchService::mergeShardResults(
    std::vector<Expected<SearchResult>> shards, size_t top_k)
{
    CRISPR_ASSERT(!shards.empty());
    // First shard error (by shard index) wins, deterministically.
    for (const auto &shard : shards)
        if (!shard.ok())
            return Error(shard.error());

    SearchResult out = std::move(shards.front()).value();
    for (size_t i = 1; i < shards.size(); ++i) {
        SearchResult part = std::move(shards[i]).value();
        out.hits.insert(out.hits.end(), part.hits.begin(),
                        part.hits.end());
        out.ranked.insert(out.ranked.end(), part.ranked.begin(),
                          part.ranked.end());
        out.rankedMode = out.rankedMode || part.rankedMode;
        out.run.events.insert(out.run.events.end(),
                              part.run.events.begin(),
                              part.run.events.end());
        out.droppedEvents += part.droppedEvents;
        out.timedOut = out.timedOut || part.timedOut;

        EngineTiming &t = out.run.timing;
        const EngineTiming &p = part.run.timing;
        t.compileSeconds = std::max(t.compileSeconds, p.compileSeconds);
        t.hostSeconds = std::max(t.hostSeconds, p.hostSeconds);
        t.modelKernelSeconds =
            std::max(t.modelKernelSeconds, p.modelKernelSeconds);
        t.modelTotalSeconds =
            std::max(t.modelTotalSeconds, p.modelTotalSeconds);
        t.kernelSeconds = std::max(t.kernelSeconds, p.kernelSeconds);
        t.totalSeconds = std::max(t.totalSeconds, p.totalSeconds);

        for (const auto &[key, value] : part.run.metrics) {
            double &slot = out.run.metrics[key];
            slot = isAdditiveMetric(key) ? slot + value
                                         : std::max(slot, value);
        }
    }

    // Canonicalise. Both passes are idempotent, so a 1-shard merge
    // returns its worker's result unchanged — and an N-shard union of
    // disjoint emit intervals collapses to the single-pass output
    // bit-for-bit. Device-model engines scan the whole stream in
    // every shard; their N identical copies deduplicate right here.
    std::sort(out.hits.begin(), out.hits.end(),
              [](const OffTargetHit &a, const OffTargetHit &b) {
                  if (a.guide != b.guide)
                      return a.guide < b.guide;
                  if (a.start != b.start)
                      return a.start < b.start;
                  return a.strand < b.strand;
              });
    out.hits.erase(std::unique(out.hits.begin(), out.hits.end()),
                   out.hits.end());
    automata::normalizeEvents(out.run.events);

    // Scatter-gather top-K: the per-shard listings concatenate into a
    // superset of the global top-K (see the declaration comment);
    // re-sorting under the ranked total order, deduplicating the
    // device-model engines' repeated full-genome copies, and
    // re-truncating recovers the single-shard listing exactly.
    if (out.rankedMode) {
        std::sort(out.ranked.begin(), out.ranked.end(),
                  rankedHitBefore);
        out.ranked.erase(
            std::unique(out.ranked.begin(), out.ranked.end()),
            out.ranked.end());
        if (top_k > 0 && out.ranked.size() > top_k)
            out.ranked.resize(top_k);
    }

    auto &m = out.run.metrics;
    m["scan.events"] = static_cast<double>(out.run.events.size());
    m["search.hits"] = static_cast<double>(out.hits.size());
    if (out.rankedMode)
        m["search.ranked"] = static_cast<double>(out.ranked.size());
    m["search.timed_out"] = out.timedOut ? 1.0 : 0.0;
    if (out.droppedEvents > 0)
        m["events.dropped"] =
            static_cast<double>(out.droppedEvents);
    if (out.run.timing.hostSeconds > 0.0) {
        if (auto it = m.find("scan.bytes"); it != m.end())
            m["scan.bytes_per_sec"] =
                it->second / out.run.timing.hostSeconds;
        m["search.hits_per_sec"] =
            static_cast<double>(out.hits.size()) /
            out.run.timing.hostSeconds;
    }
    m["shard.count"] = static_cast<double>(shards.size());
    return out;
}

void
ShardedSearchService::waitGathersIdle()
{
    for (;;) {
        std::future<void> fut;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            while (!gatherTasks_.empty() &&
                   futureReady(gatherTasks_.front()))
                gatherTasks_.pop_front();
            if (gatherTasks_.empty())
                return;
            fut = std::move(gatherTasks_.front());
            gatherTasks_.pop_front();
        }
        // include_blocking: the coordinator may execute its own queued
        // gathers inline — nothing a gather waits on can be waiting on
        // this thread, because the workers were drained/flushed first.
        common::Executor::shared().wait(fut, /*include_blocking=*/true);
    }
}

size_t
ShardedSearchService::drain()
{
    const size_t before = completed_.value();
    for (auto &worker : workers_)
        worker->drain();
    waitGathersIdle();
    return completed_.value() - before;
}

void
ShardedSearchService::flush()
{
    for (auto &worker : workers_)
        worker->flush();
    waitGathersIdle();
}

ServiceHealth
ShardedSearchService::health() const
{
    ServiceHealth out;
    bool first = true;
    for (const auto &worker : workers_) {
        ServiceHealth h = worker->health();
        out.queueDepth += h.queueDepth;
        out.queuedBytes += h.queuedBytes;
        out.executingBatches += h.executingBatches;
        // The shards serve one request concurrently: the wait behind
        // the deepest worker dominates, not the sum.
        out.estWaitSeconds =
            std::max(out.estWaitSeconds, h.estWaitSeconds);
        out.pressured = out.pressured || h.pressured;
        out.accepting = out.accepting && h.accepting;
        if (first)
            out.breakers = std::move(h.breakers);
        first = false;
    }
    out.executorQueueDepth = common::Executor::shared().pendingCount();
    out.storeBytes = store_->bytes();
    out.storeMmapBytes = store_->mmapBytes();
    out.storeEntries = store_->entryCount();
    return out;
}

std::map<std::string, double>
ShardedSearchService::metricsSnapshot() const
{
    std::map<std::string, double> out = metrics_.toMap();
    // MetricsRegistry::mergeInto *assigns* over existing keys, so the
    // workers' service.* counters are folded by hand: counts sum,
    // histogram max/percentile keys take the max across workers.
    // (Breaker boards are per worker; read them via worker(i).)
    for (const auto &worker : workers_) {
        for (const auto &[key, value] : worker->metricsSnapshot()) {
            if (key.rfind("service.", 0) != 0)
                continue;
            const bool fold_max = key.size() > 4 &&
                                  (key.ends_with(".max") ||
                                   key.ends_with(".p50") ||
                                   key.ends_with(".p90") ||
                                   key.ends_with(".p99"));
            double &slot = out[key];
            slot = fold_max ? std::max(slot, value) : slot + value;
        }
    }
    store_->mergeMetricsInto(out);
    common::Executor::shared().mergeMetricsInto(out);
    return out;
}

} // namespace crispr::core
