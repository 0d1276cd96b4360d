#include "core/service.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "common/executor.hpp"
#include "common/logging.hpp"
#include "core/pattern_db.hpp"
#include "core/session.hpp"

namespace crispr::core {

using common::Deadline;
using common::Error;
using common::ErrorCode;
using common::Expected;

namespace {

/** Merged guides per scan; an oversized group splits into runs. */
constexpr size_t kMaxBatchGuides = 4096;

/**
 * The request > service-default > built-in precedence for the shared
 * execution layer: a request field still at its built-in default
 * inherits the service's value.
 */
void
applyDefaultExecution(ExecutionOptions &exec,
                      const ExecutionOptions &defaults)
{
    static const ExecutionOptions builtin;
    if (exec.threads == builtin.threads)
        exec.threads = defaults.threads;
    if (exec.simdTier == builtin.simdTier)
        exec.simdTier = defaults.simdTier;
    if (exec.executor == nullptr)
        exec.executor = defaults.executor;
    if (exec.chunkSize == builtin.chunkSize)
        exec.chunkSize = defaults.chunkSize;
    if (!exec.deadline.limited())
        exec.deadline = defaults.deadline;
    if (exec.scanRetries == builtin.scanRetries)
        exec.scanRetries = defaults.scanRetries;
    if (exec.trace == nullptr)
        exec.trace = defaults.trace;
    if (exec.scoreThreshold == builtin.scoreThreshold)
        exec.scoreThreshold = defaults.scoreThreshold;
    if (exec.topK == builtin.topK)
        exec.topK = defaults.topK;
}

/**
 * The genome a request names: `genome` when set, else `genomeRef`
 * loaded through `store` under the request's leniency and deadline.
 * InvalidArgument when the request names neither.
 */
Expected<SharedSequence>
resolveRequestGenome(const RequestOptions &options, GenomeStore &store)
{
    if (options.genome)
        return options.genome;
    if (options.genomeRef.empty())
        return Error(ErrorCode::InvalidArgument,
                     "request names no genome (set genome or "
                     "genomeRef)");
    return store.tryLoad(options.genomeRef, options.config.lenientFasta,
                         options.config.deadline);
}

} // namespace

SearchService::SearchService(ServiceOptions options,
                             std::shared_ptr<GenomeStore> store)
    : options_(options),
      store_(store ? std::move(store)
                   : std::make_shared<GenomeStore>()),
      requests_(metrics_.counter("service.requests")),
      batches_(metrics_.counter("service.batches")),
      coalesced_(metrics_.counter("service.coalesced")),
      batchSplits_(metrics_.counter("service.batch_splits")),
      expired_(metrics_.counter("service.expired")),
      partials_(metrics_.counter("service.partials")),
      rejected_(metrics_.counter("service.rejected")),
      shed_(metrics_.counter("service.shed")),
      batchSize_(metrics_.histogram("service.batch_size")),
      queueDepthGauge_(metrics_.gauge("service.queue_depth")),
      queuedBytesGauge_(metrics_.gauge("service.queued_bytes"))
{
    if (!options_.databaseDir.empty()) {
        // Pre-warm: pull every persisted compiled state into the
        // shared in-memory tier before the first request, so a
        // restarted service resumes serving without recompiling.
        auto db = PatternDatabase::open(options_.databaseDir);
        if (db.ok())
            metrics_.gauge("service.db_preloaded")
                .set(static_cast<double>(db.value()->preload()));
        else
            warn("service pattern database disabled: %s",
                 db.error().message().c_str());
    }
    if (options_.batchWindowSeconds >= 0.0)
        worker_ = std::thread([this] { loop(); });
}

SearchService::~SearchService()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    cv_.notify_all();
    if (worker_.joinable())
        worker_.join();
    // Serve whatever is still queued so no future is ever abandoned.
    drain();
}

std::future<SearchResult>
SearchService::submit(std::vector<Guide> guides, RequestOptions options)
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
SearchService::trySubmit(std::vector<Guide> guides,
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

std::vector<SearchService::Pending>
SearchService::takeQueueLocked()
{
    std::vector<Pending> pending;
    pending.swap(queue_);
    queuedBytes_ = 0;
    queueDepthGauge_.set(0.0);
    queuedBytesGauge_.set(0.0);
    return pending;
}

void
SearchService::enqueue(std::vector<Guide> guides,
                       RequestOptions options, Completion complete)
{
    requests_.inc();
    // A guide set no engine can compile is refused here, before it can
    // join a batch and fail the merged compile for its batchmates.
    if (auto valid = validateGuideSet(guides, options.config.maxMismatches);
        !valid.ok()) {
        complete(valid.error());
        return;
    }

    applyDefaultExecution(options.config.execution(),
                          options_.defaults);

    auto genome = resolveRequestGenome(options, *store_);
    if (!genome.ok()) {
        complete(genome.error());
        return;
    }

    Pending pending;
    pending.guides = std::move(guides);
    pending.genome = std::move(genome).value();
    pending.config = options.config;
    if (pending.config.databaseDir.empty())
        pending.config.databaseDir = options_.databaseDir;
    pending.complete = std::move(complete);
    pending.arrival = std::chrono::steady_clock::now();
    pending.bytes = pending.genome->size();

    // Decide admission under the lock; run completions (shed victims
    // or the rejected arrival) after releasing it, so a completion
    // callback can never deadlock back into the service.
    std::vector<Pending> evicted;
    bool reject = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const bool over_requests =
            options_.maxQueueRequests > 0 &&
            queue_.size() >= options_.maxQueueRequests;
        const bool over_bytes =
            options_.maxQueueBytes > 0 && !queue_.empty() &&
            queuedBytes_ + pending.bytes > options_.maxQueueBytes;
        if (over_requests || over_bytes) {
            if (options_.admissionPolicy ==
                AdmissionPolicy::RejectNew) {
                reject = true;
            } else {
                // DropOldest: shed from the front until the arrival
                // fits (an arrival bigger than the whole byte budget
                // sheds everything, then queues alone).
                while (!queue_.empty() &&
                       ((options_.maxQueueRequests > 0 &&
                         queue_.size() >=
                             options_.maxQueueRequests) ||
                        (options_.maxQueueBytes > 0 &&
                         queuedBytes_ + pending.bytes >
                             options_.maxQueueBytes))) {
                    Pending victim = std::move(queue_.front());
                    queue_.erase(queue_.begin());
                    queuedBytes_ -= victim.bytes;
                    shed_.inc();
                    evicted.push_back(std::move(victim));
                }
            }
        }

        if (!reject) {
            queuedBytes_ += pending.bytes;
            queue_.push_back(std::move(pending));
            queueDepthGauge_.set(
                static_cast<double>(queue_.size()));
            queuedBytesGauge_.set(
                static_cast<double>(queuedBytes_));
        } else {
            rejected_.inc();
        }
    }

    for (Pending &victim : evicted)
        victim.complete(
            Error(ErrorCode::Overloaded,
                  "request shed by admission control (drop-oldest)")
                .withContext("policy", "drop-oldest"));
    if (reject) {
        pending.complete(
            Error(ErrorCode::Overloaded, "admission queue full")
                .withContext("policy", "reject-new"));
        return;
    }
    cv_.notify_all();
}

size_t
SearchService::drain()
{
    std::vector<Pending> pending;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        pending = takeQueueLocked();
        ++executing_;
    }
    const size_t count = pending.size();
    dispatch(std::move(pending));
    {
        std::lock_guard<std::mutex> lock(mutex_);
        --executing_;
    }
    idleCv_.notify_all();
    return count;
}

void
SearchService::flush()
{
    if (options_.batchWindowSeconds < 0.0) {
        // Manual mode: the caller's thread is the only dispatcher.
        drain();
        return;
    }
    std::unique_lock<std::mutex> lock(mutex_);
    flushRequested_ = true;
    cv_.notify_all();
    idleCv_.wait(lock,
                 [this] { return queue_.empty() && executing_ == 0; });
    flushRequested_ = false;
}

void
SearchService::loop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    while (true) {
        cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
        if (stop_)
            return; // the destructor drains the remainder
        // Hold the window open for ride-alongs, unless the batch
        // fills or a flush cuts it short.
        const auto due =
            queue_.front().arrival +
            std::chrono::duration_cast<
                std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(
                    options_.batchWindowSeconds));
        while (!stop_ && !flushRequested_ &&
               queue_.size() < options_.maxBatchRequests &&
               std::chrono::steady_clock::now() < due)
            cv_.wait_until(lock, due);
        if (stop_)
            return;
        std::vector<Pending> pending = takeQueueLocked();
        ++executing_;
        lock.unlock();
        dispatch(std::move(pending));
        lock.lock();
        --executing_;
        idleCv_.notify_all();
    }
}

std::string
SearchService::coalescingKey(const Pending &request)
{
    std::ostringstream key;
    key << static_cast<const void *>(request.genome.get()) << '|'
        << request.guides.front().protospacer.size() << '|'
        << static_cast<int>(request.config.engine);
    for (EngineKind kind : request.config.fallbacks)
        key << ',' << static_cast<int>(kind);
    key << '|' << compileOptionsKey(request.config.compile());
    return key.str();
}

void
SearchService::dispatch(std::vector<Pending> pending)
{
    if (pending.empty())
        return;
    // Group by coalescing key, preserving arrival order inside each
    // group (demux relies on stable member order, and FIFO fairness is
    // what a caller expects).
    std::vector<std::pair<std::string, std::vector<Pending>>> groups;
    for (Pending &request : pending) {
        std::string key = coalescingKey(request);
        auto it = std::find_if(groups.begin(), groups.end(),
                               [&](const auto &group) {
                                   return group.first == key;
                               });
        if (it == groups.end())
            it = groups.emplace(groups.end(), std::move(key),
                                std::vector<Pending>{});
        it->second.push_back(std::move(request));
    }
    if (groups.size() == 1) {
        executeGroup(std::move(groups.front().second));
        return;
    }
    // Incompatible groups are independent merged passes: run them as
    // tasks on the process-wide pool (sharing workers with the chunk
    // fan-out inside each scan) instead of serially on the
    // dispatcher. The dispatcher helps execute pool tasks while it
    // waits, so a saturated pool still makes progress.
    common::Executor &exec = common::Executor::shared();
    std::vector<std::future<void>> futures;
    futures.reserve(groups.size());
    for (auto &group : groups) {
        auto members = std::make_shared<std::vector<Pending>>(
            std::move(group.second));
        futures.push_back(exec.submit(
            [this, members] { executeGroup(std::move(*members)); }));
    }
    for (auto &fut : futures) {
        exec.wait(fut);
        fut.get();
    }
}

void
SearchService::executeGroup(std::vector<Pending> group)
{
    // Requests already past their deadline complete immediately —
    // empty, timed out — without costing the batch a scan.
    std::vector<Pending> live;
    live.reserve(group.size());
    for (Pending &member : group) {
        if (member.config.deadline.expired()) {
            expired_.inc();
            finish(member, expiredResult(member));
        } else {
            live.push_back(std::move(member));
        }
    }
    if (live.empty())
        return;

    // Respect the merged-guide cap by slicing the group into
    // consecutive runs; each run is still one genome pass.
    std::vector<Pending> run;
    size_t run_guides = 0;
    for (Pending &member : live) {
        const size_t n = member.guides.size();
        if (!run.empty() &&
            run_guides + n > kMaxBatchGuides) {
            executeMerged(std::move(run));
            run.clear();
            run_guides = 0;
        }
        run_guides += n;
        run.push_back(std::move(member));
    }
    if (!run.empty())
        executeMerged(std::move(run));
}

common::Deadline
SearchService::combinedDeadline(const std::vector<Pending> &members)
{
    // The batch scans under the most permissive member deadline: any
    // unlimited member makes the batch unlimited. Members that expire
    // mid-scan are flagged at demux, not enforced mid-batch.
    double max_remaining = 0.0;
    for (const Pending &member : members) {
        const double remaining =
            member.config.deadline.remainingSeconds();
        if (std::isinf(remaining))
            return Deadline();
        max_remaining = std::max(max_remaining, remaining);
    }
    return Deadline::after(max_remaining);
}

SearchResult
SearchService::expiredResult(const Pending &member)
{
    SearchResult result;
    result.run.kind = member.config.engine;
    result.run.notes = "deadline expired before batch dispatch";
    result.run.metrics["scan.bytes"] = 0.0;
    result.run.metrics["scan.events"] = 0.0;
    result.run.metrics["search.hits"] = 0.0;
    result.run.metrics["search.timed_out"] =
        member.config.deadline.timedOut() ? 1.0 : 0.0;
    result.run.metrics["search.cancelled"] =
        member.config.deadline.cancelled() ? 1.0 : 0.0;
    result.timedOut = true;
    // A ranked request stays a ranked request even when it never
    // dispatched: the (empty) listing keeps its mode flag.
    result.rankedMode = member.config.rankedRequested();
    return result;
}

SearchResult
SearchService::demux(const SearchResult &batch, size_t offset,
                     size_t count, size_t batch_requests,
                     size_t batch_guides)
{
    const uint32_t lo = static_cast<uint32_t>(offset);
    const uint32_t hi = static_cast<uint32_t>(offset + count);

    SearchResult out;
    out.patterns.guideLength = batch.patterns.guideLength;
    out.patterns.pamLength = batch.patterns.pamLength;
    out.patterns.orientation = batch.patterns.orientation;
    out.patterns.maxMismatches = batch.patterns.maxMismatches;
    out.patterns.scoreWeights = batch.patterns.scoreWeights;

    // Slice the merged pattern set down to this member's guides,
    // re-indexing both the patterns and the events that name them.
    std::vector<int64_t> pattern_map(batch.patterns.patterns.size(),
                                     -1);
    for (size_t i = 0; i < batch.patterns.patterns.size(); ++i) {
        const Pattern &pattern = batch.patterns.patterns[i];
        if (pattern.guideIndex < lo || pattern.guideIndex >= hi)
            continue;
        pattern_map[i] =
            static_cast<int64_t>(out.patterns.patterns.size());
        Pattern local = pattern;
        local.guideIndex -= lo;
        out.patterns.patterns.push_back(std::move(local));
    }

    out.run.kind = batch.run.kind;
    out.run.timing = batch.run.timing;
    out.run.notes = batch.run.notes;
    for (const automata::ReportEvent &event : batch.run.events) {
        if (event.reportId >= pattern_map.size() ||
            pattern_map[event.reportId] < 0)
            continue;
        automata::ReportEvent local = event;
        local.reportId =
            static_cast<uint32_t>(pattern_map[event.reportId]);
        out.run.events.push_back(local);
    }

    for (const OffTargetHit &hit : batch.hits) {
        if (hit.guide < lo || hit.guide >= hi)
            continue;
        OffTargetHit local = hit;
        local.guide -= lo;
        out.hits.push_back(local);
    }

    // Batch-wide figures (scan bytes/seconds, dropped events) are
    // shared by every member; the per-request keys are re-derived.
    out.droppedEvents = batch.droppedEvents;
    out.timedOut = batch.timedOut;
    out.run.metrics = batch.run.metrics;
    out.run.metrics["search.hits"] =
        static_cast<double>(out.hits.size());
    out.run.metrics["scan.events"] =
        static_cast<double>(out.run.events.size());
    if (batch.run.timing.hostSeconds > 0.0)
        out.run.metrics["search.hits_per_sec"] =
            static_cast<double>(out.hits.size()) /
            batch.run.timing.hostSeconds;
    out.run.metrics["service.batch_requests"] =
        static_cast<double>(batch_requests);
    out.run.metrics["service.batch_guides"] =
        static_cast<double>(batch_guides);
    out.run.metrics["service.coalesced"] =
        batch_requests > 1 ? 1.0 : 0.0;
    return out;
}

void
SearchService::executeMerged(std::vector<Pending> members)
{
    batches_.inc();
    batchSize_.observe(static_cast<double>(members.size()));

    // One merged guide list; member i owns [offsets[i],
    // offsets[i] + members[i].guides.size()).
    std::vector<Guide> merged;
    std::vector<size_t> offsets;
    offsets.reserve(members.size());
    for (const Pending &member : members) {
        offsets.push_back(merged.size());
        merged.insert(merged.end(), member.guides.begin(),
                      member.guides.end());
    }

    // The batch adopts the earliest member's runtime options; only the
    // deadline is composed across members. Ranked knobs are per-member
    // result shaping, not batch execution: a member's topK must select
    // against *its* guides, not the merged set, so the batch scans
    // unranked and each member's ranked listing is derived after demux.
    SearchConfig config = members.front().config;
    config.deadline = members.size() > 1
                          ? combinedDeadline(members)
                          : members.front().config.deadline;
    config.topK = 0;
    config.scoreThreshold = 0.0;

    SearchSession session(merged, config);
    Expected<SearchResult> result =
        session.trySearch(*members.front().genome);

    if (!result.ok()) {
        // The merged run failed (compile or scan, all fallbacks
        // exhausted): degrade to per-request serial execution so one
        // member's failure cannot poison its batchmates.
        batchSplits_.inc();
        for (Pending &member : members)
            executeSingle(std::move(member));
        return;
    }

    // Counted only when the merged pass actually served: a split batch
    // coalesced nothing.
    if (members.size() > 1)
        coalesced_.inc(members.size());

    const SearchResult &batch = result.value();
    for (size_t i = 0; i < members.size(); ++i) {
        SearchResult member_result =
            demux(batch, offsets[i], members[i].guides.size(),
                  members.size(), merged.size());
        if (members[i].config.deadline.expired())
            member_result.timedOut = true;
        member_result.run.metrics["search.timed_out"] =
            member_result.timedOut ? 1.0 : 0.0;
        if (members[i].config.rankedRequested()) {
            member_result.rankedMode = true;
            member_result.ranked =
                rankHits(member_result.hits,
                         members[i].config.scoreThreshold,
                         members[i].config.topK);
            member_result.run.metrics["search.ranked"] =
                static_cast<double>(member_result.ranked.size());
        }
        finish(members[i], std::move(member_result));
    }
}

void
SearchService::executeSingle(Pending member)
{
    if (member.config.deadline.expired()) {
        expired_.inc();
        finish(member, expiredResult(member));
        return;
    }
    SearchSession session(member.guides, member.config);
    Expected<SearchResult> result =
        session.trySearch(*member.genome);
    if (result.ok()) {
        SearchResult &single = result.value();
        single.run.metrics["service.batch_requests"] = 1.0;
        single.run.metrics["service.batch_guides"] =
            static_cast<double>(member.guides.size());
        single.run.metrics["service.coalesced"] = 0.0;
    }
    finish(member, std::move(result));
}

void
SearchService::finish(Pending &member, Expected<SearchResult> result)
{
    if (result.ok() && result.value().timedOut)
        partials_.inc();
    member.complete(std::move(result));
}

ServiceHealth
SearchService::health() const
{
    ServiceHealth out;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        out.queueDepth = queue_.size();
        out.queuedBytes = queuedBytes_;
        out.executingBatches = executing_;
        out.accepting =
            (options_.maxQueueRequests == 0 ||
             queue_.size() < options_.maxQueueRequests) &&
            (options_.maxQueueBytes == 0 ||
             queuedBytes_ < options_.maxQueueBytes);
    }
    out.executorQueueDepth =
        common::Executor::shared().pendingCount();
    out.storeBytes = store_->bytes();
    out.storeEntries = store_->entryCount();
    return out;
}

std::map<std::string, double>
SearchService::metricsSnapshot() const
{
    std::map<std::string, double> out = metrics_.toMap();
    store_->mergeMetricsInto(out);
    // The serving view includes the execution layer it schedules on:
    // executor.tasks/steals/queue_depth/wait_seconds are process-wide.
    common::Executor::shared().mergeMetricsInto(out);
    return out;
}

} // namespace crispr::core
