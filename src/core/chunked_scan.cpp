#include "core/chunked_scan.hpp"

#include <algorithm>
#include <deque>
#include <future>
#include <mutex>
#include <thread>

#include "common/faultpoints.hpp"
#include "common/logging.hpp"
#include "common/stopwatch.hpp"
#include "genome/chunking.hpp"

namespace crispr::core {

using automata::ReportEvent;
using common::Error;
using common::ErrorCode;

namespace {

/** Translate an in-flight exception into a typed scan error. */
Error
scanError(std::exception_ptr ep, const char *engine_name)
{
    try {
        std::rethrow_exception(ep);
    } catch (const common::ErrorException &e) {
        return e.error();
    } catch (const FatalError &e) {
        return Error(ErrorCode::ScanFailed, e.what())
            .withContext("engine", engine_name);
    }
    // PanicError and friends are library bugs: let them propagate.
}

/** Sleep before retry `attempt` (0-based): 1 ms doubling, capped. */
void
backoffSleep(unsigned attempt)
{
    double seconds = 0.001;
    for (unsigned i = 0; i < attempt; ++i)
        seconds *= 2.0;
    std::this_thread::sleep_for(
        std::chrono::duration<double>(std::min(seconds, 0.050)));
}

} // namespace

common::Status
ChunkedScanner::validate(
    const Engine &engine,
    const std::shared_ptr<const CompiledPattern> &compiled,
    const ChunkedScanOptions &options)
{
    if (!engine.supportsChunkedScan())
        return Error(ErrorCode::UnsupportedEngine,
                     strprintf("engine %s does not support chunked "
                               "scanning (device-model engines need "
                               "the whole stream)",
                               engine.name()))
            .withContext("engine", engine.name());
    if (!compiled || compiled->kind != engine.kind())
        return Error(ErrorCode::InvalidArgument,
                     strprintf("ChunkedScanner needs a pattern "
                               "compiled for engine %s",
                               engine.name()))
            .withContext("engine", engine.name());
    size_t max_len = 0;
    for (const Pattern &p : compiled->set->patterns)
        max_len = std::max(max_len, p.spec.masks.size());
    const size_t overlap = max_len > 0 ? max_len - 1 : 0;
    if (options.chunkSize <= overlap)
        return Error(ErrorCode::InvalidArgument,
                     strprintf("scan chunk size (%zu) must exceed the "
                               "pattern length",
                               options.chunkSize));
    return {};
}

ChunkedScanner::ChunkedScanner(
    const Engine &engine,
    std::shared_ptr<const CompiledPattern> compiled,
    const ChunkedScanOptions &options)
    : engine_(engine), compiled_(std::move(compiled)), options_(options)
{
    validate(engine_, compiled_, options_).throwIfError();
    size_t max_len = 0;
    for (const Pattern &p : compiled_->set->patterns)
        max_len = std::max(max_len, p.spec.masks.size());
    overlap_ = max_len > 0 ? max_len - 1 : 0;
}

std::vector<ReportEvent>
ChunkedScanner::scanChunkLocal(std::span<const uint8_t> window,
                               size_t emit_offset,
                               std::atomic<uint64_t> &retries,
                               common::Histogram chunk_latency) const
{
    for (unsigned attempt = 0;; ++attempt) {
        try {
            common::TraceSpan span(options_.trace, "chunk.scan");
            if (common::faultpoints::shouldFail("chunk.scan"))
                throw common::ErrorException(
                    Error(ErrorCode::FaultInjected,
                          "injected chunk.scan fault")
                        .withContext("engine", engine_.name()));
            Stopwatch chunk_timer;
            ScanOptions scan_options;
            scan_options.simdTier = options_.simdTier;
            EngineRun run = engine_.scan(*compiled_, SequenceView(window),
                                         scan_options);
            chunk_latency.observe(chunk_timer.seconds());
            std::vector<ReportEvent> kept;
            kept.reserve(run.events.size());
            for (const ReportEvent &ev : run.events)
                if (ev.end >= emit_offset)
                    kept.push_back(ev);
            return kept;
        } catch (const FatalError &) {
            // Transient per-chunk failure: retry within the budget.
            if (attempt >= options_.scanRetries)
                throw;
            retries.fetch_add(1, std::memory_order_relaxed);
            backoffSleep(attempt);
        }
    }
}

EngineRun
ChunkedScanner::makeRun(
    std::vector<ReportEvent> events, size_t chunks, unsigned threads,
    double wall_seconds, uint64_t bytes,
    const common::MetricsRegistry &scan_metrics) const
{
    EngineRun run;
    run.kind = engine_.kind();
    run.events = std::move(events);
    automata::normalizeEvents(run.events);
    run.timing.compileSeconds = compiled_->compileSeconds;
    run.timing.hostSeconds = wall_seconds;
    run.timing.kernelSeconds = wall_seconds;
    run.timing.totalSeconds = wall_seconds;
    run.metrics = compiled_->metrics;
    scan_metrics.mergeInto(run.metrics);
    run.metrics["scan.chunks"] = static_cast<double>(chunks);
    run.metrics["scan.threads"] = static_cast<double>(threads);
    run.metrics["scan.bytes"] = static_cast<double>(bytes);
    run.metrics["scan.events"] =
        static_cast<double>(run.events.size());
    if (wall_seconds > 0.0)
        run.metrics["scan.bytes_per_sec"] =
            static_cast<double>(bytes) / wall_seconds;
    run.metrics.emplace("events.dropped", 0.0);
    return run;
}

common::Expected<EngineRun>
ChunkedScanner::tryScan(const genome::Sequence &seq) const
{
    Stopwatch timer;
    const auto plan =
        genome::planScanChunks(seq.size(), options_.chunkSize, overlap_);
    const unsigned threads = genome::resolveThreads(options_.threads);

    common::MetricsRegistry scan_metrics;
    common::Histogram chunk_latency =
        scan_metrics.histogram("scan.chunk_seconds");
    const unsigned lanes =
        plan.empty() ? 1
                     : static_cast<unsigned>(
                           std::min<size_t>(threads, plan.size()));
    std::vector<std::vector<ReportEvent>> lane_events(lanes);
    std::atomic<size_t> done{0};
    std::atomic<uint64_t> retries{0};
    std::atomic<bool> expired{false};
    std::atomic<bool> failed{false};
    std::exception_ptr first_error;
    std::mutex error_mutex;

    auto body = [&](size_t w, unsigned lane) {
        if (failed.load(std::memory_order_relaxed))
            return false;
        if (options_.deadline.expired()) {
            expired.store(true, std::memory_order_relaxed);
            return false;
        }
        const genome::ScanChunk &c = plan[w];
        try {
            auto kept = scanChunkLocal(
                std::span<const uint8_t>(seq.data() + c.leadFrom,
                                         c.end - c.leadFrom),
                c.emitFrom - c.leadFrom, retries, chunk_latency);
            std::vector<ReportEvent> &local = lane_events[lane];
            for (const ReportEvent &ev : kept)
                local.push_back(
                    ReportEvent{ev.reportId, ev.end + c.leadFrom});
            done.fetch_add(1, std::memory_order_relaxed);
        } catch (...) {
            std::lock_guard<std::mutex> lock(error_mutex);
            if (!first_error)
                first_error = std::current_exception();
            failed.store(true, std::memory_order_relaxed);
            return false;
        }
        return true;
    };

    if (lanes <= 1) {
        // Serial bypass: threads == 1 never touches the pool, so the
        // paper's single-core measurements stay executor-free.
        for (size_t w = 0; w < plan.size(); ++w)
            if (!body(w, 0))
                break;
    } else {
        common::Executor &exec = options_.executor
                                     ? *options_.executor
                                     : common::Executor::shared();
        exec.forIndices(
            plan.size(), lanes,
            common::TaskOptions{options_.deadline, options_.trace},
            body);
    }
    if (first_error)
        return scanError(first_error, engine_.name());

    std::vector<ReportEvent> events;
    for (std::vector<ReportEvent> &local : lane_events)
        events.insert(events.end(), local.begin(), local.end());

    EngineRun run = makeRun(std::move(events), plan.size(), threads,
                            timer.seconds(), seq.size(), scan_metrics);
    const size_t scanned = done.load();
    run.metrics["scan.chunks_skipped"] =
        static_cast<double>(plan.size() - scanned);
    run.metrics["scan.retries"] = static_cast<double>(retries.load());
    // A scan that stopped early distinguishes why: cancellation is not
    // a timeout (a Deadline can be both manual and timed).
    run.metrics["search.timed_out"] =
        expired.load() && options_.deadline.timedOut() ? 1.0 : 0.0;
    run.metrics["search.cancelled"] =
        expired.load() && options_.deadline.cancelled() ? 1.0 : 0.0;
    return run;
}

common::Expected<EngineRun>
ChunkedScanner::tryScanStream(genome::FastaStreamReader &reader,
                              const ChunkObserver &observer) const
{
    Stopwatch timer;
    const unsigned threads = genome::resolveThreads(options_.threads);
    common::Executor &exec = options_.executor
                                 ? *options_.executor
                                 : common::Executor::shared();
    // threads == 1 defers every chunk inline, off the pool.
    const bool pooled = threads > 1;

    common::MetricsRegistry scan_metrics;
    common::Histogram chunk_latency =
        scan_metrics.histogram("scan.chunk_seconds");

    struct Pending
    {
        std::shared_ptr<genome::Sequence> buffer;
        uint64_t bufferStart;
        std::future<std::vector<ReportEvent>> events;
    };
    std::deque<Pending> in_flight;
    std::vector<ReportEvent> events;
    std::atomic<uint64_t> retries{0};
    size_t chunks = 0;
    bool expired = false;
    bool failed = false;
    Error error;

    auto drain_one = [&] {
        Pending p = std::move(in_flight.front());
        in_flight.pop_front();
        std::vector<ReportEvent> local;
        try {
            if (pooled)
                exec.wait(p.events); // help: no parked pool worker
            local = p.events.get();
        } catch (...) {
            error = scanError(std::current_exception(),
                              engine_.name());
            failed = true;
            return;
        }
        if (observer)
            observer(ChunkScanView{*p.buffer, p.bufferStart, local});
        for (const ReportEvent &ev : local)
            events.push_back(
                ReportEvent{ev.reportId, ev.end + p.bufferStart});
    };

    std::vector<uint8_t> carry;
    std::vector<uint8_t> incoming;
    uint64_t offset = 0; // global offset of the next decoded code
    while (!failed) {
        if (options_.deadline.expired()) {
            expired = true;
            break;
        }
        common::TraceSpan parse_span(options_.trace, "parse");
        auto more = reader.tryNext(options_.chunkSize, incoming);
        parse_span.finish();
        if (!more.ok()) {
            error = more.error();
            failed = true;
            break;
        }
        if (!more.value())
            break;
        auto buffer = std::make_shared<genome::Sequence>();
        {
            std::vector<uint8_t> codes;
            codes.reserve(carry.size() + incoming.size());
            codes.insert(codes.end(), carry.begin(), carry.end());
            codes.insert(codes.end(), incoming.begin(),
                         incoming.end());
            *buffer = genome::Sequence(std::move(codes));
        }
        const uint64_t buffer_start = offset - carry.size();
        const size_t emit_offset = carry.size();
        offset += incoming.size();

        // Refresh the carry from the buffer's tail for the next chunk.
        const size_t keep = std::min(overlap_, buffer->size());
        carry.assign(buffer->data() + (buffer->size() - keep),
                     buffer->data() + buffer->size());

        auto task = [this, buffer, emit_offset, &retries,
                     chunk_latency] {
            return scanChunkLocal(
                std::span<const uint8_t>(buffer->data(),
                                         buffer->size()),
                emit_offset, retries, chunk_latency);
        };
        in_flight.push_back(Pending{
            buffer, buffer_start,
            pooled ? exec.submit(task,
                                 common::TaskOptions{
                                     {}, options_.trace})
                   : std::async(std::launch::deferred, task)});
        ++chunks;
        while (!failed && in_flight.size() >= std::max(1u, threads))
            drain_one();
    }
    while (!failed && !in_flight.empty())
        drain_one();
    // Join any scans still in flight after a failure before the
    // capturing lambdas go out of scope (pool futures do not block in
    // their destructors — wait for them explicitly).
    while (!in_flight.empty()) {
        Pending p = std::move(in_flight.front());
        in_flight.pop_front();
        try {
            if (pooled)
                exec.wait(p.events);
            p.events.get();
        } catch (...) {
            // Already failed; the first error wins.
        }
    }
    if (failed)
        return error;

    EngineRun run = makeRun(std::move(events), chunks, threads,
                            timer.seconds(), offset, scan_metrics);
    run.metrics["scan.retries"] = static_cast<double>(retries.load());
    run.metrics["search.timed_out"] =
        expired && options_.deadline.timedOut() ? 1.0 : 0.0;
    run.metrics["search.cancelled"] =
        expired && options_.deadline.cancelled() ? 1.0 : 0.0;
    return run;
}

EngineRun
ChunkedScanner::scan(const genome::Sequence &seq) const
{
    return tryScan(seq).valueOrThrow();
}

EngineRun
ChunkedScanner::scanStream(genome::FastaStreamReader &reader,
                           const ChunkObserver &observer) const
{
    return tryScanStream(reader, observer).valueOrThrow();
}

} // namespace crispr::core
