#include "core/session.hpp"

#include <algorithm>
#include <sstream>

#include "common/faultpoints.hpp"
#include "common/logging.hpp"
#include "common/stopwatch.hpp"
#include "core/engine_auto.hpp"
#include "core/engine_registry.hpp"
#include "core/pattern_db.hpp"
#include "genome/fasta_stream.hpp"

namespace crispr::core {

using common::Error;
using common::ErrorCode;

namespace {

std::string
joinEngineNames(const std::vector<EngineKind> &kinds)
{
    std::string out;
    for (EngineKind kind : kinds) {
        if (!out.empty())
            out += ',';
        out += engineName(kind);
    }
    return out;
}

ChunkedScanOptions
chunkOptions(const SearchConfig &config)
{
    // ChunkedScanOptions *is* the shared ExecutionOptions layer that
    // RuntimeOptions inherits, so the handoff is one slice-assign —
    // no per-field copy to fall out of date when a knob is added.
    ChunkedScanOptions opts;
    static_cast<ExecutionOptions &>(opts) = config.execution();
    return opts;
}

} // namespace

SearchSession::SearchSession(std::vector<Guide> guides,
                             SearchConfig config, size_t cache_capacity)
    : guides_(std::move(guides)), config_(std::move(config)),
      capacity_(std::max<size_t>(1, cache_capacity)),
      compiles_(metrics_.counter("session.compiles")),
      cacheHits_(metrics_.counter("session.cache_hits")),
      dbHits_(metrics_.counter("session.db_hits")),
      dbMisses_(metrics_.counter("session.db_misses")),
      dbStoreFailures_(metrics_.counter("session.db_store_failures"))
{
}

std::string
SearchSession::cacheKey(const CompileOptions &options,
                        const Engine &engine) const
{
    return std::string(engine.name()) + '|' +
           compileOptionsKey(options);
}

std::string
SearchSession::databaseKey(const CompileOptions &options,
                           const Engine &engine) const
{
    return cacheKey(options, engine) + '|' +
           strprintf("%016llx", static_cast<unsigned long long>(
                                    guideSetDigest(guides_)));
}

std::vector<EngineKind>
SearchSession::engineChain(const SearchConfig &config) const
{
    std::vector<EngineKind> chain;
    auto push = [&chain](EngineKind kind) {
        if (std::find(chain.begin(), chain.end(), kind) == chain.end())
            chain.push_back(kind);
    };
    auto expand = [&](EngineKind kind, bool count_choice) {
        if (kind != EngineKind::Auto) {
            push(kind);
            return;
        }
        WorkloadShape shape;
        shape.guideCount = guides_.size();
        shape.guideLength =
            guides_.empty() ? 0 : guides_.front().protospacer.size();
        shape.pamLength = config.pam.size();
        shape.maxMismatches = config.maxMismatches;
        shape.bothStrands = config.bothStrands;
        const std::vector<EngineKind> ranked = autoEngineRanking(
            shape, config.params.hscanOpts.maxDfaStates);
        if (count_choice)
            metrics_
                .counter(std::string("session.engine_auto.") +
                         engineName(ranked.front()))
                .inc();
        for (EngineKind r : ranked)
            push(r);
    };
    expand(config.engine, /*count_choice=*/true);
    for (EngineKind kind : config.fallbacks)
        expand(kind, /*count_choice=*/false);
    return chain;
}

common::Expected<std::shared_ptr<const CompiledPattern>>
SearchSession::compiledFor(const SearchConfig &config,
                           const Engine &engine)
{
    const std::string key = cacheKey(config.compile(), engine);
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto it = cache_.begin(); it != cache_.end(); ++it) {
        if (it->first == key) {
            cache_.splice(cache_.begin(), cache_, it);
            cacheHits_.inc();
            return cache_.front().second;
        }
    }
    if (common::faultpoints::shouldFail("session.compile"))
        return Error(ErrorCode::FaultInjected,
                     "injected session.compile fault")
            .withContext("engine", engine.name());
    common::TraceSpan pattern_span(config.trace, "pattern.compile");
    auto set =
        tryBuildPatternSet(guides_, config.pam, config.maxMismatches,
                           config.bothStrands,
                           engine.requiredOrientation());
    pattern_span.finish();
    if (!set.ok())
        return set.error();

    // Disk tier: a serialized compiled state loads in milliseconds
    // where subset construction takes seconds. A blob that fails any
    // integrity check is a miss, never an error — the compile below
    // overwrites it.
    std::shared_ptr<PatternDatabase> db;
    std::string db_key;
    if (!config.compile().databaseDir.empty() &&
        engine.supportsSerialization()) {
        auto opened = PatternDatabase::open(config.compile().databaseDir);
        if (!opened.ok()) {
            warn("pattern database disabled: %s",
                 opened.error().message().c_str());
        } else {
            db = std::move(opened).value();
            db_key = databaseKey(config.compile(), engine);
            if (auto blob = db->load(db_key)) {
                Stopwatch load_timer;
                auto loaded = engine.deserializeState(
                    set.value(), config.params, *blob);
                if (loaded.ok()) {
                    dbHits_.inc();
                    metrics_.histogram("session.db_load_seconds")
                        .observe(load_timer.seconds());
                    auto compiled =
                        std::make_shared<const CompiledPattern>(
                            std::move(loaded).value());
                    cache_.emplace_front(key, compiled);
                    while (cache_.size() > capacity_)
                        cache_.pop_back();
                    return compiled;
                }
                warn("stale pattern database entry recompiled: %s",
                     loaded.error().message().c_str());
            }
            dbMisses_.inc();
        }
    }

    common::TraceSpan compile_span(config.trace, "engine.compile");
    auto built = engine.tryCompile(std::move(set).value(),
                                   config.params);
    compile_span.finish();
    if (!built.ok())
        return built.error();
    auto compiled = std::make_shared<const CompiledPattern>(
        std::move(built).value());
    compiles_.inc();
    if (db) {
        auto blob = engine.serializeState(*compiled);
        if (blob.ok()) {
            if (auto st = db->store(db_key, blob.value()); !st.ok()) {
                // Unwritable/full databaseDir degrades to in-memory
                // operation; the search itself must never fail here.
                dbStoreFailures_.inc();
                warn("pattern database store failed (continuing "
                     "in-memory): %s",
                     st.error().message().c_str());
            }
        }
    }
    cache_.emplace_front(key, compiled);
    while (cache_.size() > capacity_)
        cache_.pop_back();
    return compiled;
}

void
SearchSession::recordEngineFailure(const char *name)
{
    metrics_.counter(std::string("session.failures.") + name).inc();
}

namespace {

common::Expected<EngineRun>
scanWith(const Engine &engine,
         const std::shared_ptr<const CompiledPattern> &compiled,
         const genome::Sequence &genome_seq, const SearchConfig &config)
{
    if (common::faultpoints::shouldFail("engine.scan"))
        return Error(ErrorCode::FaultInjected,
                     "injected engine.scan fault")
            .withContext("engine", engine.name());

    // A deadline or retry budget routes chunk-capable engines through
    // the chunked pipeline even when serial, for per-chunk checks.
    // Device-model engines consume the whole stream regardless.
    const bool chunked =
        engine.supportsChunkedScan() &&
        (config.threads != 1 || config.deadline.limited() ||
         config.scanRetries > 0);
    if (chunked) {
        const ChunkedScanOptions opts = chunkOptions(config);
        if (auto st = ChunkedScanner::validate(engine, compiled, opts);
            !st.ok())
            return st.error();
        return ChunkedScanner(engine, compiled, opts)
            .tryScan(genome_seq);
    }
    if (config.deadline.expired()) {
        // Unchunkable engines cannot stop mid-scan; the cooperative
        // check degrades to never starting an already-expired scan.
        EngineRun run;
        run.kind = engine.kind();
        run.timing.compileSeconds = compiled->compileSeconds;
        run.metrics = compiled->metrics;
        run.metrics["scan.bytes"] = 0.0;
        run.metrics["scan.events"] = 0.0;
        run.metrics.emplace("events.dropped", 0.0);
        run.metrics["search.timed_out"] =
            config.deadline.timedOut() ? 1.0 : 0.0;
        run.metrics["search.cancelled"] =
            config.deadline.cancelled() ? 1.0 : 0.0;
        run.notes = "deadline expired before scan";
        return run;
    }
    ScanOptions scan_options;
    scan_options.simdTier = config.simdTier;
    return engine.tryScan(*compiled, SequenceView(genome_seq),
                          scan_options);
}

/**
 * Stamp a served result: the hit/drop/fallback metrics, the timed-out
 * flag, and the ranked listing when the request engaged a ranked knob.
 */
void
finishResult(SearchResult &result, const SearchConfig &config,
             size_t failed_engines)
{
    std::map<std::string, double> &metrics = result.run.metrics;
    if (config.rankedRequested()) {
        result.rankedMode = true;
        result.ranked = rankHits(result.hits, config.scoreThreshold,
                                 config.topK);
        metrics["search.ranked"] =
            static_cast<double>(result.ranked.size());
    }
    metrics["events.dropped"] =
        static_cast<double>(result.droppedEvents);
    metrics["search.hits"] = static_cast<double>(result.hits.size());
    if (result.run.timing.hostSeconds > 0.0)
        metrics["search.hits_per_sec"] =
            static_cast<double>(result.hits.size()) /
            result.run.timing.hostSeconds;
    metrics["session.fallbacks"] = static_cast<double>(failed_engines);
    metrics.emplace("search.timed_out", 0.0);
    metrics.emplace("search.cancelled", 0.0);
    result.timedOut = metrics.at("search.timed_out") > 0.0;
}

} // namespace

common::Expected<SearchResult>
SearchSession::searchChain(const SearchConfig &config,
                           const ScanStep &step)
{
    common::TraceSpan search_span(config.trace, "search");
    const std::vector<EngineKind> chain = engineChain(config);
    Error last(ErrorCode::Internal, "no engine attempted");
    size_t failed_engines = 0;

    for (EngineKind kind : chain) {
        const char *name = engineName(kind);
        bool terminal = false;
        auto attempt = [&]() -> common::Expected<SearchResult> {
            const Engine *engine =
                EngineRegistry::instance().tryFind(kind);
            if (!engine)
                return Error(ErrorCode::UnsupportedEngine,
                             strprintf("no engine registered for %s",
                                       name));
            auto compiled = compiledFor(config, *engine);
            if (!compiled.ok())
                return compiled.error();
            return step(*engine, compiled.value(), terminal);
        };
        common::Expected<SearchResult> result = attempt();
        if (result.ok()) {
            finishResult(result.value(), config, failed_engines);
            metrics_.mergeInto(result.value().run.metrics);
            return result;
        }
        recordEngineFailure(name);
        if (terminal)
            return result.error();
        last = result.error();
        ++failed_engines;
    }
    return std::move(last).withContext("engines_tried",
                                       joinEngineNames(chain));
}

common::Expected<SearchResult>
SearchSession::trySearch(const genome::Sequence &genome_seq)
{
    return trySearch(genome_seq, config_);
}

common::Expected<SearchResult>
SearchSession::trySearch(const genome::Sequence &genome_seq,
                         const SearchConfig &config)
{
    return searchChain(
        config,
        [&](const Engine &engine,
            const std::shared_ptr<const CompiledPattern> &compiled,
            bool &) -> common::Expected<SearchResult> {
            common::TraceSpan scan_span(config.trace, "scan");
            auto run = scanWith(engine, compiled, genome_seq, config);
            scan_span.finish();
            if (!run.ok())
                return run.error();
            SearchResult result;
            result.patterns = *compiled->set;
            result.run = std::move(run).value();
            common::TraceSpan report_span(config.trace, "report");
            const bool tolerant = engine.kind() == EngineKind::ApCounter;
            result.hits = hitsFromEvents(genome_seq, result.patterns,
                                         result.run.events, tolerant,
                                         &result.droppedEvents);
            return result;
        });
}

common::Expected<SearchResult>
SearchSession::trySearchStream(std::istream &fasta)
{
    return trySearchStream(fasta, config_);
}

common::Expected<SearchResult>
SearchSession::trySearchStream(std::istream &fasta,
                               const SearchConfig &config)
{
    return searchChain(
        config,
        [&](const Engine &engine,
            const std::shared_ptr<const CompiledPattern> &compiled,
            bool &terminal) -> common::Expected<SearchResult> {
            const ChunkedScanOptions opts = chunkOptions(config);
            if (auto st = ChunkedScanner::validate(engine, compiled, opts);
                !st.ok())
                return st.error();
            SearchResult result;
            result.patterns = *compiled->set;

            // Chunk-capable engines compile SiteOrder sets (no
            // reversed-stream patterns), so a hit's window is local to
            // the chunk buffer that reported it: verify per chunk, then
            // lift start to global.
            ChunkObserver verify = [&](const ChunkScanView &chunk) {
                common::TraceSpan report_span(config.trace, "report");
                size_t dropped = 0;
                std::vector<OffTargetHit> hits =
                    hitsFromEvents(chunk.buffer, result.patterns,
                                   chunk.events,
                                   /*drop_unverified=*/false, &dropped);
                result.droppedEvents += dropped;
                for (OffTargetHit hit : hits) {
                    hit.start += chunk.bufferStart;
                    result.hits.push_back(hit);
                }
            };

            genome::FastaStreamReader reader(
                fasta, genome::FastaStreamOptions{config.lenientFasta});
            auto run = ChunkedScanner(engine, compiled, opts)
                           .tryScanStream(reader, verify);
            if (!run.ok()) {
                // The stream is part-consumed: falling back to another
                // engine would rescan a truncated genome, so surface
                // the error instead.
                terminal = true;
                return run.error();
            }
            result.run = std::move(run).value();
            result.run.metrics["parse.records_dropped"] =
                static_cast<double>(reader.recordsDropped());

            // Chunks arrive in stream order; restore the (guide, start,
            // strand) order hitsFromEvents gives a whole-genome verify.
            std::sort(result.hits.begin(), result.hits.end(),
                      [](const OffTargetHit &a, const OffTargetHit &b) {
                          if (a.guide != b.guide)
                              return a.guide < b.guide;
                          if (a.start != b.start)
                              return a.start < b.start;
                          return a.strand < b.strand;
                      });
            return result;
        });
}

SearchResult
SearchSession::search(const genome::Sequence &genome_seq)
{
    return search(genome_seq, config_);
}

SearchResult
SearchSession::search(const genome::Sequence &genome_seq,
                      const SearchConfig &config)
{
    return trySearch(genome_seq, config).valueOrThrow();
}

SearchResult
SearchSession::searchStream(std::istream &fasta)
{
    return searchStream(fasta, config_);
}

SearchResult
SearchSession::searchStream(std::istream &fasta,
                            const SearchConfig &config)
{
    return trySearchStream(fasta, config).valueOrThrow();
}

size_t
SearchSession::compileCount() const
{
    return compiles_.value();
}

size_t
SearchSession::cacheHits() const
{
    return cacheHits_.value();
}

size_t
SearchSession::databaseHits() const
{
    return dbHits_.value();
}

size_t
SearchSession::databaseMisses() const
{
    return dbMisses_.value();
}

size_t
SearchSession::engineFailures(EngineKind kind) const
{
    return metrics_
        .counter(std::string("session.failures.") +
                 engineName(kind))
        .value();
}

std::map<std::string, double>
SearchSession::metricsSnapshot() const
{
    return metrics_.toMap();
}

void
SearchSession::clearCache()
{
    std::lock_guard<std::mutex> lock(mutex_);
    cache_.clear();
}

} // namespace crispr::core
