/**
 * @file
 * Platform explorer: runs one off-target workload across every engine
 * in the registry and prints a side-by-side comparison — the
 * interactive version of the paper's cross-platform evaluation.
 *
 * Usage:
 *   platform_explorer [--genome-mb 4] [--guides 10] [--d 3]
 *       [--threads 1] [--requests 0] [--metrics-json out.json]
 *       [--trace-json out.json]
 *
 * --metrics-json dumps every engine's full metric map as one JSON
 * object keyed by engine name; --trace-json writes a chrome://tracing
 * file of the whole sweep (load it at chrome://tracing or
 * https://ui.perfetto.dev). --requests N additionally pushes N
 * single-guide requests through a SearchService and prints the
 * service.* / store.* serving metrics.
 */

#include <fstream>
#include <future>
#include <iostream>
#include <map>
#include <string_view>
#include <vector>

#include "common/cli.hpp"
#include "common/executor.hpp"
#include "common/logging.hpp"
#include "common/metrics.hpp"
#include "common/table.hpp"
#include "common/trace.hpp"
#include "core/engine_registry.hpp"
#include "core/report.hpp"
#include "core/service.hpp"
#include "core/session.hpp"
#include "genome/generator.hpp"

using namespace crispr;

int
main(int argc, char **argv)
{
    Cli cli("Compare every engine on one off-target workload");
    cli.addInt("genome-mb", 4, "genome size in MB");
    cli.addInt("guides", 10, "number of guides");
    cli.addInt("d", 3, "maximum mismatches");
    cli.addInt("threads", 1,
               "worker threads for the CPU engines (0 = all cores); "
               ">1 runs chunk lanes on the shared executor pool");
    cli.addInt("chunk-kb", 4096,
               "chunk size in KB for the CPU engines' chunked scans");
    cli.addBool("skip-slow", "skip the brute-force golden engine");
    cli.addInt("requests", 0,
               "also serve N single-guide requests through a "
               "SearchService and print the service.* metrics "
               "(0 = skip)");
    cli.addString("db-dir", "",
                  "pattern database directory: compiled engine state "
                  "is persisted there and warm-starts later sweeps "
                  "(see the session tier line)");
    cli.addString("metrics-json", "",
                  "write per-engine metric maps to this JSON file");
    cli.addString("trace-json", "",
                  "write a chrome://tracing span file of the sweep");
    if (!cli.parse(argc, argv))
        return 0;

    const size_t genome_len =
        static_cast<size_t>(cli.getInt("genome-mb")) << 20;

    genome::GenomeSpec spec;
    spec.length = genome_len;
    spec.model = genome::CompositionModel::GcBiased;
    spec.seed = 4;
    genome::Sequence genome_seq = genome::generateGenome(spec);
    auto guides = core::guidesFromGenome(
        genome_seq, static_cast<size_t>(cli.getInt("guides")), 20, 5);

    std::cout << "workload: " << formatBytes(genome_len) << " genome, "
              << guides.size() << " guides, d=" << cli.getInt("d")
              << ", NRG PAM, both strands\n";

    Table table({"engine", "hits", "compile", "host", "kernel*",
                 "total*", "notes"});
    size_t golden_hits = 0;
    bool have_golden = false;
    common::TraceSink trace;
    const bool want_trace = !cli.getString("trace-json").empty();
    std::map<std::string, std::map<std::string, double>> all_metrics;

    // One session serves every engine: the guide set is fixed, and the
    // per-call config picks the engine (each compiled once, cached).
    core::SearchSession session(guides, {},
                                /*cache_capacity=*/16);

    for (core::EngineKind kind :
         core::EngineRegistry::instance().kinds()) {
        if (cli.getBool("skip-slow") &&
            kind == core::EngineKind::Brute)
            continue;
        // Probe the registry first: a platform missing from this build
        // degrades to a "skipped" row instead of dying.
        if (!core::EngineRegistry::instance().tryFind(kind)) {
            table.row()
                .add(core::engineName(kind))
                .add("-")
                .add("-")
                .add("-")
                .add("-")
                .add("-")
                .add("skipped: engine not registered");
            continue;
        }
        core::SearchConfig config;
        config.maxMismatches = static_cast<int>(cli.getInt("d"));
        config.engine = kind;
        config.databaseDir = cli.getString("db-dir");
        config.threads =
            static_cast<unsigned>(cli.getInt("threads"));
        config.chunkSize =
            static_cast<size_t>(cli.getInt("chunk-kb")) << 10;
        config.params.fullSimSymbolLimit = 2ull << 20;
        if (want_trace)
            config.trace = &trace;

        auto attempt = session.trySearch(genome_seq, config);
        if (!attempt.ok()) {
            // e.g. the forced-DFA engine exceeding its state budget:
            // report the row and keep comparing the other platforms.
            table.row()
                .add(core::engineName(kind))
                .add("-")
                .add("-")
                .add("-")
                .add("-")
                .add("-")
                .add(attempt.error().str().substr(0, 40));
            continue;
        }
        core::SearchResult res = std::move(attempt).value();
        if (kind == core::EngineKind::Brute) {
            golden_hits = res.hits.size();
            have_golden = true;
        }
        all_metrics[core::engineName(kind)] = res.run.metrics;
        std::string note = res.run.notes;
        if (have_golden && res.hits.size() != golden_hits)
            note = strprintf("%zu/%zu golden hits! ", res.hits.size(),
                             golden_hits) + note;
        table.row()
            .add(core::engineName(kind))
            .add(static_cast<uint64_t>(res.hits.size()))
            .add(formatSeconds(res.run.timing.compileSeconds))
            .add(formatSeconds(res.run.timing.hostSeconds))
            .add(formatSeconds(res.run.timing.kernelSeconds))
            .add(formatSeconds(res.run.timing.totalSeconds))
            .add(note.substr(0, 40));
    }
    // The cost-model selector as its own row: engine=auto expands to
    // a ranked CPU-engine chain (DESIGN.md §11); which engine it
    // picked shows up in the session tier line below.
    {
        core::SearchConfig config;
        config.maxMismatches = static_cast<int>(cli.getInt("d"));
        config.engine = core::EngineKind::Auto;
        config.databaseDir = cli.getString("db-dir");
        config.threads =
            static_cast<unsigned>(cli.getInt("threads"));
        config.chunkSize =
            static_cast<size_t>(cli.getInt("chunk-kb")) << 10;
        config.params.fullSimSymbolLimit = 2ull << 20;
        if (want_trace)
            config.trace = &trace;
        auto attempt = session.trySearch(genome_seq, config);
        if (attempt.ok()) {
            const core::SearchResult &res = attempt.value();
            all_metrics["auto"] = res.run.metrics;
            table.row()
                .add("auto")
                .add(static_cast<uint64_t>(res.hits.size()))
                .add(formatSeconds(res.run.timing.compileSeconds))
                .add(formatSeconds(res.run.timing.hostSeconds))
                .add(formatSeconds(res.run.timing.kernelSeconds))
                .add(formatSeconds(res.run.timing.totalSeconds))
                .add(res.run.notes.substr(0, 40));
        }
    }

    std::cout << table.str();
    std::cout << "* kernel/total are modelled device times for the "
                 "GPU/FPGA/AP engines and measured wall-clock for the "
                 "CPU engines (see DESIGN.md).\n";

    // The compile tiers under the sweep: LRU hits, pattern-database
    // hits/misses (all zero without --db-dir), and what the engine
    // auto-selection cost model chose for this workload shape.
    const auto session_metrics = session.metricsSnapshot();
    const auto metric = [&](const char *key) {
        const auto it = session_metrics.find(key);
        return it == session_metrics.end() ? 0.0 : it->second;
    };
    std::cout << strprintf(
        "session tier: compiles=%.0f cache_hits=%.0f db_hits=%.0f "
        "db_misses=%.0f\n",
        metric("session.compiles"), metric("session.cache_hits"),
        metric("session.db_hits"), metric("session.db_misses"));
    std::string choices;
    constexpr std::string_view kAutoPrefix = "session.engine_auto.";
    for (const auto &[key, value] : session_metrics)
        if (key.starts_with(kAutoPrefix))
            choices += strprintf(" %s=%.0f",
                                 key.substr(kAutoPrefix.size()).c_str(),
                                 value);
    std::cout << "engine=auto choices:"
              << (choices.empty() ? " (none)" : choices.c_str())
              << "\n";

    // The execution layer under the sweep: every multi-threaded CPU
    // scan above ran its chunk lanes as tasks on the process-wide
    // work-stealing pool (threads=1 bypasses it, so these stay 0 on
    // single-threaded sweeps).
    const common::Executor &pool = common::Executor::shared();
    std::cout << strprintf(
        "executor pool: %u workers, tasks=%llu steals=%llu "
        "dropped=%llu pending=%zu\n",
        pool.workerCount(),
        static_cast<unsigned long long>(pool.tasksExecuted()),
        static_cast<unsigned long long>(pool.steals()),
        static_cast<unsigned long long>(pool.dropped()),
        pool.pendingCount());

    if (const std::string &path = cli.getString("metrics-json");
        !path.empty()) {
        std::ofstream out(path);
        if (!out)
            fatal("cannot open --metrics-json file %s", path.c_str());
        out << "{";
        bool first = true;
        for (const auto &[engine, metrics] : all_metrics) {
            out << (first ? "\n" : ",\n") << "  \"" << engine
                << "\": ";
            common::writeMetricsJson(metrics, out, 2);
            first = false;
        }
        out << "\n}\n";
        std::cout << "metrics written to " << path << "\n";
    }
    if (want_trace) {
        trace.writeJsonFile(cli.getString("trace-json"));
        std::cout << "trace (" << trace.size() << " spans) written to "
                  << cli.getString("trace-json") << "\n";
    }

    // The serving view of the same workload: N single-guide requests
    // coalesced by a SearchService over the store-cached genome.
    if (const auto num_requests =
            static_cast<size_t>(cli.getInt("requests"));
        num_requests > 0) {
        core::SearchService service{core::ServiceOptions{}};
        core::RequestOptions request;
        request.genome = service.store().put(
            core::GenomeRef::memory("explorer"), std::move(genome_seq));
        request.config.compile().maxMismatches =
            static_cast<int>(cli.getInt("d"));

        std::vector<std::future<core::SearchResult>> futures;
        futures.reserve(num_requests);
        for (size_t i = 0; i < num_requests; ++i)
            futures.push_back(service.submit(
                {guides[i % guides.size()]}, request));
        service.flush();
        size_t served_hits = 0;
        for (auto &f : futures)
            served_hits += f.get().hits.size();

        std::cout << "\nserving view: " << num_requests
                  << " single-guide requests, " << served_hits
                  << " hits total\n";
        Table service_table({"metric", "value"});
        for (const auto &[key, value] : service.metricsSnapshot())
            service_table.row().add(key).add(value, 2);
        std::cout << service_table.str();

        const core::ServiceHealth health = service.health();
        std::cout << "health: "
                  << (health.ready() ? "ready" : "not ready")
                  << " (queue " << health.queueDepth << " req / "
                  << formatBytes(health.queuedBytes)
                  << ", executor backlog "
                  << health.executorQueueDepth << ", store "
                  << formatBytes(health.storeBytes) << " in "
                  << health.storeEntries << " entries)\n";
    }
    return 0;
}
