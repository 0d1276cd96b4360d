/**
 * @file
 * Serving-layer throughput: requests/sec for coalesced single-guide
 * requests through SearchService vs the serial per-request baseline (a
 * fresh compile + genome pass per request, which is what a
 * session-per-client server costs). The paper's central throughput
 * lever — one automaton pass serves many gRNAs — shows up here as the
 * batching win.
 *
 * Emits a BENCH_service.json row (see --json) for CI trend tracking.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/cli.hpp"
#include "core/engine_registry.hpp"
#include "core/service.hpp"
#include "core/session.hpp"
#include "workloads.hpp"

using namespace crispr;

namespace {

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** One coalescing measurement: serve every request in slices of
 *  `batch` through a manual-mode service. @return requests/sec. */
double
runCoalesced(const core::SharedSequence &genome,
             const std::vector<std::vector<core::Guide>> &requests,
             const core::SearchConfig &config, size_t batch,
             size_t *hits)
{
    core::ServiceOptions options;
    options.batchWindowSeconds = -1.0; // manual: drain() per slice
    options.maxBatchRequests = batch;
    core::SearchService service(options);

    core::RequestOptions request;
    request.genome = genome;
    request.config = config;

    std::vector<std::future<core::SearchResult>> futures;
    futures.reserve(requests.size());
    const double start = now();
    for (size_t i = 0; i < requests.size();) {
        const size_t end = std::min(i + batch, requests.size());
        for (; i < end; ++i)
            futures.push_back(service.submit(requests[i], request));
        service.drain();
    }
    size_t total_hits = 0;
    for (auto &f : futures)
        total_hits += f.get().hits.size();
    const double seconds = now() - start;
    if (hits)
        *hits = total_hits;
    return static_cast<double>(requests.size()) / seconds;
}

/** The non-batching baseline: one session (compile + pass) each. */
double
runSerial(const genome::Sequence &genome,
          const std::vector<std::vector<core::Guide>> &requests,
          const core::SearchConfig &config, size_t *hits)
{
    size_t total_hits = 0;
    const double start = now();
    for (const auto &guides : requests) {
        core::SearchSession session(guides, config);
        total_hits += session.search(genome).hits.size();
    }
    const double seconds = now() - start;
    if (hits)
        *hits = total_hits;
    return static_cast<double>(requests.size()) / seconds;
}

/** One --db-compare row: time-to-first-result for a fresh session on
 *  a small target, cold (compile + persist) vs warm (database load).
 *  Uses engine=auto + databaseDir — the recommended production config.
 *  The warm load is served from the database's shared byte tier, so
 *  the measured cost is deserialization, which is what a restarted
 *  process pays once the blob is in the page cache. */
struct DbCompareRow
{
    size_t guides = 0;
    double coldSeconds = 0.0;
    double loadSeconds = 0.0;
    bool warmFromDb = false;
    size_t hits = 0;
};

DbCompareRow
runDbCompare(const genome::Sequence &target,
             const std::vector<core::Guide> &all_guides, size_t count,
             int d, const std::string &db_dir)
{
    DbCompareRow row;
    row.guides = count;
    const std::vector<core::Guide> guides(all_guides.begin(),
                                          all_guides.begin() + count);

    core::SearchConfig cfg;
    cfg.engine = core::EngineKind::Auto;
    cfg.maxMismatches = d;
    cfg.databaseDir = db_dir;
    cfg.params = bench::defaultParams();

    {
        core::SearchSession cold(guides, cfg);
        const double start = now();
        row.hits = cold.search(target).hits.size();
        row.coldSeconds = now() - start;
    }
    {
        core::SearchSession warm(guides, cfg);
        const double start = now();
        const size_t warm_hits = warm.search(target).hits.size();
        row.loadSeconds = now() - start;
        row.warmFromDb = warm.databaseHits() > 0;
        if (warm_hits != row.hits)
            fatal("database-loaded hit count diverged from cold "
                  "(%zu guides: %zu vs %zu)",
                  count, warm_hits, row.hits);
    }
    return row;
}

/**
 * One --overload row: open-loop offered load at a multiple of the
 * measured capacity, against a bounded-queue service. Goodput counts
 * admitted requests that completed inside their deadline; the excess
 * must be shed promptly as Error::overloaded rather than queued into
 * collapse — the acceptance bar is 4x-offered goodput >= 90% of the
 * 1x throughput.
 */
struct OverloadRow
{
    double multiplier = 1.0;
    double offeredRps = 0.0;
    size_t submitted = 0;
    size_t good = 0;   //!< admitted and completed inside deadline
    size_t shed = 0;   //!< Error::overloaded (a queue bound)
    size_t failed = 0; //!< anything else (late, other errors)
    double goodputRps = 0.0;
    double p99Ms = 0.0;
};

OverloadRow
runOverload(const core::SharedSequence &genome,
            const std::vector<std::vector<core::Guide>> &requests,
            const core::SearchConfig &config, double capacity_rps,
            double multiplier, double deadline_seconds)
{
    OverloadRow row;
    row.multiplier = multiplier;
    row.offeredRps = capacity_rps * multiplier;

    core::ServiceOptions options;
    options.batchWindowSeconds = 0.001;
    options.maxBatchRequests = 64;
    options.maxQueueRequests = 128;
    options.admissionPolicy = core::AdmissionPolicy::RejectNew;
    core::SearchService service(options);

    // ~2 seconds of offered traffic per point, bounded for CI.
    const size_t total = std::clamp<size_t>(
        static_cast<size_t>(row.offeredRps * 2.0), size_t(64),
        size_t(2048));
    row.submitted = total;

    std::vector<std::future<common::Expected<core::SearchResult>>>
        futures(total);
    std::vector<double> sent_at(total, 0.0);
    std::atomic<size_t> submitted{0};

    const double start = now();
    // The collector waits for completions in submission order while
    // the submitter keeps the offered rate; FIFO dispatch makes the
    // sequential wait a faithful (slightly conservative) latency read.
    std::vector<double> latencies;
    latencies.reserve(total);
    std::thread collector([&] {
        for (size_t i = 0; i < total; ++i) {
            while (submitted.load(std::memory_order_acquire) <= i)
                std::this_thread::sleep_for(
                    std::chrono::microseconds(100));
            auto result = futures[i].get();
            const double done = now();
            if (result.ok()) {
                latencies.push_back(done - sent_at[i]);
                if (!result.value().timedOut)
                    ++row.good;
                else
                    ++row.failed;
            } else if (result.error().code() ==
                       common::ErrorCode::Overloaded) {
                ++row.shed;
            } else {
                ++row.failed;
            }
        }
    });

    core::RequestOptions request;
    request.genome = genome;
    request.config = config;
    for (size_t i = 0; i < total; ++i) {
        const double due = start + static_cast<double>(i) /
                                       row.offeredRps;
        while (now() < due)
            std::this_thread::sleep_for(
                std::chrono::microseconds(50));
        request.config.deadline =
            common::Deadline::after(deadline_seconds);
        sent_at[i] = now();
        futures[i] =
            service.trySubmit(requests[i % requests.size()], request);
        submitted.store(i + 1, std::memory_order_release);
    }
    collector.join();
    const double elapsed = now() - start;

    row.goodputRps = static_cast<double>(row.good) / elapsed;
    if (!latencies.empty()) {
        std::sort(latencies.begin(), latencies.end());
        row.p99Ms =
            latencies[std::min(latencies.size() - 1,
                               static_cast<size_t>(
                                   0.99 * static_cast<double>(
                                              latencies.size())))] *
            1e3;
    }
    return row;
}

} // namespace

int
main(int argc, char **argv)
{
    Cli cli("SERVICE: coalesced vs serial request throughput");
    cli.addInt("genome-mb", 16, "genome size in MB");
    cli.addInt("requests", 64, "number of single-guide requests");
    cli.addInt("d", 1, "mismatch budget");
    cli.addString("engine", "hscan", "engine name (see registry)");
    cli.addInt("max-dfa-states", 1 << 20,
               "hscan DFA state budget for the merged database");
    cli.addBool("minimize-dfa",
                "Hopcroft-minimize the hscan DFA (off by default: a "
                "serving workload pays compile latency per batch, and "
                "minimization costs seconds to save microseconds of "
                "scan here; applied to serial and coalesced alike)");
    cli.addBool("db-compare",
                "also measure cold-compile vs pattern-database "
                "startup latency (engine=auto + databaseDir) for "
                "guide sets of 10/100/1000");
    cli.addBool("overload",
                "also measure goodput and p99 admitted-latency at "
                "1x/2x/4x offered load against a bounded-queue "
                "service (excess shed as Error::overloaded)");
    cli.addString("json", "BENCH_service.json",
                  "output path of the JSON result row");
    if (!cli.parse(argc, argv))
        return 0;

    const size_t genome_mb =
        static_cast<size_t>(cli.getInt("genome-mb"));
    const size_t num_requests =
        static_cast<size_t>(cli.getInt("requests"));
    const int d = static_cast<int>(cli.getInt("d"));
    const std::string engine_name = cli.getString("engine");
    const std::string json_path = cli.getString("json");

    const core::Engine *engine =
        core::EngineRegistry::instance().findByName(engine_name);
    if (!engine)
        fatal("unknown engine: %s", engine_name.c_str());

    bench::printBanner(
        "SERVICE",
        strprintf("cross-request batching — %zu MB genome, %zu "
                  "single-guide requests, d=%d, engine=%s",
                  genome_mb, num_requests, d, engine->name()),
        "one automaton pass serves many gRNAs at once");

    bench::Workload w =
        bench::makeWorkload(genome_mb << 20, num_requests);
    auto genome = std::make_shared<const genome::Sequence>(w.genome);

    // One single-guide request per sampled guide: the paper's serving
    // scenario (many clients, one shared reference).
    std::vector<std::vector<core::Guide>> requests;
    requests.reserve(num_requests);
    for (const core::Guide &guide : w.guides)
        requests.push_back({guide});

    core::SearchConfig config;
    // The compile half keys the coalescing; the runtime half is the
    // serving shape (serial single-chunk scans, default deadline).
    config.compile().engine = engine->kind();
    config.compile().maxMismatches = d;
    config.compile().params = bench::defaultParams();
    config.compile().params.hscanOpts.maxDfaStates =
        static_cast<uint32_t>(cli.getInt("max-dfa-states"));
    config.compile().params.hscanOpts.minimizeDfa =
        cli.getBool("minimize-dfa");
    config.runtime().threads = 1;

    size_t serial_hits = 0;
    const double serial_rps =
        runSerial(w.genome, requests, config, &serial_hits);

    Table table({"batch", "req/s", "vs serial", "hits"});
    table.row()
        .add("serial")
        .add(serial_rps, 2)
        .add("1.0x")
        .add(static_cast<uint64_t>(serial_hits));

    std::vector<std::pair<size_t, double>> coalesced;
    for (size_t batch : {size_t(1), size_t(8), size_t(64)}) {
        if (batch > num_requests)
            continue;
        size_t hits = 0;
        const double rps =
            runCoalesced(genome, requests, config, batch, &hits);
        coalesced.emplace_back(batch, rps);
        table.row()
            .add(strprintf("%zu", batch))
            .add(rps, 2)
            .add(bench::speedupCell(rps, serial_rps))
            .add(static_cast<uint64_t>(hits));
        if (hits != serial_hits)
            fatal("batched hit count diverged from serial "
                  "(batch=%zu: %zu vs %zu)",
                  batch, hits, serial_hits);
    }
    std::printf("%s", table.str().c_str());

    // Cold compile vs database load: the Hyperscan serialized-database
    // idiom. Guides come from a dedicated small workload so the row
    // measures startup latency, not genome scanning; the target slice
    // keeps the scan itself negligible.
    std::vector<DbCompareRow> db_rows;
    if (cli.getBool("db-compare")) {
        const size_t kMaxDbGuides = 1000;
        bench::Workload dbw =
            bench::makeWorkload(4 << 20, kMaxDbGuides, /*seed=*/43);
        const genome::Sequence target = dbw.genome.slice(0, 64 << 10);
        const std::filesystem::path db_dir =
            std::filesystem::temp_directory_path() /
            strprintf("bench_service_db_%d", getpid());
        std::filesystem::remove_all(db_dir);

        Table db_table({"guides", "cold compile", "db load",
                        "speedup", "source"});
        for (size_t count : {size_t(10), size_t(100), size_t(1000)}) {
            DbCompareRow row = runDbCompare(target, dbw.guides, count,
                                            d, db_dir.string());
            db_rows.push_back(row);
            db_table.row()
                .add(strprintf("%zu", count))
                .add(strprintf("%.1f ms", row.coldSeconds * 1e3))
                .add(strprintf("%.1f ms", row.loadSeconds * 1e3))
                .add(bench::speedupCell(1.0 / row.loadSeconds,
                                        1.0 / row.coldSeconds))
                .add(row.warmFromDb ? "database" : "recompiled");
        }
        std::printf("%s", db_table.str().c_str());
        std::filesystem::remove_all(db_dir);
    }

    // Overload: goodput must hold (>= 90% of 1x) while the offered
    // rate quadruples; the excess is shed at admission, not queued.
    double overload_capacity = 0.0;
    std::vector<OverloadRow> overload_rows;
    if (cli.getBool("overload")) {
        size_t cap_hits = 0;
        overload_capacity = runCoalesced(
            genome, requests, config,
            std::min<size_t>(64, num_requests), &cap_hits);
        // Generous per-request deadline: time to drain twice the
        // queue bound, so admitted requests comfortably finish and
        // misses indicate real overload, not a tight budget.
        const double deadline_seconds =
            std::max(0.5, 256.0 / overload_capacity);

        Table overload_table({"offered", "req/s offered", "goodput",
                              "vs 1x", "p99 ms", "shed", "failed"});
        double goodput_1x = 0.0;
        for (double multiplier : {1.0, 2.0, 4.0}) {
            OverloadRow row =
                runOverload(genome, requests, config,
                            overload_capacity, multiplier,
                            deadline_seconds);
            if (multiplier == 1.0)
                goodput_1x = row.goodputRps;
            overload_rows.push_back(row);
            overload_table.row()
                .add(strprintf("%.0fx", multiplier))
                .add(row.offeredRps, 2)
                .add(row.goodputRps, 2)
                .add(bench::speedupCell(row.goodputRps, goodput_1x))
                .add(row.p99Ms, 2)
                .add(static_cast<uint64_t>(row.shed))
                .add(static_cast<uint64_t>(row.failed));
        }
        std::printf("%s", overload_table.str().c_str());
        const OverloadRow &worst = overload_rows.back();
        std::printf("overload: 4x goodput %.2f req/s = %.0f%% of 1x "
                    "(bar: >= 90%%), %zu shed\n",
                    worst.goodputRps,
                    100.0 * worst.goodputRps / goodput_1x,
                    worst.shed);
    }

    std::ofstream json(json_path);
    if (json) {
        json << "{\"bench\": \"service\", \"engine\": \""
             << engine->name() << "\", \"genome_bytes\": "
             << w.genome.size() << ", \"requests\": " << num_requests
             << ", \"d\": " << d
             << ", \"serial_rps\": " << serial_rps;
        for (const auto &[batch, rps] : coalesced)
            json << ", \"coalesced_" << batch << "_rps\": " << rps;
        if (!coalesced.empty())
            json << ", \"speedup_max_batch\": "
                 << coalesced.back().second / serial_rps;
        for (const DbCompareRow &row : db_rows)
            json << ", \"db_cold_" << row.guides
                 << "_s\": " << row.coldSeconds << ", \"db_load_"
                 << row.guides << "_s\": " << row.loadSeconds
                 << ", \"db_speedup_" << row.guides
                 << "\": " << row.coldSeconds / row.loadSeconds;
        if (!overload_rows.empty()) {
            json << ", \"overload_capacity_rps\": "
                 << overload_capacity;
            for (const OverloadRow &row : overload_rows)
                json << ", \"overload_" << row.multiplier
                     << "x_goodput_rps\": " << row.goodputRps
                     << ", \"overload_" << row.multiplier
                     << "x_p99_ms\": " << row.p99Ms << ", \"overload_"
                     << row.multiplier << "x_shed\": " << row.shed;
            json << ", \"overload_4x_vs_1x\": "
                 << overload_rows.back().goodputRps /
                        overload_rows.front().goodputRps;
        }
        json << "}\n";
        std::printf("wrote %s\n", json_path.c_str());
    }
    return 0;
}
