/**
 * @file
 * Minimal serving loop over core::SearchService: reads a request file
 * (one request per line, each line a whitespace-separated list of
 * protospacer sequences), replays the requests from `--concurrency`
 * client threads against one shared reference, and prints the
 * per-request hit counts plus the service.* / store.* metrics.
 *
 * This is the server shape the serving layer is built for: every
 * client submits independently, the service coalesces whatever arrives
 * inside a batch window into one compiled pass over the cached genome,
 * and each client still gets exactly its own hits.
 *
 * Usage:
 *   search_server --requests reqs.txt [--fasta hg.fa | --twobit hg.2bit]
 *       [--d 3] [--engine hscan|auto] [--concurrency 4] [--window-ms 2]
 *       [--shards 4] [--db-dir /var/cache/crispr-db]
 *
 * --db-dir names a pattern database: the first run compiles and
 * persists every guide set it serves, and a restarted server pre-warms
 * from the directory and answers in milliseconds (watch
 * service.db_preloaded and session.db_hits in the metrics table).
 *
 * --shards N serves through a ShardedSearchService: each request's
 * genome pass is split across N scan lanes on the shared executor, and
 * the result is bit-identical to single-lane serving. --twobit names a
 * packed ".2bit" reference (see genome/packed.hpp), mapped and decoded
 * once by the store.
 */

#include <fstream>
#include <future>
#include <iostream>
#include <sstream>
#include <thread>
#include <vector>

#include "crispr.hpp"
#include "genome/generator.hpp"

using namespace crispr;

namespace {

std::vector<std::vector<core::Guide>>
loadRequests(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open request file '%s'", path.c_str());
    std::vector<std::vector<core::Guide>> requests;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::vector<core::Guide> guides;
        std::istringstream ls(line);
        std::string seq;
        while (ls >> seq)
            guides.push_back(core::makeGuide(
                strprintf("r%zu.g%zu", requests.size(),
                          guides.size()),
                seq));
        if (!guides.empty())
            requests.push_back(std::move(guides));
    }
    if (requests.empty())
        fatal("request file '%s' contains no requests", path.c_str());
    return requests;
}

/**
 * Demo requests: single-guide requests sampled from the reference,
 * each planted back into it a few times (guide + AGG PAM, 0-2
 * mismatches) so the served hit counts are non-trivial.
 */
std::vector<std::vector<core::Guide>>
demoRequests(genome::Sequence &ref, size_t count)
{
    Rng rng(7);
    std::vector<std::vector<core::Guide>> requests;
    for (core::Guide &g : core::guidesFromGenome(ref, count, 20, 7)) {
        genome::Sequence site = g.protospacer;
        site.append(genome::Sequence::fromString("AGG"));
        for (int mismatches = 0; mismatches < 3; ++mismatches)
            genome::plantMutatedSites(ref, site, 2, mismatches, 0,
                                      g.protospacer.size(), rng);
        requests.push_back({std::move(g)});
    }
    return requests;
}

} // namespace

int
main(int argc, char **argv)
{
    Cli cli("Serve off-target search requests through SearchService");
    cli.addString("requests", "",
                  "request file: one request per line, each line one "
                  "or more protospacer sequences (empty: 16 demo "
                  "requests sampled from the reference)");
    cli.addString("fasta", "",
                  "reference FASTA, loaded through the GenomeStore "
                  "(empty: 4 MB demo genome)");
    cli.addString("twobit", "",
                  "packed \".2bit\" reference, decoded once by the "
                  "store (takes precedence over --fasta)");
    cli.addInt("shards", 1,
               "scan lanes per request: each genome pass is split "
               "across N lanes (1 = serial scans)");
    cli.addInt("d", 3, "maximum mismatches in the protospacer");
    cli.addString("engine", "hscan",
                  "search engine (\"auto\" = cost-model selection)");
    cli.addInt("concurrency", 4, "client threads submitting requests");
    cli.addInt("window-ms", 2, "batch window in milliseconds");
    cli.addString("db-dir", "",
                  "pattern database directory: compiled state is "
                  "persisted there and pre-warmed at startup, so a "
                  "restarted server answers its first request in "
                  "milliseconds instead of recompiling");
    cli.addBool("health",
                "print the ServiceHealth snapshot after serving and "
                "exit nonzero when the service is not ready "
                "(readiness-probe mode)");
    if (!cli.parse(argc, argv))
        return 0;

    core::ShardOptions options;
    options.shards = std::max<size_t>(
        1, static_cast<size_t>(cli.getInt("shards")));
    options.service.batchWindowSeconds =
        static_cast<double>(cli.getInt("window-ms")) / 1000.0;
    options.service.databaseDir = cli.getString("db-dir");
    core::ShardedSearchService service(options);

    // Resolve the reference once, through the store: every request
    // then scans the same shared, immutable decoded sequence.
    core::SharedSequence reference;
    std::vector<std::vector<core::Guide>> requests;
    if (const std::string &path = cli.getString("twobit");
        !path.empty()) {
        reference =
            service.store().load(core::GenomeRef::packed(path));
    } else if (const std::string &path = cli.getString("fasta");
               !path.empty()) {
        reference =
            service.store().load(core::GenomeRef::fasta(path));
    } else {
        genome::GenomeSpec spec;
        spec.length = 4 << 20;
        spec.model = genome::CompositionModel::GcBiased;
        spec.seed = 6;
        genome::Sequence demo = genome::generateGenome(spec);
        if (cli.getString("requests").empty())
            requests = demoRequests(demo, 16);
        reference = service.store().put(core::GenomeRef::memory("demo"),
                                        std::move(demo));
    }

    if (const std::string &path = cli.getString("requests");
        !path.empty()) {
        requests = loadRequests(path);
    } else if (requests.empty()) {
        // FASTA given but no request file: sample guides from it
        // (each has at least one perfect protospacer match).
        for (core::Guide &g :
             core::guidesFromGenome(*reference, 16, 20, 7))
            requests.push_back({std::move(g)});
    }

    // "auto" is a selector with no registry entry (the session expands
    // it through the cost model), so it is resolved before findByName.
    core::EngineKind engine_kind = core::EngineKind::Auto;
    if (cli.getString("engine") != "auto") {
        const core::Engine *engine =
            core::EngineRegistry::instance().findByName(
                cli.getString("engine"));
        if (!engine)
            fatal("unknown engine: %s",
                  cli.getString("engine").c_str());
        engine_kind = engine->kind();
    }

    core::RequestOptions request;
    request.genome = reference;
    request.config.compile().engine = engine_kind;
    request.config.compile().maxMismatches =
        static_cast<int>(cli.getInt("d"));

    std::cout << "serving " << requests.size() << " requests from "
              << cli.getInt("concurrency") << " client threads ("
              << formatBytes(reference->size()) << " reference, d="
              << cli.getInt("d")
              << ", engine=" << core::engineName(engine_kind)
              << ", shards=" << service.shardCount() << ")\n";

    // Each client thread owns a slice of the request list; all submit
    // concurrently, so the window coalesces across clients.
    const size_t clients = std::max<size_t>(
        1, static_cast<size_t>(cli.getInt("concurrency")));
    std::vector<std::future<core::SearchResult>> futures(
        requests.size());
    std::vector<std::thread> pool;
    for (size_t c = 0; c < clients; ++c)
        pool.emplace_back([&, c] {
            for (size_t i = c; i < requests.size(); i += clients)
                futures[i] = service.submit(requests[i], request);
        });
    for (auto &t : pool)
        t.join();
    service.flush();

    Table table({"request", "guides", "hits", "batchmates", "timed out"});
    for (size_t i = 0; i < requests.size(); ++i) {
        core::SearchResult result = futures[i].get();
        table.row()
            .add(strprintf("r%zu", i))
            .add(static_cast<uint64_t>(requests[i].size()))
            .add(static_cast<uint64_t>(result.hits.size()))
            .add(static_cast<uint64_t>(static_cast<size_t>(
                result.run.metrics.at("service.batch_requests"))))
            .add(result.timedOut ? "yes" : "no");
    }
    std::cout << table.str();

    Table metrics_table({"metric", "value"});
    for (const auto &[key, value] : service.metricsSnapshot())
        metrics_table.row().add(key).add(value, 2);
    std::cout << metrics_table.str();

    if (cli.getBool("health")) {
        // Readiness-probe mode: report the health snapshot and exit
        // nonzero when the instance should not take traffic, so a
        // supervisor can gate it on this binary's exit code.
        const core::ServiceHealth health = service.health();
        Table health_table({"health", "value"});
        health_table.row().add("ready").add(health.ready() ? "yes"
                                                           : "no");
        health_table.row().add("accepting").add(
            health.accepting ? "yes" : "no");
        health_table.row()
            .add("queue depth")
            .add(static_cast<uint64_t>(health.queueDepth));
        health_table.row()
            .add("queued bytes")
            .add(static_cast<uint64_t>(health.queuedBytes));
        health_table.row()
            .add("executor backlog")
            .add(static_cast<uint64_t>(health.executorQueueDepth));
        health_table.row().add("store").add(
            strprintf("%s in %zu entries",
                      formatBytes(health.storeBytes).c_str(),
                      health.storeEntries));
        std::cout << health_table.str();
        return health.ready() ? 0 : 1;
    }
    return 0;
}
