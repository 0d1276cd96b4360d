/** @file Tests for the serving layer: SearchService request batching
 *  (coalescing, demux, deadlines, batch-split fallback) and the
 *  GenomeStore load-once LRU cache behind it. */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include <gtest/gtest.h>

#include "common/executor.hpp"
#include "common/faultpoints.hpp"
#include "core/engine_registry.hpp"
#include "core/service.hpp"
#include "core/session.hpp"
#include "test_util.hpp"

namespace crispr {
namespace {

core::Guide
randomGuide(Rng &rng, const std::string &name)
{
    static const char bases[] = "ACGT";
    std::string seq;
    for (int i = 0; i < 20; ++i)
        seq += bases[rng.below(4)];
    return core::makeGuide(name, seq);
}

std::vector<core::Guide>
randomGuides(Rng &rng, size_t count)
{
    std::vector<core::Guide> guides;
    for (size_t i = 0; i < count; ++i)
        guides.push_back(randomGuide(rng, "g" + std::to_string(i)));
    return guides;
}

/** A manual-mode service: requests queue until drain(). */
core::ServiceOptions
manualMode()
{
    core::ServiceOptions options;
    options.batchWindowSeconds = -1.0;
    return options;
}

std::vector<core::EngineKind>
chunkCapableEngines()
{
    std::vector<core::EngineKind> kinds;
    for (core::EngineKind kind : core::EngineRegistry::instance().kinds())
        if (core::EngineRegistry::instance()
                .engine(kind)
                .supportsChunkedScan())
            kinds.push_back(kind);
    return kinds;
}

// The batching contract: N coalesced requests return bit-identical
// hits to N independent search() calls, on every chunk-capable engine
// and every mismatch budget the paper's workloads use.
TEST(SearchService, BatchedEqualsSerialOnEveryChunkCapableEngine)
{
    const uint64_t seed = test::testSeed(9001);
    Rng rng(seed);
    auto genome = std::make_shared<const genome::Sequence>(
        test::randomGenome(rng, 20000));

    constexpr size_t kRequests = 3;
    std::vector<std::vector<core::Guide>> guide_sets;
    for (size_t r = 0; r < kRequests; ++r)
        guide_sets.push_back(randomGuides(rng, 2));

    size_t coalesced_runs = 0;
    for (core::EngineKind kind : chunkCapableEngines()) {
        for (int d = 0; d <= 4; ++d) {
            core::RequestOptions request;
            request.genome = genome;
            request.config.engine = kind;
            request.config.maxMismatches = d;

            // The workload must be servable per-request to begin with
            // (hscan-dfa rejects high budgets when the DFA exceeds its
            // state budget); those combinations are no conformance
            // statement and are skipped.
            std::vector<core::SearchResult> serial;
            bool engine_serves = true;
            for (size_t r = 0; r < kRequests && engine_serves; ++r) {
                core::SearchSession session(guide_sets[r],
                                            request.config);
                auto result = session.trySearch(*genome);
                if (!result.ok())
                    engine_serves = false;
                else
                    serial.push_back(std::move(result).value());
            }
            if (!engine_serves)
                continue;

            core::SearchService service(manualMode());
            std::vector<std::future<core::SearchResult>> futures;
            for (size_t r = 0; r < kRequests; ++r)
                futures.push_back(
                    service.submit(guide_sets[r], request));
            EXPECT_EQ(service.drain(), kRequests);
            ASSERT_EQ(service.batchCount(), 1u)
                << core::engineName(kind) << " d=" << d
                << " seed=" << seed;

            // A merged compile may legitimately exceed a budget the
            // per-request compiles fit in (again hscan-dfa); the
            // service then splits — results must still be identical.
            const bool split = service.batchSplitCount() > 0;
            if (!split) {
                EXPECT_EQ(service.coalescedCount(), kRequests);
                ++coalesced_runs;
            }

            for (size_t r = 0; r < kRequests; ++r) {
                core::SearchResult batched = futures[r].get();
                EXPECT_EQ(batched.hits, serial[r].hits)
                    << core::engineName(kind) << " d=" << d
                    << " request=" << r << " seed=" << seed;
                EXPECT_FALSE(batched.timedOut);
                EXPECT_EQ(batched.run.metrics.at(
                              "service.batch_requests"),
                          split ? 1.0
                                : static_cast<double>(kRequests));
                EXPECT_EQ(
                    batched.run.metrics.at("service.coalesced"),
                    split ? 0.0 : 1.0);
                // The demuxed pattern slice matches a solo compile.
                EXPECT_EQ(batched.patterns.patterns.size(),
                          serial[r].patterns.patterns.size());
            }
        }
    }
    // Coalescing must be the norm, not the exception.
    EXPECT_GE(coalesced_runs, 30u);
}

TEST(SearchService, IncompatibleConfigsDoNotCoalesce)
{
    Rng rng(9002);
    auto genome = std::make_shared<const genome::Sequence>(
        test::randomGenome(rng, 6000));
    core::SearchService service(manualMode());

    core::RequestOptions d2;
    d2.genome = genome;
    d2.config.maxMismatches = 2;
    core::RequestOptions d3 = d2;
    d3.config.maxMismatches = 3;

    auto f1 = service.submit(randomGuides(rng, 1), d2);
    auto f2 = service.submit(randomGuides(rng, 1), d3);
    EXPECT_EQ(service.drain(), 2u);
    EXPECT_EQ(service.batchCount(), 2u);
    EXPECT_EQ(service.coalescedCount(), 0u);
    EXPECT_EQ(
        f1.get().run.metrics.at("service.batch_requests"), 1.0);
    EXPECT_EQ(
        f2.get().run.metrics.at("service.batch_requests"), 1.0);
}

// A batch member whose deadline is already gone completes empty and
// timed out without delaying or corrupting its batchmates.
TEST(SearchService, DeadlinesStayPerRequestInsideABatch)
{
    Rng rng(9003);
    auto genome = std::make_shared<const genome::Sequence>(
        test::randomGenome(rng, 12000));
    std::vector<core::Guide> guides_ok = randomGuides(rng, 2);
    std::vector<core::Guide> guides_late = randomGuides(rng, 2);
    std::vector<core::Guide> guides_cancelled = randomGuides(rng, 2);

    core::SearchService service(manualMode());
    core::RequestOptions request;
    request.genome = genome;
    request.config.maxMismatches = 3;

    core::RequestOptions late = request;
    late.config.deadline = common::Deadline::after(0.0);
    core::RequestOptions cancelled = request;
    cancelled.config.deadline = common::Deadline::manual();
    cancelled.config.deadline.cancel();

    auto f_ok = service.submit(guides_ok, request);
    auto f_late = service.submit(guides_late, late);
    auto f_cancelled = service.submit(guides_cancelled, cancelled);
    service.drain();

    core::SearchResult ok = f_ok.get();
    core::SearchResult late_result = f_late.get();
    core::SearchResult cancelled_result = f_cancelled.get();

    EXPECT_EQ(ok.hits,
              core::search(*genome, guides_ok, request.config).hits);
    EXPECT_FALSE(ok.timedOut);

    EXPECT_TRUE(late_result.timedOut);
    EXPECT_TRUE(late_result.hits.empty());
    EXPECT_EQ(late_result.run.metrics.at("search.timed_out"), 1.0);

    EXPECT_TRUE(cancelled_result.timedOut);
    EXPECT_TRUE(cancelled_result.hits.empty());
    EXPECT_EQ(cancelled_result.run.metrics.at("search.cancelled"),
              1.0);

    auto metrics = service.metricsSnapshot();
    EXPECT_EQ(metrics.at("service.expired"), 2.0);
    // Both expired members completed timed out; the served one did not.
    EXPECT_EQ(metrics.at("service.partials"), 2.0);
    EXPECT_EQ(service.partialCount(), 2u);
}

// A failing merged compile degrades to per-request serial execution:
// every member still gets correct results, and the split is counted.
TEST(SearchService, MergedFailureSplitsBatchIntoSerialRequests)
{
    Rng rng(9004);
    auto genome = std::make_shared<const genome::Sequence>(
        test::randomGenome(rng, 8000));
    std::vector<std::vector<core::Guide>> guide_sets;
    for (size_t r = 0; r < 3; ++r)
        guide_sets.push_back(randomGuides(rng, 2));

    core::SearchService service(manualMode());
    core::RequestOptions request;
    request.genome = genome;
    request.config.maxMismatches = 2;

    std::vector<std::future<core::SearchResult>> futures;
    for (const auto &guides : guide_sets)
        futures.push_back(service.submit(guides, request));

    // Fires on the merged compile and auto-disarms, so the
    // per-request serial retries succeed.
    common::faultpoints::armFailOnce("session.compile");
    service.drain();
    common::faultpoints::resetAll();

    EXPECT_EQ(service.batchSplitCount(), 1u);
    for (size_t r = 0; r < guide_sets.size(); ++r) {
        core::SearchResult got = futures[r].get();
        core::SearchResult want =
            core::search(*genome, guide_sets[r], request.config);
        EXPECT_EQ(got.hits, want.hits) << "request " << r;
        EXPECT_EQ(got.run.metrics.at("service.batch_requests"),
                  1.0);
    }
}

TEST(SearchService, WindowedModeServesConcurrentSubmitters)
{
    Rng rng(9005);
    auto genome = std::make_shared<const genome::Sequence>(
        test::randomGenome(rng, 8000));

    core::ServiceOptions options;
    options.batchWindowSeconds = 0.01;
    core::SearchService service(options);

    core::RequestOptions request;
    request.genome = genome;
    request.config.maxMismatches = 2;

    constexpr size_t kThreads = 4;
    std::vector<std::vector<core::Guide>> guide_sets;
    for (size_t t = 0; t < kThreads; ++t)
        guide_sets.push_back(randomGuides(rng, 1));

    std::vector<std::future<core::SearchResult>> futures(kThreads);
    std::vector<std::thread> pool;
    for (size_t t = 0; t < kThreads; ++t)
        pool.emplace_back([&, t] {
            futures[t] = service.submit(guide_sets[t], request);
        });
    for (auto &t : pool)
        t.join();
    service.flush();

    for (size_t t = 0; t < kThreads; ++t) {
        ASSERT_EQ(futures[t].wait_for(std::chrono::seconds(0)),
                  std::future_status::ready);
        EXPECT_EQ(
            futures[t].get().hits,
            core::search(*genome, guide_sets[t], request.config)
                .hits);
    }
    EXPECT_EQ(service.requestCount(), kThreads);
}

TEST(SearchService, DestructorServesPendingRequests)
{
    Rng rng(9006);
    auto genome = std::make_shared<const genome::Sequence>(
        test::randomGenome(rng, 4000));
    std::vector<core::Guide> guides = randomGuides(rng, 1);

    std::future<core::SearchResult> fut;
    core::RequestOptions request;
    request.genome = genome;
    {
        core::SearchService service(manualMode());
        fut = service.submit(guides, request);
        // No drain(): the destructor must serve it.
    }
    EXPECT_EQ(fut.get().hits,
              core::search(*genome, guides, request.config).hits);
}

TEST(SearchService, RejectsRequestsWithoutGuidesOrGenome)
{
    core::SearchService service(manualMode());

    core::RequestOptions no_genome;
    auto f1 = service.trySubmit({core::makeGuide("g", "ACGTACGTACGT"
                                                      "ACGTACGT")},
                                no_genome);
    auto r1 = f1.get();
    ASSERT_FALSE(r1.ok());
    EXPECT_EQ(r1.error().code(),
              common::ErrorCode::InvalidArgument);

    Rng rng(9007);
    core::RequestOptions request;
    request.genome = std::make_shared<const genome::Sequence>(
        test::randomGenome(rng, 100));
    auto f2 = service.submit({}, request);
    EXPECT_THROW(f2.get(), common::ErrorException);

    // A guide set that cannot compile (here: mixed guide lengths) is
    // refused at submit, so it never joins the batch and never splits
    // it: the good requests still share one pass.
    request.genome = std::make_shared<const genome::Sequence>(
        test::randomGenome(rng, 20000));
    request.config.maxMismatches = 1;
    std::vector<std::future<common::Expected<core::SearchResult>>> good;
    for (int i = 0; i < 8; ++i)
        good.push_back(service.trySubmit(randomGuides(rng, 1), request));
    std::vector<core::Guide> mixed = randomGuides(rng, 1);
    mixed.push_back(core::makeGuide("long", "ACGTACGTACGTACGTACGTA"));
    auto bad = service.trySubmit(mixed, request);
    ASSERT_EQ(bad.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    auto refused = bad.get();
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.error().code(),
              common::ErrorCode::InvalidArgument);

    EXPECT_EQ(service.drain(), 8u);
    for (auto &fut : good) {
        auto result = fut.get();
        ASSERT_TRUE(result.ok()) << result.error().str();
        EXPECT_EQ(result.value().run.metrics.at("service.batch_requests"),
                  8.0);
    }
    EXPECT_EQ(service.batchCount(), 1u);
    EXPECT_EQ(service.batchSplitCount(), 0u);
}

// A group over the merged-guide cap (4096) is sliced into consecutive
// runs, each one genome pass, with every member's hits unchanged.
TEST(SearchService, GuideCapSlicesAGroupIntoMergedRuns)
{
    Rng rng(test::testSeed(9014));
    genome::Sequence seq = test::randomGenome(rng, 4000);
    std::vector<std::vector<core::Guide>> guide_sets{
        randomGuides(rng, 2049), randomGuides(rng, 2049)};
    for (size_t r = 0; r < guide_sets.size(); ++r) {
        genome::Sequence site = guide_sets[r][r].protospacer;
        site.append(genome::Sequence::fromString("AGG"));
        genome::plantSite(seq, 1000 + 1000 * r, site);
    }
    auto genome = std::make_shared<const genome::Sequence>(seq);

    core::RequestOptions request;
    request.genome = genome;
    request.config.maxMismatches = 0;
    request.config.engine = core::EngineKind::HscanBitParallel;

    core::SearchService service(manualMode());
    std::vector<std::future<core::SearchResult>> futures;
    for (const auto &guides : guide_sets)
        futures.push_back(service.submit(guides, request));
    EXPECT_EQ(service.drain(), 2u);
    EXPECT_EQ(service.batchCount(), 2u);
    for (size_t r = 0; r < guide_sets.size(); ++r) {
        const core::SearchResult served = futures[r].get();
        const core::SearchResult direct =
            core::search(*genome, guide_sets[r], request.config);
        EXPECT_FALSE(direct.hits.empty());
        EXPECT_EQ(served.hits, direct.hits) << "request " << r;
    }
}

TEST(SearchService, GenomePathResolvesThroughTheStore)
{
    Rng rng(9008);
    genome::Sequence ref = test::randomGenome(rng, 3000);
    std::string path = ::testing::TempDir() + "service_ref.fa";
    {
        std::ofstream out(path);
        out << ">ref\n";
        for (size_t i = 0; i < ref.size(); ++i)
            out << genome::baseChar(ref[i]);
        out << "\n";
    }

    core::SearchService service(manualMode());
    std::vector<core::Guide> guides = randomGuides(rng, 1);
    core::RequestOptions request;
    request.genomeRef = core::GenomeRef::fasta(path);
    auto f1 = service.submit(guides, request);
    auto f2 = service.submit(guides, request);
    service.drain();

    EXPECT_EQ(f1.get().hits, f2.get().hits);
    EXPECT_EQ(service.store().hits(), 1u);   // second submit
    EXPECT_EQ(service.store().misses(), 1u); // first submit loads
    EXPECT_EQ(service.store().entryCount(), 1u);
    std::remove(path.c_str());
}

TEST(GenomeStore, EvictsLeastRecentlyUsedByBytes)
{
    Rng rng(9009);
    core::GenomeStore store(/*max_bytes=*/2500);
    const auto a_ref = core::GenomeRef::memory("a");
    const auto b_ref = core::GenomeRef::memory("b");
    const auto c_ref = core::GenomeRef::memory("c");
    store.put(a_ref, test::randomGenome(rng, 1000));
    store.put(b_ref, test::randomGenome(rng, 1000));
    EXPECT_EQ(store.entryCount(), 2u);
    EXPECT_EQ(store.bytes(), 2000u);

    // Touch "a" so "b" is the LRU victim when "c" arrives.
    core::SharedSequence a = store.get(a_ref);
    ASSERT_NE(a, nullptr);
    store.put(c_ref, test::randomGenome(rng, 1000));

    EXPECT_EQ(store.evictions(), 1u);
    EXPECT_EQ(store.entryCount(), 2u);
    EXPECT_LE(store.bytes(), 2500u);
    EXPECT_EQ(store.get(b_ref), nullptr);
    EXPECT_NE(store.get(a_ref), nullptr);
    EXPECT_NE(store.get(c_ref), nullptr);
    // The evicted shared_ptr held by a caller stays valid (the store
    // drops its reference only).
    EXPECT_EQ(a->size(), 1000u);

    auto metrics = store.metricsSnapshot();
    EXPECT_EQ(metrics.at("store.evictions"), 1.0);
    EXPECT_EQ(metrics.at("store.entries"), 2.0);
}

TEST(GenomeStore, ConcurrentGetOrLoadParsesOnce)
{
    Rng rng(9010);
    genome::Sequence ref = test::randomGenome(rng, 2000);
    core::GenomeStore store;
    std::atomic<int> loads{0};

    constexpr size_t kThreads = 8;
    std::vector<core::SharedSequence> seen(kThreads);
    std::vector<std::thread> pool;
    for (size_t t = 0; t < kThreads; ++t)
        pool.emplace_back([&, t] {
            seen[t] = store.tryGetOrLoad("ref", [&] {
                loads.fetch_add(1);
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(20));
                return common::Expected<genome::Sequence>(
                    genome::Sequence(ref));
            }).valueOrThrow();
        });
    for (auto &t : pool)
        t.join();

    EXPECT_EQ(loads.load(), 1);
    for (size_t t = 1; t < kThreads; ++t)
        EXPECT_EQ(seen[t].get(), seen[0].get());
    EXPECT_EQ(store.misses() + store.hits(), kThreads);
    EXPECT_EQ(store.metricsSnapshot().at("store.loads"), 1.0);
}

TEST(GenomeStore, LoadErrorsAreNotCached)
{
    core::GenomeStore store;
    std::atomic<int> attempts{0};
    auto failing = [&]() -> common::Expected<genome::Sequence> {
        attempts.fetch_add(1);
        return common::Error(common::ErrorCode::ParseError,
                             "synthetic");
    };
    EXPECT_FALSE(store.tryGetOrLoad("bad", failing).ok());
    EXPECT_FALSE(store.tryGetOrLoad("bad", failing).ok());
    EXPECT_EQ(attempts.load(), 2); // the failure was retried
    EXPECT_EQ(store.entryCount(), 0u);

    Rng rng(9011);
    genome::Sequence ref = test::randomGenome(rng, 500);
    auto recovered =
        store.tryGetOrLoad("bad", [&] {
            attempts.fetch_add(1);
            return common::Expected<genome::Sequence>(
                genome::Sequence(ref));
        });
    ASSERT_TRUE(recovered.ok());
    EXPECT_EQ(recovered.value()->size(), 500u);
}

// A leniently loaded FASTA ref is the genome a lenient streamed search
// scans: a record that turns invalid keeps its valid prefix (and the
// site planted in it) in both.
TEST(GenomeStore, LenientFastaLoadMatchesLenientStream)
{
    Rng rng(9012);
    const core::Guide guide = randomGuide(rng, "g");
    genome::Sequence site = guide.protospacer;
    site.append(genome::Sequence::fromString("TGG"));
    std::string text;
    for (int r = 0; r < 2; ++r) {
        genome::Sequence chr = test::randomGenome(rng, 2000);
        genome::plantSite(chr, 500, site);
        text += ">r" + std::to_string(r) + "\n" + chr.str() + "\n";
    }
    text += "ACGT!ACGT\n"; // record r1 turns invalid after its site
    const std::string path = ::testing::TempDir() + "store_lenient.fa";
    {
        std::ofstream out(path);
        out << text;
    }

    core::SearchConfig config;
    config.maxMismatches = 0;
    config.lenientFasta = true;
    core::SearchSession session({guide}, config);
    std::istringstream in(text);
    const core::SearchResult streamed = session.searchStream(in);

    core::GenomeStore store;
    auto loaded =
        store.tryLoad(core::GenomeRef::fasta(path), /*lenient=*/true);
    ASSERT_TRUE(loaded.ok()) << loaded.error().str();
    EXPECT_EQ(streamed.hits.size(), 2u);
    EXPECT_EQ(session.search(*loaded.value()).hits, streamed.hits);
    std::remove(path.c_str());
}

// Leniency is part of a FASTA ref's cache identity: a strict load
// after a lenient one of the same path fails, as it does on a fresh
// store, instead of returning the leniently decoded genome.
TEST(GenomeStore, StrictLoadAfterLenientStillRejects)
{
    const std::string path = ::testing::TempDir() + "store_strict.fa";
    {
        std::ofstream out(path);
        out << ">r0\nACGTACGT\n>r1\nAC!GT\n";
    }
    const core::GenomeRef ref = core::GenomeRef::fasta(path);

    core::GenomeStore store;
    ASSERT_TRUE(store.tryLoad(ref, /*lenient=*/true).ok());
    auto strict = store.tryLoad(ref, /*lenient=*/false);
    ASSERT_FALSE(strict.ok());
    EXPECT_EQ(strict.error().code(), common::ErrorCode::ParseError);

    core::GenomeStore fresh;
    auto fresh_strict = fresh.tryLoad(ref);
    ASSERT_FALSE(fresh_strict.ok());
    EXPECT_EQ(fresh_strict.error().code(), common::ErrorCode::ParseError);
    std::remove(path.c_str());
}

// Soak: 200 requests from 8 client threads across 4 genomes, every
// scan fanned out on the shared Executor, with probabilistic
// chunk-scan faults injected underneath the retry budget. Every
// request must come back bit-identical to its serial reference — no
// hit lost to a faulted-and-retried chunk, none duplicated by the
// pool fan-out — and the shared pool must actually have been used.
TEST(SearchService, SoakPooledRequestsSurviveInjectedChunkFaults)
{
    const uint64_t seed = test::testSeed(9100);
    Rng rng(seed);

    constexpr size_t kGenomes = 4;
    constexpr size_t kGuideSets = 8;
    constexpr size_t kRequests = 200;
    constexpr size_t kClients = 8;

    std::vector<std::shared_ptr<const genome::Sequence>> genomes;
    for (size_t g = 0; g < kGenomes; ++g)
        genomes.push_back(std::make_shared<const genome::Sequence>(
            test::randomGenome(rng, 20000)));
    std::vector<std::vector<core::Guide>> guide_sets;
    for (size_t s = 0; s < kGuideSets; ++s)
        guide_sets.push_back(randomGuides(rng, 2));

    core::RequestOptions base;
    base.config.maxMismatches = 2;
    base.config.threads = 2;
    base.config.chunkSize = 4096;
    base.config.scanRetries = 3;

    // Serial, fault-free references for every (genome, guide set)
    // combination a request can draw.
    core::SearchConfig serial = base.config;
    serial.threads = 1;
    std::vector<std::vector<core::OffTargetHit>> expected(
        kGenomes * kGuideSets);
    for (size_t g = 0; g < kGenomes; ++g)
        for (size_t s = 0; s < kGuideSets; ++s)
            expected[g * kGuideSets + s] =
                core::search(*genomes[g], guide_sets[s], serial)
                    .hits;

    const uint64_t pool_tasks_before =
        common::Executor::shared().tasksExecuted();

    common::faultpoints::armProbability("chunk.scan", 0.02, seed);
    {
        core::ServiceOptions options;
        options.batchWindowSeconds = 0.002;
        core::SearchService service(options);

        std::vector<std::future<core::SearchResult>> futures(
            kRequests);
        std::atomic<size_t> next_request{0};
        std::vector<std::thread> clients;
        for (size_t c = 0; c < kClients; ++c)
            clients.emplace_back([&] {
                for (;;) {
                    const size_t r = next_request.fetch_add(1);
                    if (r >= kRequests)
                        break;
                    core::RequestOptions request = base;
                    request.genome = genomes[r % kGenomes];
                    futures[r] = service.submit(
                        guide_sets[(r / kGenomes) % kGuideSets],
                        request);
                }
            });
        for (auto &client : clients)
            client.join();
        service.flush();

        for (size_t r = 0; r < kRequests; ++r) {
            core::SearchResult got = futures[r].get();
            const size_t want = (r % kGenomes) * kGuideSets +
                                (r / kGenomes) % kGuideSets;
            ASSERT_EQ(got.hits, expected[want])
                << "request " << r << " seed=" << seed
                << " (rerun with CRISPR_TEST_SEED=" << seed << ")";
            EXPECT_FALSE(got.timedOut) << "request " << r;
        }
        EXPECT_EQ(service.requestCount(), kRequests);
    }
    EXPECT_GE(common::faultpoints::failures("chunk.scan"), 1u)
        << "the soak never actually injected a fault";
    common::faultpoints::resetAll();

    // executor.tasks is monotone and the soak scheduled on the pool.
    EXPECT_GT(common::Executor::shared().tasksExecuted(),
              pool_tasks_before);
}

// A pool task failing hard (no retry budget) must still trigger the
// session's engine fallback chain, exactly as the pre-pool threaded
// scan did.
TEST(SearchService, FallbackChainFiresWhenAPoolTaskFails)
{
    Rng rng(9101);
    auto genome = std::make_shared<const genome::Sequence>(
        test::randomGenome(rng, 16000));
    std::vector<core::Guide> guides = randomGuides(rng, 2);

    core::RequestOptions request;
    request.genome = genome;
    request.config.maxMismatches = 2;
    request.config.threads = 2;
    request.config.chunkSize = 4096;
    request.config.scanRetries = 0;
    request.config.fallbacks = {core::EngineKind::Reference};

    core::SearchConfig serial = request.config;
    serial.threads = 1;
    serial.fallbacks.clear();
    const std::vector<core::OffTargetHit> want =
        core::search(*genome, guides, serial).hits;

    core::SearchService service(manualMode());
    auto fut = service.submit(guides, request);
    common::faultpoints::armFailNth("chunk.scan", 1);
    service.drain();
    common::faultpoints::resetAll();

    core::SearchResult got = fut.get();
    EXPECT_EQ(got.hits, want);
    EXPECT_EQ(got.run.metrics.at("session.fallbacks"), 1.0);
}

} // namespace
} // namespace crispr
