/** @file Overload-protection tests: SearchService admission control
 *  (request/byte bounds, reject-new vs drop-oldest), failures that stay
 *  with the request that caused them, health snapshots,
 *  deadline-aware GenomeStore loads, pattern-db store degradation, and
 *  a bounded-queue chaos soak. */

#include <atomic>
#include <chrono>
#include <filesystem>
#include <thread>

#include <sys/stat.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "common/faultpoints.hpp"
#include "common/logging.hpp"
#include "core/service.hpp"
#include "core/session.hpp"
#include "test_util.hpp"

namespace crispr {
namespace {

using common::Deadline;
using common::ErrorCode;

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

bool
isReady(const std::future<common::Expected<core::SearchResult>> &fut)
{
    return fut.wait_for(std::chrono::seconds(0)) ==
           std::future_status::ready;
}

// ---------------------------------------------------------------------
// Admission control: bounded queues and both policies. Shed requests
// must complete promptly with Error::overloaded and cost zero scan work.
// ---------------------------------------------------------------------

TEST(SearchService, RejectNewShedsTheArrivalWithZeroScanWork)
{
    Rng rng(test::testSeed(9210));
    auto genome = std::make_shared<const genome::Sequence>(
        test::randomGenome(rng, 20000));
    core::RequestOptions request;
    request.genome = genome;
    request.config.maxMismatches = 2;

    core::ServiceOptions options = manualMode();
    options.maxQueueRequests = 2;
    core::SearchService service(options);

    auto f1 = service.trySubmit(randomGuides(rng, 1), request);
    auto f2 = service.trySubmit(randomGuides(rng, 1), request);
    auto f3 = service.trySubmit(randomGuides(rng, 1), request);

    // The overflow arrival resolves immediately — before any drain, so
    // it cannot have cost a scan — with Error::overloaded.
    ASSERT_TRUE(isReady(f3));
    EXPECT_FALSE(isReady(f1));
    auto rejected = f3.get();
    ASSERT_FALSE(rejected.ok());
    EXPECT_EQ(rejected.error().code(), ErrorCode::Overloaded);
    EXPECT_EQ(service.rejectedCount(), 1u);
    EXPECT_EQ(service.batchCount(), 0u);

    // The admitted requests are unharmed.
    EXPECT_EQ(service.drain(), 2u);
    EXPECT_TRUE(f1.get().ok());
    EXPECT_TRUE(f2.get().ok());
}

TEST(SearchService, DropOldestShedsTheQueueFrontAndServesTheArrival)
{
    Rng rng(test::testSeed(9211));
    auto genome = std::make_shared<const genome::Sequence>(
        test::randomGenome(rng, 20000));
    core::RequestOptions request;
    request.genome = genome;
    request.config.maxMismatches = 2;

    core::ServiceOptions options = manualMode();
    options.maxQueueRequests = 2;
    options.admissionPolicy = core::AdmissionPolicy::DropOldest;
    core::SearchService service(options);

    auto f1 = service.trySubmit(randomGuides(rng, 1), request);
    auto f2 = service.trySubmit(randomGuides(rng, 1), request);
    auto f3 = service.trySubmit(randomGuides(rng, 1), request);

    // Freshest-work-wins: the oldest queued request was shed.
    ASSERT_TRUE(isReady(f1));
    auto shed = f1.get();
    ASSERT_FALSE(shed.ok());
    EXPECT_EQ(shed.error().code(), ErrorCode::Overloaded);
    EXPECT_EQ(service.shedCount(), 1u);
    EXPECT_EQ(service.rejectedCount(), 0u);

    EXPECT_EQ(service.drain(), 2u);
    EXPECT_TRUE(f2.get().ok());
    EXPECT_TRUE(f3.get().ok());
}

TEST(SearchService, ByteBoundAdmitsALoneOversizedRequest)
{
    Rng rng(test::testSeed(9212));
    auto genome = std::make_shared<const genome::Sequence>(
        test::randomGenome(rng, 20000));
    core::RequestOptions request;
    request.genome = genome;
    request.config.maxMismatches = 2;

    core::ServiceOptions options = manualMode();
    options.maxQueueBytes = 10000; // smaller than one genome
    core::SearchService service(options);

    // A request bigger than the whole byte budget still admits when
    // the queue is empty — otherwise it could never be served at all.
    auto f1 = service.trySubmit(randomGuides(rng, 1), request);
    EXPECT_FALSE(isReady(f1));

    auto f2 = service.trySubmit(randomGuides(rng, 1), request);
    ASSERT_TRUE(isReady(f2));
    auto refused = f2.get();
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.error().code(), ErrorCode::Overloaded);

    EXPECT_EQ(service.drain(), 1u);
    EXPECT_TRUE(f1.get().ok());
}

// ---------------------------------------------------------------------
// Failures stay with the request that caused them: a request whose own
// config fails every engine in its chain (a DFA over its state budget)
// must not refuse the requests after it. Each request walks its own
// engine chain.
// ---------------------------------------------------------------------

TEST(SearchService, OverBudgetDfaRequestsDoNotRefuseTheNextRequest)
{
    Rng rng(test::testSeed(9250));
    genome::Sequence seq = test::randomGenome(rng, 20000);
    const std::vector<core::Guide> guides = randomGuides(rng, 2);
    genome::Sequence site = guides[0].protospacer;
    site.append(genome::Sequence::fromString("TGG"));
    genome::plantSite(seq, 5000, site);
    auto genome = std::make_shared<const genome::Sequence>(seq);

    core::RequestOptions request;
    request.genome = genome;
    request.config.maxMismatches = 1;
    request.config.engine = core::EngineKind::HscanDfa;
    core::RequestOptions starved = request;
    starved.config.params.hscanOpts.maxDfaStates = 8;

    core::SearchService service(manualMode());
    for (int i = 0; i < 3; ++i) {
        auto fut = service.trySubmit(guides, starved);
        service.drain();
        auto failed = fut.get();
        ASSERT_FALSE(failed.ok()) << "request " << i;
        EXPECT_EQ(failed.error().code(), ErrorCode::CompileFailed)
            << "request " << i << ": " << failed.error().str();
    }

    // The next request fits the default budget and is served on the
    // engine it named, exactly as a direct search serves it.
    auto fut = service.trySubmit(guides, request);
    service.drain();
    auto served = fut.get();
    ASSERT_TRUE(served.ok()) << served.error().str();
    EXPECT_EQ(served.value().run.kind, core::EngineKind::HscanDfa);
    const core::SearchResult direct =
        core::search(*genome, guides, request.config);
    EXPECT_FALSE(direct.hits.empty());
    EXPECT_EQ(served.value().hits, direct.hits);
    EXPECT_EQ(service.rejectedCount(), 0u);
}

TEST(SearchService, HealthSnapshotOnAFreshService)
{
    core::SearchService service(manualMode());
    const core::ServiceHealth health = service.health();
    EXPECT_TRUE(health.ready());
    EXPECT_TRUE(health.accepting);
    EXPECT_EQ(health.queueDepth, 0u);
    EXPECT_EQ(health.queuedBytes, 0u);
    EXPECT_EQ(health.executingBatches, 0u);
}

// ---------------------------------------------------------------------
// Deadline-aware GenomeStore loads.
// ---------------------------------------------------------------------

TEST(GenomeStore, PreExpiredDeadlineFailsFastWithoutLoading)
{
    core::GenomeStore store;
    std::atomic<int> attempts{0};
    auto result = store.tryGetOrLoad(
        "k",
        [&]() -> common::Expected<genome::Sequence> {
            attempts.fetch_add(1);
            return genome::Sequence::fromString("ACGTACGT");
        },
        Deadline::after(0.0));
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().code(), ErrorCode::DeadlineExceeded);
    EXPECT_EQ(attempts.load(), 0);
    EXPECT_EQ(store.deadlineExceededCount(), 1u);
    EXPECT_EQ(store.metricsSnapshot().at("store.deadline_exceeded"),
              1.0);

    // The key is not poisoned: a later unbounded load succeeds.
    auto loaded = store.tryGetOrLoad(
        "k", [&]() -> common::Expected<genome::Sequence> {
            attempts.fetch_add(1);
            return genome::Sequence::fromString("ACGTACGT");
        });
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ(attempts.load(), 1);
}

TEST(GenomeStore, DeadlineExpiresWhileAnotherCallerLoads)
{
    core::GenomeStore store;
    std::atomic<bool> release{false};

    // A slow loader owns the entry; a bounded waiter on the same key
    // must give up promptly instead of riding out the whole load.
    std::thread slow([&] {
        auto loaded = store.tryGetOrLoad(
            "k", [&]() -> common::Expected<genome::Sequence> {
                while (!release.load())
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(1));
                return genome::Sequence::fromString("ACGTACGT");
            });
        EXPECT_TRUE(loaded.ok());
    });

    // Wait until the loader thread owns the entry.
    while (store.entryCount() == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    auto bounded = store.tryGetOrLoad(
        "k",
        [&]() -> common::Expected<genome::Sequence> {
            ADD_FAILURE() << "waiter must not load";
            return genome::Sequence::fromString("ACGT");
        },
        Deadline::after(0.05));
    ASSERT_FALSE(bounded.ok());
    EXPECT_EQ(bounded.error().code(), ErrorCode::DeadlineExceeded);
    EXPECT_EQ(store.deadlineExceededCount(), 1u);

    release.store(true);
    slow.join();

    // The slow load still completed and is served to later callers.
    auto ready = store.tryGetOrLoad(
        "k",
        [&]() -> common::Expected<genome::Sequence> {
            ADD_FAILURE() << "entry must already be resident";
            return genome::Sequence::fromString("ACGT");
        },
        Deadline::after(10.0));
    ASSERT_TRUE(ready.ok());
    EXPECT_EQ(ready.value()->size(), 8u);
}

// ---------------------------------------------------------------------
// Pattern-database store degradation: persistence failures must never
// fail a search.
// ---------------------------------------------------------------------

TEST(SearchSession, DbStoreFaultDegradesToInMemoryOnly)
{
    Rng rng(test::testSeed(9230));
    genome::Sequence genome = test::randomGenome(rng, 16000);
    std::vector<core::Guide> guides = randomGuides(rng, 2);

    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        strprintf("crispr_overload_db_%d", getpid());
    std::filesystem::remove_all(dir);

    core::SearchConfig config;
    config.maxMismatches = 2;
    config.engine = core::EngineKind::HscanBitParallel;
    config.databaseDir = dir.string();

    common::faultpoints::armFailOnce("db.store");
    core::SearchSession session(guides, config);
    auto served = session.trySearch(genome);
    common::faultpoints::resetAll();
    ASSERT_TRUE(served.ok()) << served.error().str();
    EXPECT_EQ(
        session.metricsSnapshot().at("session.db_store_failures"),
        1.0);

    // The blob entered the in-memory tier before the disk attempt, so
    // a second session still warm-starts from the database.
    core::SearchSession warm(guides, config);
    ASSERT_TRUE(warm.trySearch(genome).ok());
    EXPECT_GE(warm.metricsSnapshot().at("session.db_hits"), 1.0);

    std::filesystem::remove_all(dir);
}

TEST(SearchSession, ReadOnlyDatabaseDirDegradesToWarning)
{
    if (::geteuid() == 0)
        GTEST_SKIP() << "root ignores directory permissions";

    Rng rng(test::testSeed(9231));
    genome::Sequence genome = test::randomGenome(rng, 16000);
    std::vector<core::Guide> guides = randomGuides(rng, 2);

    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        strprintf("crispr_overload_rodb_%d", getpid());
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    ::chmod(dir.c_str(), 0500);

    core::SearchConfig config;
    config.maxMismatches = 2;
    config.engine = core::EngineKind::HscanBitParallel;
    config.databaseDir = dir.string();

    // The store fails against the read-only directory; the search
    // must still serve, with the failure counted.
    core::SearchSession session(guides, config);
    auto served = session.trySearch(genome);
    ASSERT_TRUE(served.ok()) << served.error().str();
    EXPECT_GE(
        session.metricsSnapshot().at("session.db_store_failures"),
        1.0);

    ::chmod(dir.c_str(), 0700);
    std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------
// Chaos soak: sustained 8-client overload against a bounded queue with
// injected chunk faults underneath. Every future resolves exactly once
// — admitted requests bit-identical to their serial reference, shed
// requests with Error::overloaded — and the service tears down clean.
// ---------------------------------------------------------------------

TEST(SearchService, OverloadSoakShedsCleanlyAndServesBitIdentical)
{
    const uint64_t seed = test::testSeed(9240);
    Rng rng(seed);

    constexpr size_t kGenomes = 2;
    constexpr size_t kGuideSets = 4;
    constexpr size_t kRequests = 240;
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
                core::search(*genomes[g], guide_sets[s], serial).hits;

    size_t good = 0, shed = 0;
    common::faultpoints::armProbability("chunk.scan", 0.02, seed);
    {
        core::ServiceOptions options;
        options.batchWindowSeconds = 0.001;
        options.maxBatchRequests = 8;
        options.maxQueueRequests = 16;
        options.admissionPolicy = core::AdmissionPolicy::DropOldest;
        core::SearchService service(options);

        // 8 unpaced clients against a 16-deep queue: offered load far
        // exceeds drain capacity, so shedding is guaranteed.
        std::vector<std::future<common::Expected<core::SearchResult>>>
            futures(kRequests);
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
                    futures[r] = service.trySubmit(
                        guide_sets[(r / kGenomes) % kGuideSets],
                        request);
                }
            });
        for (auto &client : clients)
            client.join();
        service.flush();

        for (size_t r = 0; r < kRequests; ++r) {
            auto result = futures[r].get();
            if (!result.ok()) {
                // The only legitimate failure is admission shedding.
                ASSERT_EQ(result.error().code(),
                          ErrorCode::Overloaded)
                    << "request " << r << ": "
                    << result.error().str()
                    << " (rerun with CRISPR_TEST_SEED=" << seed
                    << ")";
                ++shed;
                continue;
            }
            const size_t want = (r % kGenomes) * kGuideSets +
                                (r / kGenomes) % kGuideSets;
            ASSERT_EQ(result.value().hits, expected[want])
                << "request " << r << " seed=" << seed;
            ++good;
        }
        EXPECT_EQ(good + shed, kRequests);
        EXPECT_EQ(service.requestCount(), kRequests);
        EXPECT_EQ(service.shedCount(), kRequests - good);
        // The queue bound must have actually bitten: an unbounded
        // queue would have served all 240.
        EXPECT_GT(shed, 0u) << "offered load never exceeded capacity";
        EXPECT_GT(good, 0u);

        const core::ServiceHealth health = service.health();
        EXPECT_EQ(health.queueDepth, 0u);
    } // destructor must drain without hanging or abandoning futures
    common::faultpoints::resetAll();
}

} // namespace
} // namespace crispr
