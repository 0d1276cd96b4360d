/** @file Tests for the sharded serving layer: ShardedSearchService
 *  bit-identity across shard (scan-lane) counts and geometries, seam
 *  correctness at chunk boundaries, the shard-count lane default, the
 *  packed ".2bit" genome format, load-once sharing under concurrent
 *  loads, and deadline-cut partial results. */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <thread>

#include <unistd.h>

#include <gtest/gtest.h>

#include "common/executor.hpp"
#include "core/session.hpp"
#include "core/shard.hpp"
#include "genome/packed.hpp"
#include "test_util.hpp"

namespace crispr {
namespace {

namespace fs = std::filesystem;

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

/** Manual-mode service options: requests queue until drain(). */
core::ShardOptions
manualShards(size_t shards)
{
    core::ShardOptions options;
    options.shards = shards;
    options.service.batchWindowSeconds = -1.0;
    return options;
}

/** RAII temp directory under the system temp root. */
struct TempDir
{
    fs::path path;

    explicit TempDir(const std::string &tag)
    {
        path = fs::temp_directory_path() /
               ("crispr_shardtest_" + tag + "_" +
                std::to_string(::getpid()));
        fs::remove_all(path);
        fs::create_directories(path);
    }

    ~TempDir() { fs::remove_all(path); }

    std::string str() const { return path.string(); }
};

// The shard contract: an N-shard result is bit-identical to a direct
// single-session search — hits AND events — at every shard count and
// under randomized chunk geometry, with the lane count inherited from
// the shard count or set by the request (neither may show).
TEST(ShardedSearchService, BitIdenticalAcrossShardCounts)
{
    const uint64_t seed = test::testSeed(9301);
    Rng rng(seed);
    auto genome = std::make_shared<const genome::Sequence>(
        test::randomGenome(rng, 24000));
    auto guides = randomGuides(rng, 3);

    core::SearchConfig config;
    config.maxMismatches = 3;
    core::SearchSession session(guides, config);
    const core::SearchResult serial = session.search(*genome);

    const size_t kChunkSizes[] = {257, 1031, 8192};
    for (size_t shards : {1, 2, 3, 5, 8}) {
        core::RequestOptions request;
        request.genome = genome;
        request.config = config;
        request.config.chunkSize = kChunkSizes[rng.below(3)];
        // Unset (the shard count's lanes) or an explicit 2..3.
        if (const unsigned draw = static_cast<unsigned>(rng.below(3)))
            request.config.threads = 1u + draw;

        core::ShardedSearchService service(manualShards(shards));
        auto fut = service.trySubmit(guides, request);
        service.drain();
        auto served = fut.get();
        ASSERT_TRUE(served.ok())
            << shards << " shards seed=" << seed << ": "
            << served.error().message();
        EXPECT_EQ(served.value().hits, serial.hits)
            << shards << " shards chunk="
            << request.config.chunkSize
            << " threads=" << request.config.threads
            << " seed=" << seed;
        EXPECT_EQ(served.value().run.events, serial.run.events)
            << shards << " shards seed=" << seed;
        EXPECT_FALSE(served.value().timedOut);
    }
}

// Seam correctness, adversarially: with the chunk seams on the
// quarter points, sites planted straddling every seam are found
// exactly once — the later chunk re-reads the seam overlap but only
// the end-owning chunk reports.
TEST(ShardedSearchService, BoundaryStraddlingSitesFoundOnce)
{
    const uint64_t seed = test::testSeed(9302);
    Rng rng(seed);
    constexpr size_t kShards = 4;
    constexpr size_t kGenomeLen = 8000; // divisible by kShards
    genome::Sequence seq = test::randomGenome(rng, kGenomeLen);

    // One 20bp protospacer + "TGG" PAM planted across each interior
    // boundary, at varying offsets so the cut lands in the guide, in
    // the PAM, and right at the site edges.
    const core::Guide guide =
        core::makeGuide("planted", "ACGTACGTACGTACGTACGT");
    genome::Sequence site = guide.protospacer;
    site.append(genome::Sequence::fromString("TGG"));
    std::vector<uint64_t> planted;
    for (size_t b = 1; b < kShards; ++b) {
        const uint64_t boundary = kGenomeLen * b / kShards;
        const uint64_t start = boundary - 2 - 5 * b; // straddles it
        for (size_t i = 0; i < site.size(); ++i)
            seq[start + i] = site[i];
        planted.push_back(start);
    }
    auto genome_ptr =
        std::make_shared<const genome::Sequence>(std::move(seq));

    core::RequestOptions request;
    request.genome = genome_ptr;
    request.config.maxMismatches = 0;
    request.config.chunkSize = kGenomeLen / kShards;

    core::ShardedSearchService service(manualShards(kShards));
    auto fut = service.trySubmit({guide}, request);
    service.drain();
    auto served = fut.get();
    ASSERT_TRUE(served.ok()) << served.error().message();

    core::SearchSession session({guide}, request.config);
    const core::SearchResult serial = session.search(*genome_ptr);
    EXPECT_EQ(served.value().hits, serial.hits) << "seed=" << seed;

    for (uint64_t start : planted) {
        const size_t copies = static_cast<size_t>(std::count_if(
            served.value().hits.begin(), served.value().hits.end(),
            [&](const core::OffTargetHit &h) {
                return h.start == start &&
                       h.strand == core::Strand::Forward;
            }));
        EXPECT_EQ(copies, 1u)
            << "site straddling a chunk seam at " << start
            << " reported " << copies << " times, seed=" << seed;
    }
}

// Packed ".2bit" round trip: write, map, decode — identical sequence,
// N exceptions included; and the mapping reports its residency.
TEST(PackedFile, RoundTripPreservesSequence)
{
    const uint64_t seed = test::testSeed(9304);
    Rng rng(seed);
    TempDir dir("roundtrip");
    const genome::Sequence original =
        test::randomGenome(rng, 10007, /*n_fraction=*/0.02);

    const std::string path = (dir.path / "g.2bit").string();
    ASSERT_TRUE(genome::PackedFile::writeSequence(path, original).ok());

    auto mapped = genome::PackedFile::map(path);
    ASSERT_TRUE(mapped.ok()) << mapped.error().message();
    EXPECT_EQ(mapped.value()->size(), original.size());
    EXPECT_EQ(mapped.value()->unpack(), original) << "seed=" << seed;
    EXPECT_EQ(mapped.value()->fileBytes(), fs::file_size(path));
#if defined(__unix__) || defined(__APPLE__)
    EXPECT_TRUE(mapped.value()->memoryMapped());
#endif
}

// Corrupt packed files are rejected up front, never trusted partially.
TEST(PackedFile, CorruptFilesAreRejected)
{
    TempDir dir("corrupt");
    const genome::Sequence seq =
        genome::Sequence::fromString("ACGTNACGTNACGTN");
    const std::string good = (dir.path / "good.2bit").string();
    ASSERT_TRUE(genome::PackedFile::writeSequence(good, seq).ok());
    std::vector<char> bytes;
    {
        std::ifstream in(good, std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
    }

    auto write_variant = [&](const std::string &name,
                             std::vector<char> data) {
        const std::string path = (dir.path / name).string();
        std::ofstream out(path, std::ios::binary);
        out.write(data.data(),
                  static_cast<std::streamsize>(data.size()));
        return path;
    };

    // Truncated payload.
    auto truncated = std::vector<char>(bytes.begin(), bytes.end() - 1);
    EXPECT_FALSE(
        genome::PackedFile::map(write_variant("trunc.2bit", truncated))
            .ok());
    // Wrong magic.
    auto magic = bytes;
    magic[0] = 'X';
    EXPECT_FALSE(
        genome::PackedFile::map(write_variant("magic.2bit", magic)).ok());
    // Unsupported version.
    auto version = bytes;
    version[8] = 99;
    EXPECT_FALSE(
        genome::PackedFile::map(write_variant("ver.2bit", version)).ok());
    // Header shorter than the fixed layout.
    EXPECT_FALSE(genome::PackedFile::map(
                     write_variant("short.2bit",
                                   std::vector<char>(bytes.begin(),
                                                     bytes.begin() + 8)))
                     .ok());
    // N-exception list out of range (last u64 of the file).
    auto bad_n = bytes;
    for (size_t i = bad_n.size() - 8; i < bad_n.size(); ++i)
        bad_n[i] = static_cast<char>(0xff);
    EXPECT_FALSE(
        genome::PackedFile::map(write_variant("badn.2bit", bad_n)).ok());
}

// Load-once under contention: concurrent typed loads of one packed
// ref through one store decode once.
TEST(GenomeStore, PackedRefLoadsOnceUnderConcurrency)
{
    const uint64_t seed = test::testSeed(9305);
    Rng rng(seed);
    TempDir dir("loadonce");
    const genome::Sequence original = test::randomGenome(rng, 40000);
    const std::string path = (dir.path / "shared.2bit").string();
    ASSERT_TRUE(genome::PackedFile::writeSequence(path, original).ok());

    core::GenomeStore store;
    const core::GenomeRef ref = core::GenomeRef::packed(path);
    constexpr size_t kThreads = 8;
    std::vector<core::SharedSequence> loaded(kThreads);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            auto result = store.tryLoad(ref);
            if (result.ok())
                loaded[t] = std::move(result).value();
        });
    for (auto &t : threads)
        t.join();

    ASSERT_TRUE(loaded[0] != nullptr);
    for (size_t t = 1; t < kThreads; ++t)
        EXPECT_EQ(loaded[t].get(), loaded[0].get())
            << "concurrent loads decoded separate copies";
    EXPECT_EQ(*loaded[0], original);
    EXPECT_EQ(store.metricsSnapshot().at("store.loads"), 1.0);
    EXPECT_EQ(store.entryCount(), 1u);
}

// A packed ref served on 4 lanes loads once, holds one decoded copy,
// and matches the in-memory path.
TEST(ShardedSearchService, PackedGenomeMappedOnceAcrossShards)
{
    const uint64_t seed = test::testSeed(9306);
    Rng rng(seed);
    TempDir dir("sharedmap");
    const genome::Sequence original = test::randomGenome(rng, 20000);
    const std::string path = (dir.path / "ref.2bit").string();
    ASSERT_TRUE(genome::PackedFile::writeSequence(path, original).ok());
    auto guides = randomGuides(rng, 2);

    core::ShardedSearchService service(manualShards(4));
    core::RequestOptions request;
    request.genomeRef = core::GenomeRef::packed(path);
    request.config.maxMismatches = 2;
    auto fut = service.trySubmit(guides, request);
    service.drain();
    auto served = fut.get();
    ASSERT_TRUE(served.ok()) << served.error().message();

    core::SearchSession session(guides, request.config);
    EXPECT_EQ(served.value().hits, session.search(original).hits)
        << "seed=" << seed;
    EXPECT_EQ(service.store().metricsSnapshot().at("store.loads"), 1.0);
    EXPECT_EQ(service.health().storeBytes, original.size());
}

// A deadline that cuts the request short still completes it: the
// result is ok, flagged timedOut and counted as a partial, and its
// hits are a subset of the full result.
TEST(ShardedSearchService, DeadlineMidGatherReturnsPartial)
{
    const uint64_t seed = test::testSeed(9307);
    Rng rng(seed);
    auto genome = std::make_shared<const genome::Sequence>(
        test::randomGenome(rng, 60000));
    auto guides = randomGuides(rng, 2);

    core::SearchConfig config;
    config.maxMismatches = 3;
    core::SearchSession session(guides, config);
    const core::SearchResult full = session.search(*genome);

    core::ShardedSearchService service(manualShards(4));
    core::RequestOptions request;
    request.genome = genome;
    request.config = config;
    request.config.chunkSize = 1024;
    request.config.deadline = common::Deadline::after(1e-7);
    auto fut = service.trySubmit(guides, request);
    service.drain();
    auto served = fut.get();

    ASSERT_TRUE(served.ok()) << served.error().message();
    EXPECT_TRUE(served.value().timedOut);
    EXPECT_EQ(service.partialCount(), 1u);

    std::set<core::OffTargetHit> full_hits(full.hits.begin(),
                                           full.hits.end());
    for (const auto &hit : served.value().hits)
        EXPECT_TRUE(full_hits.count(hit))
            << "partial result invented a hit, seed=" << seed;
}

// Ranked requests under a deadline cut: the top-K over whatever the
// lanes managed is still a valid listing — possibly short, never over
// K, with no duplicate and no phantom entries, ordered penalty
// descending.
TEST(ShardedSearchService, RankedDeadlinePartialStaysValid)
{
    const uint64_t seed = test::testSeed(9310);
    Rng rng(seed);
    auto genome = std::make_shared<const genome::Sequence>(
        test::randomGenome(rng, 60000));
    auto guides = randomGuides(rng, 2);

    core::SearchConfig config;
    config.maxMismatches = 3;
    config.topK = 10;
    core::SearchSession session(guides, config);
    const core::SearchResult full = session.search(*genome);

    core::ShardedSearchService service(manualShards(4));
    core::RequestOptions request;
    request.genome = genome;
    request.config = config;
    request.config.chunkSize = 1024;
    request.config.deadline = common::Deadline::after(1e-7);
    auto fut = service.trySubmit(guides, request);
    service.drain();
    auto served = fut.get();

    ASSERT_TRUE(served.ok()) << served.error().message();
    EXPECT_TRUE(served.value().timedOut);
    EXPECT_TRUE(served.value().rankedMode);
    const auto &ranked = served.value().ranked;
    EXPECT_LE(ranked.size(), 10u);

    // No duplicates, no phantoms: every ranked entry is one of the
    // served (verified) hits and one of the full result's hits.
    std::set<core::OffTargetHit> unique(ranked.begin(), ranked.end());
    EXPECT_EQ(unique.size(), ranked.size())
        << "duplicate ranked entry, seed=" << seed;
    std::set<core::OffTargetHit> served_hits(
        served.value().hits.begin(), served.value().hits.end());
    std::set<core::OffTargetHit> full_hits(full.hits.begin(),
                                           full.hits.end());
    for (const auto &hit : ranked) {
        EXPECT_TRUE(served_hits.count(hit))
            << "ranked entry missing from served hits, seed=" << seed;
        EXPECT_TRUE(full_hits.count(hit))
            << "ranked entry is a phantom, seed=" << seed;
    }
    for (size_t i = 1; i < ranked.size(); ++i)
        EXPECT_FALSE(core::rankedHitBefore(ranked[i], ranked[i - 1]))
            << "ranked order violated at " << i << ", seed=" << seed;
}

// A windowed service (zero batch window, dispatcher-thread scans)
// serving many concurrent requests over two genomes at a high shard
// count: multi-group dispatch joins pool tasks while each group's scan
// fans out on the same pool. Every future must resolve, bit-identical
// to serial.
TEST(ShardedSearchService, WindowedDispatchUnderLoadCompletes)
{
    const uint64_t seed = test::testSeed(9309);
    Rng rng(seed);
    std::vector<core::SharedSequence> genomes;
    for (int g = 0; g < 2; ++g)
        genomes.push_back(std::make_shared<const genome::Sequence>(
            test::randomGenome(rng, 16000)));
    auto guides = randomGuides(rng, 8);

    core::SearchConfig config;
    config.maxMismatches = 2;
    config.chunkSize = 1024;
    config.threads = 2; // dispatcher scans fan out and help the pool

    std::vector<std::vector<core::OffTargetHit>> serial;
    for (size_t i = 0; i < guides.size(); ++i) {
        core::SearchSession session({guides[i]}, config);
        serial.push_back(session.search(*genomes[i % 2]).hits);
    }

    core::ShardOptions options;
    options.shards = 8;
    options.service.batchWindowSeconds = 0.0;
    core::ShardedSearchService service(options);
    std::vector<std::future<core::SearchResult>> futures;
    for (int round = 0; round < 3; ++round)
        for (size_t i = 0; i < guides.size(); ++i) {
            core::RequestOptions request;
            request.genome = genomes[i % 2];
            request.config = config;
            futures.push_back(service.submit({guides[i]}, request));
        }
    for (size_t f = 0; f < futures.size(); ++f)
        EXPECT_EQ(futures[f].get().hits,
                  serial[f % guides.size()])
            << "request " << f << " seed=" << seed;
    service.flush();
}

// Bookkeeping: requests that fail resolution complete with errors and
// are counted by the one service; the snapshot carries its service.*
// keys plus shard.count.
TEST(ShardedSearchService, ErrorsHealthAndMetrics)
{
    core::ShardedSearchService service(manualShards(2));

    // No genome named: completes immediately with InvalidArgument.
    auto no_genome =
        service.trySubmit({core::makeGuide("g", "ACGTACGTACGTACGTACGT")},
                          core::RequestOptions{});
    EXPECT_FALSE(no_genome.get().ok());
    // Empty guide list: same.
    core::RequestOptions request;
    request.genomeRef = core::GenomeRef::memory("absent");
    auto no_guides = service.trySubmit({}, request);
    EXPECT_FALSE(no_guides.get().ok());
    // A memory ref that was never put(): resolution fails up front.
    auto absent =
        service.trySubmit({core::makeGuide("g", "ACGTACGTACGTACGTACGT")},
                          request);
    EXPECT_FALSE(absent.get().ok());
    EXPECT_EQ(service.requestCount(), 3u);

    const core::ServiceHealth health = service.health();
    EXPECT_TRUE(health.accepting);
    EXPECT_EQ(health.queueDepth, 0u);

    const auto metrics = service.metricsSnapshot();
    EXPECT_EQ(metrics.at("shard.count"), 2.0);
    EXPECT_EQ(metrics.at("service.requests"), 3.0);
}

// The shard count is the service-default lane count: a request that
// leaves `threads` unset scans on `shards` lanes, and a request's own
// `threads` still wins.
TEST(ShardedSearchService, RequestsDefaultToShardLanes)
{
    const uint64_t seed = test::testSeed(9311);
    Rng rng(seed);
    auto genome = std::make_shared<const genome::Sequence>(
        test::randomGenome(rng, 12000));
    auto guides = randomGuides(rng, 1);

    core::ShardedSearchService service(manualShards(4));
    core::RequestOptions inherit;
    inherit.genome = genome;
    inherit.config.chunkSize = 1024;
    // Drained alone: a batch runs with its earliest member's runtime
    // options, so coalescing the two would mask the override.
    auto inherited = service.trySubmit(guides, inherit);
    service.drain();
    core::RequestOptions explicit_lanes = inherit;
    explicit_lanes.config.threads = 2;
    auto overridden = service.trySubmit(guides, explicit_lanes);
    service.drain();

    auto inherited_result = inherited.get();
    ASSERT_TRUE(inherited_result.ok());
    EXPECT_EQ(inherited_result.value().run.metrics.at("scan.threads"),
              4.0);
    auto overridden_result = overridden.get();
    ASSERT_TRUE(overridden_result.ok());
    EXPECT_EQ(overridden_result.value().run.metrics.at("scan.threads"),
              2.0);
    EXPECT_EQ(inherited_result.value().hits,
              overridden_result.value().hits);
}

// The execution-defaults satellite: a request field left at its
// built-in default inherits ServiceOptions::defaults (request >
// service default > built-in), observable through scan.threads.
TEST(SearchService, ExecutionDefaultsAreInherited)
{
    const uint64_t seed = test::testSeed(9308);
    Rng rng(seed);
    auto genome = std::make_shared<const genome::Sequence>(
        test::randomGenome(rng, 12000));
    auto guides = randomGuides(rng, 1);

    core::ServiceOptions options;
    options.batchWindowSeconds = -1.0;
    options.defaults.threads = 2;
    core::SearchService service(options);

    // Inherits threads = 2 from the service defaults. Drained alone:
    // a batch runs with its earliest member's runtime options, so
    // coalescing the two would mask the override.
    core::RequestOptions inherit;
    inherit.genome = genome;
    auto inherited = service.trySubmit(guides, inherit);
    service.drain();
    // Explicit request value beats the service default.
    core::RequestOptions target;
    target.genome = genome;
    target.config.threads = 3;
    auto overridden = service.trySubmit(guides, target);
    service.drain();

    auto inherited_result = inherited.get();
    ASSERT_TRUE(inherited_result.ok());
    EXPECT_EQ(inherited_result.value().run.metrics.at("scan.threads"),
              2.0);
    auto overridden_result = overridden.get();
    ASSERT_TRUE(overridden_result.ok());
    EXPECT_EQ(overridden_result.value().run.metrics.at("scan.threads"),
              3.0);
}

} // namespace
} // namespace crispr
