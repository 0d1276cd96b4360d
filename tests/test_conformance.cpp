/**
 * @file
 * Cross-engine conformance suite (ctest label `conformance`):
 * randomized workloads — guide length 16..24, d = 0..4, NGG/NAG/NRG
 * PAMs, genomes 1 KB .. 256 KB salted with Ns, multi-record FASTA
 * with CRLF line endings — run through every engine in the registry
 * and asserted bit-identical against the reference NFA interpreter.
 * This generalises the hand-picked seam cases in test_session.cpp to
 * generated ones.
 *
 * Reproducibility: every assertion message carries the workload seed
 * and parameters; rerun one workload with
 * `CRISPR_TEST_SEED=<seed> ctest -L conformance` (an explicit seed
 * becomes workload 0 of every shard).
 */

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine_registry.hpp"
#include "core/session.hpp"
#include "genome/fasta.hpp"
#include "hscan/simd.hpp"
#include "test_util.hpp"

namespace crispr {
namespace {

using core::EngineKind;

constexpr int kShards = 8;
constexpr int kWorkloadsPerShard = 25; // x kShards = 200 workloads

/** One generated workload; str() is the repro line for failures. */
struct Workload
{
    uint64_t seed = 0;
    size_t guideLen = 20;
    size_t nGuides = 1;
    int d = 0;
    int pamChoice = 0; // 0=NGG 1=NAG 2=NRG
    bool bothStrands = true;
    size_t genomeLen = 0;
    size_t nRecords = 1;
    double nFraction = 0.0;

    std::vector<core::Guide> guides;
    std::vector<genome::FastaRecord> records;
    genome::Sequence genome; //!< concatenated records (N separators)
    std::string fastaText;   //!< CRLF-laden serialization

    std::string
    str() const
    {
        std::ostringstream os;
        os << "workload{seed=" << seed << " guide_len=" << guideLen
           << " guides=" << nGuides << " d=" << d << " pam="
           << (pamChoice == 0 ? "NGG"
                              : (pamChoice == 1 ? "NAG" : "NRG"))
           << " both_strands=" << bothStrands
           << " genome_len=" << genomeLen
           << " records=" << nRecords << " n_frac=" << nFraction
           << "}";
        return os.str();
    }
};

core::PamSpec
pamOf(int choice)
{
    switch (choice) {
    case 0:
        return core::pamNGG();
    case 1:
        return core::pamNAG();
    default:
        return core::pamNRG();
    }
}

/** A concrete base drawn from one IUPAC mask. */
uint8_t
baseFromMask(genome::BaseMask mask, Rng &rng)
{
    std::vector<uint8_t> allowed;
    for (uint8_t b = 0; b < 4; ++b)
        if (mask & (1u << b))
            allowed.push_back(b);
    if (allowed.empty())
        return 0;
    return allowed[rng.below(allowed.size())];
}

/** guide protospacer + a concrete PAM drawn from the spec. */
genome::Sequence
siteFor(const core::Guide &guide, const core::PamSpec &pam, Rng &rng)
{
    std::vector<uint8_t> codes(guide.protospacer.codes().begin(),
                               guide.protospacer.codes().end());
    for (genome::BaseMask mask : genome::masksFromIupac(pam.iupac))
        codes.push_back(baseFromMask(mask, rng));
    return genome::Sequence(std::move(codes));
}

/** Serialize records by hand so every line ends in CRLF. */
std::string
crlfFasta(const std::vector<genome::FastaRecord> &records, Rng &rng)
{
    std::string out;
    for (const genome::FastaRecord &rec : records) {
        out += ">" + rec.name + "\r\n";
        const std::string seq = rec.seq.str();
        const size_t width = 60 + rng.below(21);
        for (size_t i = 0; i < seq.size(); i += width)
            out += seq.substr(i, width) + "\r\n";
    }
    return out;
}

Workload
makeWorkload(uint64_t seed)
{
    Workload w;
    w.seed = seed;
    Rng rng(seed);
    w.guideLen = 16 + rng.below(9); // 16..24
    w.nGuides = 1 + rng.below(2);
    w.d = static_cast<int>(rng.below(5)); // 0..4
    w.pamChoice = static_cast<int>(rng.below(3));
    w.bothStrands = rng.chance(0.75);
    w.genomeLen = (size_t{1024} << rng.below(9)) + rng.below(1024);
    w.nRecords = 1 + rng.below(3);
    w.nFraction = rng.chance(0.5) ? 0.01 : 0.0;

    const core::PamSpec pam = pamOf(w.pamChoice);
    for (size_t g = 0; g < w.nGuides; ++g)
        w.guides.push_back(core::makeGuide(
            "g" + std::to_string(g),
            test::randomGenome(rng, w.guideLen, 0.0).str()));

    // Split the genome across records, then plant mutated sites —
    // including one flush against a record end, the seam/boundary
    // case chunked scans must not lose.
    std::vector<size_t> cuts;
    for (size_t r = 0; r + 1 < w.nRecords; ++r)
        cuts.push_back(1 + rng.below(w.genomeLen - 1));
    std::sort(cuts.begin(), cuts.end());
    cuts.push_back(w.genomeLen);
    size_t from = 0;
    for (size_t r = 0; r < w.nRecords; ++r) {
        const size_t len = cuts[r] - from;
        from = cuts[r];
        genome::FastaRecord rec;
        rec.name = "rec" + std::to_string(r);
        rec.seq = test::randomGenome(rng, len, w.nFraction);
        w.records.push_back(std::move(rec));
    }
    for (size_t g = 0; g < w.nGuides; ++g) {
        const genome::Sequence site =
            siteFor(w.guides[g], pam, rng);
        for (int copy = 0; copy < 3; ++copy) {
            genome::FastaRecord &rec =
                w.records[rng.below(w.records.size())];
            if (rec.seq.size() < site.size())
                continue;
            const genome::Sequence mutated = genome::mutateSite(
                site, static_cast<int>(rng.below(w.d + 1)), 0,
                w.guideLen, rng);
            const size_t at =
                copy == 0 ? rec.seq.size() - site.size()
                          : rng.below(rec.seq.size() - site.size() +
                                      1);
            genome::plantSite(rec.seq, at, mutated);
        }
    }
    w.genome = genome::concatenateRecords(w.records);
    w.fastaText = crlfFasta(w.records, rng);
    return w;
}

core::SearchConfig
configFor(const Workload &w, EngineKind kind)
{
    core::SearchConfig cfg;
    cfg.pam = pamOf(w.pamChoice);
    cfg.maxMismatches = w.d;
    cfg.bothStrands = w.bothStrands;
    cfg.engine = kind;
    // Device-model engines switch to the verified analytic event path
    // past this limit, which keeps 256 KB workloads tractable while
    // small genomes still exercise the cycle simulators.
    cfg.params.fullSimSymbolLimit = 16 << 10;
    return cfg;
}

/** Every hit of `got` must appear in `want` (AP counter design). */
void
expectSubset(const std::vector<core::OffTargetHit> &got,
             const std::vector<core::OffTargetHit> &want,
             const std::string &label)
{
    for (const core::OffTargetHit &h : got)
        EXPECT_TRUE(std::find(want.begin(), want.end(), h) !=
                    want.end())
            << label << " hit (guide=" << h.guide
            << " start=" << h.start << ") not in the reference set";
}

/**
 * Draw a forced SIMD tier as part of the scan geometry. A drawn tier
 * this host/build cannot run is noted once and degraded to scalar, so
 * the workload is still covered (the vector-capable engines must be
 * bit-identical at whatever tier actually runs).
 */
hscan::SimdTier
drawSimdTier(Rng &rng)
{
    static const hscan::SimdTier tiers[] = {hscan::SimdTier::Scalar,
                                            hscan::SimdTier::Avx2,
                                            hscan::SimdTier::Avx512};
    hscan::SimdTier tier = tiers[rng.below(std::size(tiers))];
    if (!hscan::simdTierUsable(tier)) {
        static bool noted[4] = {};
        if (!noted[static_cast<int>(tier)]) {
            noted[static_cast<int>(tier)] = true;
            std::printf("[  NOTE    ] forced SIMD tier %s is not "
                        "usable on this host/build; degrading those "
                        "draws to scalar\n",
                        hscan::simdTierName(tier));
        }
        tier = hscan::SimdTier::Scalar;
    }
    return tier;
}

class Conformance : public ::testing::TestWithParam<int>
{
};

TEST_P(Conformance, EveryEngineMatchesReference)
{
    const uint64_t base =
        test::testSeed(0xC04F04ull * 1000003 + GetParam());
    for (int i = 0; i < kWorkloadsPerShard; ++i) {
        const Workload w =
            makeWorkload(base + i * 0x9E3779B97F4A7C15ull);
        core::SearchSession session(w.guides,
                                    configFor(w, EngineKind::Reference),
                                    /*cache_capacity=*/16);
        auto want = session.trySearch(w.genome);
        ASSERT_TRUE(want.ok())
            << w.str() << " reference failed: "
            << want.error().str();

        // Scan geometry is randomized per engine: threads 1..8 run as
        // lanes on the shared Executor (1 = the pool-free serial
        // path), with a chunk size small enough that multi-chunk
        // fan-out actually happens. Bit-identity must hold across all
        // of it; the failure label carries the geometry.
        Rng trng(w.seed ^ 0x7EAD5EEDull);
        for (EngineKind kind :
             core::EngineRegistry::instance().kinds()) {
            core::SearchConfig cfg = configFor(w, kind);
            cfg.threads = 1 + trng.below(8);
            cfg.chunkSize = size_t{2048} << trng.below(4);
            cfg.simdTier = drawSimdTier(trng);
            const std::string label =
                w.str() + " engine=" + core::engineName(kind) +
                " threads=" + std::to_string(cfg.threads) +
                " chunk=" + std::to_string(cfg.chunkSize) +
                " simd=" + hscan::simdTierName(cfg.simdTier);
            auto got = session.trySearch(w.genome, cfg);
            if (!got.ok()) {
                // The forced-DFA kind may legitimately blow its state
                // budget at high d / long guides; everything else
                // must serve every workload.
                const auto code = got.error().code();
                if (kind == EngineKind::HscanDfa &&
                    (code == common::ErrorCode::CompileFailed ||
                     code == common::ErrorCode::ResourceExhausted))
                    continue;
                FAIL() << label
                       << " failed: " << got.error().str();
            }
            if (kind == EngineKind::ApCounter) {
                // Documented limitation: shared-counter aliasing can
                // both drop and miss sites; survivors are verified.
                expectSubset(got.value().hits, want.value().hits,
                             label);
                continue;
            }
            EXPECT_EQ(got.value().hits, want.value().hits) << label;
            EXPECT_EQ(got.value().droppedEvents, 0u) << label;
            EXPECT_EQ(got.value().run.metrics.at("events.dropped"),
                      0.0)
                << label;
        }
    }
}

TEST_P(Conformance, StreamedScanMatchesInMemory)
{
    // CRLF-laden multi-record FASTA through the streaming pipeline
    // with a random chunk geometry must reproduce the in-memory hits
    // of the same engine exactly.
    static const EngineKind chunkable[] = {
        EngineKind::Brute,          EngineKind::Reference,
        EngineKind::HscanAuto,      EngineKind::HscanBitParallel,
        EngineKind::HscanPrefilter, EngineKind::CasOffinder,
        EngineKind::CasOt,          EngineKind::CasOtIndexed,
    };
    const uint64_t base =
        test::testSeed(0x57AE11ull * 1000003 + GetParam());
    for (int i = 0; i < kWorkloadsPerShard; ++i) {
        const uint64_t seed = base + i * 0x9E3779B97F4A7C15ull;
        const Workload w = makeWorkload(seed);
        Rng rng(seed ^ 0xFEED);
        const EngineKind kind =
            chunkable[rng.below(std::size(chunkable))];

        core::SearchConfig cfg = configFor(w, kind);
        core::SearchSession session(w.guides, cfg);
        auto want = session.trySearch(w.genome);
        const std::string label =
            w.str() + " engine=" + core::engineName(kind);
        ASSERT_TRUE(want.ok())
            << label << " in-memory failed: " << want.error().str();

        cfg.chunkSize = size_t{512} << rng.below(5); // 512..8192
        // 1 = the serial bypass; 2..8 fan chunk scans out as lanes on
        // the shared work-stealing pool (possibly more lanes than the
        // pool has workers — the submitting thread helps).
        cfg.threads = 1 + rng.below(8);
        cfg.simdTier = drawSimdTier(rng);
        std::istringstream in(w.fastaText);
        auto streamed = session.trySearchStream(in, cfg);
        ASSERT_TRUE(streamed.ok())
            << label << " (chunk=" << cfg.chunkSize
            << " threads=" << cfg.threads
            << " simd=" << hscan::simdTierName(cfg.simdTier)
            << ") streamed failed: " << streamed.error().str();
        EXPECT_EQ(streamed.value().hits, want.value().hits)
            << label << " chunk=" << cfg.chunkSize
            << " threads=" << cfg.threads
            << " simd=" << hscan::simdTierName(cfg.simdTier);
    }
}

INSTANTIATE_TEST_SUITE_P(Shards, Conformance,
                         ::testing::Range(0, kShards));

} // namespace
} // namespace crispr
