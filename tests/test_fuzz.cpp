/** @file Failure-injection / fuzz tests: the parsers must reject
 *  arbitrary malformed input with FatalError or a typed error — never
 *  crash, never raise PanicError (which would indicate an internal
 *  bug). */

#include <span>
#include <sstream>

#include <gtest/gtest.h>

#include "ap/anml.hpp"
#include "common/logging.hpp"
#include "common/serial.hpp"
#include "genome/fasta.hpp"
#include "genome/fasta_stream.hpp"
#include "hscan/multipattern.hpp"
#include "test_util.hpp"

namespace crispr {
namespace {

/** Random printable-ish text with FASTA/XML-like fragments mixed in. */
std::string
randomText(Rng &rng, size_t len)
{
    static const char *fragments[] = {
        ">", "<", "\"", "=", "\n", "ACGT", "state-transition-element",
        "symbol-set", "id", "/>", "wire", "counter", "report-code",
        "N", "\r\n", " ", "[", "]", "*",
    };
    std::string out;
    while (out.size() < len) {
        if (rng.chance(0.5)) {
            out += fragments[rng.below(std::size(fragments))];
        } else {
            out.push_back(static_cast<char>(32 + rng.below(95)));
        }
    }
    return out;
}

template <typename Fn>
void
expectGraceful(Fn &&fn, const std::string &what)
{
    try {
        fn();
    } catch (const FatalError &) {
        // Expected rejection path.
    } catch (const PanicError &e) {
        FAIL() << what << " raised PanicError (internal bug): "
               << e.what();
    } catch (const std::exception &e) {
        // std::stoul etc. escaping the parser would be a robustness
        // bug worth knowing about.
        FAIL() << what << " raised unexpected exception: " << e.what();
    }
}

/** "name seed=S trial=T" — everything needed to replay one case. */
std::string
fuzzCase(const char *what, uint64_t seed, int trial)
{
    return std::string(what) + " seed=" + std::to_string(seed) +
           " trial=" + std::to_string(trial);
}

class ParserFuzz : public ::testing::TestWithParam<int>
{
};

TEST_P(ParserFuzz, FastaReaderNeverCrashes)
{
    const uint64_t seed =
        test::testSeed(static_cast<uint64_t>(GetParam()) * 131);
    Rng rng(seed);
    for (int trial = 0; trial < 40; ++trial) {
        std::string text = randomText(rng, 200);
        expectGraceful(
            [&] {
                std::istringstream in(text);
                genome::readFasta(in);
            },
            fuzzCase("readFasta", seed, trial));
    }
}

TEST_P(ParserFuzz, FastaStreamNeverCrashes)
{
    const uint64_t seed =
        test::testSeed(static_cast<uint64_t>(GetParam()) * 137);
    Rng rng(seed);
    for (int trial = 0; trial < 40; ++trial) {
        std::string text = randomText(rng, 200);
        expectGraceful(
            [&] {
                std::istringstream in(text);
                genome::FastaStreamReader reader(in);
                std::vector<uint8_t> buf;
                while (reader.next(64, buf)) {
                }
            },
            fuzzCase("FastaStreamReader", seed, trial));
    }
}

TEST_P(ParserFuzz, AnmlParsersNeverCrash)
{
    const uint64_t seed =
        test::testSeed(static_cast<uint64_t>(GetParam()) * 139);
    Rng rng(seed);
    for (int trial = 0; trial < 40; ++trial) {
        std::string text = randomText(rng, 300);
        expectGraceful([&] { ap::machineAnmlFromString(text); },
                       fuzzCase("machineAnmlFromString", seed, trial));
    }
}

/** Decode a `.cpdb` database blob; whatever it accepts must scan.
 *  @return whether the decoder accepted the blob. */
bool
decodeAndScan(std::span<const uint8_t> blob, const genome::Sequence &seq,
              const std::string &what)
{
    bool accepted = false;
    expectGraceful(
        [&] {
            auto db = hscan::Database::deserializeCompiled(blob);
            accepted = db.ok();
            if (accepted)
                hscan::Scanner(db.value()).scanAll(seq);
        },
        what);
    return accepted;
}

TEST_P(ParserFuzz, DatabaseDeserializeNeverCrashes)
{
    // The envelope serializeCompiled() seals its payload in.
    constexpr const char *kKind = "hscan-db";
    constexpr uint32_t kVersion = 1;
    const uint64_t seed =
        test::testSeed(static_cast<uint64_t>(GetParam()) * 149);
    Rng rng(seed);
    const genome::Sequence seq = test::randomGenome(rng, 512);
    std::vector<automata::HammingSpec> specs;
    for (uint32_t i = 0; i < 2; ++i)
        specs.push_back(test::randomGuideSpec(rng, 8, 3, 1, i));

    for (hscan::ScanMode mode :
         {hscan::ScanMode::Dfa, hscan::ScanMode::BitParallel}) {
        hscan::DatabaseOptions opts;
        opts.mode = mode;
        const std::vector<uint8_t> blob =
            hscan::Database::compile(specs, opts).serializeCompiled();
        auto opened = common::openBlob(kKind, kVersion, blob);
        ASSERT_TRUE(opened.ok()) << opened.error().str();
        const std::vector<uint8_t> payload(opened.value().begin(),
                                           opened.value().end());
        // Re-sealing the clean payload must reproduce the blob, so the
        // mutations below really get past the content hash.
        ASSERT_EQ(common::sealBlob(kKind, kVersion, payload), blob);

        const std::string path =
            mode == hscan::ScanMode::Dfa ? "dfa" : "bit-parallel";
        size_t accepted = 0;
        for (int trial = 0; trial < 40; ++trial) {
            // Mutated payloads, re-sealed, sometimes truncated.
            auto mutated = payload;
            const size_t flips = 1 + rng.below(8);
            for (size_t f = 0; f < flips; ++f)
                mutated[rng.below(mutated.size())] =
                    static_cast<uint8_t>(rng.below(256));
            if (rng.chance(0.25))
                mutated.resize(rng.below(mutated.size()));
            accepted += decodeAndScan(
                common::sealBlob(kKind, kVersion, mutated), seq,
                fuzzCase(("deserializeCompiled " + path).c_str(), seed,
                         trial));

            std::vector<uint8_t> garbage(rng.below(64));
            for (auto &b : garbage)
                b = static_cast<uint8_t>(rng.below(256));
            decodeAndScan(garbage, seq,
                          fuzzCase("deserializeCompiled(garbage)", seed,
                                   trial));
        }
        // Bit-parallel blobs survive many mutations (a flipped mask or
        // report id still decodes), so some must have reached the
        // scanner; the DFA path validates its tables and rarely
        // accepts one.
        if (mode == hscan::ScanMode::BitParallel) {
            EXPECT_GT(accepted, 0u) << "seed=" << seed;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz, ::testing::Range(1, 5));

} // namespace
} // namespace crispr
