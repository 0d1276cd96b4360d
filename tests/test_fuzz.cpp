/** @file Failure-injection / fuzz tests: the parsers must reject
 *  arbitrary malformed input with FatalError — never crash, never
 *  raise PanicError (which would indicate an internal bug). */

#include <sstream>

#include <gtest/gtest.h>

#include "ap/anml.hpp"
#include "common/logging.hpp"
#include "genome/fasta.hpp"
#include "genome/fasta_stream.hpp"
#include "hscan/database.hpp"
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

TEST_P(ParserFuzz, DatabaseDeserializeNeverCrashes)
{
    const uint64_t seed =
        test::testSeed(static_cast<uint64_t>(GetParam()) * 149);
    Rng rng(seed);
    // Mutated valid blobs plus pure garbage.
    auto spec = crispr::test::randomGuideSpec(rng, 8, 3, 1, 0);
    auto blob =
        hscan::Database::compile(std::vector{spec}).serialize();
    for (int trial = 0; trial < 40; ++trial) {
        auto mutated = blob;
        const size_t flips = 1 + rng.below(8);
        for (size_t f = 0; f < flips && !mutated.empty(); ++f)
            mutated[rng.below(mutated.size())] =
                static_cast<uint8_t>(rng.below(256));
        expectGraceful(
            [&] { hscan::Database::deserialize(mutated); },
            fuzzCase("Database::deserialize", seed, trial));

        std::vector<uint8_t> garbage(rng.below(64));
        for (auto &b : garbage)
            b = static_cast<uint8_t>(rng.below(256));
        expectGraceful(
            [&] { hscan::Database::deserialize(garbage); },
            fuzzCase("Database::deserialize(garbage)", seed, trial));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz, ::testing::Range(1, 5));

} // namespace
} // namespace crispr
