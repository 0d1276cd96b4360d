/**
 * @file
 * E12 — Engine micro-throughput (google-benchmark): bytes/second of
 * every scan path on a fixed 1 MB genome, isolating per-engine scan
 * cost from compilation and orchestration.
 */

#include <benchmark/benchmark.h>

#include "workloads.hpp"

#include "ap/simulator.hpp"
#include "automata/builders.hpp"
#include "automata/dfa.hpp"
#include "baselines/brute.hpp"
#include "baselines/casoffinder.hpp"
#include "baselines/casot.hpp"
#include "core/chunked_scan.hpp"
#include "core/engine_registry.hpp"
#include "fpga/fabric.hpp"
#include "gpu/infant2.hpp"
#include "hscan/multipattern.hpp"
#include "hscan/prefilter.hpp"

using namespace crispr;

namespace {

constexpr size_t kGenomeLen = 1 << 20;

const bench::Workload &
fixedWorkload()
{
    static bench::Workload w = bench::makeWorkload(kGenomeLen, 4, 71);
    return w;
}

core::PatternSet
patterns(int d)
{
    return core::buildPatternSet(fixedWorkload().guides, core::pamNRG(),
                                 d, true);
}

void
reportBytes(benchmark::State &state)
{
    state.SetBytesProcessed(
        static_cast<int64_t>(state.iterations()) * kGenomeLen);
}

void
BM_HscanDfa(benchmark::State &state)
{
    const int d = static_cast<int>(state.range(0));
    hscan::DatabaseOptions opts;
    opts.mode = hscan::ScanMode::Dfa;
    opts.maxDfaStates = 1u << 20;
    hscan::Database db = hscan::Database::compile(
        patterns(d).specsForStream(false), opts);
    hscan::Scanner scanner(db);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            scanner.scanAll(fixedWorkload().genome));
    reportBytes(state);
}
BENCHMARK(BM_HscanDfa)->Arg(0)->Arg(1);

void
BM_HscanBitParallel(benchmark::State &state)
{
    const int d = static_cast<int>(state.range(0));
    hscan::DatabaseOptions opts;
    opts.mode = hscan::ScanMode::BitParallel;
    hscan::Database db = hscan::Database::compile(
        patterns(d).specsForStream(false), opts);
    hscan::Scanner scanner(db);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            scanner.scanAll(fixedWorkload().genome));
    reportBytes(state);
}
BENCHMARK(BM_HscanBitParallel)->Arg(1)->Arg(3)->Arg(5);

void
BM_NfaInterpreter(benchmark::State &state)
{
    const int d = static_cast<int>(state.range(0));
    std::vector<automata::Nfa> nfas;
    for (const core::Pattern &p : patterns(d).patterns)
        nfas.push_back(automata::buildHammingNfa(p.spec));
    automata::Nfa u = automata::unionNfas(nfas);
    automata::NfaInterpreter interp(u);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            interp.scanAll(fixedWorkload().genome));
    reportBytes(state);
}
BENCHMARK(BM_NfaInterpreter)->Arg(1)->Arg(3);

void
BM_ApCycleSim(benchmark::State &state)
{
    const int d = static_cast<int>(state.range(0));
    std::vector<automata::Nfa> nfas;
    for (const core::Pattern &p : patterns(d).patterns)
        nfas.push_back(automata::buildHammingNfa(p.spec));
    automata::Nfa u = automata::unionNfas(nfas);
    ap::ApMachine machine = ap::fromNfa(u);
    ap::ApSimulator sim(machine);
    for (auto _ : state)
        benchmark::DoNotOptimize(sim.scanAll(fixedWorkload().genome));
    reportBytes(state);
}
BENCHMARK(BM_ApCycleSim)->Arg(1)->Arg(3);

void
BM_Infant2Functional(benchmark::State &state)
{
    const int d = static_cast<int>(state.range(0));
    std::vector<automata::Nfa> nfas;
    for (const core::Pattern &p : patterns(d).patterns)
        nfas.push_back(automata::buildHammingNfa(p.spec));
    automata::Nfa u = automata::unionNfas(nfas);
    gpu::Infant2Engine engine(u);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            engine.scanAll(fixedWorkload().genome));
    reportBytes(state);
}
BENCHMARK(BM_Infant2Functional)->Arg(1)->Arg(3);

void
BM_CasOffinderHost(benchmark::State &state)
{
    const int d = static_cast<int>(state.range(0));
    auto specs = patterns(d).specsForStream(false);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            baselines::casOffinderScan(fixedWorkload().genome, specs));
    }
    reportBytes(state);
}
BENCHMARK(BM_CasOffinderHost)->Arg(1)->Arg(3);

void
BM_CasOtDirect(benchmark::State &state)
{
    const int d = static_cast<int>(state.range(0));
    auto specs = patterns(d).specsForStream(false);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            baselines::casOtScan(fixedWorkload().genome, specs, {}));
    }
    reportBytes(state);
}
BENCHMARK(BM_CasOtDirect)->Arg(1)->Arg(3);

void
BM_BruteForce(benchmark::State &state)
{
    const int d = static_cast<int>(state.range(0));
    auto specs = patterns(d).specsForStream(false);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            baselines::bruteForceScan(fixedWorkload().genome, specs));
    }
    reportBytes(state);
}
BENCHMARK(BM_BruteForce)->Arg(1)->Arg(3);

void
BM_HscanPrefilter(benchmark::State &state)
{
    const int d = static_cast<int>(state.range(0));
    hscan::PrefilterMatcher matcher(
        patterns(d).specsForStream(false));
    for (auto _ : state)
        benchmark::DoNotOptimize(
            matcher.scanAll(fixedWorkload().genome));
    reportBytes(state);
}
BENCHMARK(BM_HscanPrefilter)->Arg(1)->Arg(3)->Arg(5);

void
BM_ChunkedScan(benchmark::State &state)
{
    const core::Engine &engine = core::EngineRegistry::instance().engine(
        core::EngineKind::HscanBitParallel);
    auto compiled = std::make_shared<const core::CompiledPattern>(
        engine.compile(patterns(3), bench::defaultParams()));
    core::ChunkedScanOptions opts;
    opts.threads = static_cast<unsigned>(state.range(0));
    opts.chunkSize = 128 << 10;
    const core::ChunkedScanner scanner(engine, compiled, opts);
    for (auto _ : state)
        benchmark::DoNotOptimize(scanner.scan(fixedWorkload().genome));
    reportBytes(state);
}
BENCHMARK(BM_ChunkedScan)->Arg(1)->Arg(2)->Arg(4);

void
BM_DatabaseCompile(benchmark::State &state)
{
    const int d = static_cast<int>(state.range(0));
    auto specs = patterns(d).specsForStream(false);
    for (auto _ : state) {
        benchmark::DoNotOptimize(hscan::Database::compile(specs));
    }
}
BENCHMARK(BM_DatabaseCompile)->Arg(1)->Arg(3);

} // namespace

BENCHMARK_MAIN();
