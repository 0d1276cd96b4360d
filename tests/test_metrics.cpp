/**
 * @file
 * Observability-layer tests: the metric primitives (counter / gauge /
 * log-bucketed histogram), the registry-to-map bridge, the metric-key
 * contract search results must honour, per-chunk latency histograms,
 * and chrome://tracing span capture. Histogram- and trace-specific
 * assertions skip under -DCRISPR_METRICS=OFF, where the inverse
 * (everything compiles to a no-op) is asserted instead.
 */

#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "core/session.hpp"
#include "hscan/simd.hpp"
#include "test_util.hpp"

namespace crispr {
namespace {

using common::kMetricsEnabled;
using common::MetricsRegistry;
using common::TraceSink;
using common::TraceSpan;

/** The log-bucketed quantile is exact to within a factor of two. */
void
expectWithin2x(double got, double want, const char *what)
{
    EXPECT_GE(got, want / 2.0) << what;
    EXPECT_LE(got, want * 2.0) << what;
}

TEST(Metrics, CounterAndGaugeBasics)
{
    MetricsRegistry reg;
    common::Counter c = reg.counter("test.count");
    c.inc();
    c.inc(41);
    EXPECT_EQ(c.value(), 42u);
    // Same name, same cell.
    EXPECT_EQ(reg.counter("test.count").value(), 42u);

    common::Gauge g = reg.gauge("test.gauge");
    g.set(2.5);
    EXPECT_EQ(g.value(), 2.5);

    // Default-constructed handles are inert, not crashing.
    common::Counter none;
    none.inc();
    EXPECT_EQ(none.value(), 0u);
    common::Histogram no_hist;
    no_hist.observe(1.0);
    EXPECT_EQ(no_hist.count(), 0u);
}

TEST(Metrics, CountersAreThreadSafe)
{
    MetricsRegistry reg;
    constexpr int kThreads = 4;
    constexpr int kIncs = 10000;
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
        // Each thread registers the same name itself: registration
        // and increment must both be safe concurrently.
        workers.emplace_back([&reg] {
            common::Counter c = reg.counter("shared.count");
            common::Histogram h = reg.histogram("shared.hist");
            for (int i = 0; i < kIncs; ++i) {
                c.inc();
                h.observe(1e-3);
            }
        });
    }
    for (auto &w : workers)
        w.join();
    EXPECT_EQ(reg.counter("shared.count").value(),
              static_cast<uint64_t>(kThreads) * kIncs);
    if (kMetricsEnabled) {
        EXPECT_EQ(reg.histogram("shared.hist").count(),
                  static_cast<uint64_t>(kThreads) * kIncs);
    }
}

TEST(Metrics, HistogramQuantiles)
{
    if (!kMetricsEnabled)
        GTEST_SKIP() << "histograms compiled out";
    MetricsRegistry reg;
    common::Histogram h = reg.histogram("lat");
    // 90% fast (1 ms), 10% slow (1 s): p50 must sit at the fast mode,
    // p99 at the slow one.
    for (int i = 0; i < 900; ++i)
        h.observe(1e-3);
    for (int i = 0; i < 100; ++i)
        h.observe(1.0);
    EXPECT_EQ(h.count(), 1000u);
    expectWithin2x(h.sum(), 900 * 1e-3 + 100 * 1.0, "sum");
    EXPECT_DOUBLE_EQ(h.max(), 1.0); // max is exact, not bucketed
    expectWithin2x(h.quantile(0.5), 1e-3, "p50");
    expectWithin2x(h.quantile(0.9), 1e-3, "p90 (900/1000 are fast)");
    expectWithin2x(h.quantile(0.99), 1.0, "p99");
    // Quantiles are monotone in q.
    EXPECT_LE(h.quantile(0.5), h.quantile(0.9));
    EXPECT_LE(h.quantile(0.9), h.quantile(0.99));
    EXPECT_LE(h.quantile(0.99), h.max());

    // Values spanning decades stay ordered.
    common::Histogram wide = reg.histogram("wide");
    for (double v : {1e-9, 1e-6, 1e-3, 1.0, 1e3})
        wide.observe(v);
    expectWithin2x(wide.quantile(0.0), 1e-9, "min decade");
    expectWithin2x(wide.quantile(1.0), 1e3, "max decade");
}

TEST(Metrics, HistogramDisabledIsNoOp)
{
    if (kMetricsEnabled)
        GTEST_SKIP() << "covered by HistogramQuantiles";
    MetricsRegistry reg;
    common::Histogram h = reg.histogram("lat");
    h.observe(1.0);
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.quantile(0.5), 0.0);
    // And no histogram keys leak into the bridged map.
    EXPECT_TRUE(reg.toMap().empty());
}

TEST(Metrics, RegistryBridgesToMap)
{
    MetricsRegistry reg;
    reg.counter("a.count").inc(3);
    reg.gauge("b.gauge").set(1.5);
    reg.histogram("c.lat"); // registered but empty: no keys
    std::map<std::string, double> out{{"preexisting", 7.0}};
    reg.mergeInto(out);
    EXPECT_EQ(out.at("a.count"), 3.0);
    EXPECT_EQ(out.at("b.gauge"), 1.5);
    EXPECT_EQ(out.at("preexisting"), 7.0);
    EXPECT_EQ(out.count("c.lat.count"), 0u);

    if (kMetricsEnabled) {
        reg.histogram("c.lat").observe(0.25);
        const auto map = reg.toMap();
        EXPECT_EQ(map.at("c.lat.count"), 1.0);
        expectWithin2x(map.at("c.lat.sum"), 0.25, "bridged sum");
        EXPECT_DOUBLE_EQ(map.at("c.lat.max"), 0.25);
        for (const char *q : {"c.lat.p50", "c.lat.p90", "c.lat.p99"})
            expectWithin2x(map.at(q), 0.25, q);
    }
}

TEST(Metrics, WriteMetricsJson)
{
    std::map<std::string, double> m{{"scan.bytes", 1024.0},
                                    {"scan.seconds", 0.5}};
    std::ostringstream os;
    common::writeMetricsJson(m, os);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"scan.bytes\""), std::string::npos);
    EXPECT_NE(json.find("1024"), std::string::npos);
    EXPECT_EQ(json.front(), '{');
}

/** A small deterministic search setup shared by the contract tests. */
struct SearchFixture
{
    std::vector<core::Guide> guides;
    genome::Sequence genome;
    core::SearchConfig config;

    explicit SearchFixture(size_t genome_len = 20000)
    {
        Rng rng(test::testSeed(0x3E7121));
        guides = core::randomGuides(2, 20, rng.next());
        genome = test::randomGenome(rng, genome_len, 0.0);
        config.maxMismatches = 2;
        config.engine = core::EngineKind::Reference;
    }
};

TEST(MetricsContract, SessionCountersAreMonotone)
{
    SearchFixture fx(4000);
    core::SearchSession session(fx.guides, fx.config);

    auto first = session.trySearch(fx.genome);
    ASSERT_TRUE(first.ok()) << first.error().str();
    const auto &m1 = first.value().run.metrics;
    EXPECT_EQ(m1.at("session.compiles"), 1.0);
    EXPECT_EQ(m1.at("session.cache_hits"), 0.0);
    EXPECT_EQ(m1.at("events.dropped"), 0.0);
    EXPECT_EQ(m1.at("scan.bytes"),
              static_cast<double>(fx.genome.size()));
    EXPECT_EQ(m1.at("search.hits"),
              static_cast<double>(first.value().hits.size()));

    auto second = session.trySearch(fx.genome);
    auto third = session.trySearch(fx.genome);
    ASSERT_TRUE(second.ok() && third.ok());
    const auto &m3 = third.value().run.metrics;
    EXPECT_EQ(m3.at("session.compiles"), 1.0);
    EXPECT_EQ(m3.at("session.cache_hits"), 2.0);
    EXPECT_EQ(session.compileCount(), 1u);
    EXPECT_EQ(session.cacheHits(), 2u);

    const auto snap = session.metricsSnapshot();
    EXPECT_EQ(snap.at("session.compiles"), 1.0);
    EXPECT_EQ(snap.at("session.cache_hits"), 2.0);
}

TEST(MetricsContract, ChunkedScanExportsLatencyHistogram)
{
    SearchFixture fx(20000);
    fx.config.threads = 2;
    fx.config.chunkSize = 4096;
    core::SearchSession session(fx.guides, fx.config);
    auto res = session.trySearch(fx.genome);
    ASSERT_TRUE(res.ok()) << res.error().str();
    const auto &m = res.value().run.metrics;
    EXPECT_EQ(m.at("scan.bytes"),
              static_cast<double>(fx.genome.size()));
    EXPECT_GE(m.at("scan.chunks"), 2.0);
    if (!kMetricsEnabled) {
        EXPECT_EQ(m.count("scan.chunk_seconds.count"), 0u);
        return;
    }
    ASSERT_EQ(m.count("scan.chunk_seconds.count"), 1u)
        << "per-chunk latency histogram missing";
    EXPECT_EQ(m.at("scan.chunk_seconds.count"), m.at("scan.chunks"));
    EXPECT_LE(m.at("scan.chunk_seconds.p50"),
              m.at("scan.chunk_seconds.p90"));
    EXPECT_LE(m.at("scan.chunk_seconds.p90"),
              m.at("scan.chunk_seconds.p99"));
    EXPECT_LE(m.at("scan.chunk_seconds.p99"),
              m.at("scan.chunk_seconds.max") * 2.0);
}

TEST(MetricsContract, PrefilterCascadeExportsItsCounters)
{
    // The filter-cascade work counters are part of the metric
    // contract: every prefilter scan exports how many anchors it
    // probed, how many survived, and how many verifications ran —
    // and the resolved kernel tier rides along as a gauge.
    SearchFixture fx(20000);
    fx.config.engine = core::EngineKind::HscanPrefilter;
    core::SearchSession session(fx.guides, fx.config);
    auto res = session.trySearch(fx.genome);
    ASSERT_TRUE(res.ok()) << res.error().str();
    const auto &m = res.value().run.metrics;

    ASSERT_EQ(m.count("scan.prefilter.anchors_probed"), 1u);
    ASSERT_EQ(m.count("scan.prefilter.anchors_hit"), 1u);
    ASSERT_EQ(m.count("scan.prefilter.verifications"), 1u);
    EXPECT_GT(m.at("scan.prefilter.anchors_probed"), 0.0);
    EXPECT_LE(m.at("scan.prefilter.anchors_hit"),
              m.at("scan.prefilter.anchors_probed"));
    EXPECT_GE(m.at("scan.prefilter.verifications"),
              m.at("scan.prefilter.anchors_hit"));

    ASSERT_EQ(m.count("scan.simd_tier"), 1u);
    EXPECT_EQ(m.at("scan.simd_tier"),
              hscan::simdTierGaugeValue(hscan::resolveSimdTier()));

    // The vector-capable Shift-Or engine exports the tier gauge too.
    core::SearchConfig bp = fx.config;
    bp.engine = core::EngineKind::HscanBitParallel;
    auto bp_res =
        core::SearchSession(fx.guides, bp).trySearch(fx.genome);
    ASSERT_TRUE(bp_res.ok()) << bp_res.error().str();
    EXPECT_EQ(bp_res.value().run.metrics.at("scan.simd_tier"),
              hscan::simdTierGaugeValue(hscan::resolveSimdTier()));
}

TEST(MetricsContract, SearchRecordsTraceSpans)
{
    SearchFixture fx(20000);
    fx.config.threads = 2;
    fx.config.chunkSize = 4096;
    TraceSink sink;
    fx.config.trace = &sink;
    core::SearchSession session(fx.guides, fx.config);
    auto res = session.trySearch(fx.genome);
    ASSERT_TRUE(res.ok()) << res.error().str();
    if (!kMetricsEnabled) {
        EXPECT_EQ(sink.size(), 0u);
        return;
    }
    EXPECT_EQ(sink.count("search"), 1u);
    EXPECT_EQ(sink.count("pattern.compile"), 1u);
    EXPECT_EQ(sink.count("engine.compile"), 1u);
    EXPECT_EQ(sink.count("scan"), 1u);
    EXPECT_EQ(sink.count("report"), 1u);
    EXPECT_GE(sink.count("chunk.scan"), 2u);

    std::ostringstream os;
    sink.writeJson(os);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"chunk.scan\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
}

TEST(MetricsContract, StreamedSearchRecordsParseSpans)
{
    SearchFixture fx(20000);
    fx.config.threads = 2;
    fx.config.chunkSize = 4096;
    TraceSink sink;
    fx.config.trace = &sink;
    core::SearchSession session(fx.guides, fx.config);

    std::string fasta = ">chr\n";
    const std::string seq = fx.genome.str();
    for (size_t i = 0; i < seq.size(); i += 70)
        fasta += seq.substr(i, 70) + "\n";
    std::istringstream in(fasta);
    auto res = session.trySearchStream(in);
    ASSERT_TRUE(res.ok()) << res.error().str();
    if (!kMetricsEnabled) {
        EXPECT_EQ(sink.size(), 0u);
        return;
    }
    EXPECT_EQ(sink.count("search"), 1u);
    EXPECT_GE(sink.count("parse"), 1u);
    EXPECT_GE(sink.count("chunk.scan"), 2u);
    EXPECT_GE(sink.count("report"), 1u);
}

TEST(MetricsContract, SpanFinishStopsTheClock)
{
    TraceSink sink;
    {
        TraceSpan span(&sink, "outer");
        {
            TraceSpan inner(&sink, "inner");
            inner.finish();
            inner.finish(); // idempotent
        }
    }
    TraceSpan inert(nullptr, "never");
    inert.finish();
    if (!kMetricsEnabled) {
        EXPECT_EQ(sink.size(), 0u);
        return;
    }
    EXPECT_EQ(sink.size(), 2u);
    EXPECT_EQ(sink.count("outer"), 1u);
    EXPECT_EQ(sink.count("inner"), 1u);
    EXPECT_EQ(sink.count("never"), 0u);
    for (const auto &ev : sink.events())
        EXPECT_GE(ev.startMicros + ev.durMicros,
                  ev.startMicros); // no underflow
}

} // namespace
} // namespace crispr
