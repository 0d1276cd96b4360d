/**
 * @file
 * E16 — in-scan scoring overhead and ranked-report throughput. Three
 * questions, one workload:
 *  1. What does in-scan position-weighted scoring cost? (scored scan
 *     throughput vs the boolean baseline; bar: >= 0.8x). Both sides
 *     time the same engine scan plus hitsFromEvents(), with and
 *     without `with_scores` — searches always score, so the boolean
 *     baseline exists only at that level.
 *  2. Is the integrated ranked path (scored scan + topK) faster than
 *     the naive pipeline — boolean scan, then post-hoc re-walking
 *     every hit through hitMismatchPositions()/sitePenalty(), then
 *     sorting? (bar: faster at 1000 guides)
 *  3. Do the two pipelines agree? The ranked listings must be
 *     bit-identical (fatal on divergence — this is the conformance
 *     property, re-checked on benchmark-scale workloads).
 *
 * Emits a BENCH_e16_scoring.json row (see --json) for CI trend
 * tracking.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "core/engine_registry.hpp"
#include "core/score.hpp"
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

/** The naive pipeline's rescoring step: re-walk every hit through the
 *  post-hoc primitives and rank the scored copies. */
std::vector<core::OffTargetHit>
postHocRank(const genome::Sequence &genome, const core::PatternSet &set,
            std::vector<core::OffTargetHit> hits, size_t top_k)
{
    for (core::OffTargetHit &hit : hits) {
        const std::vector<size_t> positions =
            core::hitMismatchPositions(genome, set, hit);
        hit.mismatchMask = core::mismatchPositionsToMask(positions);
        hit.penalty = core::sitePenalty(positions, set.guideLength);
    }
    return core::rankHits(hits, 0.0, top_k);
}

} // namespace

int
main(int argc, char **argv)
{
    Cli cli("E16: in-scan scoring overhead + ranked-report throughput");
    cli.addInt("genome-mb", 1, "genome size in MB");
    cli.addInt("guides", 1000, "guide set size");
    cli.addInt("d", 3, "mismatch budget");
    cli.addInt("top-k", 100, "ranked report size");
    cli.addInt("family", 50,
               "guides per family (single-base variants of a shared "
               "core, so planted sites match many guides — the "
               "hit-dense regime where ranked reports matter)");
    cli.addInt("plant-percent", 50,
               "percentage of site slots planted with near-miss "
               "sites of the family cores");
    cli.addInt("reps", 5, "repetitions per measurement (median)");
    cli.addString("engine", "hscan", "engine name (see registry)");
    cli.addString("json", "BENCH_e16_scoring.json",
                  "output path of the JSON result row");
    if (!cli.parse(argc, argv))
        return 0;

    const size_t genome_mb =
        static_cast<size_t>(cli.getInt("genome-mb"));
    const size_t num_guides = static_cast<size_t>(cli.getInt("guides"));
    const int d = static_cast<int>(cli.getInt("d"));
    const size_t top_k = static_cast<size_t>(cli.getInt("top-k"));
    const size_t family =
        std::max<size_t>(1, static_cast<size_t>(cli.getInt("family")));
    const int plant_percent =
        static_cast<int>(cli.getInt("plant-percent"));
    const int reps = std::max(1, static_cast<int>(cli.getInt("reps")));
    const std::string engine_name = cli.getString("engine");
    const std::string json_path = cli.getString("json");

    const core::Engine *engine =
        core::EngineRegistry::instance().findByName(engine_name);
    if (!engine)
        fatal("unknown engine: %s", engine_name.c_str());

    bench::printBanner(
        "E16",
        strprintf("scored automata — %zu MB genome, %zu guides, d=%d, "
                  "top-%zu, engine=%s",
                  genome_mb, num_guides, d, top_k, engine->name()),
        "position-weighted penalties computed in-scan, ranked "
        "reports without a rescoring pass");

    // Guide families over a salted genome: each family is one random
    // 20-nt core plus single-base variants of it, and near-miss copies
    // of the cores (0..d mismatches, NGG PAM) are planted across the
    // genome — so one planted site matches many family members at
    // once. This is the hit-dense regime where ranked reports matter
    // (nobody reads an 800k-row flat listing) and where per-hit
    // scoring cost is actually visible next to the scan; sparse
    // random-background workloads measure nothing but scan noise.
    bench::Workload base_workload =
        bench::makeWorkload(genome_mb << 20, 1);
    bench::Workload w;
    w.genome = std::move(base_workload.genome);
    const double genome_mb_f =
        static_cast<double>(w.genome.size()) / 1e6;

    Rng rng(7);
    std::vector<genome::Sequence> cores;
    while (w.guides.size() < num_guides) {
        cores.push_back(genome::randomGuide(rng, 20));
        for (size_t v = 0;
             v < family && w.guides.size() < num_guides; ++v) {
            genome::Sequence variant = cores.back();
            if (v > 0) {
                const size_t p = rng.below(20);
                variant[p] = static_cast<uint8_t>(
                    (variant[p] + 1 + rng.below(3)) & 3);
            }
            w.guides.push_back(core::makeGuide(
                "g" + std::to_string(w.guides.size()),
                variant.str()));
        }
    }
    size_t planted = 0;
    {
        const size_t site_len = 23;
        for (size_t at = 0; at + site_len <= w.genome.size();
             at += site_len + 1) {
            if (!rng.chance(plant_percent / 100.0))
                continue;
            genome::Sequence site = cores[planted % cores.size()];
            site.append(genome::Sequence::fromString("AGG"));
            genome::plantSite(
                w.genome, at,
                genome::mutateSite(site,
                                   static_cast<int>(rng.below(
                                       static_cast<size_t>(d) + 1)),
                                   0, 20, rng));
            ++planted;
        }
    }
    std::printf("%zu families x %zu variants, %zu planted sites\n",
                cores.size(), family, planted);

    core::SearchConfig config;
    config.engine = engine->kind();
    config.maxMismatches = d;
    config.params = bench::defaultParams();
    core::SearchConfig ranked_cfg = config;
    ranked_cfg.topK = top_k;
    core::SearchSession session(w.guides, ranked_cfg);

    // Compile outside every timer: one compilation for the direct
    // scans, one (warmed below) in the session. A direct scan is the
    // engine pass plus hit verification, scored or boolean.
    const core::CompiledPattern compiled = engine->compile(
        core::buildPatternSet(w.guides, config.pam, d, config.bothStrands,
                              engine->requiredOrientation()),
        config.params);
    const bool tolerant = engine->kind() == core::EngineKind::ApCounter;
    auto verifiedScan = [&](bool with_scores) {
        const core::EngineRun run =
            engine->scan(compiled, core::SequenceView(w.genome));
        return core::hitsFromEvents(w.genome, *compiled.set, run.events,
                                    tolerant, nullptr, with_scores);
    };

    // All four pipelines are measured interleaved within each rep so
    // machine drift hits every side alike; the row value is the
    // per-pipeline median.
    core::SearchResult ranked_result = session.search(w.genome);
    std::vector<core::OffTargetHit> boolean_hits, scored_hits,
        posthoc_ranked;
    std::vector<double> boolean_times, scored_times, ranked_times,
        posthoc_times;
    for (int rep = 0; rep < reps; ++rep) {
        double start = now();
        boolean_hits = verifiedScan(/*with_scores=*/false);
        boolean_times.push_back(now() - start);

        start = now();
        scored_hits = verifiedScan(/*with_scores=*/true);
        scored_times.push_back(now() - start);

        start = now();
        ranked_result = session.search(w.genome);
        ranked_times.push_back(now() - start);

        // The naive pipeline: full boolean scan, then re-walk every
        // hit through the post-hoc primitives, then rank.
        start = now();
        posthoc_ranked = postHocRank(w.genome, *compiled.set,
                                     verifiedScan(false), top_k);
        posthoc_times.push_back(now() - start);
    }
    if (scored_hits.size() != boolean_hits.size())
        fatal("scored scan changed the hit count (%zu vs %zu)",
              scored_hits.size(), boolean_hits.size());
    const auto median = [](std::vector<double> &times) {
        std::sort(times.begin(), times.end());
        return times[times.size() / 2];
    };
    const double boolean_s = median(boolean_times);
    const double scored_s = median(scored_times);
    const double ranked_s = median(ranked_times);
    const double posthoc_s = median(posthoc_times);
    if (ranked_result.ranked != posthoc_ranked)
        fatal("integrated ranked listing diverged from the post-hoc "
              "pipeline (%zu vs %zu entries)",
              ranked_result.ranked.size(), posthoc_ranked.size());

    const double boolean_mbps = genome_mb_f / boolean_s;
    const double scored_mbps = genome_mb_f / scored_s;
    const double scored_ratio = scored_mbps / boolean_mbps;
    const double ranked_speedup = posthoc_s / ranked_s;

    Table table({"pipeline", "seconds", "MB/s", "hits", "ranked"});
    table.row()
        .add("boolean scan")
        .add(boolean_s, 3)
        .add(boolean_mbps, 1)
        .add(static_cast<uint64_t>(boolean_hits.size()))
        .add("-");
    table.row()
        .add("scored scan")
        .add(scored_s, 3)
        .add(scored_mbps, 1)
        .add(static_cast<uint64_t>(scored_hits.size()))
        .add("-");
    table.row()
        .add("scored + top-K")
        .add(ranked_s, 3)
        .add(genome_mb_f / ranked_s, 1)
        .add(static_cast<uint64_t>(ranked_result.hits.size()))
        .add(static_cast<uint64_t>(ranked_result.ranked.size()));
    table.row()
        .add("boolean + post-hoc")
        .add(posthoc_s, 3)
        .add(genome_mb_f / posthoc_s, 1)
        .add(static_cast<uint64_t>(boolean_hits.size()))
        .add(static_cast<uint64_t>(posthoc_ranked.size()));
    std::printf("%s", table.str().c_str());

    std::printf("scoring: scored scan %.2fx boolean throughput "
                "(bar: >= 0.8x) %s\n",
                scored_ratio, scored_ratio >= 0.8 ? "PASS" : "MISS");
    std::printf("ranking: integrated top-%zu %.2fx the post-hoc "
                "pipeline (bar: > 1x) %s, listings bit-identical\n",
                top_k, ranked_speedup,
                ranked_speedup > 1.0 ? "PASS" : "MISS");

    std::ofstream json(json_path);
    if (json) {
        json << "{\"bench\": \"e16_scoring\", \"engine\": \""
             << engine->name() << "\", \"genome_bytes\": "
             << w.genome.size() << ", \"guides\": " << num_guides
             << ", \"d\": " << d << ", \"top_k\": " << top_k
             << ", \"hits\": " << boolean_hits.size()
             << ", \"boolean_mbps\": " << boolean_mbps
             << ", \"scored_mbps\": " << scored_mbps
             << ", \"scored_vs_boolean\": " << scored_ratio
             << ", \"ranked_s\": " << ranked_s
             << ", \"posthoc_s\": " << posthoc_s
             << ", \"ranked_speedup\": " << ranked_speedup << "}\n";
        std::printf("wrote %s\n", json_path.c_str());
    }
    return 0;
}
