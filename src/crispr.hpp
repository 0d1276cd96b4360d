/**
 * @file
 * Umbrella header: the library's public API surface in one include.
 *
 * Including "crispr.hpp" (instead of individual subsystem headers) is
 * the supported way to consume the library; subsystem headers may move
 * between releases, this umbrella does not.
 *
 * @code
 *   #include "crispr.hpp"
 *   crispr::core::SearchSession session(guides, config);
 *   auto res = session.search(genome);       // compiled once, reusable
 *   auto one = crispr::core::search(genome, guides, config); // one-shot
 *   crispr::core::SearchService service;     // batching server front end
 *   auto fut = service.submit(guides, request);
 *   crispr::core::ShardedSearchService sharded({.shards = 4});
 *   auto f2 = sharded.submit(guides, request); // 4 scan lanes each
 * @endcode
 *
 * Execution-option precedence (core/options.hpp): a request field
 * still at its built-in default inherits the service-wide value
 * (`ServiceOptions::defaults`), which in turn falls back to the
 * built-in — request > service default > built-in. A
 * ShardedSearchService is a service whose `threads` default is its
 * shard count.
 *
 * Overload: a service's one overload mechanism is its bounded
 * admission queue (ServiceOptions::maxQueueRequests / maxQueueBytes
 * with an AdmissionPolicy); a refused or shed request completes with
 * Error::overloaded and nothing else sheds. Each request walks its own
 * engine chain with fallbacks (DESIGN.md §12).
 */

#ifndef CRISPR_CRISPR_HPP_
#define CRISPR_CRISPR_HPP_

// Common substrate.
#include "common/cli.hpp"
#include "common/deadline.hpp"
#include "common/error.hpp"
#include "common/faultpoints.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "common/table.hpp"

// Genome substrate.
#include "genome/alphabet.hpp"
#include "genome/fasta.hpp"
#include "genome/fasta_stream.hpp"
#include "genome/generator.hpp"
#include "genome/packed.hpp"
#include "genome/record_map.hpp"
#include "genome/sequence.hpp"

// Automata.
#include "automata/builders.hpp"
#include "automata/dfa.hpp"
#include "automata/dot.hpp"
#include "automata/edit.hpp"
#include "automata/hopcroft.hpp"
#include "automata/interp.hpp"

// Engines.
#include "ap/anml.hpp"
#include "ap/capacity.hpp"
#include "ap/machine.hpp"
#include "ap/scaling.hpp"
#include "ap/simulator.hpp"
#include "baselines/brute.hpp"
#include "baselines/casoffinder.hpp"
#include "baselines/casot.hpp"
#include "fpga/fabric.hpp"
#include "fpga/report.hpp"
#include "fpga/resource.hpp"
#include "gpu/infant2.hpp"
#include "hscan/multipattern.hpp"
#include "hscan/prefilter.hpp"

// Public search API.
#include "core/bulge.hpp"
#include "core/chunked_scan.hpp"
#include "core/engine.hpp"
#include "core/engine_registry.hpp"
#include "core/genome_store.hpp"
#include "core/guide.hpp"
#include "core/options.hpp"
#include "core/report.hpp"
#include "core/score.hpp"
#include "core/search.hpp"
#include "core/service.hpp"
#include "core/session.hpp"
#include "core/shard.hpp"

#endif // CRISPR_CRISPR_HPP_
