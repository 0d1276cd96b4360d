#include "core/shard.hpp"

#include <algorithm>

#include "common/executor.hpp"

namespace crispr::core {

namespace {

/** `options.service` with `shards` default lanes, unless the caller
 *  already chose a service-wide `threads` default. */
ServiceOptions
laneServiceOptions(const ShardOptions &options)
{
    // The lanes run on the shared pool: touching it here pins its
    // construction before the service's, so a front end living in a
    // static is destroyed (and drained) before the pool unwinds.
    common::Executor::shared();
    ServiceOptions service = options.service;
    if (service.defaults.threads == ExecutionOptions{}.threads)
        service.defaults.threads =
            static_cast<unsigned>(std::max<size_t>(1, options.shards));
    return service;
}

} // namespace

ShardedSearchService::ShardedSearchService(
    ShardOptions options, std::shared_ptr<GenomeStore> store)
    : shards_(std::max<size_t>(1, options.shards)),
      service_(laneServiceOptions(options), std::move(store))
{
}

std::map<std::string, double>
ShardedSearchService::metricsSnapshot() const
{
    std::map<std::string, double> out = service_.metricsSnapshot();
    out["shard.count"] = static_cast<double>(shards_);
    return out;
}

} // namespace crispr::core
