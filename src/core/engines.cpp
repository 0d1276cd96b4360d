/** @file engineName over the engine registry. */

#include "core/engines.hpp"

#include "core/engine.hpp"
#include "core/engine_registry.hpp"

namespace crispr::core {

const char *
engineName(EngineKind kind)
{
    // Auto is a selector, not an adapter: it has no registry entry
    // (SearchSession expands it before any registry lookup).
    if (kind == EngineKind::Auto)
        return "auto";
    return EngineRegistry::instance().engine(kind).name();
}

} // namespace crispr::core
