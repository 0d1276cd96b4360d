#include "core/engine_registry.hpp"

#include "common/logging.hpp"
#include "core/engines/adapters.hpp"

namespace crispr::core {

EngineRegistry &
EngineRegistry::instance()
{
    static EngineRegistry registry;
    static std::once_flag builtins;
    std::call_once(builtins, [] {
        // Registration order is the presentation order of kinds().
        registerBruteEngine(registry);
        registerReferenceEngine(registry);
        registerHscanEngines(registry);
        registerHscanPrefilterEngine(registry);
        registerGpuInfant2Engine(registry);
        registerFpgaEngine(registry);
        registerApEngine(registry);
        registerApCounterEngine(registry);
        registerCasOffinderEngine(registry);
        registerCasOtEngines(registry);
    });
    return registry;
}

void
EngineRegistry::add(std::unique_ptr<Engine> engine)
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &e : engines_) {
        if (e->kind() == engine->kind())
            fatal("engine kind %d registered twice (%s, %s)",
                  static_cast<int>(engine->kind()), e->name(),
                  engine->name());
        if (std::string_view(e->name()) == engine->name())
            fatal("engine name '%s' registered twice", engine->name());
    }
    engines_.push_back(std::move(engine));
}

const Engine &
EngineRegistry::engine(EngineKind kind) const
{
    const Engine *e = find(kind);
    if (!e)
        fatal("no engine registered for kind %d",
              static_cast<int>(kind));
    return *e;
}

const Engine *
EngineRegistry::find(EngineKind kind) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &e : engines_)
        if (e->kind() == kind)
            return e.get();
    return nullptr;
}

const Engine *
EngineRegistry::findByName(std::string_view name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &e : engines_)
        if (std::string_view(e->name()) == name)
            return e.get();
    return nullptr;
}

std::vector<EngineKind>
EngineRegistry::kinds() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<EngineKind> kinds;
    kinds.reserve(engines_.size());
    for (const auto &e : engines_)
        kinds.push_back(e->kind());
    return kinds;
}

} // namespace crispr::core
