#include "prefetch/factory.hh"

#include <mutex>

namespace tlpsim
{

namespace
{

/** Register every built-in component exactly once. */
void
ensureBuiltins()
{
    static std::once_flag once;
    std::call_once(once, [] {
        PrefetcherRegistry::instance().setKind("prefetcher");
        FilterRegistry::instance().setKind("prefetch filter");
        OffchipRegistry::instance().setKind("off-chip predictor");
        detail::registerNextLinePrefetcher();
        detail::registerIpcpPrefetcher();
        detail::registerBertiPrefetcher();
        detail::registerSppPrefetcher();
        detail::registerPpfFilter();
        detail::registerSlpFilter();
        detail::registerOffchipPredictors();
    });
}

} // namespace

PrefetcherRegistry &
prefetcherRegistry()
{
    ensureBuiltins();
    return PrefetcherRegistry::instance();
}

FilterRegistry &
filterRegistry()
{
    ensureBuiltins();
    return FilterRegistry::instance();
}

OffchipRegistry &
offchipRegistry()
{
    ensureBuiltins();
    return OffchipRegistry::instance();
}

std::string
knobReference(const std::string &component)
{
    ensureBuiltins();
    std::string out;
    bool found = false;
    auto sweep = [&](const auto &reg) {
        for (const std::string &name : reg.names()) {
            if (!component.empty() && name != component)
                continue;
            if (!out.empty())
                out += "\n";
            out += reg.kind() + " " + name + "\n";
            const KnobSchema &ks = reg.knobs(name);
            out += ks.reference(ks.defaults());
            found = true;
        }
    };
    sweep(prefetcherRegistry());
    sweep(filterRegistry());
    sweep(offchipRegistry());
    if (!component.empty() && !found) {
        throw ConfigError(
            "unknown component '" + component + "'; valid names: "
            + prefetcherRegistry().namesLine() + ", "
            + filterRegistry().namesLine() + ", "
            + offchipRegistry().namesLine());
    }
    return out;
}

} // namespace tlpsim
