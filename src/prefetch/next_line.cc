#include "prefetch/next_line.hh"

#include "prefetch/factory.hh"

namespace tlpsim
{

void
detail::registerNextLinePrefetcher()
{
    using P = NextLinePrefetcher::Params;
    static const ParamSchema<P> schema{
        {"degree", &P::degree, "lines prefetched ahead of each access"},
    };
    PrefetcherRegistry::instance().add(
        "next_line", schema, [](const Config &cfg) {
            return std::make_unique<NextLinePrefetcher>(schema.parse(cfg));
        });
}

} // namespace tlpsim
