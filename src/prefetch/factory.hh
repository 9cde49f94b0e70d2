/**
 * @file
 * Component registries.
 *
 * Construction of prefetchers, prefetch filters, and off-chip predictors
 * goes through string-keyed registries (common/registry.hh); the
 * accessors below guarantee the built-in components (next_line, ipcp,
 * berti, spp, ppf, slp, flp, hermes) are registered before first use.
 * Callers name components by registry key (see
 * SystemConfig::l1_prefetcher), so a new component needs no core-header
 * edit.
 */

#ifndef TLPSIM_PREFETCH_FACTORY_HH
#define TLPSIM_PREFETCH_FACTORY_HH

#include "common/registry.hh"
#include "common/stats.hh"
#include "prefetch/prefetcher.hh"

namespace tlpsim
{

class OffChipPredictor;

using PrefetcherRegistry = Registry<Prefetcher>;
using FilterRegistry = Registry<PrefetchFilter, StatGroup *>;
using OffchipRegistry = Registry<OffChipPredictor, StatGroup *>;

/** The prefetcher registry, with the built-ins guaranteed registered. */
PrefetcherRegistry &prefetcherRegistry();

/** The prefetch-filter registry (ppf, slp), built-ins registered. */
FilterRegistry &filterRegistry();

/** The off-chip predictor registry (flp, hermes), built-ins registered. */
OffchipRegistry &offchipRegistry();

/**
 * Generated declared-knob reference across all three registries
 * (`tlpsim --knobs`): one block per component listing every knob's name,
 * type, default, and description. @p component filters to one component;
 * unknown names throw ConfigError listing every registered component.
 */
std::string knobReference(const std::string &component = "");

namespace detail
{
// Built-in registration hooks, each defined in its component's .cc and
// called exactly once by the accessors above (static-archive-safe).
void registerNextLinePrefetcher();
void registerIpcpPrefetcher();
void registerBertiPrefetcher();
void registerSppPrefetcher();
void registerPpfFilter();
void registerSlpFilter();
void registerOffchipPredictors();
} // namespace detail

} // namespace tlpsim

#endif // TLPSIM_PREFETCH_FACTORY_HH
