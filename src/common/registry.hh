/**
 * @file
 * String-keyed component registry with declared knob schemas.
 *
 * Registry<T, Extra...> maps names to builder functions producing
 * unique_ptr<T> from a Config (plus any extra wiring arguments, e.g. the
 * StatGroup components register their counters in). Components register
 * themselves — adding a new prefetcher, filter, or off-chip predictor is
 * one Registry::add call in the component's own translation unit, not a
 * core-header edit — and configs select them by name.
 *
 * A registration carries the component's KnobSchema (common/knobs.hh),
 * whose entries are bound to the fields of its Params struct: build()
 * validates the Config against it, so a misspelled or wrongly-typed key
 * in a forwarded subtree (scheme.offchip.*, l1d.prefetcher.*, ...)
 * throws a ConfigError naming the key and the component's declared
 * knobs instead of being silently ignored, and the builder fills its
 * Params with one schema.parse(cfg). The schema is also the component's
 * documentation — `tlpsim --knobs` renders it — which makes the registry
 * a self-describing API: a new backend joins with one call,
 *
 *   PrefetcherRegistry::instance().add("mine", schema,
 *       [](const Config &cfg) {
 *           return std::make_unique<Mine>(schema.parse(cfg));
 *       });
 *
 * Lookup failures throw ConfigError listing every registered name, so a
 * typo in a config file tells the user exactly what is available.
 *
 * tlpsim links as a static archive, where a TU whose only contents are
 * registration statics would be dropped by the linker. The built-in
 * components therefore expose plain registration functions that
 * prefetch/factory.cc calls once (see prefetcherRegistry() and friends).
 */

#ifndef TLPSIM_COMMON_REGISTRY_HH
#define TLPSIM_COMMON_REGISTRY_HH

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/knobs.hh"

namespace tlpsim
{

template <typename T, typename... Extra>
class Registry
{
  public:
    using Builder
        = std::function<std::unique_ptr<T>(const Config &, Extra...)>;

    /** Process-wide instance for this component type. */
    static Registry &
    instance()
    {
        static Registry r;
        return r;
    }

    /** Human-readable component-kind label used in error messages. */
    void setKind(std::string kind) { kind_ = std::move(kind); }
    const std::string &kind() const { return kind_; }

    /** Register @p builder under @p name with its declared knob schema;
     *  build() validates configs against it. Re-registering the same
     *  name is an error (catches copy-paste slips at startup). */
    void
    add(const std::string &name, KnobSchema schema, Builder builder)
    {
        auto [it, inserted] = builders_.emplace(
            name, Entry{std::move(builder), std::move(schema)});
        if (!inserted) {
            throw ConfigError(kind_ + " '" + name
                              + "' is already registered");
        }
    }

    bool contains(const std::string &name) const
    {
        return builders_.count(name) > 0;
    }

    /** Declared knob schema of @p name. Throws ConfigError on unknown
     *  names. */
    const KnobSchema &
    knobs(const std::string &name) const
    {
        return entry(name).schema;
    }

    /** Sorted names of every registered builder. */
    std::vector<std::string>
    names() const
    {
        std::vector<std::string> out;
        out.reserve(builders_.size());
        for (const auto &[name, e] : builders_)
            out.push_back(name);
        return out;
    }

    /** One comma-separated line of names() (for error messages / --list). */
    std::string namesLine() const { return joinNames(names()); }

    /** Build the component registered as @p name. Throws ConfigError
     *  naming every valid choice if @p name is unknown, and naming the
     *  declared knobs if @p cfg holds a key no schema entry consumes or
     *  a wrongly-typed value. */
    std::unique_ptr<T>
    build(const std::string &name, const Config &cfg, Extra... extra) const
    {
        const Entry &e = entry(name);
        e.schema.validate(cfg, kind_ + " '" + name + "'");
        return e.builder(cfg, extra...);
    }

  private:
    struct Entry
    {
        Builder builder;
        KnobSchema schema;
    };

    Registry() = default;

    const Entry &
    entry(const std::string &name) const
    {
        auto it = builders_.find(name);
        if (it == builders_.end()) {
            throw ConfigError("unknown " + kind_ + " '" + name
                              + "'; valid names: " + namesLine());
        }
        return it->second;
    }

    std::string kind_ = "component";
    std::map<std::string, Entry> builders_;
};

} // namespace tlpsim

#endif // TLPSIM_COMMON_REGISTRY_HH
