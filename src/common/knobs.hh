/**
 * @file
 * Declared knob schemas — the data half of the self-describing component
 * API.
 *
 * Every tunable Params struct — each registered component's, and the
 * Table III machine's core, cache, TLB and DRAM blocks — declares its
 * knobs once, as entries bound to its fields:
 *
 *   {"tau_high", &OffChipPredictor::Params::tau_high, "immediate-fire ..."}
 *
 * The bound field's C++ type fixes the knob's type and width, and the
 * schema's defaults object (a default-constructed Params unless given)
 * fixes its default, so nothing about a knob is written twice.
 *
 * Two cooperating pieces:
 *
 *   - KnobSchema: the declaration registries keep and `tlpsim --knobs`
 *     renders (name, type, default, description per knob), and subtree
 *     validation — unknown keys and values that do not parse as the
 *     declared type are collected, one actionable error string per
 *     offence. This is what makes forwarded config subtrees
 *     (scheme.offchip.*, l1d.prefetcher.*, ...) safe to sweep.
 *   - ParamSchema<P>: the KnobSchema of a Params struct P, with the one
 *     generic parse/render pair that fills a P from a Config and dumps
 *     one back. A registry builder is `make_unique<X>(schema.parse(cfg))`.
 */

#ifndef TLPSIM_COMMON_KNOBS_HH
#define TLPSIM_COMMON_KNOBS_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>
#include <type_traits>
#include <vector>

#include "common/config.hh"

namespace tlpsim
{

enum class KnobType
{
    String,
    Int,
    Unsigned,
    Double,
    Bool,
};

const char *toString(KnobType t);

/** One declared tuning knob. */
struct KnobSpec
{
    std::string name;
    KnobType type = KnobType::String;
    /** Config-rendered default (what a config file would say). */
    std::string default_value;
    std::string description;
    /** Int/Unsigned: the bound field's width (32 or 64), so the up-front
     *  check validates the range parse() will accept — an out-of-range
     *  value fails before anything runs, never mid-run. */
    unsigned bits = 64;
    /** String knobs only: the accepted values; empty = any. */
    std::vector<std::string> choices;
};

/** The declared knob set of one Params struct. */
class KnobSchema
{
  public:
    bool contains(const std::string &name) const;
    /** The spec for @p name, or nullptr when undeclared. */
    const KnobSpec *find(const std::string &name) const;
    const std::vector<KnobSpec> &specs() const { return specs_; }

    /** Sorted knob names. */
    std::vector<std::string> names() const;
    /** One comma-separated line of names() (for error messages). */
    std::string namesLine() const;

    /** Every knob at its declared default, as a Config. */
    Config defaults() const;

    /**
     * Check every key of @p cfg against the schema. Undeclared keys and
     * values that do not parse as the declared type produce one error
     * string each, naming the key (with @p prefix prepended, e.g.
     * "scheme.offchip."), the offending component (@p component, e.g.
     * "off-chip predictor 'hermes'"), and the declared knobs.
     */
    std::vector<std::string> check(const Config &cfg,
                                   const std::string &component,
                                   const std::string &prefix = "") const;

    /** check() that throws one ConfigError joining every offence. */
    void validate(const Config &cfg, const std::string &component,
                  const std::string &prefix = "") const;

    /** Formatted knob reference, one line per knob (tlpsim --knobs); the
     *  value column shows each knob's value in @p values — defaults()
     *  for the declared defaults. */
    std::string reference(const Config &values) const;

  protected:
    KnobSchema() = default;

    /** Append @p spec; throws ConfigError on a duplicate name (a
     *  copy-paste slip). */
    void declare(KnobSpec spec);

  private:
    std::vector<KnobSpec> specs_;
};

namespace detail
{

/** The knob type a bound field of C++ type M declares. */
template <typename M>
constexpr KnobType
knobTypeOf()
{
    if constexpr (std::is_same_v<M, std::string> || std::is_enum_v<M>)
        return KnobType::String;
    else if constexpr (std::is_same_v<M, bool>)
        return KnobType::Bool;
    else if constexpr (std::is_floating_point_v<M>)
        return KnobType::Double;
    else
        return std::is_signed_v<M> ? KnobType::Int : KnobType::Unsigned;
}

/** @p key's value through the typed Config getter of M's type and
 *  width; @p value when the key is absent. */
template <typename M>
M
readKnob(const Config &cfg, const std::string &key, const M &value)
{
    if constexpr (std::is_same_v<M, std::string>)
        return cfg.getString(key, value);
    else if constexpr (std::is_same_v<M, bool>)
        return cfg.getBool(key, value);
    else if constexpr (std::is_same_v<M, double>)
        return cfg.getDouble(key, value);
    else if constexpr (std::is_same_v<M, std::int32_t>)
        return cfg.getInt32(key, value);
    else if constexpr (std::is_same_v<M, std::uint32_t>)
        return cfg.getUnsigned32(key, value);
    else if constexpr (std::is_same_v<M, std::int64_t>)
        return cfg.getInt(key, value);
    else {
        static_assert(std::is_same_v<M, std::uint64_t>,
                      "unsupported knob field type");
        return cfg.getUnsigned(key, value);
    }
}

/** Index of @p key's value in @p choices; @p current when the key is
 *  absent. Throws ConfigError naming the key and the choices. */
std::size_t choiceIndex(const Config &cfg, const std::string &key,
                        const std::vector<std::string> &choices,
                        std::size_t current);

} // namespace detail

/**
 * The KnobSchema of Params struct @p P: each knob bound to one field.
 * parse() and render() fill and dump a P with no per-knob code, so a
 * knob's name, field, type and default have one declaration.
 */
template <typename P>
class ParamSchema : public KnobSchema
{
  public:
    /** One knob bound to a field of P. An enum field lists the names of
     *  its enumerators in @p choices, in declaration order. */
    class Knob
    {
      public:
        template <typename M>
        Knob(std::string name, M P::*field, std::string description,
             std::vector<std::string> choices = {});

      private:
        friend class ParamSchema;
        KnobSpec spec_;
        std::function<void(const Config &, const std::string &, P &)> read_;
        std::function<void(const P &, const std::string &, Config &)>
            write_;
    };

    /** Declares @p knobs with defaults rendered from @p default_params. */
    ParamSchema(std::initializer_list<Knob> knobs,
                const P &default_params = P{});

    /** The defaults overlaid with every knob @p cfg sets. */
    P
    parse(const Config &cfg) const
    {
        P p = defaults_;
        parse(cfg, p, "");
        return p;
    }

    /** Overlay each key "<@p prefix><knob>" of @p cfg onto @p p. Reads go
     *  through Config's typed getters: the keys count as consumed, and a
     *  malformed value throws ConfigError naming its key. */
    void
    parse(const Config &cfg, P &p, const std::string &prefix) const
    {
        for (const Knob &k : knobs_)
            k.read_(cfg, prefix + k.spec_.name, p);
    }

    /** Set "<@p prefix><knob>" in @p out to each knob's value in @p p. */
    void
    render(const P &p, Config &out, const std::string &prefix = "") const
    {
        for (const Knob &k : knobs_)
            k.write_(p, prefix + k.spec_.name, out);
    }

  private:
    std::vector<Knob> knobs_;
    P defaults_;
};

template <typename P>
template <typename M>
ParamSchema<P>::Knob::Knob(std::string name, M P::*field,
                           std::string description,
                           std::vector<std::string> choices)
{
    spec_.name = std::move(name);
    spec_.type = detail::knobTypeOf<M>();
    spec_.description = std::move(description);
    spec_.bits = sizeof(M) <= 4 ? 32 : 64;
    spec_.choices = std::move(choices);
    if constexpr (std::is_enum_v<M>) {
        read_ = [field, labels = spec_.choices](
                    const Config &cfg, const std::string &key, P &p) {
            p.*field = static_cast<M>(detail::choiceIndex(
                cfg, key, labels, static_cast<std::size_t>(p.*field)));
        };
        write_ = [field, labels = spec_.choices](
                     const P &p, const std::string &key, Config &out) {
            out.set(key, labels.at(static_cast<std::size_t>(p.*field)));
        };
    } else {
        read_ = [field](const Config &cfg, const std::string &key, P &p) {
            p.*field = detail::readKnob(cfg, key, p.*field);
        };
        write_ = [field](const P &p, const std::string &key, Config &out) {
            out.set(key, p.*field);
        };
    }
}

template <typename P>
ParamSchema<P>::ParamSchema(std::initializer_list<Knob> knobs,
                            const P &default_params)
    : knobs_(knobs), defaults_(default_params)
{
    Config rendered;
    render(defaults_, rendered);
    for (const Knob &k : knobs_) {
        KnobSpec spec = k.spec_;
        spec.default_value = rendered.getString(spec.name);
        declare(std::move(spec));
    }
}

} // namespace tlpsim

#endif // TLPSIM_COMMON_KNOBS_HH
