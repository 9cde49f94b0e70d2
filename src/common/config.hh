/**
 * @file
 * Declarative configuration tree.
 *
 * A Config is an ordered map of dotted-path keys
 * ("scheme.offchip.tau_high") to string values with typed accessors — the
 * data half of the component registry API. Sources, lowest to highest
 * precedence in the tlpsim CLI:
 *
 *   1. built-in defaults (SystemConfig::cascadeLake),
 *   2. config files      (Config::parseFile, "key = value" lines),
 *   3. --set KEY=VALUE command-line flags ("key=value,key=value"),
 *
 * merged with Config::merge (later layers win per key). Typed getters
 * throw ConfigError with the offending key, value, and expectation, so
 * every failure names what to fix.
 */

#ifndef TLPSIM_COMMON_CONFIG_HH
#define TLPSIM_COMMON_CONFIG_HH

#include <cstdint>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace tlpsim
{

/** Any configuration failure: parse errors, bad values, unknown keys. */
class ConfigError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Comma-join for "valid names: ..." error messages and listings. */
std::string joinNames(const std::vector<std::string> &names);

/** Throw one ConfigError carrying every collected error, one per line
 *  (the "report all offenders at once" convention of grid validation).
 *  @p errors must be non-empty. */
[[noreturn]] void throwConfigErrors(const std::vector<std::string> &errors);

class Config
{
  public:
    // ----- building ------------------------------------------------------
    void set(const std::string &key, std::string value);
    void set(const std::string &key, const char *value);
    void set(const std::string &key, bool value);
    void set(const std::string &key, double value);
    /** List-valued key, rendered "a, b, c" (see getStringList). */
    void set(const std::string &key, const std::vector<std::string> &value);
    /** Any integral type. Unsigned types keep their full range — a
     *  stat counter above INT64_MAX must not round-trip as negative. */
    template <typename T,
              typename = std::enable_if_t<std::is_integral_v<T>>>
    void
    set(const std::string &key, T value)
    {
        if constexpr (std::is_unsigned_v<T>)
            setUnsignedInt(key, static_cast<std::uint64_t>(value));
        else
            setInt(key, static_cast<std::int64_t>(value));
    }

    /** Overlay @p other on top of this config (other wins per key). */
    void merge(const Config &other);

    /** Remove a key; returns true if it existed. */
    bool erase(const std::string &key);

    /** Remove every key under "prefix." — how the CLI consumes execution
     *  knob subtrees ("store.*") that configure the sweep machinery, not
     *  the simulated system, before SystemConfig::fromConfig would
     *  reject them as unknown. Returns the number of keys removed. */
    std::size_t eraseSub(const std::string &prefix);

    // ----- reading -------------------------------------------------------
    bool has(const std::string &key) const;
    bool empty() const { return values_.empty(); }

    /** All keys, sorted. */
    std::vector<std::string> keys() const;

    /**
     * Consumed-key tracking: every typed getter marks the key it read,
     * and sub() marks the keys it forwards, so after a consumer (e.g.
     * SystemConfig::fromConfig) has extracted everything it understands,
     * the keys still unconsumed are exactly the typos — present in the
     * config but feeding no field and no component subtree. has() does
     * not mark (probing is not consumption); set/merge/erase reset the
     * mark of the keys they touch.
     */
    std::vector<std::string> unconsumedKeys() const;

    /** Typed getters: return @p fallback when the key is absent; throw
     *  ConfigError when the key is present but malformed. */
    std::string getString(const std::string &key,
                          const std::string &fallback = "") const;
    std::int64_t getInt(const std::string &key, std::int64_t fallback) const;
    std::uint64_t getUnsigned(const std::string &key,
                              std::uint64_t fallback) const;
    /** 32-bit variants: a malformed or out-of-range value throws
     *  ConfigError naming the 32-bit range (no silent truncation). */
    std::int32_t getInt32(const std::string &key,
                          std::int32_t fallback) const;
    std::uint32_t getUnsigned32(const std::string &key,
                                std::uint32_t fallback) const;
    double getDouble(const std::string &key, double fallback) const;
    bool getBool(const std::string &key, bool fallback) const;

    /**
     * List-valued key: the value split on ',', '+', or whitespace, empty
     * items dropped. ',' reads naturally in config files
     * ("workload.mix = bfs.kron, mcf_pchase"); '+' survives the
     * assignment syntax of --set, where ',' already separates
     * assignments ("workload.mix=bfs.kron+mcf_pchase").
     * Returns @p fallback when the key is absent.
     */
    std::vector<std::string>
    getStringList(const std::string &key,
                  const std::vector<std::string> &fallback = {}) const;

    /** Sub-config of every key under "prefix." with the prefix stripped. */
    Config sub(const std::string &prefix) const;

    // ----- text format ---------------------------------------------------
    /**
     * Parse "key = value" lines. '#' starts a comment; blank lines are
     * skipped. @p origin names the source in error messages.
     */
    static Config parse(const std::string &text,
                        const std::string &origin = "<string>");

    static Config parseFile(const std::string &path);

    /** Parse "key=value,key=value" (',' or ';' separated) — the --set
     *  flag syntax. */
    static Config parseAssignments(const std::string &text,
                                   const std::string &origin = "<args>");

    /** Environment variable @p name as a one-key config under that name
     *  (empty if unset), so the typed getters parse it strictly and
     *  their errors name the variable. */
    static Config fromEnvVar(const char *name);

    /** Canonical "key = value" rendering, keys sorted; parse(serialize())
     *  reproduces the config exactly. */
    std::string serialize() const;

    /** Value equality; consumed-key marks do not participate. */
    bool operator==(const Config &other) const
    {
        return values_ == other.values_;
    }

  private:
    /** @p key's value, marked consumed; nullptr when absent. */
    const std::string *lookup(const std::string &key) const;
    void setInt(const std::string &key, std::int64_t value);
    void setUnsignedInt(const std::string &key, std::uint64_t value);

    std::map<std::string, std::string> values_;
    /** Keys read by a typed getter or forwarded by sub(); mutable so a
     *  const consumer (fromConfig takes const Config &) can track. */
    mutable std::set<std::string> consumed_;
};

} // namespace tlpsim

#endif // TLPSIM_COMMON_CONFIG_HH
