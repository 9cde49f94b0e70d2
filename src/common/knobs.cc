#include "common/knobs.hh"

#include <algorithm>
#include <cstdio>

namespace tlpsim
{

const char *
toString(KnobType t)
{
    switch (t) {
      case KnobType::String: return "string";
      case KnobType::Int: return "int";
      case KnobType::Unsigned: return "unsigned";
      case KnobType::Double: return "double";
      case KnobType::Bool: return "bool";
    }
    return "?";
}

void
KnobSchema::declare(KnobSpec spec)
{
    if (contains(spec.name)) {
        throw ConfigError("knob '" + spec.name
                          + "' is declared twice in one schema");
    }
    specs_.push_back(std::move(spec));
}

bool
KnobSchema::contains(const std::string &name) const
{
    return find(name) != nullptr;
}

const KnobSpec *
KnobSchema::find(const std::string &name) const
{
    for (const KnobSpec &s : specs_) {
        if (s.name == name)
            return &s;
    }
    return nullptr;
}

std::vector<std::string>
KnobSchema::names() const
{
    std::vector<std::string> out;
    out.reserve(specs_.size());
    for (const KnobSpec &s : specs_)
        out.push_back(s.name);
    std::sort(out.begin(), out.end());
    return out;
}

std::string
KnobSchema::namesLine() const
{
    return joinNames(names());
}

Config
KnobSchema::defaults() const
{
    Config c;
    for (const KnobSpec &s : specs_)
        c.set(s.name, s.default_value);
    return c;
}

namespace
{

/** Does @p value parse (and fit) as @p spec declares? Reuses the Config
 *  getters at the declared width, so the accepted grammar and range are
 *  exactly what the builder's extraction will accept. */
bool
valueParses(const std::string &value, const KnobSpec &spec)
{
    Config probe;
    probe.set("v", value);
    try {
        switch (spec.type) {
          case KnobType::String:
            return spec.choices.empty()
                || std::find(spec.choices.begin(), spec.choices.end(),
                             value)
                       != spec.choices.end();
          case KnobType::Int:
            if (spec.bits <= 32)
                probe.getInt32("v", 0);
            else
                probe.getInt("v", 0);
            break;
          case KnobType::Unsigned:
            if (spec.bits <= 32)
                probe.getUnsigned32("v", 0);
            else
                probe.getUnsigned("v", 0);
            break;
          case KnobType::Double: probe.getDouble("v", 0.0); break;
          case KnobType::Bool: probe.getBool("v", false); break;
        }
    } catch (const ConfigError &) {
        return false;
    }
    return true;
}

/** "expected ..." wording for a wrongly-typed value. */
std::string
expectedText(const KnobSpec &spec)
{
    switch (spec.type) {
      case KnobType::String:
        return spec.choices.empty()
            ? std::string{"string"}
            : "one of " + joinNames(spec.choices);
      case KnobType::Int:
        return spec.bits <= 32 ? "a 32-bit int" : "an int";
      case KnobType::Unsigned:
        return spec.bits <= 32 ? "a 32-bit unsigned" : "an unsigned";
      case KnobType::Double: return "a number";
      case KnobType::Bool: return "a boolean";
    }
    return "?";
}

} // namespace

std::vector<std::string>
KnobSchema::check(const Config &cfg, const std::string &component,
                  const std::string &prefix) const
{
    std::vector<std::string> errors;
    for (const std::string &key : cfg.keys()) {
        const KnobSpec *spec = find(key);
        if (spec == nullptr) {
            errors.push_back(prefix + key + ": unknown " + component
                             + " knob; declared knobs: " + namesLine());
        } else if (!valueParses(cfg.getString(key), *spec)) {
            errors.push_back(prefix + key + " = '" + cfg.getString(key)
                             + "': expected " + expectedText(*spec)
                             + " for " + component + " knob '" + key
                             + "'; declared knobs: " + namesLine());
        }
    }
    return errors;
}

void
KnobSchema::validate(const Config &cfg, const std::string &component,
                     const std::string &prefix) const
{
    std::vector<std::string> errors = check(cfg, component, prefix);
    if (!errors.empty())
        throwConfigErrors(errors);
}

std::string
KnobSchema::reference(const Config &values) const
{
    std::string out;
    char buf[512];
    for (const KnobSpec &s : specs_) {
        std::snprintf(buf, sizeof(buf), "  %-24s %-9s %-10s %s\n",
                      s.name.c_str(), toString(s.type),
                      values.getString(s.name).c_str(),
                      s.description.c_str());
        out += buf;
    }
    return out;
}

std::size_t
detail::choiceIndex(const Config &cfg, const std::string &key,
                    const std::vector<std::string> &choices,
                    std::size_t current)
{
    if (!cfg.has(key))
        return current;
    const std::string value = cfg.getString(key);
    auto it = std::find(choices.begin(), choices.end(), value);
    if (it == choices.end()) {
        throw ConfigError("config key '" + key + "': expected one of "
                          + joinNames(choices) + ", got '" + value + "'");
    }
    return static_cast<std::size_t>(it - choices.begin());
}

} // namespace tlpsim
