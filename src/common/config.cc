#include "common/config.hh"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace tlpsim
{

namespace
{

std::string
trim(const std::string &s)
{
    std::size_t b = 0;
    std::size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

[[noreturn]] void
badValue(const std::string &key, const std::string &value,
         const char *expected)
{
    throw ConfigError("config key '" + key + "': expected " + expected
                      + ", got '" + value + "'");
}

} // namespace

std::string
joinNames(const std::vector<std::string> &names)
{
    std::string out;
    for (const std::string &n : names)
        out += out.empty() ? n : ", " + n;
    return out;
}

void
throwConfigErrors(const std::vector<std::string> &errors)
{
    std::string msg;
    for (const std::string &e : errors)
        msg += msg.empty() ? e : "\n" + e;
    throw ConfigError(msg);
}

void
Config::set(const std::string &key, std::string value)
{
    values_[key] = std::move(value);
    consumed_.erase(key);
}

void
Config::set(const std::string &key, const char *value)
{
    values_[key] = value;
    consumed_.erase(key);
}

void
Config::set(const std::string &key, bool value)
{
    values_[key] = value ? "true" : "false";
    consumed_.erase(key);
}

void
Config::set(const std::string &key, double value)
{
    // Shortest round-trippable rendering: parse(serialize()) must
    // reproduce the exact double (configKey relies on it).
    char buf[64];
    auto res = std::to_chars(buf, buf + sizeof(buf), value);
    values_[key] = std::string(buf, res.ptr);
    consumed_.erase(key);
}

void
Config::set(const std::string &key, const std::vector<std::string> &value)
{
    values_[key] = joinNames(value);
    consumed_.erase(key);
}

void
Config::setInt(const std::string &key, std::int64_t value)
{
    values_[key] = std::to_string(value);
    consumed_.erase(key);
}

void
Config::setUnsignedInt(const std::string &key, std::uint64_t value)
{
    values_[key] = std::to_string(value);
    consumed_.erase(key);
}

void
Config::merge(const Config &other)
{
    for (const auto &[k, v] : other.values_) {
        values_[k] = v;
        consumed_.erase(k);
    }
}

bool
Config::erase(const std::string &key)
{
    consumed_.erase(key);
    return values_.erase(key) > 0;
}

std::size_t
Config::eraseSub(const std::string &prefix)
{
    const std::string p = prefix + ".";
    std::size_t removed = 0;
    for (auto it = values_.lower_bound(p);
         it != values_.end() && it->first.compare(0, p.size(), p) == 0;) {
        consumed_.erase(it->first);
        it = values_.erase(it);
        ++removed;
    }
    return removed;
}

bool
Config::has(const std::string &key) const
{
    return values_.count(key) > 0;
}

std::vector<std::string>
Config::keys() const
{
    std::vector<std::string> out;
    out.reserve(values_.size());
    for (const auto &[k, v] : values_)
        out.push_back(k);
    return out;
}

std::vector<std::string>
Config::unconsumedKeys() const
{
    std::vector<std::string> out;
    for (const auto &[k, v] : values_) {
        if (consumed_.count(k) == 0)
            out.push_back(k);
    }
    return out;
}

const std::string *
Config::lookup(const std::string &key) const
{
    auto it = values_.find(key);
    if (it == values_.end())
        return nullptr;
    consumed_.insert(key);
    return &it->second;
}

std::string
Config::getString(const std::string &key, const std::string &fallback) const
{
    const std::string *v = lookup(key);
    return v == nullptr ? fallback : *v;
}

namespace
{

/** @p value (nullptr when absent: @p fallback) as a whole-string integer
 *  in [@p lo, @p hi]; otherwise throws naming @p key and the range. */
std::int64_t
parseSigned(const std::string &key, const std::string *value,
            std::int64_t fallback, std::int64_t lo, std::int64_t hi,
            const char *expected)
{
    if (value == nullptr)
        return fallback;
    char *end = nullptr;
    errno = 0;
    long long v = std::strtoll(value->c_str(), &end, 0);
    if (end == value->c_str() || *end != '\0' || errno == ERANGE || v < lo
        || v > hi) {
        badValue(key, *value, expected);
    }
    return v;
}

/** parseSigned() for non-negative integers up to @p hi. */
std::uint64_t
parseUnsigned(const std::string &key, const std::string *value,
              std::uint64_t fallback, std::uint64_t hi,
              const char *expected)
{
    if (value == nullptr)
        return fallback;
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(value->c_str(), &end, 0);
    if (end == value->c_str() || *end != '\0' || errno == ERANGE
        || value->front() == '-' || v > hi) {
        badValue(key, *value, expected);
    }
    return v;
}

} // namespace

std::int64_t
Config::getInt(const std::string &key, std::int64_t fallback) const
{
    return parseSigned(key, lookup(key), fallback, INT64_MIN, INT64_MAX,
                       "a 64-bit integer");
}

std::uint64_t
Config::getUnsigned(const std::string &key, std::uint64_t fallback) const
{
    return parseUnsigned(key, lookup(key), fallback, UINT64_MAX,
                         "a 64-bit non-negative integer");
}

std::int32_t
Config::getInt32(const std::string &key, std::int32_t fallback) const
{
    return static_cast<std::int32_t>(parseSigned(
        key, lookup(key), fallback, INT32_MIN, INT32_MAX,
        "a 32-bit integer"));
}

std::uint32_t
Config::getUnsigned32(const std::string &key, std::uint32_t fallback) const
{
    return static_cast<std::uint32_t>(
        parseUnsigned(key, lookup(key), fallback, UINT32_MAX,
                      "a 32-bit non-negative integer"));
}

double
Config::getDouble(const std::string &key, double fallback) const
{
    const std::string *v = lookup(key);
    if (v == nullptr)
        return fallback;
    char *end = nullptr;
    errno = 0;
    double out = std::strtod(v->c_str(), &end);
    if (end == v->c_str() || *end != '\0' || errno == ERANGE)
        badValue(key, *v, "a number");
    return out;
}

bool
Config::getBool(const std::string &key, bool fallback) const
{
    const std::string *v = lookup(key);
    if (v == nullptr)
        return fallback;
    if (*v == "true" || *v == "1" || *v == "yes" || *v == "on")
        return true;
    if (*v == "false" || *v == "0" || *v == "no" || *v == "off")
        return false;
    badValue(key, *v, "a boolean (true/false/1/0/yes/no/on/off)");
}

std::vector<std::string>
Config::getStringList(const std::string &key,
                      const std::vector<std::string> &fallback) const
{
    const std::string *v = lookup(key);
    if (v == nullptr)
        return fallback;
    std::vector<std::string> out;
    std::string item;
    auto flush = [&] {
        if (!item.empty()) {
            out.push_back(std::move(item));
            item.clear();
        }
    };
    for (char ch : *v) {
        if (ch == ',' || ch == '+'
            || std::isspace(static_cast<unsigned char>(ch))) {
            flush();
        } else {
            item += ch;
        }
    }
    flush();
    return out;
}

Config
Config::sub(const std::string &prefix) const
{
    Config out;
    const std::string p = prefix + ".";
    for (const auto &[k, v] : values_) {
        if (k.size() > p.size() && k.compare(0, p.size(), p) == 0) {
            out.values_[k.substr(p.size())] = v;
            // Forwarded to the subtree's consumer — the parent-level
            // typo net must not also flag these keys.
            consumed_.insert(k);
        }
    }
    return out;
}

Config
Config::parse(const std::string &text, const std::string &origin)
{
    Config out;
    std::istringstream in(text);
    std::string line;
    unsigned lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (std::size_t hash = line.find('#'); hash != std::string::npos)
            line.erase(hash);
        line = trim(line);
        if (line.empty())
            continue;
        std::size_t eq = line.find('=');
        if (eq == std::string::npos) {
            throw ConfigError(origin + ":" + std::to_string(lineno)
                              + ": expected 'key = value', got '" + line
                              + "'");
        }
        std::string key = trim(line.substr(0, eq));
        std::string value = trim(line.substr(eq + 1));
        if (key.empty()) {
            throw ConfigError(origin + ":" + std::to_string(lineno)
                              + ": empty key in '" + line + "'");
        }
        out.values_[key] = value;
    }
    return out;
}

Config
Config::parseFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw ConfigError("cannot open config file '" + path + "'");
    std::ostringstream text;
    text << in.rdbuf();
    return parse(text.str(), path);
}

Config
Config::parseAssignments(const std::string &text, const std::string &origin)
{
    Config out;
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t end = text.find_first_of(",;", pos);
        if (end == std::string::npos)
            end = text.size();
        std::string item = trim(text.substr(pos, end - pos));
        pos = end + 1;
        if (item.empty())
            continue;
        std::size_t eq = item.find('=');
        if (eq == std::string::npos) {
            throw ConfigError(origin + ": expected KEY=VALUE, got '" + item
                              + "'");
        }
        std::string key = trim(item.substr(0, eq));
        if (key.empty())
            throw ConfigError(origin + ": empty key in '" + item + "'");
        out.values_[key] = trim(item.substr(eq + 1));
    }
    return out;
}

Config
Config::fromEnvVar(const char *name)
{
    Config c;
    if (const char *v = std::getenv(name))
        c.set(name, v);
    return c;
}

std::string
Config::serialize() const
{
    std::string out;
    for (const auto &[k, v] : values_) {
        out += k;
        out += " = ";
        out += v;
        out += "\n";
    }
    return out;
}

} // namespace tlpsim
