#include "store/result_store.hh"

#include <filesystem>
#include <fstream>
#include <system_error>
#include <unistd.h>

#include "common/diag.hh"
#include "common/hash.hh"

namespace fs = std::filesystem;

namespace tlpsim::store
{

namespace
{

constexpr const char *kMagic = "tlpsim-row v1";

/** Parse one "<label> <value>" header line out of @p text at @p pos;
 *  advances pos past the newline. Returns false on any mismatch. */
bool
headerLine(const std::string &text, std::size_t &pos, const char *label,
           std::string &value_out)
{
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos)
        return false;
    const std::string line = text.substr(pos, eol - pos);
    const std::string want = std::string(label) + " ";
    if (line.compare(0, want.size(), want) != 0)
        return false;
    value_out = line.substr(want.size());
    pos = eol + 1;
    return !value_out.empty();
}

bool
parseSize(const std::string &s, std::size_t &out)
{
    if (s.empty())
        return false;
    std::size_t v = 0;
    for (char c : s) {
        if (c < '0' || c > '9')
            return false;
        v = v * 10 + static_cast<std::size_t>(c - '0');
    }
    out = v;
    return true;
}

} // namespace

std::uint64_t
fingerprint64(const std::string &s)
{
    return fnv1a64(s);
}

std::string
fingerprintHex(const std::string &s)
{
    return hex16(fingerprint64(s));
}

unsigned
shardOf(const std::string &key, unsigned shards)
{
    if (shards <= 1)
        return 0;
    return static_cast<unsigned>(fingerprint64(key) % shards);
}

ShardSpec
parseShardSpec(const std::string &text)
{
    const std::size_t slash = text.find('/');
    ShardSpec spec;
    std::size_t index = 0;
    std::size_t count = 0;
    if (slash == std::string::npos
        || !parseSize(text.substr(0, slash), index)
        || !parseSize(text.substr(slash + 1), count) || count == 0
        || index >= count) {
        throw ConfigError("shard spec '" + text
                          + "': expected i/N with 0 <= i < N (e.g. 0/4)");
    }
    spec.index = static_cast<unsigned>(index);
    spec.count = static_cast<unsigned>(count);
    return spec;
}

ResultStore::ResultStore(const std::string &dir)
    : dir_(dir), rows_dir_(dir + "/rows"), quarantine_dir_(dir
                                                          + "/quarantine")
{
    std::error_code ec;
    fs::create_directories(rows_dir_, ec);
    if (!ec)
        fs::create_directories(quarantine_dir_, ec);
    if (ec) {
        throw ConfigError("cannot create result store at '" + dir
                          + "': " + ec.message());
    }
    // Temp files are crash leftovers: a writer that died between write
    // and rename. They are inert (load() never looks at them), but a
    // long-lived store would accumulate them, so sweep on open. A row
    // being written *right now* by a concurrent process may lose its
    // temp file here; its rename fails and is diagnosed, and the point
    // is simply recomputed on that process's next run.
    for (const auto &entry : fs::directory_iterator(rows_dir_, ec)) {
        if (entry.path().filename().string().find(".tmp.")
            != std::string::npos) {
            fs::remove(entry.path(), ec);
        }
    }
}

std::string
ResultStore::rowPath(const std::string &key) const
{
    return rows_dir_ + "/" + fingerprintHex(key) + ".row";
}

bool
ResultStore::verifyAndParse(const std::string &path, const std::string &key,
                            Config &row_out, std::string &reason_out) const
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        reason_out = "unreadable";
        return false;
    }
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    if (!in.good() && !in.eof()) {
        reason_out = "read error";
        return false;
    }

    std::size_t pos = 0;
    std::size_t eol = text.find('\n');
    if (eol == std::string::npos || text.substr(0, eol) != kMagic) {
        reason_out = "bad magic (not a tlpsim row, or a torn write)";
        return false;
    }
    pos = eol + 1;

    std::string key_len_s;
    std::string row_len_s;
    std::string sum_s;
    std::size_t key_len = 0;
    std::size_t row_len = 0;
    if (!headerLine(text, pos, "key", key_len_s)
        || !headerLine(text, pos, "row", row_len_s)
        || !headerLine(text, pos, "sum", sum_s)
        || !parseSize(key_len_s, key_len) || !parseSize(row_len_s, row_len)) {
        reason_out = "malformed header";
        return false;
    }
    if (text.size() - pos != key_len + row_len) {
        reason_out = "truncated: header declares "
            + std::to_string(key_len + row_len) + " payload byte(s), file "
            "holds " + std::to_string(text.size() - pos);
        return false;
    }
    const std::string payload = text.substr(pos);
    if (hex16(fnv1a64(payload)) != sum_s) {
        reason_out = "checksum mismatch (bit rot or a torn write)";
        return false;
    }
    const std::string stored_key = payload.substr(0, key_len);
    if (!key.empty() && stored_key != key) {
        // Astronomically unlikely 64-bit fingerprint collision — but a
        // collision served as a hit would silently poison a figure, so
        // the full key is the final arbiter.
        reason_out = "fingerprint collision: stored row belongs to a "
                     "different design point";
        return false;
    }
    try {
        row_out = Config::parse(payload.substr(key_len), path);
    } catch (const ConfigError &e) {
        reason_out = std::string("unparseable outcome: ") + e.what();
        return false;
    }
    if (row_out.getString(kStatusKey, "").empty()) {
        reason_out = "outcome lacks a status field";
        return false;
    }
    return true;
}

void
ResultStore::quarantine(const std::string &path, const std::string &reason)
{
    std::string target;
    {
        std::lock_guard<std::mutex> lock(m_);
        ++counters_.quarantined;
        target = quarantine_dir_ + "/"
            + fs::path(path).filename().string() + "."
            + std::to_string(static_cast<unsigned long>(::getpid())) + "."
            + std::to_string(tmp_seq_++) + ".bad";
    }
    std::error_code ec;
    fs::rename(path, target, ec);
    if (ec) {
        // Can't move it aside (permissions, concurrent quarantine):
        // remove it so it cannot be re-served, which is the property
        // that matters.
        fs::remove(path, ec);
        target = "(removed)";
    }
    diag("store", "quarantined " + path + " -> " + target + ": " + reason
                      + "; the point will be recomputed");
}

std::optional<Config>
ResultStore::load(const std::string &key)
{
    const std::string path = rowPath(key);
    std::error_code ec;
    if (!fs::exists(path, ec))
        return std::nullopt;
    Config row;
    std::string reason;
    if (!verifyAndParse(path, key, row, reason)) {
        quarantine(path, reason);
        return std::nullopt;
    }
    return row;
}

void
ResultStore::save(const std::string &key, const Config &row)
{
    const std::string serialized = row.serialize();
    std::string text = std::string(kMagic) + "\n";
    text += "key " + std::to_string(key.size()) + "\n";
    text += "row " + std::to_string(serialized.size()) + "\n";
    text += "sum " + hex16(fnv1a64(key + serialized)) + "\n";
    text += key;
    text += serialized;

    std::string tmp;
    {
        std::lock_guard<std::mutex> lock(m_);
        tmp = rowPath(key) + ".tmp."
            + std::to_string(static_cast<unsigned long>(::getpid())) + "."
            + std::to_string(tmp_seq_++);
    }
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        out.write(text.data(),
                  static_cast<std::streamsize>(text.size()));
        out.flush();
        if (!out.good()) {
            diag("store", "cannot write " + tmp
                              + "; the row is dropped (results are "
                                "unaffected, the point will be recomputed "
                                "next run)");
            std::error_code ec;
            fs::remove(tmp, ec);
            return;
        }
    }
    std::error_code ec;
    fs::rename(tmp, rowPath(key), ec);
    if (ec) {
        diag("store", "cannot publish " + rowPath(key) + ": " + ec.message()
                          + "; the row is dropped");
        fs::remove(tmp, ec);
        return;
    }
    std::lock_guard<std::mutex> lock(m_);
    ++counters_.saved;
}

std::size_t
ResultStore::okRowCount() const
{
    std::size_t ok = 0;
    std::error_code ec;
    for (const auto &entry : fs::directory_iterator(rows_dir_, ec)) {
        const std::string name = entry.path().filename().string();
        if (name.size() < 4 || name.substr(name.size() - 4) != ".row")
            continue;
        Config row;
        std::string reason;
        if (verifyAndParse(entry.path().string(), /*key=*/"", row, reason)
            && row.getString(kStatusKey, "") == kStatusOk) {
            ++ok;
        }
    }
    return ok;
}

ResultStore::Counters
ResultStore::counters() const
{
    std::lock_guard<std::mutex> lock(m_);
    return counters_;
}

} // namespace tlpsim::store
