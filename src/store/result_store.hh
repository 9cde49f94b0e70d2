/**
 * @file
 * Crash-safe on-disk result store for design-point sweeps.
 *
 * A ResultStore maps the Runner's design-point key (the mix/workload
 * prefix plus experiment::configKey: the model revision and the full
 * SystemConfig::effectiveConfig dump) to one *row*: a small text file
 * holding the key, a Config-serialized outcome (an ok row carries the
 * full SimResult, a failed row the structured failure), and a checksum.
 * Rows are content-addressed by a 64-bit FNV-1a fingerprint of the key,
 * so re-running any sweep only simulates points whose effective config
 * — including component knob *defaults*, which the fingerprint expands
 * — or whose model actually changed.
 *
 * Durability contract:
 *   - save() composes the whole row in memory, writes it to a
 *     pid+sequence-unique temp file in the rows/ directory, then
 *     publishes it with one atomic rename. A `kill -9` at any instant
 *     leaves either the old row, the new row, or an inert temp file —
 *     never a torn row under the published name. Concurrent writers
 *     (two sweep shards on one store) each rename their own temp file;
 *     last-writer-wins, and both rows are valid (simulations are
 *     deterministic, so the contents agree).
 *   - load() verifies the magic, the declared block lengths against the
 *     file size (truncation), the checksum (corruption), and that the
 *     stored key matches the requested key (fingerprint collision).
 *     A row failing any check is *quarantined* — moved into
 *     quarantine/ and reported through diag() — and load() reports a
 *     miss, so the point is transparently recomputed rather than
 *     crashing the sweep or silently poisoning figures.
 *   - save() failures (disk full, permissions) are diagnosed, not
 *     thrown: the store is a cache, and losing a row must not kill a
 *     million-point sweep.
 *
 * On-disk layout under the store directory:
 *   rows/<fp16>.row   one row per design point (fp16 = key fingerprint)
 *   quarantine/       rows that failed verification, moved aside
 *
 * Row file format (text header, raw payload):
 *   tlpsim-row v1\n
 *   key <key-bytes>\n
 *   row <row-bytes>\n
 *   sum <16-hex FNV-1a64 of key+row payload>\n
 *   <key payload><row payload>
 */

#ifndef TLPSIM_STORE_RESULT_STORE_HH
#define TLPSIM_STORE_RESULT_STORE_HH

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>

#include "common/config.hh"

namespace tlpsim::store
{

// Row outcome keys ("status" discriminates ok rows from failure rows).
inline constexpr const char *kStatusKey = "status";
inline constexpr const char *kStatusOk = "ok";
inline constexpr const char *kStatusFailed = "failed";

/** FNV-1a 64-bit fingerprint (the content address of a row). */
std::uint64_t fingerprint64(const std::string &s);

/** fingerprint64 as fixed-width lowercase hex (the row file stem). */
std::string fingerprintHex(const std::string &s);

/** Deterministic shard assignment: which of @p shards owns @p key.
 *  Fingerprint-based, so the partition is stable across processes,
 *  hosts, and submission order; shards == 0 or 1 maps everything to
 *  shard 0. */
unsigned shardOf(const std::string &key, unsigned shards);

/** "i/N" shard spec ("0/4" = first of four). */
struct ShardSpec
{
    unsigned index = 0;
    unsigned count = 1;

    bool sharded() const { return count > 1; }
};

/** Parse "i/N" with 0 <= i < N; throws ConfigError naming the input. */
ShardSpec parseShardSpec(const std::string &text);

class ResultStore
{
  public:
    /** Open (creating if needed) the store at @p dir; sweeps inert temp
     *  files left behind by crashed writers. Throws ConfigError when the
     *  layout cannot be created. */
    explicit ResultStore(const std::string &dir);

    ResultStore(const ResultStore &) = delete;
    ResultStore &operator=(const ResultStore &) = delete;

    const std::string &dir() const { return dir_; }

    /** The published row path for @p key (may not exist yet). */
    std::string rowPath(const std::string &key) const;

    /**
     * Load the row for @p key. Returns the stored outcome Config (check
     * kStatusKey) or nullopt on miss. Corrupt, truncated, or
     * key-mismatched rows are quarantined and reported as a miss.
     */
    std::optional<Config> load(const std::string &key);

    /** Atomically persist @p row as the outcome for @p key
     *  (write-temp-then-rename; failures diagnosed, not thrown). */
    void save(const std::string &key, const Config &row);

    /** Number of rows currently on disk whose status is "ok" (a full
     *  directory scan — resume-time reporting, not a hot path). Corrupt
     *  rows encountered during the scan are left in place; they are
     *  quarantined when load() actually needs them. */
    std::size_t okRowCount() const;

    /** What this store did to its files; the Runner counts the points
     *  it served from rows and the points that failed. */
    struct Counters
    {
        std::size_t quarantined = 0;   ///< rows moved aside by load()
        std::size_t saved = 0;         ///< successful save() renames
    };

    Counters counters() const;

  private:
    bool verifyAndParse(const std::string &path, const std::string &key,
                        Config &row_out, std::string &reason_out) const;
    void quarantine(const std::string &path, const std::string &reason);

    std::string dir_;
    std::string rows_dir_;
    std::string quarantine_dir_;
    mutable std::mutex m_;   ///< counters + temp-name sequence
    Counters counters_;
    unsigned tmp_seq_ = 0;
};

} // namespace tlpsim::store

#endif // TLPSIM_STORE_RESULT_STORE_HH
