/**
 * @file
 * Experiment harness: shared plumbing for the bench/ binaries that
 * regenerate the paper's tables and figures — trace caching, environment
 * scaling knobs, single-core and multi-core runners, the paper's metrics
 * (speedup, weighted speedup, ΔDRAM transactions), and text-table output.
 */

#ifndef TLPSIM_SIM_EXPERIMENT_HH
#define TLPSIM_SIM_EXPERIMENT_HH

#include <string>
#include <vector>

#include "sim/simulator.hh"
#include "sim/system_config.hh"
#include "workloads/workload.hh"

namespace tlpsim::experiment
{

/** TLPSIM_INSTRS (measurement instructions per core). These three return
 *  @p fallback when the variable is unset and throw ConfigError, naming
 *  it, when it is not a non-negative integer. */
InstrCount envInstrs(InstrCount fallback);
/** TLPSIM_WARMUP (warmup instructions per core). */
InstrCount envWarmup(InstrCount fallback);
/** TLPSIM_MIXES (4-core mixes per suite). */
int envMixes(int fallback);

/**
 * Process-wide trace cache: benches sweep many workloads/schemes over the
 * same workloads; each trace is recorded once. In-binary kernels only —
 * file-backed specs stream from disk and are never materialized (see
 * traceSource()).
 */
const Trace &cachedTrace(const workloads::WorkloadSpec &spec,
                         InstrCount instrs, std::uint64_t seed = 7);
void clearTraceCache();

/**
 * The stream a simulation consumes for @p spec: a MemoryTraceSource over
 * the cached recording for in-binary kernels, a fresh bounded-memory
 * FileTraceSource for file-backed specs. Each call returns an
 * independent stream (own position, own file handle), so N concurrent
 * simulations of one workload stay deterministic and lock-free.
 */
std::shared_ptr<TraceSource> traceSource(const workloads::WorkloadSpec &spec,
                                         InstrCount instrs,
                                         std::uint64_t seed = 7);

/** Run one workload on a single-core system. */
SimResult runSingleCore(const workloads::WorkloadSpec &workload,
                        SystemConfig cfg);

/** Run a multi-core mix (one workload per core; mix length must equal
 *  cfg.num_cores or a ConfigError names the offending mix). */
SimResult runMix(const std::vector<workloads::WorkloadSpec> &workloads,
                 const workloads::Mix &mix, SystemConfig cfg);

/**
 * SimResult <-> Config round trip — the payload of a persistent store
 * row. Every field serializes losslessly: integers exactly, doubles via
 * Config's shortest-round-trippable rendering (std::to_chars), per-core
 * vectors as indexed keys ("ipc.0", "ipc.1", ...), and the stats map
 * under "stat.<name>". simResultFromConfig(simResultToConfig(r)) equals
 * r field for field, bit for bit — the property that makes a
 * store-served sweep table diff clean against a cold run.
 */
Config simResultToConfig(const SimResult &r);

/** Inverse of simResultToConfig; throws ConfigError on malformed input
 *  (a store row from a different format version). */
SimResult simResultFromConfig(const Config &cfg);

/** Percent change of @p value over @p baseline: +10 = 10 % more. */
double percentDelta(double value, double baseline);

/** Geometric mean of (1 + pct/100) ratios, returned as a percentage. */
double geomeanSpeedupPct(const std::vector<double> &speedup_pcts);

/**
 * The paper's multi-core metric: Σ IPC_shared/IPC_single over a mix's
 * slots — one per core, at whatever width the mix has — normalized to
 * the same sum in the baseline configuration. All three arguments must
 * describe the same mix: a slot-count mismatch (scheme vs baseline vs
 * ipc_single) throws ConfigError instead of silently indexing the
 * vectors out of step.
 */
double weightedSpeedupPct(const SimResult &scheme_result,
                          const SimResult &baseline_result,
                          const std::vector<double> &ipc_single);

/** Fixed-width text table used by every bench binary. A cell takes
 *  col_width columns, a separating space included; a longer one pushes
 *  the rest of its row right instead of fusing with the next cell. */
class TablePrinter
{
  public:
    explicit TablePrinter(std::vector<std::string> columns,
                          unsigned col_width = 14);

    void printHeader(const std::string &title) const;
    void printRow(const std::vector<std::string> &cells) const;
    void printSeparator() const;

    static std::string fmt(double v, int precision = 2);
    static std::string fmtPct(double v, int precision = 1);

  private:
    std::vector<std::string> columns_;
    unsigned col_width_;
};

} // namespace tlpsim::experiment

#endif // TLPSIM_SIM_EXPERIMENT_HH
