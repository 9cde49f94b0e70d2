/**
 * @file
 * Workload registry: named single-core workloads and multi-core mixes.
 *
 * Mirrors the paper's methodology (§V-B..D): GAP workloads are
 * kernel × input-graph combinations, SPEC workloads are the SPEC-like
 * kernels, and multi-core mixes are random homogeneous / heterogeneous
 * 4-tuples drawn per suite. Everything is deterministic in the seed.
 *
 * Set sizes: the paper uses 55 single-core workloads and 200 mixes at
 * 100M instructions; a laptop bench run scales that down. `Small` is the
 * default; `Full` (TLPSIM_SET=full) widens graphs and workload counts.
 */

#ifndef TLPSIM_WORKLOADS_WORKLOAD_HH
#define TLPSIM_WORKLOADS_WORKLOAD_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "trace/trace.hh"
#include "workloads/gap_kernels.hh"
#include "workloads/graph.hh"
#include "workloads/spec_kernels.hh"

namespace tlpsim::workloads
{

/** Benchmark suite a workload belongs to (drives per-suite reporting). */
enum class Suite
{
    Spec,
    Gap,
};

const char *toString(Suite s);

/** A named workload: either an in-binary kernel recorded on demand, or
 *  an external trace file replayed from disk (trace_path non-empty). */
struct WorkloadSpec
{
    std::string name;
    Suite suite;
    /** Record the workload into @p rec with randomness from @p seed.
     *  Null for file-backed workloads — they replay, never record. */
    std::function<void(TraceRecorder &, std::uint64_t)> record;
    /** Path of the external trace file; empty = in-binary kernel. */
    std::string trace_path;
    /** Verified content identity of the trace file
     *  ("tracefile:v1:<checksum>x<count>"); empty for in-binary kernels. */
    std::string identity;

    bool isFile() const { return !trace_path.empty(); }

    /** Name that keys design points (store rows, Runner jobs): the
     *  workload name for in-binary kernels (their content is a pure
     *  function of name, scale, and seed), the *content* identity for
     *  file workloads — so two paths to byte-identical traces share
     *  rows, and an edited or re-converted file never aliases stale
     *  results recorded under its old bytes. */
    const std::string &pointName() const
    {
        return identity.empty() ? name : identity;
    }
};

/** Workload-set scaling. */
enum class SetSize
{
    Tiny,    ///< unit/integration tests: small graphs, tiny working sets
    Small,   ///< default bench scale
    Full,    ///< TLPSIM_SET=full: widest graph/workload coverage
};

/** Parameters that depend on SetSize. */
struct ScaleParams
{
    unsigned graph_scale;    ///< log2 vertices
    unsigned graph_degree;   ///< average directed degree
    unsigned spec_ws_shift;  ///< working-set right-shift for SPEC kernels
    std::vector<GraphKind> graphs;        ///< input graphs used
    std::vector<SpecKernel> spec_kernels; ///< SPEC-like kernels used
};

ScaleParams scaleParams(SetSize s);

/** Reads TLPSIM_SET (tiny|small|full); defaults to Small. Any other
 *  value throws ConfigError. */
SetSize setSizeFromEnv();

/** All single-core workloads for a set size (GAP first, then SPEC). */
std::vector<WorkloadSpec> singleCoreWorkloads(SetSize s);

/** Build a trace of @p instrs records for @p spec. */
Trace buildTrace(const WorkloadSpec &spec, std::uint64_t instrs,
                 std::uint64_t seed);

/** A multi-core mix: indices into a workload vector, one per core. */
struct Mix
{
    std::string name;
    Suite suite;
    bool homogeneous;
    std::vector<int> workload_index;
    /** Design-point identity: the slot workloads' pointName()s joined
     *  with '+'. Empty (generated mixes of in-binary kernels) means the
     *  display name doubles as the identity. */
    std::string point_name;

    /** Number of cores this mix occupies (one workload per core). */
    unsigned cores() const
    {
        return static_cast<unsigned>(workload_index.size());
    }

    /** Name that keys design points (cf. WorkloadSpec::pointName). */
    const std::string &pointName() const
    {
        return point_name.empty() ? name : point_name;
    }
};

/**
 * Generate @p cores-wide mixes per the paper's recipe: half homogeneous
 * (N copies of one workload), half heterogeneous (independently drawn),
 * generated separately for each suite. The draw order is independent of
 * @p cores' value per slot, so the 4-core mixes of the paper's figures
 * are reproduced exactly by the default.
 */
std::vector<Mix> makeMixes(const std::vector<WorkloadSpec> &workloads,
                           int mixes_per_suite, std::uint64_t seed,
                           unsigned cores = 4);

/** The workload-name syntax that replays an external trace file. */
inline constexpr const char *kFileWorkloadPrefix = "file:";

/** True iff @p name uses the "file:PATH" external-trace syntax. */
bool isFileWorkloadName(const std::string &name);

/**
 * Build a WorkloadSpec replaying the trace file at @p path. The file is
 * fully verified up front (structure *and* payload checksum — one
 * streaming pass), so a corrupt trace fails here, at resolution time,
 * not mid-sweep; throws ConfigError naming the file and byte offset.
 * The spec's name is the workload name embedded in the file, its
 * identity the verified content hash.
 */
WorkloadSpec fileTraceWorkload(const std::string &path);

/**
 * Resolve workload names to indices into @p workloads. Unlike a lookup
 * loop that stops at the first typo, this collects *every* unknown name
 * and malformed trace file and throws one ConfigError listing them all
 * alongside the valid names, so a sweep grid is validated up front in a
 * single pass. "file:PATH" names resolve to external trace files:
 * each distinct path is verified once and appended to @p workloads
 * (which is why the vector is mutable); repeats reuse the appended
 * spec. Plain names match only in-binary kernels — a file whose
 * embedded name collides with a kernel shadows nothing.
 * @p context names the source ("--mix", "--workload") in the error.
 */
std::vector<int>
resolveWorkloadIndices(std::vector<WorkloadSpec> &workloads,
                       const std::vector<std::string> &names,
                       const std::string &context);

/** Build a named Mix from workload names (one per core) via
 *  resolveWorkloadIndices; the mix is named "a+b+c+..." . */
Mix mixFromNames(std::vector<WorkloadSpec> &workloads,
                 const std::vector<std::string> &names,
                 const std::string &context);

} // namespace tlpsim::workloads

#endif // TLPSIM_WORKLOADS_WORKLOAD_HH
