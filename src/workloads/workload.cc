#include "workloads/workload.hh"

#include <cstring>

#include "common/config.hh"
#include "common/rng.hh"
#include "tracefile/format.hh"

namespace tlpsim::workloads
{

const char *
toString(Suite s)
{
    return s == Suite::Spec ? "SPEC" : "GAP";
}

ScaleParams
scaleParams(SetSize s)
{
    switch (s) {
      case SetSize::Tiny:
        return {
            12, 8, 4,
            {GraphKind::Kron, GraphKind::Road},
            {SpecKernel::McfPchase, SpecKernel::LibqStream},
        };
      case SetSize::Small:
        return {
            21, 10, 1,
            {GraphKind::Kron, GraphKind::Road, GraphKind::Urand},
            {SpecKernel::McfPchase, SpecKernel::LbmStencil,
             SpecKernel::XalanHash, SpecKernel::OmnetppHeap,
             SpecKernel::DeepsjengTt, SpecKernel::RomsSpmv},
        };
      case SetSize::Full:
        return {
            21, 12, 0,
            {GraphKind::Web, GraphKind::Road, GraphKind::Twitter,
             GraphKind::Kron, GraphKind::Urand},
            {SpecKernel::McfPchase, SpecKernel::LbmStencil,
             SpecKernel::LibqStream, SpecKernel::OmnetppHeap,
             SpecKernel::XalanHash, SpecKernel::GccMixed,
             SpecKernel::DeepsjengTt, SpecKernel::RomsSpmv},
        };
    }
    return scaleParams(SetSize::Small);
}

SetSize
setSizeFromEnv()
{
    const std::string v
        = Config::fromEnvVar("TLPSIM_SET").getString("TLPSIM_SET", "small");
    if (v == "tiny")
        return SetSize::Tiny;
    if (v == "small")
        return SetSize::Small;
    if (v == "full")
        return SetSize::Full;
    throw ConfigError("TLPSIM_SET: unknown workload set '" + v
                      + "'; valid names: tiny, small, full");
}

std::vector<WorkloadSpec>
singleCoreWorkloads(SetSize s)
{
    ScaleParams p = scaleParams(s);
    std::vector<WorkloadSpec> out;

    for (GapKernel k : kAllGapKernels) {
        for (GraphKind gk : p.graphs) {
            WorkloadSpec w;
            w.name = std::string(toString(k)) + "." + toString(gk);
            w.suite = Suite::Gap;
            w.record = [k, gk, p](TraceRecorder &rec, std::uint64_t seed) {
                auto g = GraphCache::get(gk, p.graph_scale,
                                         p.graph_degree, 42);
                recordGapKernel(k, *g, rec, seed);
            };
            out.push_back(std::move(w));
        }
    }
    for (SpecKernel k : p.spec_kernels) {
        WorkloadSpec w;
        w.name = toString(k);
        w.suite = Suite::Spec;
        w.record = [k, p](TraceRecorder &rec, std::uint64_t seed) {
            recordSpecKernel(k, rec, seed, p.spec_ws_shift);
        };
        out.push_back(std::move(w));
    }
    return out;
}

Trace
buildTrace(const WorkloadSpec &spec, std::uint64_t instrs, std::uint64_t seed)
{
    if (!spec.record) {
        // File-backed workloads replay via a TraceSource; materializing
        // them here would defeat the bounded-memory contract, so a path
        // that reaches this (a bench calling cachedTrace on a file spec)
        // is a bug surfaced by name.
        throw ConfigError("workload '" + spec.name
                          + "' is file-backed (" + spec.trace_path
                          + "); it streams from disk and cannot be "
                            "re-recorded in memory");
    }
    Trace trace(spec.name);
    TraceRecorder::Options opt;
    opt.max_instrs = instrs;
    TraceRecorder rec(trace, opt);
    spec.record(rec, seed);
    return trace;
}

std::vector<Mix>
makeMixes(const std::vector<WorkloadSpec> &workloads, int mixes_per_suite,
          std::uint64_t seed, unsigned cores)
{
    std::vector<Mix> mixes;
    for (Suite suite : {Suite::Spec, Suite::Gap}) {
        std::vector<int> candidates;
        for (std::size_t i = 0; i < workloads.size(); ++i) {
            if (workloads[i].suite == suite)
                candidates.push_back(static_cast<int>(i));
        }
        if (candidates.empty())
            continue;
        Rng rng(seed ^ (suite == Suite::Gap ? 0x9a9 : 0x5e5));
        for (int m = 0; m < mixes_per_suite; ++m) {
            Mix mix;
            mix.suite = suite;
            mix.homogeneous = m < mixes_per_suite / 2;
            if (mix.homogeneous) {
                int w = candidates[rng.below(candidates.size())];
                mix.workload_index.assign(cores, w);
                mix.name = std::string("homo.") + workloads[w].name;
            } else {
                for (unsigned c = 0; c < cores; ++c) {
                    mix.workload_index.push_back(
                        candidates[rng.below(candidates.size())]);
                }
                mix.name = std::string("hetero.") + toString(suite) + "."
                    + std::to_string(m);
            }
            mixes.push_back(std::move(mix));
        }
    }
    return mixes;
}

bool
isFileWorkloadName(const std::string &name)
{
    return name.compare(0, std::strlen(kFileWorkloadPrefix),
                        kFileWorkloadPrefix) == 0;
}

WorkloadSpec
fileTraceWorkload(const std::string &path)
{
    const tracefile::TraceFileInfo info = tracefile::verifyFile(path);
    WorkloadSpec w;
    w.name = info.name;
    w.suite = info.suite == 1 ? Suite::Gap : Suite::Spec;
    w.trace_path = path;
    w.identity = info.identity();
    return w;
}

std::vector<int>
resolveWorkloadIndices(std::vector<WorkloadSpec> &workloads,
                       const std::vector<std::string> &names,
                       const std::string &context)
{
    std::vector<int> indices;
    std::vector<std::string> unknown;
    std::vector<std::string> errors;
    for (const std::string &name : names) {
        if (isFileWorkloadName(name)) {
            const std::string path
                = name.substr(std::strlen(kFileWorkloadPrefix));
            int found = -1;
            for (std::size_t i = 0; i < workloads.size(); ++i) {
                if (workloads[i].trace_path == path) {
                    found = static_cast<int>(i);
                    break;
                }
            }
            if (found < 0) {
                try {
                    workloads.push_back(fileTraceWorkload(path));
                    found = static_cast<int>(workloads.size() - 1);
                } catch (const ConfigError &e) {
                    errors.push_back(context + ": " + e.what());
                    continue;
                }
            }
            indices.push_back(found);
            continue;
        }
        int found = -1;
        for (std::size_t i = 0; i < workloads.size(); ++i) {
            if (!workloads[i].isFile() && workloads[i].name == name) {
                found = static_cast<int>(i);
                break;
            }
        }
        if (found < 0)
            unknown.push_back(name);
        else
            indices.push_back(found);
    }
    if (!unknown.empty()) {
        std::vector<std::string> valid;
        for (const auto &w : workloads) {
            if (!w.isFile())
                valid.push_back(w.name);
        }
        errors.push_back(
            context + ": unknown workload"
            + (unknown.size() > 1 ? "s " : " ") + joinNames(unknown)
            + "; valid names (set TLPSIM_SET=tiny|small|full to change "
              "the set, or file:PATH to replay an external trace): "
            + joinNames(valid));
    }
    if (!errors.empty())
        throwConfigErrors(errors);
    return indices;
}

Mix
mixFromNames(std::vector<WorkloadSpec> &workloads,
             const std::vector<std::string> &names,
             const std::string &context)
{
    Mix mix;
    mix.workload_index = resolveWorkloadIndices(workloads, names, context);
    mix.suite = Suite::Spec;
    mix.homogeneous = true;
    bool any_file = false;
    for (int idx : mix.workload_index) {
        const WorkloadSpec &w = workloads[static_cast<std::size_t>(idx)];
        if (w.suite == Suite::Gap)
            mix.suite = Suite::Gap;
        if (w.isFile())
            any_file = true;
        if (w.name != workloads[static_cast<std::size_t>(
                          mix.workload_index.front())].name) {
            mix.homogeneous = false;
        }
        mix.name += mix.name.empty() ? w.name : "+" + w.name;
        mix.point_name
            += mix.point_name.empty() ? w.pointName() : "+" + w.pointName();
    }
    // For all-in-binary mixes the display name is the identity; keeping
    // point_name empty preserves the store keys of every existing sweep.
    if (!any_file)
        mix.point_name.clear();
    return mix;
}

} // namespace tlpsim::workloads
