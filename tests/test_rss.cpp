/**
 * Peak-RSS regressions of the workload set-up. Peak RSS is a process
 * high-water mark, so each step runs in a child forked for it: a child
 * starts at its parent's resident size, and its peak (wait4's ru_maxrss)
 * less that size is what the step added, whatever ran in this process
 * before. The suite is its own ctest process.
 */

#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <fstream>
#include <functional>

#include "trace/trace.hh"
#include "workloads/gap_kernels.hh"
#include "workloads/graph.hh"
#include "workloads/recorder.hh"

using namespace tlpsim;
using namespace tlpsim::workloads;

namespace
{

#if defined(__SANITIZE_ADDRESS__)
constexpr bool kAddressSanitizer = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
constexpr bool kAddressSanitizer = true;
#else
constexpr bool kAddressSanitizer = false;
#endif
#else
constexpr bool kAddressSanitizer = false;
#endif

#define SKIP_UNDER_ASAN()                                                    \
    do {                                                                     \
        if (kAddressSanitizer)                                               \
            GTEST_SKIP() << "peak RSS is meaningless under AddressSanitizer: " \
                            "its quarantine and shadow memory dominate it";  \
    } while (false)

/** This process's resident bytes now (/proc/self/statm). */
double
residentBytes()
{
    std::ifstream statm("/proc/self/statm");
    std::uint64_t pages = 0;
    std::uint64_t resident = 0;
    statm >> pages >> resident;
    return static_cast<double>(resident)
        * static_cast<double>(sysconf(_SC_PAGESIZE));
}

/** Bytes by which step() raises the peak RSS, run in a forked child. */
double
peakRise(const std::function<void()> &step)
{
    const double before = residentBytes();
    const pid_t pid = fork();
    if (pid == 0) {
        step();
        _exit(0);
    }
    int status = 0;
    rusage usage{};
    EXPECT_EQ(wait4(pid, &status, 0, &usage), pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    return static_cast<double>(usage.ru_maxrss) * 1024.0 - before;
}

double
csrBytes(const Graph &g)
{
    return static_cast<double>(g.offsets.size() * sizeof(g.offsets[0])
                               + g.neighbors.size() * sizeof(Vertex));
}

} // namespace

TEST(PeakRss, GraphBuildHoldsAboutOneCsr)
{
    SKIP_UNDER_ASAN();
    // An edge list as large as the neighbour array, held whole while the
    // build writes that array, takes the peak to about twice the CSR.
    const double rise
        = peakRise([] { makeGraph(GraphKind::Urand, 20, 10, 42); });
    const Graph g = makeGraph(GraphKind::Urand, 20, 10, 42);
    EXPECT_LT(rise, 1.3 * csrBytes(g))
        << "peak rise " << rise / 1048576.0 << " MiB for a "
        << csrBytes(g) / 1048576.0 << " MiB CSR";
}

TEST(PeakRss, ShortBcRecordingTouchesFewVertices)
{
    SKIP_UNDER_ASAN();
    // Dense depth, sigma, delta and centrality would add 20 B per vertex
    // however short the recording; of them only centrality (4 B) is
    // dense, the rest grows with the vertices the recording reaches.
    const Graph g = makeGraph(GraphKind::Road, 20, 8, 42);
    const double rise = peakRise([&g] {
        Trace trace("bc.road");
        TraceRecorder::Options opt;
        opt.max_instrs = 20'000;
        TraceRecorder rec(trace, opt);
        recordBc(g, rec, 1);
    });
    const double per_vertex = rise / g.numVertices();
    EXPECT_LT(per_vertex, 6.0) << "peak rise " << rise / 1048576.0
                               << " MiB over " << g.numVertices()
                               << " vertices";
}

TEST(PeakRss, RecordedTraceHoldsSixteenBytesPerRecord)
{
    SKIP_UNDER_ASAN();
    // A TraceInstr is 32 bytes; an in-memory trace packs a record that
    // has at most one of a load and a store into 16.
    constexpr std::uint64_t kRecords = 1'000'000;
    const double rise = peakRise([] {
        Trace trace("mix");
        TraceRecorder::Options opt;
        opt.max_instrs = kRecords;
        TraceRecorder rec(trace, opt);
        constexpr std::uint64_t kElems = 1 << 16;
        const VArray a = rec.allocArray(kElems, 8);
        for (std::uint64_t i = 0; !rec.full(); ++i) {
            const RegId r = rec.load(0x401000, a.at(i % kElems));
            rec.store(0x401004, a.at(i * 7 % kElems), r);
            rec.alu(0x401008, r);
        }
    });
    const double per_record = rise / static_cast<double>(kRecords);
    EXPECT_LT(per_record, 20.0) << "peak rise " << rise / 1048576.0
                                << " MiB over " << kRecords << " records";
}
