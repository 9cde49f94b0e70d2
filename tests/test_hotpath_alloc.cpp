/**
 * Dynamic check of the hot-path zero-allocation contract.
 *
 * Counting overrides of the global operator new/delete measure heap
 * traffic around Simulator::step(). After a warmup long enough to reach
 * every structure's high-water mark (two full passes over a cyclic
 * trace), the per-cycle loop must not allocate or free at all: the
 * core's in-flight tables are FlatTables sized at construction, the
 * cache/DRAM queues are reserved Rings/vectors, and MSHR/DRAM waiter
 * vectors recycle their capacity through pools. The cases below run
 * every registered prefetcher, off-chip predictor and filter.
 *
 * tlpsim-audit's hotpath check bans the same constructs statically
 * inside `// tlpsim:hot` regions, on branches no run here takes; this
 * test also catches what no region covers, such as a helper defined
 * outside one. The counters are plain (non-atomic) because the whole
 * test is single-threaded; the override itself is process-global, so
 * the test lives in its own binary.
 */

#include <cstdint>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "sim/simulator.hh"
#include "sim/system_config.hh"
#include "workloads/workload.hh"

namespace
{

std::uint64_t g_news = 0;
std::uint64_t g_deletes = 0;

} // namespace

void *
operator new(std::size_t size)
{
    ++g_news;
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc{};
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    ++g_news;
    std::size_t a = static_cast<std::size_t>(align);
    if (a < sizeof(void *))
        a = sizeof(void *);
    void *p = nullptr;
    if (posix_memalign(&p, a, size ? size : 1) == 0)
        return p;
    throw std::bad_alloc{};
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    return ::operator new(size, align);
}

void
operator delete(void *p) noexcept
{
    if (p != nullptr)
        ++g_deletes;
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    ::operator delete(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    ::operator delete(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    ::operator delete(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    ::operator delete(p);
}

void
operator delete[](void *p, std::align_val_t) noexcept
{
    ::operator delete(p);
}

namespace
{

using namespace tlpsim;

const workloads::WorkloadSpec &
pickWorkload(const char *name)
{
    static auto specs
        = workloads::singleCoreWorkloads(workloads::SetSize::Tiny);
    for (const auto &w : specs) {
        if (w.name == name)
            return w;
    }
    return specs.front();
}

/** What a steady-state window did: heap operations and DRAM
 *  transactions. */
struct Window
{
    std::uint64_t allocs = 0;
    std::uint64_t dram_txns = 0;
};

/** The window of `steps` simulated cycles under `scheme` and the
 *  `l1_prefetcher` on `cores` copies of `workload`, after at least
 *  `warmup_steps` cycles of warmup and until every core has retired two
 *  passes over the trace. */
Window
steadyState(const char *workload, const SchemeConfig &scheme,
            unsigned warmup_steps, unsigned steps, unsigned cores = 1,
            const char *l1_prefetcher = "ipcp")
{
    constexpr std::uint64_t kTraceInstrs = 4000;
    Trace trace = workloads::buildTrace(pickWorkload(workload),
                                        kTraceInstrs, /*seed=*/1);

    SystemConfig cfg = SystemConfig::cascadeLake(cores);
    cfg.scheme = scheme;
    cfg.l1_prefetcher = l1_prefetcher;
    std::vector<std::shared_ptr<TraceSource>> sources;
    for (unsigned c = 0; c < cores; ++c)
        sources.push_back(std::make_shared<MemoryTraceSource>(trace));
    Simulator sim(cfg, std::move(sources));

    // Warmup: reach every high-water mark. The trace repeats
    // cyclically; every core runs through it at least twice.
    auto cycled = [&] {
        for (unsigned c = 0; c < cores; ++c) {
            if (sim.core(c).retired() <= kTraceInstrs * 2)
                return false;
        }
        return true;
    };
    constexpr unsigned kMaxWarmupSteps = 2'000'000;
    for (unsigned i = 0;
         i < warmup_steps || (!cycled() && i < kMaxWarmupSteps); ++i)
        sim.step();
    EXPECT_TRUE(cycled()) << "warmup too short to cycle the trace";

    const std::uint64_t news_before = g_news;
    const std::uint64_t deletes_before = g_deletes;
    const std::uint64_t txns_before = sim.dram().transactions();
    for (unsigned i = 0; i < steps; ++i)
        sim.step();
    return {g_news - news_before + g_deletes - deletes_before,
            sim.dram().transactions() - txns_before};
}

TEST(HotPathAlloc, CountersActuallyCount)
{
    const std::uint64_t before = g_news;
    auto *p = new int(42);
    EXPECT_GT(g_news, before);
    const std::uint64_t frees_before = g_deletes;
    delete p;
    EXPECT_GT(g_deletes, frees_before);
}

TEST(HotPathAlloc, BaselineSchemeSteadyStateIsAllocationFree)
{
    EXPECT_EQ(steadyState("mcf_pchase", SchemeConfig::fromName("baseline"),
                          400'000, 100'000).allocs, 0u);
}

TEST(HotPathAlloc, TlpSchemeSteadyStateIsAllocationFree)
{
    // The full paper scheme: FLP selective delay + SLP filtering +
    // IPCP/SPP prefetchers — the busiest per-cycle path in the system.
    EXPECT_EQ(steadyState("mcf_pchase", SchemeConfig::fromName("tlp"),
                          400'000, 100'000).allocs, 0u);
}

TEST(HotPathAlloc, OtherComponentsSteadyStateIsAllocationFree)
{
    // The schemes above run IPCP, SPP, FLP and SLP; these two run the
    // other four registered components: Berti, Hermes, PPF, next-line.
    EXPECT_EQ(steadyState("mcf_pchase", SchemeConfig::fromName("hermes+ppf"),
                          400'000, 100'000, 1, "berti").allocs, 0u);
    EXPECT_EQ(steadyState("mcf_pchase", SchemeConfig::fromName("tlp"),
                          400'000, 100'000, 1, "next_line").allocs, 0u);
}

TEST(HotPathAlloc, GraphWorkloadSteadyStateIsAllocationFree)
{
    EXPECT_EQ(steadyState("bfs.kron", SchemeConfig::fromName("tlp"), 400'000,
                          100'000).allocs, 0u);
}

TEST(HotPathAlloc, SaturatedMultiCoreMixSteadyStateIsAllocationFree)
{
    // Four bc.road copies overrun the shared LLC inside the window, so
    // DRAM is busy and full queues refuse, sleep and wake their senders
    // all the time; that path must not allocate either.
    for (const char *scheme : {"baseline", "tlp"}) {
        const Window w = steadyState(
            "bc.road", SchemeConfig::fromName(scheme), 0, 100'000, 4);
        EXPECT_GT(w.dram_txns, 0u) << scheme;
        EXPECT_EQ(w.allocs, 0u) << scheme;
    }
}

} // namespace
