#include "workloads/gap_kernels.hh"

#include <algorithm>
#include <cassert>

#include "common/bitops.hh"
#include "common/rng.hh"
#include "common/zero_pages.hh"

namespace tlpsim::workloads
{

const char *
toString(GapKernel k)
{
    switch (k) {
      case GapKernel::Bfs: return "bfs";
      case GapKernel::Pr: return "pr";
      case GapKernel::Cc: return "cc";
      case GapKernel::Bc: return "bc";
      case GapKernel::Tc: return "tc";
      case GapKernel::Sssp: return "sssp";
    }
    return "?";
}

GapKernelTraits
gapKernelTraits(GapKernel k)
{
    switch (k) {
      case GapKernel::Bfs:
        return {"BFS", "4 B", "Push & Pull", true};
      case GapKernel::Pr:
        return {"PR", "4 B", "Pull-Only", false};
      case GapKernel::Cc:
        return {"CC", "4 B", "Push-Mostly", false};
      case GapKernel::Bc:
        return {"BC", "8 B + 4 B", "Push-Mostly", true};
      case GapKernel::Tc:
        return {"TC", "4 B", "Push-Only", false};
      case GapKernel::Sssp:
        return {"SSSP", "4 B", "Push-Only", true};
    }
    return {"?", "?", "?", false};
}

namespace
{

/** Deterministically pick a source vertex with non-trivial degree. */
Vertex
pickSource(const Graph &g, Rng &rng)
{
    for (int tries = 0; tries < 64; ++tries) {
        auto v = static_cast<Vertex>(rng.below(g.numVertices()));
        if (g.degree(v) > 0)
            return v;
    }
    return g.maxDegreeVertex();
}

/** Virtual mirrors of the CSR structure itself. */
struct CsrMirror
{
    VArray off;
    VArray nbr;

    CsrMirror(const Graph &g, TraceRecorder &rec)
        : off(rec.allocArray(g.numVertices() + 1, 8)),
          nbr(rec.allocArray(g.numEdges(), 4))
    {}
};

} // namespace

// GCC 12 flags the reserve-then-push_back on `queue` below as
// -Wfree-nonheap-object under -O2 (PR 104475, a false positive in the
// vendored vector-growth analysis); the pragma keeps -Werror viable
// without restructuring working code.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wfree-nonheap-object"

BfsResult
recordBfs(const Graph &g, TraceRecorder &rec, std::uint64_t seed)
{
    constexpr Addr pc = codeBase(GapKernel::Bfs);
    const Vertex n = g.numVertices();
    Rng rng(seed);
    BfsResult res;
    res.source = pickSource(g, rng);
    res.parent.assign(n, kNoParent);

    CsrMirror csr(g, rec);
    VArray v_parent = rec.allocArray(n, 4);
    VArray v_queue = rec.allocArray(n, 4);

    std::vector<Vertex> queue;
    queue.reserve(n);
    res.parent[res.source] = res.source;
    queue.push_back(res.source);
    rec.store(pc + 0x00, v_queue.at(0));
    res.visited = 1;

    for (std::size_t head = 0; head < queue.size() && !rec.full(); ++head) {
        Vertex u = queue[head];
        RegId ru = rec.load(pc + 0x04, v_queue.at(head));
        RegId rbeg = rec.load(pc + 0x08, csr.off.at(u), ru);
        rec.load(pc + 0x0c, csr.off.at(u + 1), ru);
        for (std::uint64_t e = g.begin(u); e < g.end(u); ++e) {
            if (rec.full())
                break;
            Vertex v = g.neighbors[e];
            RegId rv = rec.load(pc + 0x10, csr.nbr.at(e), rbeg);
            RegId rp = rec.load(pc + 0x14, v_parent.at(v), rv);   // gather
            bool unvisited = res.parent[v] == kNoParent;
            rec.branch(pc + 0x18, unvisited, rp);
            if (unvisited) {
                res.parent[v] = u;
                rec.store(pc + 0x1c, v_parent.at(v), ru, rv);
                queue.push_back(v);
                rec.store(pc + 0x20, v_queue.at(queue.size() - 1), rv);
                ++res.visited;
            }
        }
    }
    return res;
}

#pragma GCC diagnostic pop

PrResult
recordPr(const Graph &g, TraceRecorder &rec, std::uint64_t seed,
         unsigned max_iters)
{
    constexpr Addr pc = codeBase(GapKernel::Pr);
    const Vertex n = g.numVertices();
    (void)seed;
    constexpr float kDamp = 0.85f;
    PrResult res;
    res.rank.assign(n, 1.0f / static_cast<float>(n));
    std::vector<float> contrib(n, 0.0f);

    CsrMirror csr(g, rec);
    VArray v_rank = rec.allocArray(n, 4);
    VArray v_contrib = rec.allocArray(n, 4);

    const float base = (1.0f - kDamp) / static_cast<float>(n);
    // Phase 1 streams 3 instructions over every vertex; on large graphs
    // with short trace budgets that alone would fill the trace before a
    // single gather is recorded. Record a fixed-size sample of the phase
    // (its access pattern is uniform streaming) while computing all
    // contributions host-side, so the recorded mix stays gather-dominated
    // like a steady-state PR SimPoint.
    const Vertex phase1_recorded = std::min<Vertex>(n, 8192);
    for (unsigned iter = 0; iter < max_iters && !rec.full(); ++iter) {
        // Phase 1: per-vertex outgoing contribution (streaming).
        for (Vertex v = 0; v < n && !rec.full(); ++v) {
            contrib[v] = g.degree(v) > 0
                ? res.rank[v] / static_cast<float>(g.degree(v))
                : 0.0f;
            if (v < phase1_recorded) {
                RegId rr = rec.load(pc + 0x00, v_rank.at(v));
                RegId rc = rec.alu(pc + 0x04, rr);
                rec.store(pc + 0x08, v_contrib.at(v), rc);
            }
        }
        // Phase 2: pull — gather contributions of in-neighbors.
        for (Vertex v = 0; v < n && !rec.full(); ++v) {
            RegId rbeg = rec.load(pc + 0x0c, csr.off.at(v));
            float sum = 0.0f;
            RegId racc = rec.alu(pc + 0x10);
            for (std::uint64_t e = g.begin(v); e < g.end(v); ++e) {
                if (rec.full())
                    break;
                Vertex u = g.neighbors[e];
                RegId ru = rec.load(pc + 0x14, csr.nbr.at(e), rbeg);
                RegId rc = rec.load(pc + 0x18, v_contrib.at(u), ru); // gather
                sum += contrib[u];
                racc = rec.alu(pc + 0x1c, rc, racc);
                rec.branch(pc + 0x20, e + 1 < g.end(v), racc);   // edge loop
            }
            res.rank[v] = base + kDamp * sum;
            rec.store(pc + 0x24, v_rank.at(v), racc);
        }
        ++res.iterations;
    }
    return res;
}

CcResult
recordCc(const Graph &g, TraceRecorder &rec, std::uint64_t seed)
{
    constexpr Addr pc = codeBase(GapKernel::Cc);
    const Vertex n = g.numVertices();
    (void)seed;
    CcResult res;
    res.comp.resize(n);

    CsrMirror csr(g, rec);
    VArray v_comp = rec.allocArray(n, 4);

    for (Vertex v = 0; v < n; ++v)
        res.comp[v] = v;

    bool changed = true;
    while (changed && !rec.full()) {
        changed = false;
        // Hooking: push the smaller label across every edge.
        for (Vertex u = 0; u < n && !rec.full(); ++u) {
            RegId rbeg = rec.load(pc + 0x00, csr.off.at(u));
            RegId rcu = rec.load(pc + 0x04, v_comp.at(u));
            for (std::uint64_t e = g.begin(u); e < g.end(u); ++e) {
                if (rec.full())
                    break;
                Vertex v = g.neighbors[e];
                RegId rv = rec.load(pc + 0x08, csr.nbr.at(e), rbeg);
                RegId rcv = rec.load(pc + 0x0c, v_comp.at(v), rv);   // gather
                bool hook = res.comp[v] < res.comp[u];
                rec.branch(pc + 0x10, hook, rcv);
                if (hook) {
                    res.comp[u] = res.comp[v];
                    rec.store(pc + 0x14, v_comp.at(u), rcv, rcu);
                    changed = true;
                }
            }
        }
        // Shortcutting: pointer-jump every label to its root.
        for (Vertex v = 0; v < n && !rec.full(); ++v) {
            RegId rc = rec.load(pc + 0x18, v_comp.at(v));
            while (res.comp[v] != res.comp[res.comp[v]]) {
                if (rec.full())
                    break;
                // comp[comp[v]] — dependent load-load chain.
                rc = rec.load(pc + 0x1c, v_comp.at(res.comp[v]), rc);
                res.comp[v] = res.comp[res.comp[v]];
                rec.store(pc + 0x20, v_comp.at(v), rc);
                changed = true;
            }
        }
    }
    return res;
}

// The same false positive as recordBfs's, on `order`.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wfree-nonheap-object"

BcResult
recordBc(const Graph &g, TraceRecorder &rec, std::uint64_t seed)
{
    constexpr Addr pc = codeBase(GapKernel::Bc);
    const Vertex n = g.numVertices();
    Rng rng(seed);
    BcResult res;
    res.source = pickSource(g, rng);
    res.centrality.assign(n, 0.0f);

    CsrMirror csr(g, rec);
    VArray v_depth = rec.allocArray(n, 4);
    VArray v_sigma = rec.allocArray(n, 8);    // path counts: 8 B property
    VArray v_delta = rec.allocArray(n, 4);
    VArray v_order = rec.allocArray(n, 4);

    // Per-vertex state in zero pages: a short recording touches a few of
    // them. level is depth + 1, so an untouched 0 is kInfDist + 1 and the
    // depth comparisons below read the same on levels.
    ZeroPages<std::uint32_t> level(n);
    ZeroPages<double> sigma(n);
    ZeroPages<float> delta(n);
    std::vector<Vertex> order;
    order.reserve(n);

    level[res.source] = 1;
    sigma[res.source] = 1.0;
    order.push_back(res.source);
    rec.store(pc + 0x00, v_order.at(0));

    // Forward phase: BFS recording sigma accumulation.
    for (std::size_t head = 0; head < order.size() && !rec.full(); ++head) {
        Vertex u = order[head];
        RegId ru = rec.load(pc + 0x04, v_order.at(head));
        RegId rbeg = rec.load(pc + 0x08, csr.off.at(u), ru);
        RegId rsu = rec.load(pc + 0x0c, v_sigma.at(u), ru);
        for (std::uint64_t e = g.begin(u); e < g.end(u); ++e) {
            if (rec.full())
                break;
            Vertex v = g.neighbors[e];
            RegId rv = rec.load(pc + 0x10, csr.nbr.at(e), rbeg);
            RegId rd = rec.load(pc + 0x14, v_depth.at(v), rv);
            bool first_visit = level[v] == 0;
            rec.branch(pc + 0x18, first_visit, rd);
            if (first_visit) {
                level[v] = level[u] + 1;
                rec.store(pc + 0x1c, v_depth.at(v), rv);
                order.push_back(v);
                rec.store(pc + 0x20, v_order.at(order.size() - 1), rv);
            }
            if (level[v] == level[u] + 1) {
                sigma[v] += sigma[u];
                RegId rsv = rec.load(pc + 0x24, v_sigma.at(v), rv);
                RegId rsum = rec.alu(pc + 0x28, rsv, rsu);
                rec.store(pc + 0x2c, v_sigma.at(v), rsum, rv);
            }
        }
    }

    // Backward phase: dependency accumulation in reverse BFS order.
    for (std::size_t i = order.size(); i-- > 1 && !rec.full();) {
        Vertex w = order[i];
        RegId rw = rec.load(pc + 0x30, v_order.at(i));
        RegId rbeg = rec.load(pc + 0x34, csr.off.at(w), rw);
        RegId rdw = rec.load(pc + 0x38, v_delta.at(w), rw);
        RegId rsw = rec.load(pc + 0x3c, v_sigma.at(w), rw);
        for (std::uint64_t e = g.begin(w); e < g.end(w); ++e) {
            if (rec.full())
                break;
            Vertex v = g.neighbors[e];
            RegId rv = rec.load(pc + 0x40, csr.nbr.at(e), rbeg);
            RegId rd = rec.load(pc + 0x44, v_depth.at(v), rv);
            bool predecessor = level[v] + 1 == level[w];
            rec.branch(pc + 0x48, predecessor, rd);
            if (predecessor && sigma[w] > 0.0) {
                RegId rsv = rec.load(pc + 0x4c, v_sigma.at(v), rv);
                RegId rdv = rec.load(pc + 0x50, v_delta.at(v), rv);
                delta[v] += static_cast<float>(
                    sigma[v] / sigma[w] * (1.0 + delta[w]));
                RegId rratio = rec.alu(pc + 0x54, rsv, rsw);
                RegId rdsum = rec.alu(pc + 0x58, rdv, rdw);
                RegId rnew = rec.alu(pc + 0x5c, rratio, rdsum);
                rec.store(pc + 0x60, v_delta.at(v), rnew, rv);
            }
        }
        res.centrality[w] = delta[w];
    }
    return res;
}

#pragma GCC diagnostic pop

TcResult
recordTc(const Graph &g, TraceRecorder &rec, std::uint64_t seed)
{
    constexpr Addr pc = codeBase(GapKernel::Tc);
    const Vertex n = g.numVertices();
    (void)seed;
    TcResult res;

    // GAP pre-sorts adjacency lists before counting; the sort is set-up,
    // not part of the measured kernel, so it is not recorded. The kernel
    // reads adj(u), and adj(v) only for v < u, so each list is sorted
    // when its vertex is first visited: `sorted` holds the lists of
    // vertices 0..u at their CSR positions.
    std::vector<Vertex> sorted;
    CsrMirror csr(g, rec);

    for (Vertex u = 0; u < n && !rec.full(); ++u) {
        const Vertex *adj = g.neighbors.data() + g.begin(u);
        sorted.insert(sorted.end(), adj, adj + g.degree(u));
        std::sort(sorted.end() - static_cast<std::ptrdiff_t>(g.degree(u)),
                  sorted.end());
        RegId rbu = rec.load(pc + 0x00, csr.off.at(u));
        for (std::uint64_t e = g.begin(u); e < g.end(u); ++e) {
            Vertex v = sorted[e];
            RegId rv = rec.load(pc + 0x04, csr.nbr.at(e), rbu);
            if (v >= u)
                break;    // count each triangle once (u > v ordering)
            RegId rbv = rec.load(pc + 0x08, csr.off.at(v), rv);
            // Merge-intersect adj(u) and adj(v), both sorted.
            std::uint64_t i = g.begin(u);
            std::uint64_t j = g.begin(v);
            while (i < g.end(u) && j < g.end(v) && !rec.full()) {
                Vertex a = sorted[i];
                Vertex b = sorted[j];
                if (a >= v)
                    break;
                RegId ra = rec.load(pc + 0x0c, csr.nbr.at(i), rbu);
                RegId rb = rec.load(pc + 0x10, csr.nbr.at(j), rbv);
                RegId rcmp = rec.alu(pc + 0x14, ra, rb);
                rec.branch(pc + 0x18, a == b, rcmp);
                if (a == b) {
                    ++res.triangles;
                    ++i;
                    ++j;
                } else if (a < b) {
                    ++i;
                } else {
                    ++j;
                }
            }
            if (rec.full())
                break;
        }
    }
    return res;
}

SsspResult
recordSssp(const Graph &g, TraceRecorder &rec, std::uint64_t seed,
           std::uint32_t delta)
{
    constexpr Addr pc = codeBase(GapKernel::Sssp);
    const Vertex n = g.numVertices();
    Rng rng(seed);
    SsspResult res;
    res.source = pickSource(g, rng);
    res.dist.assign(n, kInfDist);

    CsrMirror csr(g, rec);
    VArray v_dist = rec.allocArray(n, 4);
    VArray v_wgt = rec.allocArray(g.numEdges(), 4);
    VArray v_bucket = rec.allocArray(n * 2, 4);

    // Deterministic synthetic weights in [1, 32], as GAP does for
    // unweighted inputs.
    auto weight = [](std::uint64_t e) {
        return static_cast<std::uint32_t>(1 + (mix64(e) & 31));
    };

    std::vector<std::vector<Vertex>> buckets;
    auto bucketOf = [&](std::uint32_t d) { return d / delta; };
    auto push = [&](Vertex v, std::uint32_t d) {
        std::size_t b = bucketOf(d);
        if (buckets.size() <= b)
            buckets.resize(b + 1);
        buckets[b].push_back(v);
    };

    res.dist[res.source] = 0;
    push(res.source, 0);
    rec.store(pc + 0x00, v_bucket.at(0));

    std::uint64_t bucket_writes = 1;
    for (std::size_t b = 0; b < buckets.size() && !rec.full(); ++b) {
        // Δ-stepping re-examines a bucket until it stops growing.
        for (std::size_t i = 0; i < buckets[b].size() && !rec.full(); ++i) {
            Vertex u = buckets[b][i];
            RegId ru = rec.load(pc + 0x04, v_bucket.at(i % (n * 2)));
            RegId rdu = rec.load(pc + 0x08, v_dist.at(u), ru);
            if (bucketOf(res.dist[u]) != b)
                continue;    // stale entry
            RegId rbeg = rec.load(pc + 0x0c, csr.off.at(u), ru);
            for (std::uint64_t e = g.begin(u); e < g.end(u); ++e) {
                if (rec.full())
                    break;
                Vertex v = g.neighbors[e];
                RegId rv = rec.load(pc + 0x10, csr.nbr.at(e), rbeg);
                RegId rw = rec.load(pc + 0x14, v_wgt.at(e), rbeg);
                std::uint32_t cand = res.dist[u] + weight(e);
                RegId rdv = rec.load(pc + 0x18, v_dist.at(v), rv);
                bool relax = cand < res.dist[v];
                RegId rcand = rec.alu(pc + 0x1c, rdu, rw);
                RegId rcmp = rec.alu(pc + 0x20, rdv, rcand);
                rec.branch(pc + 0x24, relax, rcmp);
                if (relax) {
                    res.dist[v] = cand;
                    rec.store(pc + 0x28, v_dist.at(v), rv);
                    push(v, cand);
                    rec.store(pc + 0x2c,
                              v_bucket.at(bucket_writes++ % (n * 2)), rv);
                }
            }
        }
    }
    return res;
}

void
recordGapKernel(GapKernel k, const Graph &g, TraceRecorder &rec,
                std::uint64_t seed)
{
    switch (k) {
      case GapKernel::Bfs:
        recordBfs(g, rec, seed);
        return;
      case GapKernel::Pr:
        recordPr(g, rec, seed);
        return;
      case GapKernel::Cc:
        recordCc(g, rec, seed);
        return;
      case GapKernel::Bc:
        recordBc(g, rec, seed);
        return;
      case GapKernel::Tc:
        recordTc(g, rec, seed);
        return;
      case GapKernel::Sssp:
        recordSssp(g, rec, seed);
        return;
    }
}

} // namespace tlpsim::workloads
