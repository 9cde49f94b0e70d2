#include "workloads/graph.hh"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <system_error>
#include <thread>
#include <tuple>
#include <utility>

#include "common/config.hh"
#include "common/once_cache.hh"
#include "common/rng.hh"
#include "common/zero_pages.hh"

namespace tlpsim::workloads
{

Vertex
Graph::maxDegreeVertex() const
{
    Vertex best = 0;
    std::uint64_t best_deg = 0;
    for (Vertex v = 0; v < numVertices(); ++v) {
        if (degree(v) > best_deg) {
            best_deg = degree(v);
            best = v;
        }
    }
    return best;
}

std::uint64_t
Graph::maxDegree() const
{
    std::uint64_t best = 0;
    for (Vertex v = 0; v < numVertices(); ++v)
        best = std::max(best, degree(v));
    return best;
}

double
Graph::avgDegree() const
{
    return numVertices() == 0
        ? 0.0
        : static_cast<double>(numEdges()) / numVertices();
}

const char *
toString(GraphKind k)
{
    switch (k) {
      case GraphKind::Web: return "web";
      case GraphKind::Road: return "road";
      case GraphKind::Twitter: return "twitter";
      case GraphKind::Kron: return "kron";
      case GraphKind::Urand: return "urand";
    }
    return "?";
}

namespace
{

struct Edge
{
    Vertex u;
    Vertex v;
};

/** Most edges an edge list holds: their directed entries, two per
 *  edge, must fit Graph's 32-bit offsets. */
constexpr std::uint64_t kMaxEdges = (std::uint64_t{1} << 31) - 1;

/** A generated edge list, in generation order, in zero pages that
 *  buildCsr returns to the OS as it consumes them. Self-loops may be
 *  left in; buildCsr drops them. */
struct EdgeList
{
    explicit EdgeList(std::uint64_t capacity)
        : buf(checkedCapacity(capacity)), size(capacity)
    {}

    static std::uint64_t
    checkedCapacity(std::uint64_t capacity)
    {
        if (capacity > kMaxEdges) {
            throw ConfigError(
                "graph too large: " + std::to_string(capacity)
                + " edges could pass the 2^32 - 1 directed entries that "
                  "32-bit CSR offsets index (at most 2^31 - 1 edges); "
                  "lower the scale or degree");
        }
        return capacity;
    }

    ZeroPages<Edge> buf;
    std::uint64_t size;
};

/** The host's hardware threads, read once so that every workersFor()
 *  in the process agrees with the threads parallelFor() starts. */
unsigned
hardwareThreads()
{
    static const unsigned threads
        = std::max(1u, std::thread::hardware_concurrency());
    return threads;
}

/** Threads parallelFor(count, fn) runs on, the calling one included. */
std::size_t
workersFor(std::size_t count)
{
    return std::min<std::size_t>(hardwareThreads(), count);
}

/**
 * Run fn(0, w) ... fn(count - 1, w) on up to workersFor(count) threads,
 * the calling one included; w < workersFor(count) names the thread, so
 * fn can use scratch of its own that the caller allocated. Which thread
 * runs an index depends on the host, so fn's other effects must not. If
 * the host refuses a thread, those already running finish the work. fn
 * should not allocate: a helper thread that does gets a glibc arena of
 * its own, which stays resident.
 */
template <typename Fn>
void
parallelFor(std::size_t count, const Fn &fn)
{
    std::atomic<std::size_t> next{0};
    auto work = [&](std::size_t worker) {
        for (std::size_t i = next++; i < count; i = next++)
            fn(i, worker);
    };
    const std::size_t workers = workersFor(count);
    std::vector<std::jthread> helpers;   // joined on return
    for (std::size_t w = 1; w < workers; ++w) {
        try {
            helpers.emplace_back(work, w);
        } catch (const std::system_error &) {
            break;
        }
    }
    work(0);
}

/** Chunks an edge-drawing generator splits its edges into. A constant,
 *  so where a chunk starts depends only on the edge count. */
constexpr std::size_t kEdgeChunks = 64;

/**
 * Draw @p num_edges edges of @p draws_per_edge draws each with
 * draw(rng). Chunk c of consecutive edges starts from the state the
 * serial loop reaches at its first edge (Rng::discard), so the list is
 * exactly the serial loop's.
 */
template <typename Draw>
EdgeList
drawEdges(const Rng &rng, std::uint64_t num_edges,
          unsigned draws_per_edge, const Draw &draw)
{
    EdgeList edges(num_edges);
    parallelFor(kEdgeChunks, [&](std::size_t c, std::size_t) {
        const std::uint64_t begin = num_edges * c / kEdgeChunks;
        const std::uint64_t end = num_edges * (c + 1) / kEdgeChunks;
        Rng chunk_rng = rng;
        chunk_rng.discard(begin * draws_per_edge);
        for (std::uint64_t i = begin; i < end; ++i)
            edges.buf[i] = draw(chunk_rng);
    });
    return edges;
}

/**
 * Integer form of a Rng::uniform() threshold. uniform() returns exactly
 * k * 2^-53 with k = next() >> 11, so uniform() < t holds exactly when
 * k < ceil(t * 2^53); both products are exact in a double.
 */
std::uint64_t
uniformBound(double t)
{
    return static_cast<std::uint64_t>(std::ceil(t * 0x1.0p53));
}

/**
 * Graph500 RMAT: each of the scale bits of an edge's (src, dst) picks a
 * quadrant with probabilities a, b, c and 1 - a - b - c. The quadrant
 * is random, so a branch on it would be mispredicted on a large share
 * of the draws; instead the bits are computed from integer comparisons
 * on the raw draw. The draws, the decisions and the edge order are
 * exactly those of uniform() compared against a, a + b and a + b + c.
 */
EdgeList
genRmat(const Rng &rng, unsigned scale, std::uint64_t num_edges, double a,
        double b, double c)
{
    const std::uint64_t t_a = uniformBound(a);
    const std::uint64_t t_ab = uniformBound(a + b);
    const std::uint64_t t_abc = uniformBound(a + b + c);
    return drawEdges(rng, num_edges, scale, [=](Rng &r) {
        Vertex src = 0;
        Vertex dst = 0;
        for (unsigned bit = 0; bit < scale; ++bit) {
            const std::uint64_t k = r.next() >> 11;
            const auto ge_a = static_cast<Vertex>(k >= t_a);
            const auto ge_ab = static_cast<Vertex>(k >= t_ab);
            const auto ge_abc = static_cast<Vertex>(k >= t_abc);
            // Quadrants c and d set the src bit; b and d set the dst
            // bit. ge_ab implies ge_a, so ge_a ^ ge_ab is quadrant b.
            src |= ge_ab << bit;
            dst |= ((ge_a ^ ge_ab) | ge_abc) << bit;
        }
        return Edge{src, dst};
    });
}

EdgeList
genUrand(const Rng &rng, Vertex n, std::uint64_t num_edges)
{
    return drawEdges(rng, num_edges, 2, [n](Rng &r) {
        // Braced initializers are evaluated in order: u draws first.
        return Edge{static_cast<Vertex>(r.below(n)),
                    static_cast<Vertex>(r.below(n))};
    });
}

/**
 * Preferential attachment (web-like): each new vertex links to d targets
 * sampled from the endpoint pool, producing a power-law with the spatial
 * locality of crawl order. Each draw depends on the pool the previous
 * ones built, so this generator is serial.
 */
EdgeList
genWeb(Rng &rng, Vertex n, unsigned d)
{
    EdgeList edges(static_cast<std::uint64_t>(n) * d);
    std::uint64_t kept = 0;
    std::vector<Vertex> pool;
    pool.reserve(static_cast<std::uint64_t>(n) * d * 2);
    pool.push_back(0);
    for (Vertex v = 1; v < n; ++v) {
        for (unsigned k = 0; k < d; ++k) {
            Vertex target = pool[rng.below(pool.size())];
            if (target != v) {
                edges.buf[kept++] = {v, target};
                pool.push_back(target);
            }
            pool.push_back(v);
        }
    }
    edges.size = kept;
    return edges;
}

/** Grid side for a road graph of >= n vertices (power-of-two square). */
Vertex
roadSide(Vertex n)
{
    auto side = static_cast<Vertex>(1);
    while (static_cast<std::uint64_t>(side) * side < n)
        side <<= 1;
    return side;
}

/** 2D mesh with 4-neighborhood plus sparse random shortcuts (road-like). */
EdgeList
genRoad(Rng &rng, Vertex side)
{
    const std::uint64_t cells = std::uint64_t{side} * side;
    EdgeList edges(cells * 2 + cells / 16);
    const auto n = static_cast<Vertex>(cells);
    std::uint64_t kept = 0;
    for (Vertex y = 0; y < side; ++y) {
        for (Vertex x = 0; x < side; ++x) {
            Vertex v = y * side + x;
            if (x + 1 < side)
                edges.buf[kept++] = {v, v + 1};
            if (y + 1 < side)
                edges.buf[kept++] = {v, v + side};
        }
    }
    // Highways: a few long-range links, as in real road networks.
    for (Vertex i = 0; i < n / 16; ++i) {
        auto u = static_cast<Vertex>(rng.below(n));
        auto v = static_cast<Vertex>(rng.below(n));
        if (u != v)
            edges.buf[kept++] = {u, v};
    }
    edges.size = kept;
    return edges;
}

/** Most bits of a bucket index in buildCsr: 2^11 vertices keep a
 *  bucket's degree array in L1. */
constexpr unsigned kMaxBucketBits = 11;

/**
 * Symmetrize an edge list, without its self-loops, and pack it into CSR
 * form by a stable counting sort on the endpoint. Three parallel passes
 * stage the entries in the neighbour array itself:
 *
 *  1. each of the kEdgeChunks chunks of edges counts its endpoints by
 *     bucket, a run of 2^bucket_bits consecutive vertices;
 *  2. each chunk writes every directed entry, packed in 32 bits as the
 *     endpoint's index in its bucket above the other end's id, at its
 *     cursor in the bucket's span. The cursors start at a bucket-major,
 *     chunk-minor prefix sum of the counts, so each span holds its
 *     entries in edge order. Each chunk then returns its edge-list
 *     pages to the OS. The spans fill in chunk order, so neighbour
 *     pages become resident as fast as edge-list pages are freed, and
 *     the whole list is gone before the offsets are allocated;
 *  3. each bucket copies its span to the worker's scratch, counts its
 *     vertices' degrees, writes their offsets and scatters the other
 *     ends back in span order.
 *
 * So every adjacency list holds its neighbours in edge order, whatever
 * the number of threads.
 */
Graph
buildCsr(Vertex n, EdgeList edges)
{
    // An entry keeps the other end in its low id_bits and the endpoint's
    // index in its bucket in the bucket_bits above them.
    const auto id_bits = static_cast<unsigned>(std::bit_width(n - 1));
    const unsigned bucket_bits = std::min(kMaxBucketBits, 32 - id_bits);
    const Vertex bucket_mask = (Vertex{1} << bucket_bits) - 1;
    const auto id_mask
        = static_cast<Vertex>((std::uint64_t{1} << id_bits) - 1);
    const std::size_t buckets = ((std::size_t{n} - 1) >> bucket_bits) + 1;
    auto stage = [&](Vertex v, Vertex w) {
        return static_cast<Vertex>(
            (std::uint64_t{v & bucket_mask} << id_bits) | w);
    };
    auto indexInBucket = [&](Vertex entry) {
        return static_cast<std::size_t>(std::uint64_t{entry} >> id_bits);
    };
    auto chunkBegin = [&](std::size_t c) {
        return static_cast<std::size_t>(edges.size * c / kEdgeChunks);
    };
    auto forEachEdge = [&](std::size_t c, const auto &fn) {
        const Edge *const end = edges.buf.data() + chunkBegin(c + 1);
        for (const Edge *e = edges.buf.data() + chunkBegin(c); e != end;
             ++e) {
            if (e->u != e->v)
                fn(*e);
        }
    };

    // cursor[c * buckets + b]: chunk c's count of bucket b, then where
    // pass 2 writes chunk c's next entry in bucket b.
    std::vector<std::uint64_t> cursor(kEdgeChunks * buckets);
    parallelFor(kEdgeChunks, [&](std::size_t c, std::size_t) {
        std::uint64_t *const count = cursor.data() + c * buckets;
        forEachEdge(c, [&](const Edge &e) {
            ++count[e.u >> bucket_bits];
            ++count[e.v >> bucket_bits];
        });
    });
    std::vector<std::uint64_t> span_begin(buckets + 1);
    std::uint64_t total = 0;
    std::uint64_t largest = 0;
    for (std::size_t b = 0; b < buckets; ++b) {
        span_begin[b] = total;
        for (std::size_t c = 0; c < kEdgeChunks; ++c)
            total += std::exchange(cursor[c * buckets + b], total);
        largest = std::max(largest, total - span_begin[b]);
    }
    span_begin[buckets] = total;

    Graph g;
    g.neighbors.resize(total);
    Vertex *const out = g.neighbors.data();
    parallelFor(kEdgeChunks, [&](std::size_t c, std::size_t) {
        std::uint64_t *const at = cursor.data() + c * buckets;
        forEachEdge(c, [&](const Edge &e) {
            out[at[e.u >> bucket_bits]++] = stage(e.u, e.v);
            out[at[e.v >> bucket_bits]++] = stage(e.v, e.u);
        });
        edges.buf.release(chunkBegin(c), chunkBegin(c + 1));
    });
    edges.buf = {};

    g.offsets.resize(std::size_t{n} + 1);
    g.offsets[n] = static_cast<std::uint32_t>(total);
    const std::size_t workers = workersFor(buckets);
    const auto scratch
        = std::make_unique_for_overwrite<Vertex[]>(workers * largest);
    parallelFor(buckets, [&](std::size_t b, std::size_t worker) {
        const std::uint64_t begin = span_begin[b];
        const std::uint64_t size = span_begin[b + 1] - begin;
        Vertex *const staged = scratch.get() + worker * largest;
        std::copy_n(out + begin, size, staged);
        const auto base = static_cast<Vertex>(b << bucket_bits);
        const auto vertices = static_cast<std::size_t>(
            std::min<std::uint64_t>(n - base, bucket_mask + std::uint64_t{1}));
        // next[i]: vertex base + i's degree, then where its next
        // neighbour goes.
        std::array<std::uint64_t, std::size_t{1} << kMaxBucketBits> next;
        std::fill_n(next.begin(), vertices, 0);
        for (std::uint64_t i = 0; i < size; ++i)
            ++next[indexInBucket(staged[i])];
        std::uint64_t at = begin;
        for (std::size_t i = 0; i < vertices; ++i) {
            g.offsets[base + i] = static_cast<std::uint32_t>(at);
            at += std::exchange(next[i], at);
        }
        for (std::uint64_t i = 0; i < size; ++i)
            out[next[indexInBucket(staged[i])]++] = staged[i] & id_mask;
    });
    return g;
}

} // namespace

Graph
makeGraph(GraphKind kind, unsigned scale, unsigned avg_degree,
          std::uint64_t seed)
{
    Rng rng(seed ^ (static_cast<std::uint64_t>(kind) << 56)
            ^ (std::uint64_t{scale} << 48));
    auto n = Vertex{1} << scale;
    // avg_degree counts directed edges per vertex post-symmetrization, so
    // draw n*d/2 undirected edges.
    std::uint64_t num_edges = (static_cast<std::uint64_t>(n) * avg_degree) / 2;

    switch (kind) {
      case GraphKind::Kron:
        return buildCsr(n, genRmat(rng, scale, num_edges, 0.57, 0.19, 0.19));
      case GraphKind::Twitter:
        return buildCsr(n, genRmat(rng, scale, num_edges, 0.62, 0.17, 0.17));
      case GraphKind::Web:
        return buildCsr(n, genWeb(rng, n, std::max(1u, avg_degree / 2)));
      case GraphKind::Urand:
        return buildCsr(n, genUrand(rng, n, num_edges));
      case GraphKind::Road: {
        // The grid must be square. Past 2^32 cells side * side wraps,
        // but genRoad, which sizes its edges in 64 bits, throws first.
        const Vertex side = roadSide(n);
        return buildCsr(side * side, genRoad(rng, side));
      }
    }
    return {};
}

namespace
{

OnceCache<std::tuple<GraphKind, unsigned, unsigned, std::uint64_t>, Graph>
    g_graphs;

} // namespace

std::shared_ptr<const Graph>
GraphCache::get(GraphKind kind, unsigned scale, unsigned avg_degree,
                std::uint64_t seed)
{
    return g_graphs.get({kind, scale, avg_degree, seed}, [&] {
        return makeGraph(kind, scale, avg_degree, seed);
    });
}

void
GraphCache::clear()
{
    g_graphs.clear();
}

} // namespace tlpsim::workloads
