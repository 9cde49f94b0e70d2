#include "workloads/spec_kernels.hh"

#include <algorithm>
#include <vector>

#include "common/bitops.hh"
#include "common/rng.hh"

namespace tlpsim::workloads
{

const char *
toString(SpecKernel k)
{
    switch (k) {
      case SpecKernel::McfPchase: return "mcf_pchase";
      case SpecKernel::LbmStencil: return "lbm_stencil";
      case SpecKernel::LibqStream: return "libq_stream";
      case SpecKernel::OmnetppHeap: return "omnetpp_heap";
      case SpecKernel::XalanHash: return "xalan_hash";
      case SpecKernel::GccMixed: return "gcc_mixed";
      case SpecKernel::DeepsjengTt: return "deepsjeng_tt";
      case SpecKernel::RomsSpmv: return "roms_spmv";
    }
    return "?";
}

namespace
{

/** Dependent pointer chase over a random permutation cycle (mcf-like). */
void
recordMcfPchase(TraceRecorder &rec, std::uint64_t seed, unsigned ws_shift)
{
    constexpr Addr pc = codeBase(SpecKernel::McfPchase);
    Rng rng(seed);
    const std::uint64_t nodes = (std::uint64_t{4} << 20) >> ws_shift; // 32 MB
    VArray v_next = rec.allocArray(nodes, 8);
    VArray v_cost = rec.allocArray(nodes, 8);

    // Sattolo's algorithm: a single cycle covering every node.
    std::vector<std::uint32_t> next(nodes);
    for (std::uint64_t i = 0; i < nodes; ++i)
        next[i] = static_cast<std::uint32_t>(i);
    for (std::uint64_t i = nodes - 1; i > 0; --i)
        std::swap(next[i], next[rng.below(i)]);

    std::uint64_t cur = 0;
    RegId rptr = rec.alu(pc + 0x00);
    std::uint64_t step = 0;
    while (!rec.full()) {
        rptr = rec.load(pc + 0x04, v_next.at(cur), rptr);   // serialized chase
        RegId rc = rec.load(pc + 0x08, v_cost.at(cur), rptr);
        RegId rsum = rec.alu(pc + 0x0c, rc, rptr);
        rec.branch(pc + 0x10, (step & 7) != 7, rsum);
        if ((step & 7) == 7)
            rec.store(pc + 0x14, v_cost.at(cur), rsum);     // arc-cost update
        cur = next[cur];
        ++step;
    }
}

/** 3-D 7-point stencil sweep, double grid, two arrays (lbm-like). */
void
recordLbmStencil(TraceRecorder &rec, std::uint64_t seed, unsigned ws_shift)
{
    constexpr Addr pc = codeBase(SpecKernel::LbmStencil);
    (void)seed;
    const std::uint64_t dim = 128 >> (ws_shift / 3);
    const std::uint64_t cells = dim * dim * dim;    // 128^3*8B*2 = 32 MB
    VArray v_src = rec.allocArray(cells, 8);
    VArray v_dst = rec.allocArray(cells, 8);

    auto idx = [dim](std::uint64_t x, std::uint64_t y, std::uint64_t z) {
        return (z * dim + y) * dim + x;
    };

    while (!rec.full()) {
        for (std::uint64_t z = 1; z + 1 < dim && !rec.full(); ++z) {
            for (std::uint64_t y = 1; y + 1 < dim; ++y) {
                for (std::uint64_t x = 1; x + 1 < dim; ++x) {
                    if (rec.full())
                        break;
                    std::uint64_t c = idx(x, y, z);
                    RegId r0 = rec.load(pc + 0x00, v_src.at(c));
                    RegId r1 = rec.load(pc + 0x04, v_src.at(c - 1));
                    RegId r2 = rec.load(pc + 0x08, v_src.at(c + 1));
                    RegId r3 = rec.load(pc + 0x0c, v_src.at(c - dim));
                    RegId r4 = rec.load(pc + 0x10, v_src.at(c + dim));
                    RegId r5 = rec.load(pc + 0x14, v_src.at(c - dim * dim));
                    RegId r6 = rec.load(pc + 0x18, v_src.at(c + dim * dim));
                    RegId s1 = rec.alu(pc + 0x1c, r0, r1);
                    RegId s2 = rec.alu(pc + 0x20, r2, r3);
                    RegId s3 = rec.alu(pc + 0x24, r4, r5);
                    RegId s4 = rec.alu(pc + 0x28, s1, s2);
                    RegId s5 = rec.alu(pc + 0x2c, s3, r6);
                    RegId s6 = rec.alu(pc + 0x30, s4, s5);
                    rec.store(pc + 0x34, v_dst.at(c), s6);
                }
            }
        }
        std::swap(v_src, v_dst);
        rec.jump(pc + 0x38);
    }
}

/** Unit-stride read-modify-write over large vectors (libquantum-like). */
void
recordLibqStream(TraceRecorder &rec, std::uint64_t seed, unsigned ws_shift)
{
    constexpr Addr pc = codeBase(SpecKernel::LibqStream);
    (void)seed;
    const std::uint64_t elems = (std::uint64_t{4} << 20) >> ws_shift; // 32 MB
    VArray v_state = rec.allocArray(elems, 8);

    while (!rec.full()) {
        for (std::uint64_t i = 0; i < elems && !rec.full(); ++i) {
            RegId r = rec.load(pc + 0x00, v_state.at(i));
            RegId t = rec.alu(pc + 0x04, r);
            rec.store(pc + 0x08, v_state.at(i), t);
            rec.branch(pc + 0x0c, (i & 63) == 63, t);    // gate-block boundary
        }
        rec.jump(pc + 0x10);
    }
}

/** Binary-heap event queue with payload gathers (omnetpp-like). */
void
recordOmnetppHeap(TraceRecorder &rec, std::uint64_t seed, unsigned ws_shift)
{
    constexpr Addr pc = codeBase(SpecKernel::OmnetppHeap);
    Rng rng(seed);
    const std::uint64_t heap_cap = std::uint64_t{1} << 20;
    const std::uint64_t payloads = (std::uint64_t{2} << 20) >> ws_shift;
    VArray v_heap = rec.allocArray(heap_cap, 8);
    VArray v_payload = rec.allocArray(payloads, 32);

    std::vector<std::uint64_t> heap;
    heap.reserve(heap_cap);

    auto siftUp = [&](std::size_t i) {
        while (i > 0 && !rec.full()) {
            std::size_t p = (i - 1) / 2;
            RegId rc = rec.load(pc + 0x00, v_heap.at(i));
            RegId rp = rec.load(pc + 0x04, v_heap.at(p));
            bool swap_up = heap[i] < heap[p];
            RegId rcmp = rec.alu(pc + 0x08, rc, rp);
            rec.branch(pc + 0x0c, swap_up, rcmp);
            if (!swap_up)
                break;
            std::swap(heap[i], heap[p]);
            rec.store(pc + 0x10, v_heap.at(i), rp);
            rec.store(pc + 0x14, v_heap.at(p), rc);
            i = p;
        }
    };

    auto siftDown = [&]() {
        std::size_t i = 0;
        while (!rec.full()) {
            std::size_t l = 2 * i + 1;
            std::size_t r = l + 1;
            if (l >= heap.size())
                break;
            std::size_t m = l;
            RegId rl = rec.load(pc + 0x18, v_heap.at(l));
            if (r < heap.size()) {
                RegId rr = rec.load(pc + 0x1c, v_heap.at(r));
                if (heap[r] < heap[l])
                    m = r;
                RegId rcmp = rec.alu(pc + 0x20, rl, rr);
                rec.branch(pc + 0x24, m == r, rcmp);
            }
            RegId ri = rec.load(pc + 0x28, v_heap.at(i));
            bool swap_down = heap[m] < heap[i];
            rec.branch(pc + 0x2c, swap_down, ri);
            if (!swap_down)
                break;
            std::swap(heap[i], heap[m]);
            rec.store(pc + 0x30, v_heap.at(i), ri);
            rec.store(pc + 0x34, v_heap.at(m), ri);
            i = m;
        }
    };

    // Seed the queue, then run the pop-one-push-two / pop-heavy phases an
    // event simulator exhibits.
    while (!rec.full()) {
        if (heap.size() < 1024 || (heap.size() < heap_cap - 2
                                   && rng.chance(0.55))) {
            std::uint64_t key = rng.next() >> 16;
            heap.push_back(key);
            rec.store(pc + 0x38, v_heap.at(heap.size() - 1));
            siftUp(heap.size() - 1);
        } else if (!heap.empty()) {
            std::uint64_t key = heap[0];
            // Touch the event payload (irregular, large working set).
            std::uint64_t pi = key % payloads;
            RegId rp0 = rec.load(pc + 0x3c, v_payload.at(pi));
            RegId rp1 = rec.load(pc + 0x40, v_payload.at(pi) + 16, rp0);
            rec.store(pc + 0x44, v_payload.at(pi) + 24, rp1);
            heap[0] = heap.back();
            heap.pop_back();
            if (!heap.empty()) {
                rec.store(pc + 0x48, v_heap.at(0));
                siftDown();
            }
        }
    }
}

/** Open-addressing (linear probe) hash table lookups (xalancbmk-like). */
void
recordXalanHash(TraceRecorder &rec, std::uint64_t seed, unsigned ws_shift)
{
    constexpr Addr pc = codeBase(SpecKernel::XalanHash);
    Rng rng(seed);
    const std::uint64_t slots = (std::uint64_t{4} << 20) >> ws_shift;
    VArray v_table = rec.allocArray(slots, 16);    // 64 MB at full size

    std::vector<std::uint64_t> table(slots, 0);
    std::uint64_t population = 0;
    const std::uint64_t target_pop = slots / 2;    // 50 % load factor

    while (!rec.full()) {
        std::uint64_t key = rng.next() | 1;
        bool insert = population < target_pop || rng.chance(0.1);
        std::uint64_t h = mix64(key) % slots;
        RegId rk = rec.alu(pc + 0x00);
        for (std::uint64_t probe = 0; probe < slots && !rec.full(); ++probe) {
            std::uint64_t s = (h + probe) % slots;
            RegId rs = rec.load(pc + 0x04, v_table.at(s), rk);
            bool end = table[s] == 0 || table[s] == key;
            rec.branch(pc + 0x08, end, rs);
            if (end) {
                if (insert && table[s] == 0) {
                    table[s] = key;
                    ++population;
                    rec.store(pc + 0x0c, v_table.at(s), rs);
                    rec.store(pc + 0x10, v_table.at(s) + 8, rs);
                }
                break;
            }
        }
    }
}

/** Branchy walks with mixed locality (gcc-like, moderate MPKI). */
void
recordGccMixed(TraceRecorder &rec, std::uint64_t seed, unsigned ws_shift)
{
    constexpr Addr pc = codeBase(SpecKernel::GccMixed);
    Rng rng(seed);
    const std::uint64_t hot = (std::uint64_t{64} << 10);            // 512 KB
    const std::uint64_t cold = (std::uint64_t{1} << 20) >> ws_shift; // 8 MB
    VArray v_hot = rec.allocArray(hot, 8);
    VArray v_cold = rec.allocArray(cold, 8);

    while (!rec.full()) {
        // Hot loop: fits in L2, branch-heavy.
        std::uint64_t i = rng.below(hot);
        for (unsigned k = 0; k < 12 && !rec.full(); ++k) {
            RegId r = rec.load(pc + 0x00, v_hot.at(i));
            bool t = (mix64(i + k) & 3) != 0;
            rec.branch(pc + 0x04, t, r);
            i = (i + (t ? 1 : 17)) % hot;
            rec.ops(pc + 0x08, 2);
        }
        // Cold excursion: IR node visit far from the hot set.
        std::uint64_t j = rng.below(cold);
        RegId rc = rec.load(pc + 0x0c, v_cold.at(j));
        RegId rc2 = rec.load(pc + 0x10, v_cold.at((j + 5) % cold), rc);
        rec.branch(pc + 0x14, (mix64(j) & 7) == 0, rc2);
        rec.store(pc + 0x18, v_cold.at(j), rc2);
    }
}

/** Random transposition-table probes (deepsjeng-like). */
void
recordDeepsjengTt(TraceRecorder &rec, std::uint64_t seed, unsigned ws_shift)
{
    constexpr Addr pc = codeBase(SpecKernel::DeepsjengTt);
    Rng rng(seed);
    const std::uint64_t entries = (std::uint64_t{4} << 20) >> ws_shift;
    VArray v_tt = rec.allocArray(entries, 16);     // 64 MB at full size

    while (!rec.full()) {
        std::uint64_t hash = rng.next();
        std::uint64_t slot = hash % entries;
        RegId rtag = rec.load(pc + 0x00, v_tt.at(slot));
        RegId rval = rec.load(pc + 0x04, v_tt.at(slot) + 8, rtag);
        bool hit = (hash & 7) < 3;                 // ~37 % TT hit rate
        rec.branch(pc + 0x08, hit, rval);
        if (!hit) {
            // Search work then store the new entry.
            rec.ops(pc + 0x0c, 6);
            rec.store(pc + 0x10, v_tt.at(slot), rval);
            rec.store(pc + 0x14, v_tt.at(slot) + 8, rval);
        } else {
            rec.ops(pc + 0x18, 2);
        }
    }
}

/** CSR sparse matrix-vector product (roms-like gathers + streams). */
void
recordRomsSpmv(TraceRecorder &rec, std::uint64_t seed, unsigned ws_shift)
{
    constexpr Addr pc = codeBase(SpecKernel::RomsSpmv);
    Rng rng(seed);
    const std::uint64_t rows = (std::uint64_t{1} << 20) >> ws_shift;
    const unsigned nnz_per_row = 12;
    const std::uint64_t x_elems = (std::uint64_t{2} << 20) >> ws_shift;
    VArray v_cols = rec.allocArray(rows * nnz_per_row, 4);
    VArray v_vals = rec.allocArray(rows * nnz_per_row, 8);
    VArray v_x = rec.allocArray(x_elems, 8);       // 16 MB at full size
    VArray v_y = rec.allocArray(rows, 8);

    // Column pattern: mostly near-diagonal, some far entries. A row's
    // columns are drawn when the first pass reaches it, in row order, so
    // a short trace draws only the rows it records.
    std::vector<std::uint32_t> cols;
    while (!rec.full()) {
        for (std::uint64_t r = 0; r < rows && !rec.full(); ++r) {
            if (cols.size() == r * nnz_per_row) {
                for (unsigned k = 0; k < nnz_per_row; ++k) {
                    std::uint64_t c = rng.chance(0.7)
                        ? (r * 2 + k) % x_elems
                        : rng.below(x_elems);
                    cols.push_back(static_cast<std::uint32_t>(c));
                }
            }
            RegId racc = rec.alu(pc + 0x00);
            for (unsigned k = 0; k < nnz_per_row; ++k) {
                std::uint64_t e = r * nnz_per_row + k;
                RegId rc = rec.load(pc + 0x04, v_cols.at(e));
                RegId rv = rec.load(pc + 0x08, v_vals.at(e));
                RegId rx = rec.load(pc + 0x0c, v_x.at(cols[e]), rc); // gather
                RegId rprod = rec.alu(pc + 0x10, rv, rx);
                racc = rec.alu(pc + 0x14, racc, rprod);
            }
            rec.store(pc + 0x18, v_y.at(r), racc);
        }
        rec.jump(pc + 0x1c);
    }
}

} // namespace

void
recordSpecKernel(SpecKernel k, TraceRecorder &rec, std::uint64_t seed,
                 unsigned ws_shift)
{
    switch (k) {
      case SpecKernel::McfPchase:
        recordMcfPchase(rec, seed, ws_shift);
        return;
      case SpecKernel::LbmStencil:
        recordLbmStencil(rec, seed, ws_shift);
        return;
      case SpecKernel::LibqStream:
        recordLibqStream(rec, seed, ws_shift);
        return;
      case SpecKernel::OmnetppHeap:
        recordOmnetppHeap(rec, seed, ws_shift);
        return;
      case SpecKernel::XalanHash:
        recordXalanHash(rec, seed, ws_shift);
        return;
      case SpecKernel::GccMixed:
        recordGccMixed(rec, seed, ws_shift);
        return;
      case SpecKernel::DeepsjengTt:
        recordDeepsjengTt(rec, seed, ws_shift);
        return;
      case SpecKernel::RomsSpmv:
        recordRomsSpmv(rec, seed, ws_shift);
        return;
    }
}

} // namespace tlpsim::workloads
