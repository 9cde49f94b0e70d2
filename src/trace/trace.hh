/**
 * @file
 * Instruction trace format.
 *
 * tlpsim is trace-driven in the ChampSim style: the core consumes a stream
 * of retired-instruction records carrying the program counter, register
 * dependencies, at most one load and one store address, and branch
 * behaviour. Traces come from two producers behind one streaming
 * abstraction (TraceSource): the in-process workload synthesizers
 * (src/workloads), which materialize a Trace in memory, and the portable
 * on-disk trace files of src/tracefile, which stream hundred-GB traces at
 * a fixed memory footprint. The core never sees the difference — it pulls
 * records through a TraceReader cursor that refills a small chunk buffer
 * from whichever source backs it.
 */

#ifndef TLPSIM_TRACE_TRACE_HH
#define TLPSIM_TRACE_TRACE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"

namespace tlpsim
{

/** Logical register id; 0 is the "no register" sentinel. */
using RegId = std::uint8_t;
constexpr RegId kNoReg = 0;
/** Number of architectural registers the recorder rotates through. */
constexpr unsigned kNumRegs = 64;

/** Branch classification carried by trace records. */
enum class BranchKind : std::uint8_t
{
    NotBranch,
    Conditional,
    Direct,        ///< unconditional direct jump/call
    Indirect,      ///< indirect jump/call/return
};

/**
 * One retired instruction, as the core consumes it: the record a
 * TraceSource streams and a .tlt file stores, exactly 32 bytes. An
 * in-memory Trace holds records packed to 16 bytes and decodes them
 * into this form.
 */
struct TraceInstr
{
    Addr ip = 0;          ///< program counter (virtual)
    Addr ld_vaddr = 0;    ///< load virtual address, 0 = no load
    Addr st_vaddr = 0;    ///< store virtual address, 0 = no store
    RegId src0 = kNoReg;  ///< first source register
    RegId src1 = kNoReg;  ///< second source register
    RegId dst = kNoReg;   ///< destination register
    BranchKind branch = BranchKind::NotBranch;
    bool taken = false;   ///< branch outcome (meaningful if branch != NotBranch)
    std::uint8_t pad[3] = {};

    bool isLoad() const { return ld_vaddr != 0; }
    bool isStore() const { return st_vaddr != 0; }
    bool isBranch() const { return branch != BranchKind::NotBranch; }
};

static_assert(sizeof(TraceInstr) == 32, "trace record must stay compact");

/**
 * An in-memory instruction trace plus identifying metadata.
 *
 * Records are stored packed, 16 bytes each, half a TraceInstr: the one
 * load or store address, a 32-bit PC, the three register ids, and a
 * flags byte (branch kind, taken, is-store, wide). A record that does
 * not pack — one with both a load and a store, a PC of 2^32 or more, or
 * a branch kind outside BranchKind's enumerators — is held whole in a
 * side table, and its packed slot flags it wide and holds its index
 * there. So the container is lossless (every field a record was pushed
 * with decodes back; the padding bytes decode as zero) and at() stays
 * O(1). Recorded kernels never push a wide record.
 */
class Trace
{
  public:
    Trace() = default;
    explicit Trace(std::string name) : name_(std::move(name)) {}

    void reserve(std::size_t n) { records_.reserve(n); }

    /** Append @p i: packed, or whole in the side table if it does not
     *  pack. */
    void
    push(const TraceInstr &i)
    {
        const auto kind = static_cast<std::uint8_t>(i.branch);
        if ((i.ld_vaddr != 0 && i.st_vaddr != 0) || i.ip > kMaxPackedPc
            || kind > kBranchMask) {
            pushWide(i);
            return;
        }
        const std::uint8_t flags = kind
            | (i.taken ? kTaken : 0) | (i.st_vaddr != 0 ? kStore : 0);
        records_.push_back({i.ld_vaddr | i.st_vaddr,
                            static_cast<std::uint32_t>(i.ip), i.src0,
                            i.src1, i.dst, flags});
    }

    /** Record @p i, decoded. */
    TraceInstr at(std::size_t i) const;

    /** Decode records [@p first, @p first + @p n) into @p out. */
    void decode(std::size_t first, std::size_t n, TraceInstr *out) const;

    std::size_t size() const { return records_.size(); }
    bool empty() const { return records_.empty(); }

    const std::string &name() const { return name_; }
    void setName(std::string n) { name_ = std::move(n); }

    /** Simple content summary used by tests and table benches. */
    struct Summary
    {
        std::uint64_t instrs = 0;
        std::uint64_t loads = 0;
        std::uint64_t stores = 0;
        std::uint64_t branches = 0;
        std::uint64_t taken_branches = 0;
        std::uint64_t distinct_pages = 0;  ///< unique data pages touched
        double working_set_mb = 0.0;       ///< distinct_pages * 4 KiB in MiB
    };

    Summary summarize() const;

  private:
    /** One packed record. */
    struct Record
    {
        Addr addr;            ///< the load or store address; wide: index
        std::uint32_t ip;
        RegId src0;
        RegId src1;
        RegId dst;
        std::uint8_t flags;
    };
    static_assert(sizeof(Record) == 16, "packed record must stay 16 bytes");

    static constexpr Addr kMaxPackedPc = 0xffff'ffff;
    // flags: bits 0-1 hold the branch kind; the rest are single bits.
    static constexpr std::uint8_t kBranchMask = 0x3;
    static constexpr std::uint8_t kTaken = 0x4;
    static constexpr std::uint8_t kStore = 0x8;
    static constexpr std::uint8_t kWide = 0x10;
    static_assert(static_cast<std::uint8_t>(BranchKind::Indirect)
                      <= kBranchMask,
                  "every branch kind must pack");

    void pushWide(const TraceInstr &i);

    std::string name_;
    std::vector<Record> records_;
    std::vector<TraceInstr> wide_;   ///< records that do not pack
};

/**
 * A stream of trace records, repeated forever (ChampSim loops traces that
 * are shorter than the requested simulation length).
 *
 * This is the seam between the frontend and the trace's storage: the
 * in-memory Trace and the chunked on-disk reader (tracefile::
 * FileTraceSource) both implement it, so the Simulator replays a
 * hundred-GB trace file and a synthesized kernel through identical code.
 * The interface is bulk-transfer — one virtual call refills a whole
 * chunk — so per-instruction consumption (TraceReader) stays non-virtual.
 */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /** Records in one pass of the stream; always > 0. */
    virtual std::uint64_t size() const = 0;

    /** Stream name (the workload name for recorded traces). */
    virtual const std::string &name() const = 0;

    /**
     * Copy the next records of the endless stream into @p out, advancing
     * the stream. Returns how many were copied: at least 1 and at most
     * @p n — a source wraps to its first record rather than returning 0,
     * but may return short at a pass boundary.
     */
    virtual std::size_t read(TraceInstr *out, std::size_t n) = 0;
};

/** TraceSource over a materialized in-memory Trace (shared read-only:
 *  many concurrent sources may stream one Trace, each with its own
 *  position). */
class MemoryTraceSource final : public TraceSource
{
  public:
    explicit MemoryTraceSource(const Trace &trace);

    std::uint64_t size() const override { return trace_->size(); }
    const std::string &name() const override { return trace_->name(); }
    std::size_t read(TraceInstr *out, std::size_t n) override;

  private:
    const Trace *trace_;
    std::size_t pos_ = 0;
};

/**
 * Per-core cursor over a TraceSource: the frontend's peek()/next() pair,
 * backed by a fixed-size chunk buffer the source refills in bulk. The
 * buffer is the *only* materialized window of the stream, so replaying an
 * arbitrarily large trace file holds kChunkRecords records in memory per
 * core, no more.
 */
class TraceReader
{
  public:
    /** Default chunk: 4096 records = 128 KiB per core. */
    static constexpr std::size_t kChunkRecords = 4096;

    explicit TraceReader(TraceSource &source,
                         std::size_t chunk_records = kChunkRecords);

    /** Next record without consuming it. */
    const TraceInstr &
    peek()
    {
        if (pos_ == fill_)
            refill();
        return buf_[pos_];
    }

    /** Consume and return the next record. The reference is valid until
     *  the next refill (at most kChunkRecords next() calls); callers that
     *  keep it longer must copy. */
    const TraceInstr &
    next()
    {
        const TraceInstr &i = peek();
        ++pos_;
        ++consumed_;
        return i;
    }

    /** Index of the next record within the source's pass, [0, size()). */
    std::uint64_t position() const { return consumed_ % source_->size(); }

    /** Records consumed since construction (across passes). */
    std::uint64_t consumed() const { return consumed_; }

    TraceSource &source() const { return *source_; }

  private:
    void refill();

    TraceSource *source_;
    std::vector<TraceInstr> buf_;
    std::size_t pos_ = 0;
    std::size_t fill_ = 0;
    std::uint64_t consumed_ = 0;
};

} // namespace tlpsim

#endif // TLPSIM_TRACE_TRACE_HH
