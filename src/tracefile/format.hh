/**
 * @file
 * tlpsim portable on-disk trace format (".tlt"), version 1.
 *
 * A trace file is one looping TraceInstr stream plus identifying
 * metadata, laid out so that (a) any truncation or corruption is
 * detectable before or during replay, and (b) a reader never needs more
 * than one chunk of records in memory:
 *
 *   byte  size  field
 *   0     8     magic "tlptrace" (ASCII, no NUL)
 *   8     4     u32  format version (this build reads 1)
 *   12    4     u32  suite (0 = SPEC, 1 = GAP; reporting only)
 *   16    8     u64  payload_offset — byte offset of the first record.
 *                    Readers seek here rather than assuming the header
 *                    size, so later versions may grow the metadata
 *                    without breaking v1 readers of v1 files.
 *   24    8     u64  reserved (written 0, ignored on read)
 *   32    4     u32  name_len
 *   36    n     workload name (UTF-8, no NUL)
 *   ...         records: record_count × 32-byte TraceInstr images
 *   EOF-24 8    u64  record_count
 *   EOF-16 8    u64  FNV-1a64 checksum of the record payload bytes
 *   EOF-8  8    footer magic "tlptfoot"
 *
 * Every multi-byte field is little-endian, written byte by byte — the
 * file is identical regardless of host endianness or struct layout, and
 * record PCs are whatever the writer recorded, so figures reproduce
 * across link layouts and machines (no ASLR re-normalization on replay).
 *
 * A record image is the TraceInstr fields in declaration order:
 * u64 ip, u64 ld_vaddr, u64 st_vaddr, u8 src0, u8 src1, u8 dst,
 * u8 branch, u8 taken, 3 zero bytes.
 *
 * The footer makes truncation loud: a file cut anywhere loses the footer
 * magic or leaves a record region whose byte count disagrees with
 * record_count (or is not a multiple of 32 — cut mid-record). The
 * checksum catches in-place corruption; readers accumulate it while
 * streaming and verify at the end of the first pass, so verification
 * costs no extra I/O and no extra memory.
 */

#ifndef TLPSIM_TRACEFILE_FORMAT_HH
#define TLPSIM_TRACEFILE_FORMAT_HH

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/hash.hh"
#include "trace/trace.hh"

namespace tlpsim::tracefile
{

inline constexpr char kMagic[] = "tlptrace";         ///< 8 bytes on disk
inline constexpr char kFooterMagic[] = "tlptfoot";   ///< 8 bytes on disk
inline constexpr std::uint32_t kVersion = 1;
inline constexpr std::size_t kRecordSize = 32;
inline constexpr std::size_t kFixedHeaderSize = 36;  ///< up to name bytes
inline constexpr std::size_t kFooterSize = 24;
/** Suggested file extension (not enforced anywhere). */
inline constexpr const char *kExtension = ".tlt";

/** Encode one record as its 32-byte little-endian on-disk image. */
void encodeRecord(const TraceInstr &i, unsigned char out[kRecordSize]);

/** Decode a 32-byte on-disk image. */
TraceInstr decodeRecord(const unsigned char in[kRecordSize]);

/**
 * Everything the header and footer declare about a trace file, validated
 * structurally: magic, version, header bounds, footer magic, and the
 * record region being exactly record_count whole records. readInfo()
 * throws ConfigError naming the file and the offending byte offset for
 * every violation; the checksum is *declared* here and verified against
 * the payload by verifyFile() or during a streaming first pass.
 */
struct TraceFileInfo
{
    std::string path;
    std::string name;              ///< embedded workload name
    std::uint32_t version = 0;
    std::uint32_t suite = 0;       ///< 0 = SPEC, 1 = GAP
    std::uint64_t payload_offset = 0;
    std::uint64_t record_count = 0;
    std::uint64_t checksum = 0;    ///< declared by the footer
    std::uint64_t file_size = 0;

    /** "tracefile:v1:<checksum-hex>x<count>" — the content identity that
     *  keys store rows and Runner jobs: two paths to byte-identical
     *  record streams collide (intended), a re-converted or edited file
     *  never aliases the old rows. Valid once the checksum has been
     *  verified against the payload. */
    std::string identity() const;
};

/** Open and structurally validate @p path (see TraceFileInfo). */
TraceFileInfo readInfo(const std::string &path);

/**
 * Stream the whole record payload once (bounded chunk buffer) and verify
 * the footer checksum; throws ConfigError naming file, region, computed
 * and declared sums on mismatch. Returns the verified info — the one
 * full-file pass external trace resolution performs up front, so a
 * corrupt file fails before any simulation starts.
 */
TraceFileInfo verifyFile(const std::string &path);

/**
 * Streaming writer: open(), append() records as they are produced (a
 * converter never materializes the trace), finish() seals the file.
 * Writes go to "<path>.tmp" and finish() publishes with one atomic
 * rename, so a crashed or failed write never leaves a plausible-looking
 * half trace under the final name; an unfinished writer removes its temp
 * file on destruction.
 */
class TraceFileWriter
{
  public:
    struct Options
    {
        std::string name;          ///< embedded workload name (required)
        std::uint32_t suite = 0;   ///< 0 = SPEC, 1 = GAP
    };

    TraceFileWriter(const std::string &path, const Options &opt);
    ~TraceFileWriter();

    TraceFileWriter(const TraceFileWriter &) = delete;
    TraceFileWriter &operator=(const TraceFileWriter &) = delete;

    void append(const TraceInstr &i);

    std::uint64_t count() const { return count_; }

    /** Write the footer, flush, close, and atomically publish the file.
     *  Throws ConfigError on I/O failure or if nothing was appended
     *  (an empty trace cannot satisfy the looping replay contract). */
    void finish();

  private:
    void flushBuffer();

    std::string path_;
    std::string tmp_path_;
    std::FILE *f_ = nullptr;
    std::vector<unsigned char> buf_;
    Fnv1a64 sum_;
    std::uint64_t count_ = 0;
    bool finished_ = false;
};

/** Write a materialized Trace to @p path (the --record-trace path and
 *  the test fixture generator). */
void writeTraceFile(const std::string &path, const Trace &trace,
                    std::uint32_t suite);

} // namespace tlpsim::tracefile

#endif // TLPSIM_TRACEFILE_FORMAT_HH
