#include "tracefile/format.hh"

#include <cstdio>
#include <cstring>

#include "common/config.hh"

namespace tlpsim::tracefile
{

namespace
{

void
putU32(unsigned char *p, std::uint32_t v)
{
    p[0] = static_cast<unsigned char>(v);
    p[1] = static_cast<unsigned char>(v >> 8);
    p[2] = static_cast<unsigned char>(v >> 16);
    p[3] = static_cast<unsigned char>(v >> 24);
}

void
putU64(unsigned char *p, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        p[i] = static_cast<unsigned char>(v >> (8 * i));
}

std::uint32_t
getU32(const unsigned char *p)
{
    return static_cast<std::uint32_t>(p[0])
        | static_cast<std::uint32_t>(p[1]) << 8
        | static_cast<std::uint32_t>(p[2]) << 16
        | static_cast<std::uint32_t>(p[3]) << 24;
}

std::uint64_t
getU64(const unsigned char *p)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

[[noreturn]] void
fileError(const std::string &path, const std::string &what)
{
    throw ConfigError("trace file '" + path + "': " + what);
}

} // namespace

void
encodeRecord(const TraceInstr &i, unsigned char out[kRecordSize])
{
    putU64(out, i.ip);
    putU64(out + 8, i.ld_vaddr);
    putU64(out + 16, i.st_vaddr);
    out[24] = i.src0;
    out[25] = i.src1;
    out[26] = i.dst;
    out[27] = static_cast<unsigned char>(i.branch);
    out[28] = i.taken ? 1 : 0;
    out[29] = out[30] = out[31] = 0;
}

TraceInstr
decodeRecord(const unsigned char in[kRecordSize])
{
    TraceInstr i;
    i.ip = getU64(in);
    i.ld_vaddr = getU64(in + 8);
    i.st_vaddr = getU64(in + 16);
    i.src0 = in[24];
    i.src1 = in[25];
    i.dst = in[26];
    // Out-of-range branch codes clamp to NotBranch rather than forging an
    // enum value UBSan would flag; the checksum already rejects a file
    // whose bytes were corrupted in place.
    i.branch = in[27] <= static_cast<unsigned char>(BranchKind::Indirect)
        ? static_cast<BranchKind>(in[27])
        : BranchKind::NotBranch;
    i.taken = in[28] != 0;
    return i;
}

std::string
TraceFileInfo::identity() const
{
    return "tracefile:v" + std::to_string(version) + ":" + hex16(checksum)
        + "x" + std::to_string(record_count);
}

TraceFileInfo
readInfo(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        fileError(path, "cannot open for reading");
    struct Closer
    {
        std::FILE *f;
        ~Closer() { std::fclose(f); }
    } closer{f};

    TraceFileInfo info;
    info.path = path;

    if (std::fseek(f, 0, SEEK_END) != 0)
        fileError(path, "cannot seek (not a regular file?)");
    const long end = std::ftell(f);
    if (end < 0)
        fileError(path, "cannot determine file size");
    info.file_size = static_cast<std::uint64_t>(end);

    unsigned char hdr[kFixedHeaderSize];
    if (info.file_size < kFixedHeaderSize + kFooterSize) {
        fileError(path,
                  "truncated: " + std::to_string(info.file_size)
                      + " bytes, but the fixed header ("
                      + std::to_string(kFixedHeaderSize) + ") plus footer ("
                      + std::to_string(kFooterSize)
                      + ") alone need "
                      + std::to_string(kFixedHeaderSize + kFooterSize));
    }
    std::rewind(f);
    if (std::fread(hdr, 1, sizeof(hdr), f) != sizeof(hdr))
        fileError(path, "short read on the fixed header at byte 0");

    if (std::memcmp(hdr, kMagic, 8) != 0) {
        fileError(path,
                  "bad magic at byte 0 — not a tlpsim trace file (want \""
                      + std::string(kMagic) + "\")");
    }
    info.version = getU32(hdr + 8);
    if (info.version != kVersion) {
        fileError(path,
                  "unsupported format version "
                      + std::to_string(info.version)
                      + " at byte 8 (this build reads version "
                      + std::to_string(kVersion) + ")");
    }
    info.suite = getU32(hdr + 12);
    info.payload_offset = getU64(hdr + 16);
    const std::uint32_t name_len = getU32(hdr + 32);

    if (info.payload_offset < kFixedHeaderSize + name_len
        || info.payload_offset > info.file_size - kFooterSize) {
        fileError(path,
                  "payload offset " + std::to_string(info.payload_offset)
                      + " (declared at byte 16) lies outside the file's "
                        "record region ["
                      + std::to_string(kFixedHeaderSize + name_len) + ", "
                      + std::to_string(info.file_size - kFooterSize) + ")");
    }

    info.name.resize(name_len);
    if (name_len != 0
        && std::fread(info.name.data(), 1, name_len, f) != name_len)
        fileError(path, "short read on the name at byte 36");

    const std::uint64_t footer_at = info.file_size - kFooterSize;
    unsigned char ftr[kFooterSize];
    if (std::fseek(f, static_cast<long>(footer_at), SEEK_SET) != 0
        || std::fread(ftr, 1, sizeof(ftr), f) != sizeof(ftr))
        fileError(path,
                  "short read on the footer at byte "
                      + std::to_string(footer_at));
    if (std::memcmp(ftr + 16, kFooterMagic, 8) != 0) {
        fileError(path,
                  "bad footer magic at byte " + std::to_string(footer_at + 16)
                      + " — the file is truncated or was not sealed by "
                        "TraceFileWriter::finish()");
    }
    info.record_count = getU64(ftr);
    info.checksum = getU64(ftr + 8);

    const std::uint64_t payload_bytes = footer_at - info.payload_offset;
    if (payload_bytes % kRecordSize != 0) {
        fileError(path,
                  "truncated mid-record: the record region ends at byte "
                      + std::to_string(footer_at) + ", "
                      + std::to_string(payload_bytes % kRecordSize)
                      + " bytes into record #"
                      + std::to_string(payload_bytes / kRecordSize));
    }
    if (payload_bytes / kRecordSize != info.record_count) {
        fileError(path,
                  "record count mismatch: the footer at byte "
                      + std::to_string(footer_at) + " declares "
                      + std::to_string(info.record_count)
                      + " record(s) but the region ["
                      + std::to_string(info.payload_offset) + ", "
                      + std::to_string(footer_at) + ") holds "
                      + std::to_string(payload_bytes / kRecordSize));
    }
    if (info.record_count == 0)
        fileError(path, "empty trace: the footer declares 0 records");
    return info;
}

TraceFileInfo
verifyFile(const std::string &path)
{
    TraceFileInfo info = readInfo(path);
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        fileError(path, "cannot open for reading");
    struct Closer
    {
        std::FILE *f;
        ~Closer() { std::fclose(f); }
    } closer{f};
    if (std::fseek(f, static_cast<long>(info.payload_offset), SEEK_SET) != 0)
        fileError(path,
                  "cannot seek to the record region at byte "
                      + std::to_string(info.payload_offset));

    Fnv1a64 sum;
    std::vector<unsigned char> chunk(1 << 20);
    std::uint64_t left = info.record_count * kRecordSize;
    std::uint64_t at = info.payload_offset;
    while (left > 0) {
        const std::size_t want = static_cast<std::size_t>(
            std::min<std::uint64_t>(left, chunk.size()));
        if (std::fread(chunk.data(), 1, want, f) != want) {
            fileError(path,
                      "short read in the record region at byte "
                          + std::to_string(at)
                          + " (file shrank while reading?)");
        }
        sum.update(chunk.data(), want);
        left -= want;
        at += want;
    }
    if (sum.value() != info.checksum) {
        fileError(path,
                  "checksum mismatch over records ["
                      + std::to_string(info.payload_offset) + ", "
                      + std::to_string(at) + "): computed "
                      + hex16(sum.value()) + ", footer at byte "
                      + std::to_string(info.file_size - kFooterSize)
                      + " declares " + hex16(info.checksum));
    }
    return info;
}

TraceFileWriter::TraceFileWriter(const std::string &path, const Options &opt)
    : path_(path), tmp_path_(path + ".tmp")
{
    f_ = std::fopen(tmp_path_.c_str(), "wb");
    if (f_ == nullptr)
        fileError(path, "cannot open '" + tmp_path_ + "' for writing");

    const std::uint32_t name_len
        = static_cast<std::uint32_t>(opt.name.size());
    std::vector<unsigned char> hdr(kFixedHeaderSize + name_len);
    std::memcpy(hdr.data(), kMagic, 8);
    putU32(hdr.data() + 8, kVersion);
    putU32(hdr.data() + 12, opt.suite);
    putU64(hdr.data() + 16, kFixedHeaderSize + name_len);
    putU64(hdr.data() + 24, 0);
    putU32(hdr.data() + 32, name_len);
    std::memcpy(hdr.data() + kFixedHeaderSize, opt.name.data(), name_len);
    if (std::fwrite(hdr.data(), 1, hdr.size(), f_) != hdr.size()) {
        std::fclose(f_);
        f_ = nullptr;
        std::remove(tmp_path_.c_str());
        fileError(path, "write failed on the header (disk full?)");
    }
    buf_.reserve(1 << 20);
}

TraceFileWriter::~TraceFileWriter()
{
    if (f_ != nullptr) {
        std::fclose(f_);
        std::remove(tmp_path_.c_str());
    }
}

void
TraceFileWriter::append(const TraceInstr &i)
{
    unsigned char rec[kRecordSize];
    encodeRecord(i, rec);
    sum_.update(rec, kRecordSize);
    buf_.insert(buf_.end(), rec, rec + kRecordSize);
    ++count_;
    if (buf_.size() >= (std::size_t{1} << 20))
        flushBuffer();
}

void
TraceFileWriter::flushBuffer()
{
    if (buf_.empty())
        return;
    if (std::fwrite(buf_.data(), 1, buf_.size(), f_) != buf_.size())
        fileError(path_, "write failed in the record region (disk full?)");
    buf_.clear();
}

void
TraceFileWriter::finish()
{
    if (finished_)
        return;
    if (count_ == 0) {
        fileError(path_,
                  "refusing to write an empty trace (replay loops the "
                  "record stream, which needs at least one record)");
    }
    flushBuffer();
    unsigned char ftr[kFooterSize];
    putU64(ftr, count_);
    putU64(ftr + 8, sum_.value());
    std::memcpy(ftr + 16, kFooterMagic, 8);
    if (std::fwrite(ftr, 1, sizeof(ftr), f_) != sizeof(ftr)
        || std::fflush(f_) != 0)
        fileError(path_, "write failed on the footer (disk full?)");
    std::fclose(f_);
    f_ = nullptr;
    if (std::rename(tmp_path_.c_str(), path_.c_str()) != 0) {
        std::remove(tmp_path_.c_str());
        fileError(path_, "cannot publish '" + tmp_path_ + "'");
    }
    finished_ = true;
}

void
writeTraceFile(const std::string &path, const Trace &trace,
               std::uint32_t suite)
{
    TraceFileWriter::Options opt;
    opt.name = trace.name();
    opt.suite = suite;
    TraceFileWriter w(path, opt);
    for (std::size_t i = 0; i < trace.size(); ++i)
        w.append(trace.at(i));
    w.finish();
}

} // namespace tlpsim::tracefile
