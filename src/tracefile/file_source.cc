#include "tracefile/file_source.hh"

#include <algorithm>

#include "common/config.hh"

namespace tlpsim::tracefile
{

FileTraceSource::FileTraceSource(const std::string &path,
                                 std::size_t chunk_records)
    : info_(readInfo(path))
{
    f_ = std::fopen(path.c_str(), "rb");
    if (f_ == nullptr)
        throw ConfigError("trace file '" + path + "': cannot open for "
                          "reading");
    // The chunk never needs to exceed one pass; keep tiny traces tiny.
    const std::uint64_t cap = std::min<std::uint64_t>(
        std::max<std::size_t>(chunk_records, 1), info_.record_count);
    raw_.resize(static_cast<std::size_t>(cap) * kRecordSize);
    if (std::fseek(f_, static_cast<long>(info_.payload_offset), SEEK_SET)
        != 0) {
        std::fclose(f_);
        f_ = nullptr;
        throw ConfigError("trace file '" + path
                          + "': cannot seek to the record region at byte "
                          + std::to_string(info_.payload_offset));
    }
}

FileTraceSource::~FileTraceSource()
{
    if (f_ != nullptr)
        std::fclose(f_);
}

std::size_t
FileTraceSource::read(TraceInstr *out, std::size_t n)
{
    // Stop at the pass boundary so the checksum closes exactly there and
    // the wrap seek happens between read() calls, never inside one.
    const std::uint64_t left_in_pass = info_.record_count - pass_pos_;
    const std::size_t take = static_cast<std::size_t>(
        std::min<std::uint64_t>({n, raw_.size() / kRecordSize,
                                 left_in_pass}));
    const std::size_t bytes = take * kRecordSize;
    if (std::fread(raw_.data(), 1, bytes, f_) != bytes) {
        throw ConfigError(
            "trace file '" + info_.path
            + "': short read in the record region at byte "
            + std::to_string(info_.payload_offset + pass_pos_ * kRecordSize)
            + " (file shrank since it was opened?)");
    }
    if (first_pass_)
        sum_.update(raw_.data(), bytes);
    for (std::size_t i = 0; i < take; ++i)
        out[i] = decodeRecord(raw_.data() + i * kRecordSize);
    pass_pos_ += take;

    if (pass_pos_ == info_.record_count) {
        if (first_pass_ && sum_.value() != info_.checksum) {
            throw ConfigError(
                "trace file '" + info_.path
                + "': checksum mismatch over records ["
                + std::to_string(info_.payload_offset) + ", "
                + std::to_string(info_.payload_offset
                                 + info_.record_count * kRecordSize)
                + "): computed " + hex16(sum_.value())
                + ", footer declares " + hex16(info_.checksum));
        }
        first_pass_ = false;
        pass_pos_ = 0;
        if (std::fseek(f_, static_cast<long>(info_.payload_offset),
                       SEEK_SET)
            != 0) {
            throw ConfigError("trace file '" + info_.path
                              + "': cannot seek back to the record region "
                                "at byte "
                              + std::to_string(info_.payload_offset));
        }
    }
    return take;
}

} // namespace tlpsim::tracefile
