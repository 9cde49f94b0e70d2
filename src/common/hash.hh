/**
 * @file
 * FNV-1a 64-bit hashing and its fixed-width hex rendering: the content
 * address and checksum of result-store rows, and the payload checksum
 * and content identity of .tlt trace files.
 */

#ifndef TLPSIM_COMMON_HASH_HH
#define TLPSIM_COMMON_HASH_HH

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace tlpsim
{

/** Incremental FNV-1a 64-bit. */
class Fnv1a64
{
  public:
    void
    update(const void *data, std::size_t n)
    {
        auto p = static_cast<const unsigned char *>(data);
        std::uint64_t h = h_;
        for (std::size_t i = 0; i < n; ++i)
            h = (h ^ p[i]) * 0x100000001b3ull;
        h_ = h;
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/** FNV-1a 64-bit of @p s. */
inline std::uint64_t
fnv1a64(std::string_view s)
{
    Fnv1a64 h;
    h.update(s.data(), s.size());
    return h.value();
}

/** @p v as 16 lowercase hex digits. */
inline std::string
hex16(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

} // namespace tlpsim

#endif // TLPSIM_COMMON_HASH_HH
