/**
 * @file
 * Bit-manipulation helpers: folded XOR hashing, bit slicing, mixing.
 *
 * All microarchitectural tables in tlpsim (perceptron weight tables, TLBs,
 * signature tables) index with these helpers so that hashing behaviour is
 * consistent and unit-testable in one place.
 */

#ifndef TLPSIM_COMMON_BITOPS_HH
#define TLPSIM_COMMON_BITOPS_HH

#include <cassert>
#include <cstdint>

namespace tlpsim
{

/** Extract bits [lo, lo+count) of v. */
constexpr std::uint64_t
bits(std::uint64_t v, unsigned lo, unsigned count)
{
    return (v >> lo) & ((count >= 64) ? ~std::uint64_t{0}
                                      : ((std::uint64_t{1} << count) - 1));
}

/**
 * Fold a 64-bit value down to @p out_bits bits by XOR-ing successive
 * out_bits-wide slices. This is the classic hardware-friendly hash used by
 * hashed-perceptron predictors.
 */
constexpr std::uint64_t
foldedXor(std::uint64_t v, unsigned out_bits)
{
    if (out_bits == 0 || out_bits >= 64)
        return v;
    std::uint64_t mask = (std::uint64_t{1} << out_bits) - 1;
    std::uint64_t r = 0;
    while (v != 0) {
        r ^= v & mask;
        v >>= out_bits;
    }
    return r;
}

/**
 * 64-bit finalizer-style mixer (xorshift-multiply). Used where a
 * better-distributed hash is wanted, e.g. page-frame shuffling.
 */
constexpr std::uint64_t
mix64(std::uint64_t v)
{
    v ^= v >> 33;
    v *= 0xff51afd7ed558ccdULL;
    v ^= v >> 33;
    v *= 0xc4ceb9fe1a85ec53ULL;
    v ^= v >> 33;
    return v;
}

/** True iff v is a power of two (and non-zero). */
constexpr bool
isPowerOfTwo(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** log2 of a power of two. */
constexpr unsigned
log2i(std::uint64_t v)
{
    unsigned r = 0;
    while (v > 1) {
        v >>= 1;
        ++r;
    }
    return r;
}

} // namespace tlpsim

#endif // TLPSIM_COMMON_BITOPS_HH
