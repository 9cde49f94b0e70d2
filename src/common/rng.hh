/**
 * @file
 * Deterministic pseudo-random number generator.
 *
 * Every source of randomness in tlpsim (graph generation, synthetic kernels,
 * workload mixing, page-frame shuffling) draws from a seeded Xoshiro256**
 * instance so that all experiments are exactly reproducible.
 */

#ifndef TLPSIM_COMMON_RNG_HH
#define TLPSIM_COMMON_RNG_HH

#include <array>
#include <cstdint>

#include "common/bitops.hh"

namespace tlpsim
{

/** Xoshiro256** PRNG; fast, high-quality, deterministic across platforms. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 1)
    {
        // SplitMix64 seeding, as recommended by the xoshiro authors.
        std::uint64_t x = seed;
        for (auto &word : s) {
            x += 0x9e3779b97f4a7c15ULL;
            word = mix64(x);
        }
    }

    /** Uniform 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
        const std::uint64_t t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = rotl(s[3], 45);
        return result;
    }

    /** Uniform value in [0, bound). bound must be non-zero. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        // Multiply-shift rejection-free bound (Lemire); bias is negligible
        // for simulation purposes and determinism is what matters here.
        return static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(next()) * bound) >> 64);
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli draw with probability p. */
    bool chance(double p) { return uniform() < p; }

    /**
     * A polynomial over GF(2) of degree below 256: bit i % 64 of word
     * i / 64 is the coefficient of x^i.
     */
    using Poly = std::array<std::uint64_t, 4>;

    /**
     * Low 256 coefficients of P, the characteristic polynomial of the
     * linear map T that next() applies to the state; P's x^256 term is
     * implicit. Found by Berlekamp-Massey over a state bit's sequence.
     */
    static constexpr Poly kCharPoly = {
        0x9d116f2bb0f0f001ULL, 0x0280002bcefd1a5eULL,
        0x04b4edcf26259f85ULL, 0x0003c03c3f3ecb19ULL,
    };

    /** @p a times @p b, modulo P. */
    static Poly
    mulMod(const Poly &a, const Poly &b)
    {
        Poly r{};
        for (int i = 255; i >= 0; --i) {
            // r = r * x mod P: a carried-out x^256 is replaced by the
            // rest of P.
            const std::uint64_t reduce = 0 - (r[3] >> 63);
            r[3] = (r[3] << 1) | (r[2] >> 63);
            r[2] = (r[2] << 1) | (r[1] >> 63);
            r[1] = (r[1] << 1) | (r[0] >> 63);
            r[0] <<= 1;
            const std::uint64_t add = 0 - ((a[i / 64] >> (i % 64)) & 1);
            for (int k = 0; k < 4; ++k)
                r[k] ^= (kCharPoly[k] & reduce) ^ (b[k] & add);
        }
        return r;
    }

    /**
     * Advance the state exactly as @p n calls of next() would, in
     * O(log n) time. n steps apply T^n, and since P(T) = 0
     * (Cayley-Hamilton), T^n = q(T) for q = x^n mod P. q(T) s is a sum
     * of T^i s over q's 256 coefficients, so it costs 256 steps
     * whatever n is.
     */
    void
    discard(std::uint64_t n)
    {
        Poly q{1, 0, 0, 0};
        // x_pow is x^(2^j) mod P once j bits of n are consumed.
        for (Poly x_pow{2, 0, 0, 0}; n != 0; n >>= 1) {
            if ((n & 1) != 0)
                q = mulMod(q, x_pow);
            if (n > 1)
                x_pow = mulMod(x_pow, x_pow);
        }
        std::uint64_t sum[4] = {};
        for (int i = 0; i < 256; ++i) {
            if (((q[i / 64] >> (i % 64)) & 1) != 0) {
                for (int k = 0; k < 4; ++k)
                    sum[k] ^= s[k];
            }
            next();
        }
        for (int k = 0; k < 4; ++k)
            s[k] = sum[k];
    }

    /** Same state: both produce the same draws from here on. */
    bool operator==(const Rng &) const = default;

  private:
    static constexpr std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s[4];
};

} // namespace tlpsim

#endif // TLPSIM_COMMON_RNG_HH
