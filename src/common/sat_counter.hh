/**
 * @file
 * Saturating signed counter — the storage element of every perceptron
 * weight table in tlpsim.
 */

#ifndef TLPSIM_COMMON_SAT_COUNTER_HH
#define TLPSIM_COMMON_SAT_COUNTER_HH

#include <cstdint>

namespace tlpsim
{

/**
 * Signed saturating counter with a compile-time bit width.
 *
 * An N-bit counter saturates at [-2^(N-1), 2^(N-1)-1], matching the
 * hardware weight storage budget quoted in the paper's Table II.
 */
template <unsigned NBits>
class SatCounter
{
    static_assert(NBits >= 2 && NBits <= 15, "weight widths are small");

  public:
    static constexpr int kMax = (1 << (NBits - 1)) - 1;
    static constexpr int kMin = -(1 << (NBits - 1));

    constexpr SatCounter() = default;
    explicit constexpr SatCounter(int v) : value_(clamp(v)) {}

    constexpr int value() const { return value_; }
    constexpr unsigned storageBits() const { return NBits; }

    /** Increment toward kMax, saturating. */
    void
    increment()
    {
        if (value_ < kMax)
            ++value_;
    }

    /** Decrement toward kMin, saturating. */
    void
    decrement()
    {
        if (value_ > kMin)
            --value_;
    }

    /** Train in the direction of @p positive. */
    void
    train(bool positive)
    {
        if (positive)
            increment();
        else
            decrement();
    }

    void reset() { value_ = 0; }

  private:
    static constexpr int
    clamp(int v)
    {
        return v > kMax ? kMax : (v < kMin ? kMin : v);
    }

    std::int16_t value_ = 0;
};

} // namespace tlpsim

#endif // TLPSIM_COMMON_SAT_COUNTER_HH
