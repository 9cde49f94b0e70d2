#include "offchip/perceptron.hh"

#include <cassert>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace tlpsim
{

namespace
{

#if defined(__x86_64__)
bool
hostHasAvx2()
{
    static const bool avx2 = __builtin_cpu_supports("avx2") != 0;
    return avx2;
}
#endif

} // namespace

HashedPerceptron::HashedPerceptron(std::string name,
                                   std::vector<TableSpec> tables,
                                   int training_threshold)
    : name_(std::move(name)), training_threshold_(training_threshold)
{
    assert(tables.size() <= kMaxTables);
    std::uint32_t offset = 0;
    for (auto &spec : tables) {
        assert(isPowerOfTwo(spec.entries));
        table_names_.push_back(spec.name);
        meta_.push_back({offset, spec.entries, log2i(spec.entries)});
        offset += spec.entries;
    }
    pad_index_ = offset;
    weights_.resize(offset + 2);   // zero guards, see the member comment
}

// Predict/train run once per load; no allocation allowed here
// (tlpsim-audit's hotpath check).
// tlpsim:hot

int
HashedPerceptron::predict(const std::uint16_t *index, unsigned n) const
{
    assert(n == meta_.size());
#if defined(__x86_64__)
    if (n >= 8 && hostHasAvx2())
        return predictAvx2(index, n);
#endif
    int sum = 0;
    for (unsigned t = 0; t < n; ++t)
        sum += weights_[meta_[t].offset + index[t]].value();
    return sum;
}

#if defined(__x86_64__)
__attribute__((target("avx2"))) int
HashedPerceptron::predictAvx2(const std::uint16_t *index, unsigned n) const
{
    // Weights are one int16 each, so a 4-byte gather at byte stride 2
    // picks weight idx[i] up in each lane's low half (the high half is
    // the next weight, or a guard entry at the table's end); shift-pair
    // sign extension recovers the value. The sums are bit-identical to
    // the scalar loop: int32 addition of at most kMaxTables values in
    // [-16, 15] cannot overflow and is order-insensitive.
    static_assert(sizeof(PerceptronWeight) == sizeof(std::int16_t),
                  "gather kernel assumes int16 weight storage");
    alignas(32) std::int32_t idx[kMaxTables];
    static_assert(kMaxTables % 8 == 0, "padding stays inside idx[]");
    for (unsigned t = 0; t < n; ++t)
        idx[t] = static_cast<std::int32_t>(meta_[t].offset + index[t]);
    const unsigned padded = (n + 7u) & ~7u;
    for (unsigned t = n; t < padded; ++t)
        idx[t] = static_cast<std::int32_t>(pad_index_);   // always-zero weight
    const int *base = reinterpret_cast<const int *>(weights_.data());
    __m256i acc = _mm256_setzero_si256();
    for (unsigned t = 0; t < padded; t += 8) {
        const __m256i vindex
            = _mm256_load_si256(reinterpret_cast<const __m256i *>(idx + t));
        __m256i w = _mm256_i32gather_epi32(base, vindex, 2);
        w = _mm256_srai_epi32(_mm256_slli_epi32(w, 16), 16);
        acc = _mm256_add_epi32(acc, w);
    }
    __m128i s = _mm_add_epi32(_mm256_castsi256_si128(acc),
                              _mm256_extracti128_si256(acc, 1));
    s = _mm_add_epi32(s, _mm_srli_si128(s, 8));
    s = _mm_add_epi32(s, _mm_srli_si128(s, 4));
    return _mm_cvtsi128_si32(s);
}
#endif

void
HashedPerceptron::train(const std::uint16_t *index, unsigned n, int sum,
                        bool outcome_positive, int decision_threshold)
{
    assert(n == meta_.size());
    bool predicted_positive = sum >= decision_threshold;
    bool mispredicted = predicted_positive != outcome_positive;
    if (!mispredicted && std::abs(sum - decision_threshold)
        >= training_threshold_) {
        return;   // confident and correct: leave the weights alone
    }
    for (unsigned t = 0; t < n; ++t)
        weights_[meta_[t].offset + index[t]].train(outcome_positive);
}

void
HashedPerceptron::nudge(const std::uint16_t *index, unsigned n, bool positive)
{
    assert(n == meta_.size());
    for (unsigned t = 0; t < n; ++t)
        weights_[meta_[t].offset + index[t]].train(positive);
}

// tlpsim:endhot

void
HashedPerceptron::reset()
{
    for (auto &w : weights_)
        w.reset();
}

StorageBudget
HashedPerceptron::storage() const
{
    StorageBudget b;
    for (std::size_t t = 0; t < meta_.size(); ++t) {
        b.add(name_ + "." + table_names_[t],
              static_cast<std::uint64_t>(meta_[t].entries)
                  * PerceptronWeight{}.storageBits());
    }
    return b;
}

} // namespace tlpsim
