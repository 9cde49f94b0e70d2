#include "offchip/perceptron.hh"

#include <cassert>

namespace tlpsim
{

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
    weights_.resize(offset);
}

// Predict/train run once per load; no allocation allowed here
// (tlpsim-audit's hotpath check).
// tlpsim:hot

int
HashedPerceptron::predict(const std::uint16_t *index, unsigned n) const
{
    assert(n == meta_.size());
    int sum = 0;
    for (unsigned t = 0; t < n; ++t)
        sum += weights_[meta_[t].offset + index[t]].value();
    return sum;
}

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
