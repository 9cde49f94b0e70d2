#include "core/branch_pred.hh"

#include <cassert>

#include "common/bitops.hh"

namespace tlpsim
{

namespace
{

std::vector<HashedPerceptron::TableSpec>
bpredTables(const BranchPredictor::Params &p)
{
    std::vector<HashedPerceptron::TableSpec> specs;
    for (unsigned t = 0; t < p.num_tables; ++t)
        specs.push_back({"ghist" + std::to_string(t), p.table_entries});
    return specs;
}

} // namespace

BranchPredictor::BranchPredictor(const Params &p, StatGroup *stats)
    : params_(p), perceptron_(p.name, bpredTables(p), p.training_threshold),
      correct_(stats->counter(p.name + ".correct")),
      mispredict_(stats->counter(p.name + ".mispredict"))
{
    // computeIndices() folds the shared PC term once, which is only
    // sound while every table hashes into the same index space.
    for (unsigned t = 1; t < p.num_tables; ++t)
        assert(perceptron_.indexBits(t) == perceptron_.indexBits(0));
}

// predictAndTrain runs once per retired branch.
// tlpsim:hot

void
BranchPredictor::computeIndices(Addr ip, std::uint16_t *out) const
{
    // Table t sees the PC hashed with an 8-bit slice of global history;
    // table 0 is history-free (bias + PC).
    //
    // foldedXor is XOR-linear (it XORs fixed out_bits-wide slices), so
    // fold(a ^ b) == fold(a) ^ fold(b). Every bpred table shares one
    // geometry, which lets the full-width PC term be folded once; the
    // per-table folds then only cover the <= 24-bit history terms.
    const unsigned ob = perceptron_.indexBits(0);
    const std::uint64_t mask = perceptron_.entriesOf(0) - 1;
    const std::uint64_t pc_fold = foldedXor(ip >> 2, ob);
    out[0] = static_cast<std::uint16_t>(pc_fold & mask);
    for (unsigned t = 1; t < params_.num_tables; ++t) {
        std::uint64_t hist_slice = bits(ghist_, (t - 1) * 8, 8);
        std::uint64_t h = foldedXor(hist_slice << (t & 3), ob)
            ^ foldedXor(hist_slice * 0x9e37, ob);
        out[t] = static_cast<std::uint16_t>((pc_fold ^ h) & mask);
    }
}

bool
BranchPredictor::predictAndTrain(Addr ip, bool taken)
{
    std::uint16_t index[kMaxTables];
    computeIndices(ip, index);
    int sum = perceptron_.predict(index, params_.num_tables);
    bool predicted_taken = sum >= 0;

    perceptron_.train(index, params_.num_tables, sum, taken, 0);
    ghist_ = (ghist_ << 1) | static_cast<std::uint64_t>(taken);

    bool ok = predicted_taken == taken;
    (ok ? correct_ : mispredict_)->add();
    return ok;
}

// tlpsim:endhot

} // namespace tlpsim
