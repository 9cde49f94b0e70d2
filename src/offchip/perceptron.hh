/**
 * @file
 * Hashed-perceptron infrastructure shared by every neural predictor in
 * tlpsim: the branch predictor, Hermes, FLP, SLP, and PPF.
 *
 * A HashedPerceptron owns one weight table per feature. A prediction
 * hashes each feature value into its table, reads the weights, and sums
 * them; training saturating-updates the same entries when the outcome
 * disagrees with the prediction or the magnitude of the sum is below the
 * training threshold (the classic perceptron update rule of Jiménez &
 * Lin adapted by Hermes/PPF).
 */

#ifndef TLPSIM_OFFCHIP_PERCEPTRON_HH
#define TLPSIM_OFFCHIP_PERCEPTRON_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/bitops.hh"
#include "common/sat_counter.hh"
#include "common/storage.hh"

namespace tlpsim
{

/** Fixed-point weight with 5-bit storage, matching the paper's budget. */
using PerceptronWeight = SatCounter<5>;

/**
 * Most feature tables a perceptron may declare (the branch predictor
 * declares 8, PPF 9). Callers snapshot per-prediction indices in fixed
 * arrays sized by this (or by kMaxFeatures for the packet-borne
 * PredictionMeta) so the per-load predict/train path never touches the
 * heap.
 */
constexpr unsigned kMaxTables = 16;

class HashedPerceptron
{
  public:
    struct TableSpec
    {
        std::string name;
        unsigned entries;   ///< power of two
    };

    HashedPerceptron(std::string name, std::vector<TableSpec> tables,
                     int training_threshold);

    /** Hash a raw feature value into table @p t's index space. */
    std::uint16_t
    indexFor(unsigned t, std::uint64_t value) const
    {
        const TableMeta &m = meta_[t];
        return static_cast<std::uint16_t>(
            foldedXor(value, m.index_bits) & (m.entries - 1));
    }

    /** Table @p t's fold width (callers exploiting foldedXor's
     *  XOR-linearity pre-fold shared hash terms once per prediction). */
    unsigned indexBits(unsigned t) const { return meta_[t].index_bits; }

    unsigned entriesOf(unsigned t) const { return meta_[t].entries; }

    /** Sum weights for pre-hashed indices (one per table). */
    int predict(const std::uint16_t *index, unsigned n) const;

    /**
     * Perceptron update: if the prediction implied by @p sum (against
     * @p decision_threshold) was wrong, or |sum| is below the training
     * threshold, nudge every indexed weight toward the outcome.
     */
    void train(const std::uint16_t *index, unsigned n, int sum,
               bool outcome_positive, int decision_threshold);

    /** Unconditional nudge (used by PPF's recovery path). */
    void nudge(const std::uint16_t *index, unsigned n, bool positive);

    void reset();

    StorageBudget storage() const;

    const std::string &name() const { return name_; }

  private:
    struct TableMeta
    {
        std::uint32_t offset;    ///< table start within weights_
        std::uint32_t entries;   ///< power of two
        unsigned index_bits;
    };

    std::string name_;
    std::vector<std::string> table_names_;
    std::vector<TableMeta> meta_;
    std::vector<PerceptronWeight> weights_;   ///< all tables back to back
    int training_threshold_;
};

} // namespace tlpsim

#endif // TLPSIM_OFFCHIP_PERCEPTRON_HH
