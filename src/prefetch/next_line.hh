/**
 * @file
 * Trivial next-line prefetcher: the simplest coverage baseline, used by
 * tests.
 */

#ifndef TLPSIM_PREFETCH_NEXT_LINE_HH
#define TLPSIM_PREFETCH_NEXT_LINE_HH

#include "prefetch/prefetcher.hh"

namespace tlpsim
{

class NextLinePrefetcher : public Prefetcher
{
  public:
    struct Params
    {
        /** Lines prefetched ahead of each access. */
        unsigned degree = 1;
    };

    NextLinePrefetcher() : NextLinePrefetcher(Params{}) {}
    explicit NextLinePrefetcher(const Params &p) : degree_(p.degree) {}
    explicit NextLinePrefetcher(unsigned degree)
        : NextLinePrefetcher(Params{degree})
    {
    }

    const char *name() const override { return "next_line"; }

    // tlpsim:hot
    void
    onAccess(const PrefetchTrigger &trigger,
             std::vector<PrefetchCandidate> &out) override
    {
        if (trigger.type != AccessType::Load
            && trigger.type != AccessType::Rfo) {
            return;
        }
        for (unsigned d = 1; d <= degree_; ++d) {
            out.push_back(   // tlpsim:waive(hotpath) caller-reserved cand_buf
                {blockAlign(trigger.vaddr) + d * kBlockSize, 1, 0});
        }
    }
    // tlpsim:endhot

    StorageBudget storage() const override { return {}; }

  private:
    unsigned degree_;
};

} // namespace tlpsim

#endif // TLPSIM_PREFETCH_NEXT_LINE_HH
