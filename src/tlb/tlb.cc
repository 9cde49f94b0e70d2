#include "tlb/tlb.hh"

#include <cassert>

namespace tlpsim
{

Tlb::Tlb(const Params &p, StatGroup *stats)
    : params_(p), sets_(p.entries / p.ways),
      entries_(static_cast<std::size_t>(p.entries)),
      hits_(stats->counter(p.name + ".hit")),
      misses_(stats->counter(p.name + ".miss"))
{
    assert(isPowerOfTwo(sets_));
}

const Tlb::Entry *
Tlb::find(Addr vpn) const
{
    std::size_t set = vpn & (sets_ - 1);
    const Entry *base = &entries_[set * params_.ways];
    for (unsigned w = 0; w < params_.ways; ++w) {
        if (base[w].valid && base[w].vpn == vpn)
            return &base[w];
    }
    return nullptr;
}

bool
Tlb::lookup(Addr vaddr)
{
    Entry *e = find(pageNumber(vaddr));
    if (e != nullptr) {
        e->lru = ++lru_clock_;
        hits_->add();
        return true;
    }
    misses_->add();
    return false;
}

bool
Tlb::probe(Addr vaddr) const
{
    return find(pageNumber(vaddr)) != nullptr;
}

void
Tlb::install(Addr vaddr)
{
    Addr vpn = pageNumber(vaddr);
    if (find(vpn) != nullptr)
        return;
    std::size_t set = vpn & (sets_ - 1);
    Entry *base = &entries_[set * params_.ways];
    Entry *victim = base;
    for (unsigned w = 1; w < params_.ways; ++w) {
        if (!base[w].valid) {
            victim = &base[w];
            break;
        }
        if (base[w].lru < victim->lru)
            victim = &base[w];
    }
    victim->vpn = vpn;
    victim->valid = true;
    victim->lru = ++lru_clock_;
}

TranslationStack::Result
TranslationStack::lookup(Addr vaddr)
{
    if (dtlb_->lookup(vaddr))
        return {false, dtlb_->latency()};
    if (stlb_->lookup(vaddr)) {
        dtlb_->install(vaddr);
        return {false, dtlb_->latency() + stlb_->latency()};
    }
    return {true, 0};
}

void
TranslationStack::fill(Addr vaddr)
{
    stlb_->install(vaddr);
    dtlb_->install(vaddr);
}

} // namespace tlpsim
