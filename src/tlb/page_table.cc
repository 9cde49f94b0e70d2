#include "tlb/page_table.hh"

#include "common/bitops.hh"

namespace tlpsim
{

Addr
PageTable::translate(unsigned asid, Addr vaddr)
{
    const Addr vpn = pageNumber(vaddr);
    // Hash the asid in with the vpn: the cores of a homogeneous mix touch
    // the same virtual pages, and indexing by vpn alone made them evict
    // each other's entries.
    MemoEntry &m
        = memo_[mix64(vpn ^ (Addr{asid} << 52)) & (kMemoEntries - 1)];
    if (m.vpn == vpn && m.asid == asid)
        return (m.frame << kPageBits) | (vaddr & kPageMask);
    Key key{asid, vpn};
    auto it = map_.find(key);
    if (it == map_.end())
        it = map_.emplace(key, next_frame_++).first;
    m = {vpn, asid, it->second};
    return (it->second << kPageBits) | (vaddr & kPageMask);
}

Addr
PageTable::pteAddress(unsigned asid, Addr vaddr) const
{
    // Model the leaf PTE fetch: 8-byte entries packed in a dedicated
    // physical region far above allocated frames. Consecutive virtual pages
    // hit consecutive PTEs, giving page walks the spatial locality real
    // radix tables have.
    constexpr Addr kPteRegion = Addr{1} << 46;
    Addr vpn = pageNumber(vaddr) + (static_cast<Addr>(asid) << 36);
    return kPteRegion + vpn * 8;
}

} // namespace tlpsim
