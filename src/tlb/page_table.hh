/**
 * @file
 * First-touch page table: deterministic virtual→physical mapping.
 *
 * Frames are handed out sequentially from a system-wide allocator on first
 * touch (any core, any page), so co-running cores interleave naturally in
 * physical memory as they would under a real OS. Frame 0 is reserved so a
 * physical address of 0 can never appear (0 is the "no access" sentinel in
 * trace records).
 */

#ifndef TLPSIM_TLB_PAGE_TABLE_HH
#define TLPSIM_TLB_PAGE_TABLE_HH

#include <array>
#include <cstdint>
#include <unordered_map>

#include "common/types.hh"

namespace tlpsim
{

class PageTable
{
  public:
    /**
     * Translate @p vaddr for address space @p asid, allocating a frame on
     * first touch. Returns the full physical address (page offset kept).
     */
    Addr translate(unsigned asid, Addr vaddr);

    /** Physical address of the PTE for @p vaddr (for page-walk traffic). */
    Addr pteAddress(unsigned asid, Addr vaddr) const;

    /** Number of frames allocated so far. */
    std::uint64_t allocatedFrames() const { return next_frame_ - 1; }

  private:
    struct Key
    {
        unsigned asid;
        Addr vpn;
        bool operator==(const Key &) const = default;
    };

    struct KeyHash
    {
        std::size_t
        operator()(const Key &k) const
        {
            return static_cast<std::size_t>(
                (k.vpn * 0x9e3779b97f4a7c15ULL) ^ (std::uint64_t{k.asid} << 1));
        }
    };

    /** Direct-mapped memo over the map_ lookup, indexed by a hash of
     *  (asid, vpn). translate() is called for every load, walk, and
     *  prefetch-candidate translation — most hit the same few pages
     *  back to back — and the mapping is first-touch-permanent, so a
     *  memo hit returns exactly what the map lookup would. Pure cache:
     *  no observable behavior change. */
    struct MemoEntry
    {
        Addr vpn = ~Addr{0};
        unsigned asid = ~0u;
        Addr frame = 0;
    };
    static constexpr std::size_t kMemoEntries = 1024;   // power of two

    std::array<MemoEntry, kMemoEntries> memo_{};
    std::unordered_map<Key, Addr, KeyHash> map_;
    Addr next_frame_ = 1;
};

} // namespace tlpsim

#endif // TLPSIM_TLB_PAGE_TABLE_HH
