#include "common/zero_pages.hh"

#include <sys/mman.h>
#include <unistd.h>

#include <new>

namespace tlpsim
{

namespace
{

std::size_t
pageSize()
{
    static const auto bytes = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    return bytes;
}

} // namespace

PageMapping::PageMapping(std::size_t bytes)
{
    if (bytes == 0)
        return;
    void *p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED)
        throw std::bad_alloc();
    data_ = p;
    bytes_ = bytes;
}

PageMapping::~PageMapping()
{
    if (data_ != nullptr)
        munmap(data_, bytes_);
}

void
PageMapping::release(std::size_t offset, std::size_t bytes)
{
    // The mapping starts on a page boundary, so whole pages are those
    // between the range's ends rounded inward to page multiples.
    const std::size_t page = pageSize();
    const std::size_t first = (offset + page - 1) / page * page;
    const std::size_t last = (offset + bytes) / page * page;
    if (first < last)
        madvise(static_cast<char *>(data_) + first, last - first,
                MADV_DONTNEED);
}

} // namespace tlpsim
