/**
 * @file
 * ZeroPages<T>: a fixed-size array of trivial elements in anonymous
 * private pages of its own (mmap). Until an element is written its page
 * is the OS's shared zero page, so every element reads as all-zero bits
 * and only the pages a program writes count toward its RSS. release()
 * hands the whole pages of a range back to the OS early; they read as
 * zero again.
 *
 * For large scratch whose use is sparse or shrinks as it is consumed:
 * workloads::makeGraph's edge list, freed chunk by chunk as the CSR
 * build scatters it, and recordBc's per-vertex state, of which a short
 * recording touches a few pages.
 */

#ifndef TLPSIM_COMMON_ZERO_PAGES_HH
#define TLPSIM_COMMON_ZERO_PAGES_HH

#include <cstddef>
#include <type_traits>
#include <utility>

namespace tlpsim
{

/** The untyped mapping behind ZeroPages<T>; owns [data, data + bytes). */
class PageMapping
{
  public:
    PageMapping() = default;
    /** Map @p bytes of zero pages; throws std::bad_alloc if the OS
     *  refuses. Zero bytes map nothing. */
    explicit PageMapping(std::size_t bytes);
    ~PageMapping();

    PageMapping(PageMapping &&other) noexcept
        : data_(std::exchange(other.data_, nullptr)),
          bytes_(std::exchange(other.bytes_, 0))
    {}
    PageMapping &
    operator=(PageMapping other) noexcept
    {
        std::swap(data_, other.data_);
        std::swap(bytes_, other.bytes_);
        return *this;
    }

    void *data() const { return data_; }

    /** Return the whole pages inside [offset, offset + bytes). */
    void release(std::size_t offset, std::size_t bytes);

  private:
    void *data_ = nullptr;
    std::size_t bytes_ = 0;
};

/** size elements of T, all-zero until written (see the file comment). */
template <typename T>
class ZeroPages
{
    static_assert(std::is_trivial_v<T>,
                  "zero pages hold trivial elements, all-zero on first read");

  public:
    ZeroPages() = default;
    explicit ZeroPages(std::size_t size) : pages_(size * sizeof(T)) {}

    T *data() { return static_cast<T *>(pages_.data()); }
    T &operator[](std::size_t i) { return data()[i]; }

    /** Return the pages wholly inside elements [begin, end) to the OS;
     *  the elements on pages that straddle either end keep their values. */
    void
    release(std::size_t begin, std::size_t end)
    {
        pages_.release(begin * sizeof(T), (end - begin) * sizeof(T));
    }

  private:
    PageMapping pages_;
};

} // namespace tlpsim

#endif // TLPSIM_COMMON_ZERO_PAGES_HH
