/**
 * @file
 * Zero-filled, lazily committed backing store for the large flat
 * table arrays.
 *
 * A bounded table reserves its whole entry budget up front, but a
 * replay usually writes a few percent of it: PC-indexed tables fill
 * only the sets the program's static instructions hash to. So the
 * slot arrays come from zero-filled anonymous memory and are never
 * written at construction. The kernel commits a page on the first
 * write to it, and a table costs resident memory in proportion to
 * what a replay actually touched, not to its budget. Zeroing is done
 * by the kernel, so construction is O(1) in the budget, and
 * ZeroedBuffer::zero() hands committed pages back, leaving the buffer
 * as fresh as a new one.
 *
 * Large buffers also ask for 2 MiB huge pages. On 4 KiB pages a
 * tens-of-MB table costs a TLB miss on nearly every probe, and a
 * software prefetch whose target misses the TLB is silently dropped,
 * so the batched replay's prefetch pipeline would not hide the misses
 * it was built to hide. The huge-page request is a three-step ladder:
 * an explicit hugetlb mapping when the administrator has reserved a
 * pool (vm.nr_hugepages — the only mechanism that works on kernels
 * where transparent huge pages are configured but never granted, as
 * in some microVMs), else anonymous memory with MADV_HUGEPAGE, else
 * plain pages. Every rung has identical observable behaviour.
 *
 * Small buffers come from calloc, which zeroes them too; mapping a
 * page per tiny array would waste pages and mappings.
 */

#ifndef VP_CORE_HUGEPAGE_HH
#define VP_CORE_HUGEPAGE_HH

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <utility>

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace vp::core {

/**
 * A fixed-size array of @c T in zero-filled memory. The elements are
 * *not* constructed: the buffer hands out raw, zeroed storage, so
 * trivial element types (keys, stamps, flags) read as 0 until first
 * written, and callers that store non-trivial objects construct and
 * destroy them themselves (BoundedTable builds an entry on the first
 * fill of its slot). Move-only; never resized.
 */
template <typename T>
class ZeroedBuffer
{
    static_assert(alignof(T) <= alignof(std::max_align_t),
                  "ZeroedBuffer storage is only max_align_t aligned");

  public:
    static constexpr std::size_t hugePage = std::size_t{2} << 20;

    /** Buffers at least this large are mapped (and so can hand their
     *  pages back); smaller ones come from calloc. */
    static constexpr std::size_t mapThreshold = std::size_t{64} << 10;

    ZeroedBuffer() = default;

    explicit ZeroedBuffer(std::size_t n)
    {
        if (n == 0)
            return;
        // Refuse sizes whose byte count (rounded up to a huge page)
        // would wrap around.
        if (n > (SIZE_MAX - hugePage) / sizeof(T))
            throw std::bad_alloc();
        size_ = n;
        bytes_ = mappedBytes(n * sizeof(T));
        void *p = bytes_ != 0 ? map(bytes_) : std::calloc(n, sizeof(T));
        if (p == nullptr)
            throw std::bad_alloc();
        data_ = static_cast<T *>(p);
    }

    ZeroedBuffer(const ZeroedBuffer &) = delete;
    ZeroedBuffer &operator=(const ZeroedBuffer &) = delete;

    ZeroedBuffer(ZeroedBuffer &&other) noexcept
        : data_(std::exchange(other.data_, nullptr)),
          size_(std::exchange(other.size_, 0)),
          bytes_(std::exchange(other.bytes_, 0))
    {
    }

    ZeroedBuffer &
    operator=(ZeroedBuffer &&other) noexcept
    {
        if (this != &other) {
            release();
            data_ = std::exchange(other.data_, nullptr);
            size_ = std::exchange(other.size_, 0);
            bytes_ = std::exchange(other.bytes_, 0);
        }
        return *this;
    }

    ~ZeroedBuffer() { release(); }

    T *data() { return data_; }
    const T *data() const { return data_; }
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    T &operator[](std::size_t i) { return data_[i]; }
    const T &operator[](std::size_t i) const { return data_[i]; }

    /**
     * Make every byte zero again. A mapped buffer drops its committed
     * pages (private anonymous pages refault as zeros), so this costs
     * no writes and returns the memory; a calloc'd one is small and
     * is simply cleared. Any objects the caller built in the buffer
     * must be destroyed first.
     */
    void
    zero()
    {
        if (data_ == nullptr)
            return;
#if defined(__linux__)
        // MADV_DONTNEED fails on hugetlb mappings before Linux 5.18;
        // those fall back to clearing by hand.
        if (bytes_ != 0 && madvise(data_, bytes_, MADV_DONTNEED) == 0)
            return;
#endif
        std::memset(static_cast<void *>(data_), 0, size_ * sizeof(T));
    }

  private:
    /** Length of the mapping backing @p bytes, or 0 for calloc. */
    static std::size_t
    mappedBytes(std::size_t bytes)
    {
#if defined(__linux__)
        if (bytes < mapThreshold)
            return 0;
        if (bytes < hugePage)
            return bytes;
        return (bytes + hugePage - 1) & ~(hugePage - 1);
#else
        (void)bytes;
        return 0;
#endif
    }

    /** Zero-filled anonymous memory of @p bytes; nullptr on failure. */
    static void *
    map(std::size_t bytes)
    {
#if defined(__linux__)
        constexpr int prot = PROT_READ | PROT_WRITE;
        constexpr int flags = MAP_PRIVATE | MAP_ANONYMOUS;
        if (bytes >= hugePage) {
            // Preallocated huge pages first (vm.nr_hugepages pool;
            // the mmap fails upfront when the pool is too small),
            // then transparent huge pages as a hint.
            void *p = mmap(nullptr, bytes, prot, flags | MAP_HUGETLB,
                           -1, 0);
            if (p != MAP_FAILED)
                return p;
        }
        void *p = mmap(nullptr, bytes, prot, flags, -1, 0);
        if (p == MAP_FAILED)
            return nullptr;
        if (bytes >= hugePage)
            madvise(p, bytes, MADV_HUGEPAGE);
        return p;
#else
        (void)bytes;
        return nullptr;
#endif
    }

    void
    release() noexcept
    {
        if (data_ == nullptr)
            return;
#if defined(__linux__)
        if (bytes_ != 0) {
            munmap(data_, bytes_);
            data_ = nullptr;
            return;
        }
#endif
        std::free(data_);
        data_ = nullptr;
    }

    T *data_ = nullptr;
    std::size_t size_ = 0;
    std::size_t bytes_ = 0;     ///< mapping length; 0 = calloc'd
};

} // namespace vp::core

#endif // VP_CORE_HUGEPAGE_HH
