/**
 * @file
 * Allocators that keep a run's large arrays (tables, trace chunks) out
 * of the malloc heap, so resident memory follows what is live, not the
 * heap's history.  DESIGN.md section 5, "One set-associative core".
 */

#ifndef SIM_MAPPED_ALLOC_HH
#define SIM_MAPPED_ALLOC_HH

#include <sys/mman.h>

#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace sim {

/** @p bytes of fresh zeroed pages, or std::bad_alloc. */
inline void *
mapPages(std::size_t bytes)
{
    void *p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED)
        throw std::bad_alloc();
    return p;
}

/**
 * Maps each array of at least minBytes on its own and unmaps it when
 * freed; smaller ones use calloc.  Storage comes zeroed, so
 * value-initializing a trivial element writes nothing and a mapped
 * page is resident only once the run touches it.  Storage is zero only
 * when fresh: size a MappedVector once and never regrow it.
 */
template <typename T>
struct MappedAllocator
{
    using value_type = T;
    static constexpr std::size_t minBytes = std::size_t(128) << 10;

    T *
    allocate(std::size_t n)
    {
        void *p = n * sizeof(T) >= minBytes ? mapPages(n * sizeof(T))
                                            : std::calloc(n, sizeof(T));
        if (!p)
            throw std::bad_alloc();
        return static_cast<T *>(p);
    }

    void
    deallocate(T *p, std::size_t n) noexcept
    {
        if (n * sizeof(T) >= minBytes)
            ::munmap(p, n * sizeof(T));
        else
            std::free(p);
    }

    template <typename U, typename... Args>
    void
    construct(U *p, Args &&...args)
    {
        if constexpr (sizeof...(Args) > 0 ||
                      !std::is_trivially_default_constructible_v<U>)
            ::new (static_cast<void *>(p)) U(std::forward<Args>(args)...);
    }

    friend bool operator==(MappedAllocator, MappedAllocator) = default;
};

template <typename T>
using MappedVector = std::vector<T, MappedAllocator<T>>;

/**
 * Serves blocks of exactly @p Count elements from a process-wide free
 * list of mappings, linked through the free blocks themselves; other
 * sizes use operator new.  A recycled block keeps its pages resident,
 * so a run does not fault in afresh what the last run released, and
 * same-size blocks cannot fragment.  The list never shrinks.  A
 * recycled block holds stale bytes: the container must write an
 * element before reading it.
 */
template <typename T, std::size_t Count>
struct RecyclingAllocator
{
    using value_type = T;
    template <typename U>
    struct rebind { using other = RecyclingAllocator<U, Count>; };

    T *
    allocate(std::size_t n)
    {
        if (n != Count)
            return std::allocator<T>().allocate(n);
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (void *p = free_) {
                std::memcpy(&free_, p, sizeof free_);
                return static_cast<T *>(p);
            }
        }
        return static_cast<T *>(mapPages(n * sizeof(T)));
    }

    void
    deallocate(T *p, std::size_t n) noexcept
    {
        if (n != Count)
            return std::allocator<T>().deallocate(p, n);
        std::lock_guard<std::mutex> lock(mutex_);
        std::memcpy(static_cast<void *>(p), &free_, sizeof free_);
        free_ = p;
    }

    friend bool operator==(RecyclingAllocator, RecyclingAllocator) = default;

  private:
    static_assert(Count * sizeof(T) >= sizeof(void *));
    // Both constant-initialized, so usable at any point of start-up or exit.
    static inline std::mutex mutex_;
    static inline void *free_ = nullptr;
};

} // namespace sim

#endif // SIM_MAPPED_ALLOC_HH
