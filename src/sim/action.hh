/**
 * @file
 * A move-only callable with small-buffer storage, used for scheduled
 * events.
 *
 * The event queue schedules millions of short-lived lambdas per run.
 * std::function heap-allocates once a capture outgrows its internal
 * buffer and carries copy machinery the simulator never uses.  Every
 * lambda the simulator schedules captures a `this` pointer plus at
 * most a couple of words, so InplaceAction stores the callable in its
 * own buffer (up to `inlineBytes`), which lives in the event queue's
 * slab slot, and only falls back to the heap for oversized captures.
 */

#ifndef SIM_ACTION_HH
#define SIM_ACTION_HH

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace sim {

/** Move-only `void()` callable with small-buffer optimization. */
class InplaceAction
{
  public:
    /** Captures up to this size are stored inline (no allocation). */
    static constexpr std::size_t inlineBytes = 40;

    InplaceAction() = default;

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InplaceAction> &&
                  std::is_invocable_r_v<void, std::decay_t<F> &>>>
    InplaceAction(F &&f)  // NOLINT: implicit like std::function
    {
        using Fn = std::decay_t<F>;
        if constexpr (fitsInline<Fn>()) {
            ::new (static_cast<void *>(buf_)) Fn(std::forward<F>(f));
            ops_ = opsForInline<Fn>();
        } else {
            using P = Fn *;
            ::new (static_cast<void *>(buf_))
                P(new Fn(std::forward<F>(f)));
            ops_ = opsForHeap<Fn>();
        }
    }

    InplaceAction(InplaceAction &&other) noexcept { moveFrom(other); }

    InplaceAction &
    operator=(InplaceAction &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    InplaceAction(const InplaceAction &) = delete;
    InplaceAction &operator=(const InplaceAction &) = delete;

    ~InplaceAction() { reset(); }

    explicit operator bool() const { return ops_ != nullptr; }

    void operator()() { ops_->invoke(buf_); }

  private:
    /**
     * What a stored callable needs beyond its bytes.  A null relocate
     * means the buffer moves by copying its bytes (a trivially
     * copyable capture, or the pointer to a heap one); a null destroy
     * means there is nothing to destroy.  Nearly every scheduled
     * lambda captures only a pointer and integers, so moving and
     * destroying it makes no indirect call.
     */
    struct Ops
    {
        void (*invoke)(void *storage);
        /** Move-construct into @p dst from @p src, destroying src. */
        void (*relocate)(void *dst, void *src);
        void (*destroy)(void *storage);
    };

    template <typename Fn>
    static constexpr bool
    fitsInline()
    {
        return sizeof(Fn) <= inlineBytes &&
               alignof(Fn) <= alignof(std::max_align_t) &&
               std::is_nothrow_move_constructible_v<Fn>;
    }

    template <typename Fn>
    static const Ops *
    opsForInline()
    {
        if constexpr (std::is_trivially_copyable_v<Fn> &&
                      std::is_trivially_destructible_v<Fn>) {
            static constexpr Ops ops = {
                [](void *p) { (*static_cast<Fn *>(p))(); }, nullptr,
                nullptr};
            return &ops;
        } else {
            static constexpr Ops ops = {
                [](void *p) { (*static_cast<Fn *>(p))(); },
                [](void *dst, void *src) {
                    Fn *s = static_cast<Fn *>(src);
                    ::new (dst) Fn(std::move(*s));
                    s->~Fn();
                },
                [](void *p) { static_cast<Fn *>(p)->~Fn(); },
            };
            return &ops;
        }
    }

    template <typename Fn>
    static const Ops *
    opsForHeap()
    {
        using P = Fn *;
        static constexpr Ops ops = {
            [](void *p) { (**static_cast<P *>(p))(); },
            nullptr,
            [](void *p) { delete *static_cast<P *>(p); },
        };
        return &ops;
    }

    void
    moveFrom(InplaceAction &other) noexcept
    {
        ops_ = other.ops_;
        if (ops_) {
            if (ops_->relocate)
                ops_->relocate(buf_, other.buf_);
            else
                std::memcpy(buf_, other.buf_, inlineBytes);
            other.ops_ = nullptr;
        }
    }

    void
    reset() noexcept
    {
        if (ops_) {
            if (ops_->destroy)
                ops_->destroy(buf_);
            ops_ = nullptr;
        }
    }

    alignas(std::max_align_t) unsigned char buf_[inlineBytes];
    const Ops *ops_ = nullptr;
};

} // namespace sim

#endif // SIM_ACTION_HH
