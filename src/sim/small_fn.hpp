// Small-buffer-optimized callable, the event/listener payload of the
// simulator hot path.
//
// Every event moves its callback twice (into a scheduler slot when
// scheduled, out of it when run), so the move must be cheap: `SmallFn`
// stores trivially copyable callables (the simulator's lambdas capture
// `this` plus a few scalars) in an inline buffer and moves by plain
// `memcpy` -- no indirect call, no allocation, no destructor work on the
// moved-from shell.  Callables that are oversized, over-aligned, or not
// trivially copyable (a captured `std::function`, a `std::string`) fall
// back to a single heap cell whose move is a pointer copy.  Move-only by
// design: the event queue never copies callbacks.
#pragma once

#include <cstddef>
#include <cstring>
#include <functional>  // std::bad_function_call
#include <new>
#include <type_traits>
#include <utility>

namespace offramps::sim {

template <typename Signature, std::size_t Capacity = 24>
class SmallFn;

template <typename R, typename... Args, std::size_t Capacity>
class SmallFn<R(Args...), Capacity> {
 public:
  SmallFn() noexcept = default;
  SmallFn(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  /// Wraps any callable invocable as R(Args...).
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, SmallFn> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  SmallFn(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    if constexpr (fits_inline<Fn>()) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      vt_ = &kInlineVTable<Fn>;
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      vt_ = &kHeapVTable<Fn>;
    }
  }

  // The fixed-size copy reads past the stored callable into the buffer's
  // intentionally-uninitialized tail (defined behavior for unsigned
  // char), which GCC's -Wmaybe-uninitialized (and, when it can prove the
  // tail untouched after inlining, -Wuninitialized) flags in some
  // inlining contexts; copying sizeof(Fn) instead would need a per-type
  // vtable hop on the hottest move in the program.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"
#endif
  SmallFn(SmallFn&& other) noexcept
      : vt_(other.vt_) {
    // Inline payloads are trivially copyable and heap payloads are a raw
    // pointer, so one fixed-size copy relocates either kind.
    std::memcpy(buf_, other.buf_, Capacity);
    other.vt_ = nullptr;
  }

  SmallFn& operator=(SmallFn&& other) noexcept {
    if (this != &other) {
      reset();
      vt_ = other.vt_;
      std::memcpy(buf_, other.buf_, Capacity);
      other.vt_ = nullptr;
    }
    return *this;
  }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

  SmallFn& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }

  SmallFn(const SmallFn&) = delete;
  SmallFn& operator=(const SmallFn&) = delete;

  ~SmallFn() { reset(); }

  [[nodiscard]] explicit operator bool() const noexcept {
    return vt_ != nullptr;
  }
  friend bool operator==(const SmallFn& f, std::nullptr_t) noexcept {
    return f.vt_ == nullptr;
  }
  friend bool operator!=(const SmallFn& f, std::nullptr_t) noexcept {
    return f.vt_ != nullptr;
  }

  R operator()(Args... args) {
    if (vt_ == nullptr) throw std::bad_function_call();
    return vt_->invoke(buf_, std::forward<Args>(args)...);
  }

  /// Invokes without the empty-check/throw path.  For dispatch loops that
  /// already guarantee non-emptiness structurally (the scheduler pops
  /// only events it inserted with a callback; the wire delivery loop
  /// tests each slot before firing) - there the branch is provably dead
  /// and this keeps it out of the hottest call in the program.
  R invoke_unchecked(Args... args) {
    return vt_->invoke(buf_, std::forward<Args>(args)...);
  }

 private:
  struct VTable {
    R (*invoke)(void*, Args&&...);
    /// nullptr when the payload needs no teardown (trivial inline case).
    void (*destroy)(void*) noexcept;
  };

  template <typename Fn>
  static constexpr bool fits_inline() {
    return sizeof(Fn) <= Capacity &&
           alignof(Fn) <= alignof(std::max_align_t) &&
           std::is_trivially_copyable_v<Fn>;
  }

  template <typename Fn>
  static constexpr VTable kInlineVTable = {
      [](void* p, Args&&... a) -> R {
        return (*static_cast<Fn*>(p))(std::forward<Args>(a)...);
      },
      std::is_trivially_destructible_v<Fn>
          ? nullptr
          : +[](void* p) noexcept { static_cast<Fn*>(p)->~Fn(); },
  };

  template <typename Fn>
  static constexpr VTable kHeapVTable = {
      [](void* p, Args&&... a) -> R {
        return (**static_cast<Fn**>(p))(std::forward<Args>(a)...);
      },
      [](void* p) noexcept { delete *static_cast<Fn**>(p); },
  };

  void reset() noexcept {
    if (vt_ != nullptr) {
      if (vt_->destroy != nullptr) vt_->destroy(buf_);
      vt_ = nullptr;
    }
  }

  const VTable* vt_ = nullptr;
  alignas(std::max_align_t) unsigned char buf_[Capacity];
};

}  // namespace offramps::sim
