// Small-buffer, move-only callable — the event-callback type of the DES
// engine's hot path.
//
// std::function is the wrong tool for a discrete-event simulator: it is
// copyable (so every callback type must be), its small-object optimisation
// is implementation-defined (libstdc++: 16 bytes — a coroutine handle plus
// one captured pointer already spills), and a spill is a heap allocation
// per scheduled event. InlineFunction fixes the contract instead of hoping:
//
//   - Move-only. Events are scheduled once and dispatched once; nothing in
//     the engine ever needs to copy a callback, so captured state does not
//     need to be copyable either.
//   - kInlineFunctionCapacity (48) bytes of inline storage, chosen so every
//     closure the simulation layers schedule today — coroutine-handle
//     resumes (8 B), engine timers, simmpi hand-offs and
//     completions — stays inline. With the two function pointers this makes
//     sizeof(InlineFunction<void()>) one cache line (64 B).
//   - A guaranteed heap fallback for oversized closures (batch/cluster.cpp
//     schedules job-arrival closures carrying a whole Job); the fallback
//     path is static_assert-pinned below and counted via spill_count(), so
//     tests (tests/test_inline_function.cpp) and the allocation-counting
//     engine test can prove hot-path closures never take it. ctesim_lint's
//     core-std-function rule plus fits_inline static_asserts at the core
//     call sites keep src/core itself spill-free.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#include "util/check.h"

namespace ctesim::util {

/// Inline storage of the engine's event callbacks. 48 bytes: the largest
/// closure src/core and src/simmpi schedule is well under this; together
/// with the invoke/manage pointers the whole object is one 64-byte line.
inline constexpr std::size_t kInlineFunctionCapacity = 48;

/// Heap-fallback constructions since process start (all threads). A test
/// hook: steady-state engine tests snapshot it around a workload to assert
/// the hot path stayed inline. Never reset in production code.
inline std::atomic<std::uint64_t>& inline_function_spill_count() {
  static std::atomic<std::uint64_t> count{0};
  return count;
}

template <typename Signature, std::size_t Capacity = kInlineFunctionCapacity>
class InlineFunction;  // undefined: only the R(Args...) partial spec exists

template <typename R, typename... Args, std::size_t Capacity>
class InlineFunction<R(Args...), Capacity> {
 public:
  /// True when a callable of type F is stored inline (no heap allocation).
  /// Nothrow movability is required because relocation happens inside the
  /// noexcept move constructor (and the event queue relies on it).
  template <typename F>
  static constexpr bool fits_inline =
      sizeof(F) <= Capacity && alignof(F) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<F>;

  /// True when moving the stored callable is a plain byte copy with nothing
  /// to destroy. Coroutine-handle resumes and the engine's timer closures
  /// are all of this kind; for them manage_ stays nullptr and a move is an
  /// inlinable memcpy instead of an indirect call — what keeps sifting such
  /// callbacks through the event queue cheap.
  template <typename F>
  static constexpr bool trivially_relocatable =
      fits_inline<F> && std::is_trivially_copyable_v<F> &&
      std::is_trivially_destructible_v<F>;

  InlineFunction() noexcept = default;
  InlineFunction(std::nullptr_t) noexcept {}  // NOLINT(runtime/explicit)

  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<
                !std::is_same_v<D, InlineFunction> &&
                std::is_invocable_r_v<R, D&, Args...>>>
  InlineFunction(F&& fn) {  // NOLINT(runtime/explicit) — drop-in for lambdas
    if constexpr (fits_inline<D>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(fn));
      invoke_ = [](void* obj, Args... args) -> R {
        return (*std::launder(reinterpret_cast<D*>(obj)))(
            std::forward<Args>(args)...);
      };
      if constexpr (trivially_relocatable<D>) {
        // Moves of this object memcpy the whole buffer (branch-free), so
        // the bytes past the callable must not be indeterminate. Zeroed
        // once here, never per move.
        if constexpr (sizeof(D) < Capacity) {
          std::memset(storage_ + sizeof(D), 0, Capacity - sizeof(D));
        }
      } else {
        manage_ = [](void* dst, void* src) noexcept {
          D* from = std::launder(reinterpret_cast<D*>(src));
          if (dst != nullptr) ::new (dst) D(std::move(*from));
          from->~D();
        };
      }
    } else {
      // Fallback: one owning pointer in the buffer. Must always fit — this
      // is what guarantees arbitrarily large closures still work.
      static_assert(sizeof(D*) <= Capacity && alignof(D*) <= alignof(
                        std::max_align_t),
                    "InlineFunction heap-fallback pointer must fit inline");
      inline_function_spill_count().fetch_add(1, std::memory_order_relaxed);
      ::new (static_cast<void*>(storage_)) D*(new D(std::forward<F>(fn)));
      invoke_ = [](void* obj, Args... args) -> R {
        return (**std::launder(reinterpret_cast<D**>(obj)))(
            std::forward<Args>(args)...);
      };
      manage_ = [](void* dst, void* src) noexcept {
        D** from = std::launder(reinterpret_cast<D**>(src));
        if (dst != nullptr) {
          ::new (dst) D*(*from);  // relocate = copy the owning pointer
        } else {
          delete *from;
        }
        // The pointer itself is trivially destructible; nothing to end.
      };
    }
  }

  InlineFunction(InlineFunction&& other) noexcept
      : invoke_(std::exchange(other.invoke_, nullptr)),
        manage_(std::exchange(other.manage_, nullptr)) {
    if (invoke_ != nullptr) relocate_from(other.storage_);
  }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      reset();
      invoke_ = std::exchange(other.invoke_, nullptr);
      manage_ = std::exchange(other.manage_, nullptr);
      if (invoke_ != nullptr) relocate_from(other.storage_);
    }
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { reset(); }

  explicit operator bool() const noexcept { return invoke_ != nullptr; }

  R operator()(Args... args) {
    CTESIM_EXPECTS(invoke_ != nullptr);
    return invoke_(storage_, std::forward<Args>(args)...);
  }

  void reset() noexcept {
    if (manage_ != nullptr) manage_(nullptr, storage_);
    manage_ = nullptr;
    invoke_ = nullptr;
  }

 private:
  /// Move the engaged callable out of `src` into our own buffer. The
  /// common (trivially relocatable) case is the inline memcpy; only
  /// callables with real move constructors or destructors pay the
  /// indirect manage_ call.
  void relocate_from(void* src) noexcept {
    if (manage_ != nullptr) {
      manage_(storage_, src);
    } else {
      std::memcpy(storage_, src, Capacity);
    }
  }

  alignas(std::max_align_t) unsigned char storage_[Capacity];
  R (*invoke_)(void*, Args...) = nullptr;
  /// manage_(dst, src): relocate the callable from src into dst (dst !=
  /// nullptr) or destroy it in place (dst == nullptr). noexcept by
  /// construction: only nothrow-movable callables are stored inline.
  /// nullptr while engaged (invoke_ != nullptr) means the callable is
  /// trivially relocatable: moves are a memcpy, destruction a no-op.
  void (*manage_)(void* dst, void* src) noexcept = nullptr;
};

static_assert(sizeof(InlineFunction<void()>) == 64,
              "event callback should be exactly one cache line");

}  // namespace ctesim::util
