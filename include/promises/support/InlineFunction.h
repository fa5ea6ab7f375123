//===- promises/support/InlineFunction.h - Inline callable -----*- C++ -*-===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// InlineFunction: a move-only std::function replacement that keeps its
/// callable in a fixed inline buffer of InlineFunctionBytes (48) bytes and
/// falls back to the heap only for bigger captures.
///
/// The kernel stores one callable per spawned process and per armed timer,
/// and the transport one per outstanding call. std::function keeps only
/// trivially copyable functors of at most 16 bytes inline, so almost every
/// closure on those paths was a heap allocation of its own. 48 bytes
/// covers all of them:
///
///   guardian call-process body   32 B  {Guardian *, shared_ptr<call>,
///                                       domain &}
///   loadsim per-arrival body     40 B  {World *, tenant, seq, lane, time}
///   sleep()/waitFor() timer      24 B  {WaitQueue *, Process *, epoch}
///   reply callbacks            8-16 B  {Resolver} or {shared_ptr<retry>}
///
/// Every byte of capacity is paid by each Process and each event record,
/// so the buffer is not larger than that. A callable is stored inline when
/// it fits, is at most pointer-aligned and moves without throwing;
/// anything else is heap-allocated once, at construction, and moves by
/// pointer afterwards.
///
//===----------------------------------------------------------------------===//

#ifndef PROMISES_SUPPORT_INLINEFUNCTION_H
#define PROMISES_SUPPORT_INLINEFUNCTION_H

#include <cassert>
#include <cstddef>
#include <cstring>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>

namespace promises {

/// Capture bytes an InlineFunction holds without allocating.
inline constexpr size_t InlineFunctionBytes = 48;

template <typename Sig> class InlineFunction;

template <typename R, typename... Args> class InlineFunction<R(Args...)> {
public:
  /// Whether a callable of type \p F is stored in the inline buffer.
  template <typename F>
  static constexpr bool fitsInline =
      sizeof(F) <= InlineFunctionBytes && alignof(F) <= alignof(void *) &&
      std::is_nothrow_move_constructible_v<F>;

  InlineFunction() noexcept = default;
  InlineFunction(std::nullptr_t) noexcept {}

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<
                !std::is_same_v<D, InlineFunction> &&
                std::is_invocable_r_v<R, D &, Args...>>>
  InlineFunction(F &&Fn) {
    if constexpr (std::is_pointer_v<D> || std::is_member_pointer_v<D>)
      if (Fn == nullptr)
        return;
    if constexpr (fitsInline<D>) {
      ::new (static_cast<void *>(Buf)) D(std::forward<F>(Fn));
      Ops = &InlineOps<D>;
    } else {
      D *Heap = new D(std::forward<F>(Fn));
      std::memcpy(Buf, &Heap, sizeof(Heap));
      Ops = &HeapOps<D>;
    }
  }

  InlineFunction(InlineFunction &&O) noexcept { takeFrom(O); }

  InlineFunction &operator=(InlineFunction &&O) noexcept {
    if (this != &O) {
      reset();
      takeFrom(O);
    }
    return *this;
  }

  InlineFunction &operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }

  InlineFunction(const InlineFunction &) = delete;
  InlineFunction &operator=(const InlineFunction &) = delete;

  ~InlineFunction() { reset(); }

  explicit operator bool() const noexcept { return Ops != nullptr; }

  R operator()(Args... A) {
    assert(Ops && "call through an empty InlineFunction");
    return Ops->Invoke(Buf, std::forward<Args>(A)...);
  }

private:
  struct VTable {
    R (*Invoke)(void *Obj, Args &&...A);
    /// Moves the callable from Src to Dst and destroys Src. Null when a
    /// copy of the buffer does both: trivially copyable callables, and the
    /// pointer a heap-stored one leaves in the buffer.
    void (*Relocate)(void *Dst, void *Src) noexcept;
    /// Null when destruction is a no-op.
    void (*Destroy)(void *Obj) noexcept;
  };

  template <typename F> static R call(F &Fn, Args &&...A) {
    if constexpr (std::is_void_v<R>)
      std::invoke(Fn, std::forward<Args>(A)...);
    else
      return std::invoke(Fn, std::forward<Args>(A)...);
  }

  template <typename F> static F *heapPtr(void *Obj) {
    F *P;
    std::memcpy(&P, Obj, sizeof(P));
    return P;
  }

  template <typename F>
  static constexpr VTable InlineOps = {
      [](void *Obj, Args &&...A) -> R {
        return call(*static_cast<F *>(Obj), std::forward<Args>(A)...);
      },
      std::is_trivially_copyable_v<F>
          ? nullptr
          : +[](void *Dst, void *Src) noexcept {
              ::new (Dst) F(std::move(*static_cast<F *>(Src)));
              static_cast<F *>(Src)->~F();
            },
      std::is_trivially_destructible_v<F>
          ? nullptr
          : +[](void *Obj) noexcept { static_cast<F *>(Obj)->~F(); }};

  template <typename F>
  static constexpr VTable HeapOps = {
      [](void *Obj, Args &&...A) -> R {
        return call(*heapPtr<F>(Obj), std::forward<Args>(A)...);
      },
      nullptr, [](void *Obj) noexcept { delete heapPtr<F>(Obj); }};

  void takeFrom(InlineFunction &O) noexcept {
    Ops = O.Ops;
    if (!Ops)
      return;
    if (Ops->Relocate)
      Ops->Relocate(Buf, O.Buf);
    else
      std::memcpy(Buf, O.Buf, sizeof(Buf));
    O.Ops = nullptr;
  }

  void reset() noexcept {
    const VTable *Old = Ops;
    Ops = nullptr;
    if (Old && Old->Destroy)
      Old->Destroy(Buf);
  }

  alignas(void *) unsigned char Buf[InlineFunctionBytes];
  const VTable *Ops = nullptr;
};

// The buffer plus one vtable pointer: every Process, event record and
// per-call reply slot pays exactly this.
static_assert(sizeof(InlineFunction<void()>) ==
                  InlineFunctionBytes + sizeof(void *),
              "InlineFunction grew");

} // namespace promises

#endif // PROMISES_SUPPORT_INLINEFUNCTION_H
