//===- promises/stream/SeqRing.h - Flat sequence windows -------*- C++ -*-===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A flat ring keyed by absolute sequence number, replacing the
/// std::map<Seq, T> windows on the transport hot path. The maps held
/// dense, mostly-contiguous sequence ranges (a sender's retransmission
/// window, its outcome slots, a receiver's ahead-of-order buffers, and a
/// guardian's live calls on one stream), so
/// every lookup was a pointer-chasing tree walk and every insert a node
/// allocation. The ring stores entries inline in a power-of-two slot
/// array indexed by `S & Mask`: O(1) find/insert/erase, and cache-line
/// locality for the dense ranges that dominate. The first insert
/// allocates 2 slots and each growth doubles, so a stream that carries
/// one call at a time holds a few hundred bytes of rings for its whole
/// life, while a deep pipeline grows to its span once and then allocates
/// nothing: capacity is retained across erase() and clear().
///
/// Invariants:
///  * All present seqs lie in [Lo, Hi), and Hi - Lo <= capacity, so a
///    slot index collides with no other in-range seq.
///  * Lo is the lowest present seq and Hi-1 the highest (maintained
///    eagerly by insert/erase), making firstSeq()/lastSeq() O(1).
///  * Iteration (forEach) visits seqs ascending — the same order the
///    std::map gave, which scheduling determinism depends on.
///
/// Entries may be sparse within [Lo, Hi) (ahead-of-order buffers have
/// gaps); erase() resets the slot to T{} so owned buffers free eagerly.
///
//===----------------------------------------------------------------------===//

#ifndef PROMISES_STREAM_SEQRING_H
#define PROMISES_STREAM_SEQRING_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace promises::stream {

template <typename T> class SeqRing {
public:
  using Seq = uint64_t;

  bool empty() const { return Count == 0; }
  size_t size() const { return Count; }

  bool contains(Seq S) const {
    return S >= Lo && S < Hi && Slots[index(S)].Present;
  }

  /// Pointer to the entry for \p S, or nullptr when absent.
  T *find(Seq S) { return contains(S) ? &Slots[index(S)].Value : nullptr; }
  const T *find(Seq S) const {
    return contains(S) ? &Slots[index(S)].Value : nullptr;
  }

  /// The entry for \p S, which must be present.
  T &at(Seq S) {
    assert(contains(S) && "SeqRing::at on an absent seq");
    return Slots[index(S)].Value;
  }
  const T &at(Seq S) const {
    assert(contains(S) && "SeqRing::at on an absent seq");
    return Slots[index(S)].Value;
  }

  /// Inserts \p V at \p S, which must be absent. Seqs may arrive in any
  /// order (reply batches overtake each other); the ring grows to span
  /// [min, max] of everything present.
  void insert(Seq S, T V) {
    assert(!contains(S) && "SeqRing::insert on a present seq");
    Seq NewLo = Count == 0 ? S : (S < Lo ? S : Lo);
    Seq NewHi = Count == 0 ? S + 1 : (S + 1 > Hi ? S + 1 : Hi);
    if (NewHi - NewLo > Slots.size())
      grow(NewHi - NewLo);
    Lo = NewLo;
    Hi = NewHi;
    Entry &E = Slots[index(S)];
    E.Value = std::move(V);
    E.Present = true;
    ++Count;
  }

  /// Removes \p S (which must be present), resetting its slot to T{} so
  /// owned buffers are released immediately, and tightening [Lo, Hi).
  void erase(Seq S) {
    assert(contains(S) && "SeqRing::erase on an absent seq");
    Entry &E = Slots[index(S)];
    E.Value = T{};
    E.Present = false;
    --Count;
    if (Count == 0) {
      Lo = Hi = 0;
      return;
    }
    if (S == Lo)
      while (!Slots[index(Lo)].Present)
        ++Lo;
    if (S + 1 == Hi)
      while (!Slots[index(Hi - 1)].Present)
        --Hi;
  }

  /// Lowest / highest present seq; the ring must not be empty.
  Seq firstSeq() const {
    assert(Count != 0 && "SeqRing::firstSeq on an empty ring");
    return Lo;
  }
  Seq lastSeq() const {
    assert(Count != 0 && "SeqRing::lastSeq on an empty ring");
    return Hi - 1;
  }

  /// Drops every entry but keeps the slot array: a reincarnated or
  /// reused stream re-fills warm capacity instead of reallocating.
  void clear() {
    for (Seq S = Lo; S < Hi; ++S) {
      Entry &E = Slots[index(S)];
      if (E.Present) {
        E.Value = T{};
        E.Present = false;
      }
    }
    Lo = Hi = 0;
    Count = 0;
  }

  /// Visits present entries in ascending seq order (the iteration order
  /// the std::map had — determinism-sensitive call sites rely on it).
  template <typename Fn> void forEach(Fn &&F) const {
    for (Seq S = Lo; S < Hi; ++S) {
      const Entry &E = Slots[index(S)];
      if (E.Present)
        F(S, E.Value);
    }
  }

private:
  struct Entry {
    T Value{};
    bool Present = false;
  };

  size_t index(Seq S) const { return static_cast<size_t>(S) & Mask; }

  void grow(Seq Needed) {
    size_t Cap = Slots.empty() ? 2 : Slots.size();
    while (Cap < Needed)
      Cap *= 2;
    std::vector<Entry> Fresh(Cap);
    size_t NewMask = Cap - 1;
    for (Seq S = Lo; S < Hi; ++S) {
      Entry &E = Slots[index(S)];
      if (E.Present)
        Fresh[static_cast<size_t>(S) & NewMask] = std::move(E);
    }
    Slots = std::move(Fresh);
    Mask = NewMask;
  }

  std::vector<Entry> Slots;
  size_t Mask = static_cast<size_t>(-1); ///< Slots.size() - 1 once allocated.
  Seq Lo = 0, Hi = 0; ///< Present seqs span [Lo, Hi); empty when Lo == Hi.
  size_t Count = 0;
};

} // namespace promises::stream

#endif // PROMISES_STREAM_SEQRING_H
