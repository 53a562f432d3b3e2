//===- support/Lz.cpp - Dependency-free LZ77 block codec ------------------===//
//
// Part of jdrag (PLDI 2001 "Heap Profiling for Space-Efficient Java").
//
//===----------------------------------------------------------------------===//

#include "support/Lz.h"

#include <cstring>
#include <memory>

using namespace jdrag::support;

namespace {

// Hash-chain matcher state (LzEncoder::MatchTables). Head maps the
// Fibonacci hash of a 4-byte prefix to the most recent position (+1, so
// 0 means "empty") that carried it; Prev chains each window slot to the
// previous position with the same hash. The tables belong to one
// stream's encoder and are not cleared between its blocks: stale
// entries are harmless because every candidate must pass the "earlier
// in THIS block, inside the window, and the bytes actually match"
// guards before it is used, and a chain step is only followed while
// positions strictly decrease.
constexpr unsigned HashBits = 16;
constexpr std::size_t HashSlots = std::size_t(1) << HashBits;
constexpr std::size_t WindowSlots = std::size_t(1) << 16;
constexpr std::size_t WindowMask = WindowSlots - 1;

// Deeper chains buy ratio, shallower ones buy encode speed. On the
// varint-dense chunk payloads this codec exists for the trade is
// brutal: depth 16 is 4x slower than a bare head probe and buys ~2%
// ratio (2.51x vs 2.46x aggregate over the nine paper workloads), so
// the default is 1 -- the Prev stores below fold away entirely.
constexpr int MaxChainDepth = 1;

// Positions inside an emitted match are indexed at this stride; 2 is
// as good as 1 for ratio here and saves a hash+store per byte covered.
constexpr std::size_t InsertStep = 2;

// After 1 << SkipTrigger consecutive match misses the scan starts
// striding (LZ4's acceleration trick), so incompressible input reaches
// the stored-raw bail-out quickly instead of probing every byte.
constexpr unsigned SkipTrigger = 6;

inline std::uint32_t load32(const std::uint8_t *P) {
  std::uint32_t V;
  std::memcpy(&V, P, sizeof(V));
  return V;
}

inline std::uint32_t hash4(std::uint32_t V) {
  return (V * 2654435761u) >> (32 - HashBits);
}

/// Append a length >= 15 in the LZ4 extension scheme: 0xFF bytes each
/// adding 255, then a final byte < 0xFF.
inline void putExtension(std::vector<std::uint8_t> &Out, std::size_t Rest) {
  while (Rest >= 255) {
    Out.push_back(0xFF);
    Rest -= 255;
  }
  Out.push_back(static_cast<std::uint8_t>(Rest));
}

/// Emit one sequence: Lits literal bytes starting at LitStart, then (if
/// MatchLen != 0) a match of MatchLen bytes at Offset back.
void putSequence(std::vector<std::uint8_t> &Out, const std::uint8_t *LitStart,
                 std::size_t Lits, std::size_t MatchLen, std::size_t Offset) {
  std::size_t LitNibble = Lits < 15 ? Lits : 15;
  std::size_t MatchNibble = 0;
  if (MatchLen != 0) {
    std::size_t M = MatchLen - LzMinMatch;
    MatchNibble = M < 15 ? M : 15;
  }
  Out.push_back(static_cast<std::uint8_t>((LitNibble << 4) | MatchNibble));
  if (LitNibble == 15)
    putExtension(Out, Lits - 15);
  Out.insert(Out.end(), LitStart, LitStart + Lits);
  if (MatchLen != 0) {
    Out.push_back(static_cast<std::uint8_t>(Offset & 0xFF));
    Out.push_back(static_cast<std::uint8_t>(Offset >> 8));
    if (MatchNibble == 15)
      putExtension(Out, MatchLen - LzMinMatch - 15);
  }
}

} // namespace

struct LzEncoder::MatchTables {
  std::uint32_t Head[HashSlots] = {};
  // Only a chain walk deeper than the head probe reads Prev.
  std::uint32_t Prev[MaxChainDepth > 1 ? WindowSlots : 1] = {};
};

LzEncoder::LzEncoder() = default;
LzEncoder::~LzEncoder() = default;
LzEncoder::LzEncoder(LzEncoder &&) noexcept = default;
LzEncoder &LzEncoder::operator=(LzEncoder &&) noexcept = default;

std::vector<std::uint8_t> jdrag::support::lzCompress(const void *Data,
                                                     std::size_t Size) {
  return LzEncoder().compress(Data, Size);
}

std::vector<std::uint8_t> LzEncoder::compress(const void *Data,
                                              std::size_t Size) {
  const auto *Src = static_cast<const std::uint8_t *>(Data);
  std::vector<std::uint8_t> Out;
  // One prefix byte >= zero payload bytes for the empty input; the
  // upper bound keeps every position+1 inside a 32-bit table entry
  // (chunk payloads are capped far below it anyway).
  if (Size == 0 || Size > (std::size_t(1) << 30))
    return Out;
  Out.reserve(Size); // hard cap -- we bail at Size anyway

  // uvarint RawLen prefix.
  std::size_t V = Size;
  while (V >= 0x80) {
    Out.push_back(static_cast<std::uint8_t>(V) | 0x80);
    V >>= 7;
  }
  Out.push_back(static_cast<std::uint8_t>(V));

  if (Size < 2 * LzMinMatch) {
    // Too short for any match: a literals-only block never beats the
    // raw payload, but keep the logic uniform and let the size bail
    // decide.
    putSequence(Out, Src, Size, 0, 0);
    return Out.size() >= Size ? std::vector<std::uint8_t>() : Out;
  }

  if (!Tables)
    Tables = std::make_unique<MatchTables>();
  MatchTables &T = *Tables;
  // The stream must end with a literals-only sequence, so no match may
  // run into the final MinMatch bytes, and the last position worth
  // probing leaves room for a minimum match before that tail.
  const std::size_t MatchEnd = Size - LzMinMatch;
  const std::size_t SearchLimit = Size - 2 * LzMinMatch;

  auto insert = [&](std::size_t P) {
    std::uint32_t H = hash4(load32(Src + P));
    if (MaxChainDepth > 1)
      T.Prev[P & WindowMask] = T.Head[H];
    T.Head[H] = static_cast<std::uint32_t>(P + 1);
  };

  // Best match for position P (0 if none), walking the hash chain up
  // to MaxChainDepth candidates; P itself is pushed onto the chain.
  auto findMatch = [&](std::size_t P, std::size_t &BestOff) -> std::size_t {
    std::uint32_t First = load32(Src + P);
    std::uint32_t H = hash4(First);
    std::uint32_t Cand = T.Head[H];
    if (MaxChainDepth > 1)
      T.Prev[P & WindowMask] = Cand;
    T.Head[H] = static_cast<std::uint32_t>(P + 1);
    std::size_t BestLen = 0;
    const std::size_t Max = MatchEnd - P;
    int Depth = MaxChainDepth;
    while (Cand && Depth-- > 0) {
      std::size_t C = Cand - 1;
      if (C >= P || P - C > LzMaxOffset)
        break; // stale slot or out of window -- the chain only gets older
      if (load32(Src + C) == First &&
          (BestLen == 0 || Src[C + BestLen] == Src[P + BestLen])) {
        std::size_t Len = LzMinMatch;
        while (Len < Max && Src[C + Len] == Src[P + Len])
          ++Len;
        if (Len > BestLen) {
          BestLen = Len;
          BestOff = P - C;
          if (Len >= Max)
            break;
        }
      }
      if (Depth == 0)
        break; // chain budget spent
      std::uint32_t Next = T.Prev[C & WindowMask];
      if (Next == 0 || Next - 1 >= C)
        break; // stale chain entry
      Cand = Next;
    }
    return BestLen;
  };

  const std::uint8_t *LitStart = Src;
  std::size_t Pos = 0;
  unsigned MissCount = 0;
  while (Pos <= SearchLimit) {
    std::size_t Off = 0;
    std::size_t Len = findMatch(Pos, Off);
    if (Len < LzMinMatch) {
      Pos += 1 + (MissCount++ >> SkipTrigger);
      continue;
    }
    MissCount = 0;
    std::size_t Probed = Pos; // findMatch indexed everything up to here
    // Extend backward into the pending literals.
    std::size_t C = Pos - Off;
    while (C > 0 && Src + Pos > LitStart && Src[Pos - 1] == Src[C - 1]) {
      --Pos;
      --C;
      ++Len;
    }
    std::size_t Lits = static_cast<std::size_t>(Src + Pos - LitStart);
    putSequence(Out, LitStart, Lits, Len, Off);
    if (Out.size() >= Size)
      return {};
    // Index the positions the match covers so later repeats chain.
    std::size_t Covered = Pos + Len;
    for (std::size_t I = Probed + InsertStep;
         I < Covered && I <= SearchLimit; I += InsertStep)
      insert(I);
    Pos = Covered;
    LitStart = Src + Pos;
  }
  // Final literals-only sequence (always present, possibly empty).
  putSequence(Out, LitStart, static_cast<std::size_t>(Src + Size - LitStart),
              0, 0);
  if (Out.size() >= Size)
    return {};
  return Out;
}

bool jdrag::support::lzDecompress(const void *Data, std::size_t Size,
                                  std::vector<std::uint8_t> &Out,
                                  std::size_t MaxRawLen) {
  const auto *P = static_cast<const std::uint8_t *>(Data);
  const std::uint8_t *End = P + Size;

  auto fail = [&Out] {
    Out.clear();
    return false;
  };

  // uvarint RawLen, bounded to 64 bits / 10 bytes.
  std::uint64_t RawLen = 0;
  unsigned Shift = 0;
  for (;;) {
    if (P == End || Shift >= 64)
      return fail();
    std::uint8_t B = *P++;
    RawLen |= std::uint64_t(B & 0x7F) << Shift;
    if (!(B & 0x80))
      break;
    Shift += 7;
  }
  if (RawLen > MaxRawLen)
    return fail();
  // No clear() first: a reused scratch vector resizing to the same
  // length (the common chunk-after-chunk case) then skips the
  // value-initializing fill, and the success path provably writes
  // every byte of [OBase, OEnd) before returning true.
  Out.resize(static_cast<std::size_t>(RawLen));
  std::uint8_t *O = Out.data();
  std::uint8_t *const OBase = O;
  std::uint8_t *const OEnd = O + Out.size();

  auto readExtension = [&](std::size_t Base, std::size_t &LenOut) -> bool {
    std::size_t Len = Base;
    for (;;) {
      if (P == End)
        return false;
      std::uint8_t B = *P++;
      Len += B;
      // Cap against RawLen so a hostile stream of 0xFF bytes cannot
      // walk Len toward overflow; anything past RawLen fails later
      // anyway, fail it now.
      if (Len > RawLen)
        return false;
      if (B != 0xFF) {
        LenOut = Len;
        return true;
      }
    }
  };

  // Fast-path margins: a sequence whose lengths fit their nibbles
  // reads at most 1 + 14 + 2 input bytes and writes at most 14 + 18
  // output bytes, so inside these bounds it can run with unconditional
  // 16-byte copies and no per-copy slack checks. The careful loop
  // below handles everything else (extensions, the block tail, and the
  // terminating literals-only sequence, which by construction lands in
  // the margin).
  const std::uint8_t *const InFast = Size > 48 ? End - 48 : P;
  std::uint8_t *const OutFast =
      Out.size() > 48 ? OEnd - 48 : OBase;

  while (P < End) {
    if (P < InFast && O < OutFast) {
      std::uint8_t Token = *P;
      std::size_t Lits = Token >> 4;
      std::size_t Nib = Token & 0x0F;
      if (Lits < 15 && Nib < 15) {
        ++P;
        std::memcpy(O, P, 8);
        std::memcpy(O + 8, P + 8, 8);
        O += Lits;
        P += Lits;
        std::size_t Offset = P[0] | (std::size_t(P[1]) << 8);
        P += 2;
        std::size_t MatchLen = Nib + LzMinMatch; // <= 18
        if (Offset == 0 || Offset > static_cast<std::size_t>(O - OBase))
          return fail();
        const std::uint8_t *M = O - Offset;
        if (Offset >= 8) {
          std::memcpy(O, M, 8);
          std::memcpy(O + 8, M + 8, 8);
          if (MatchLen > 16)
            std::memcpy(O + 16, M + 16, 8);
        } else if (Offset == 1) {
          std::memset(O, *M, MatchLen);
        } else {
          // Short-period overlap (offset 2..7, ~10% of matches in the
          // chunk payloads): replicate the first 8 bytes by hand, then
          // nudge the source so it trails the cursor by >= 8 and the
          // wide strides above become legal (LZ4's table trick).
          static constexpr std::size_t Inc[8] = {0, 1, 2, 1, 0, 4, 4, 4};
          static constexpr std::ptrdiff_t Dec[8] = {0, 0, 0, -1, -4, 1, 2, 3};
          O[0] = M[0];
          O[1] = M[1];
          O[2] = M[2];
          O[3] = M[3];
          M += Inc[Offset];
          std::memcpy(O + 4, M, 4);
          M -= Dec[Offset];
          std::memcpy(O + 8, M, 8);
          if (MatchLen > 16)
            std::memcpy(O + 16, M + 8, 8);
        }
        O += MatchLen;
        continue;
      }
    }
    std::uint8_t Token = *P++;
    std::size_t Lits = Token >> 4;
    if (Lits == 15 && !readExtension(15, Lits))
      return fail();
    if (static_cast<std::size_t>(End - P) < Lits ||
        static_cast<std::size_t>(OEnd - O) < Lits)
      return fail();
    if (static_cast<std::size_t>(End - P) - Lits >= 7 &&
        static_cast<std::size_t>(OEnd - O) - Lits >= 7) {
      // Wild copy (see the match copy below): both sides have slack
      // for the rounded-up strides, which beats a short memcpy call
      // for the typical few-byte literal run.
      for (std::size_t I = 0; I < Lits; I += 8)
        std::memcpy(O + I, P + I, 8);
    } else {
      std::memcpy(O, P, Lits);
    }
    O += Lits;
    P += Lits;

    std::size_t MatchNibble = Token & 0x0F;
    if (P == End) {
      // Only the final literals-only sequence may end the stream, and
      // only exactly at RawLen.
      if (MatchNibble != 0 || O != OEnd)
        return fail();
      return true;
    }
    if (static_cast<std::size_t>(End - P) < 2)
      return fail();
    std::size_t Offset = P[0] | (std::size_t(P[1]) << 8);
    P += 2;
    std::size_t MatchLen = MatchNibble + LzMinMatch;
    if (MatchNibble == 15 && !readExtension(MatchLen, MatchLen))
      return fail();
    if (Offset == 0 || Offset > static_cast<std::size_t>(O - OBase) ||
        static_cast<std::size_t>(OEnd - O) < MatchLen)
      return fail();
    const std::uint8_t *M = O - Offset;
    if (Offset == 1) {
      std::memset(O, *M, MatchLen); // the RLE case
    } else if (Offset >= 8) {
      if (static_cast<std::size_t>(OEnd - O) - MatchLen >= 7) {
        // Wild copy: rounded-up 8-byte strides may scribble up to 7
        // bytes past the match end -- still inside Out (the guard
        // reserves the slack), and the next sequence overwrites them.
        for (std::size_t I = 0; I < MatchLen; I += 8)
          std::memcpy(O + I, M + I, 8);
      } else {
        // Too close to the end of the block for slack: exact strides
        // with a byte tail.
        std::size_t I = 0;
        for (; I + 8 <= MatchLen; I += 8)
          std::memcpy(O + I, M + I, 8);
        for (; I != MatchLen; ++I)
          O[I] = M[I];
      }
    } else {
      // Overlapping short-period copy: must replicate byte by byte.
      for (std::size_t I = 0; I != MatchLen; ++I)
        O[I] = M[I];
    }
    O += MatchLen;
  }
  // Ran out of input without a terminating literals-only sequence.
  return fail();
}
