//===- tests/test_lz.cpp - LZ block codec round-trip + fuzz ---------------===//
//
// Part of jdrag (PLDI 2001 "Heap Profiling for Space-Efficient Java").
//
//===----------------------------------------------------------------------===//
//
// The codec guards the v6 event-stream pipeline, so its contract is
// tested adversarially: every round trip must be bit-exact, an
// incompressible input must come back as the empty "store raw" signal,
// and the bounded decoder must fail cleanly -- never crash, never
// over-read, never over-write -- on truncated, hostile, or lying input.
//
//===----------------------------------------------------------------------===//

#include "support/Lz.h"

#include <cstring>
#include <gtest/gtest.h>
#include <thread>
#include <vector>

using namespace jdrag::support;

namespace {

/// Deterministic xorshift64* PRNG so failures reproduce exactly.
struct Rng {
  std::uint64_t S;
  explicit Rng(std::uint64_t Seed) : S(Seed ? Seed : 1) {}
  std::uint64_t next() {
    S ^= S >> 12;
    S ^= S << 25;
    S ^= S >> 27;
    return S * 0x2545F4914F6CDD1DULL;
  }
  std::uint8_t byte() { return static_cast<std::uint8_t>(next()); }
};

/// Round-trips Data through the codec. An empty compress() result is
/// the legal "incompressible, store raw" outcome; a non-empty one must
/// be strictly smaller and decode bit-identically.
void roundTrip(const std::vector<std::uint8_t> &Data) {
  std::vector<std::uint8_t> Packed = lzCompress(Data.data(), Data.size());
  if (Packed.empty())
    return; // stored raw: nothing to decode
  ASSERT_LT(Packed.size(), Data.size())
      << "a non-empty compressed block must be strictly smaller";
  std::vector<std::uint8_t> Out;
  ASSERT_TRUE(lzDecompress(Packed.data(), Packed.size(), Out, Data.size()));
  ASSERT_EQ(Out.size(), Data.size());
  EXPECT_EQ(0, std::memcmp(Out.data(), Data.data(), Data.size()));
}

TEST(LzCodec, EmptyInputIsIncompressible) {
  EXPECT_TRUE(lzCompress(nullptr, 0).empty());
}

TEST(LzCodec, OneByteIsIncompressible) {
  std::uint8_t B = 0x42;
  EXPECT_TRUE(lzCompress(&B, 1).empty());
}

TEST(LzCodec, AllZeroCompressesHard) {
  std::vector<std::uint8_t> Data(64 * 1024, 0);
  std::vector<std::uint8_t> Packed = lzCompress(Data.data(), Data.size());
  ASSERT_FALSE(Packed.empty()) << "64 KiB of zeros must compress";
  EXPECT_LT(Packed.size(), Data.size() / 100);
  std::vector<std::uint8_t> Out;
  ASSERT_TRUE(lzDecompress(Packed.data(), Packed.size(), Out, Data.size()));
  EXPECT_EQ(Out, Data);
}

TEST(LzCodec, RandomBytesStoredRaw) {
  Rng R(0xC0FFEE);
  std::vector<std::uint8_t> Data(32 * 1024);
  for (auto &B : Data)
    B = R.byte();
  EXPECT_TRUE(lzCompress(Data.data(), Data.size()).empty())
      << "random bytes must take the stored-raw passthrough";
}

TEST(LzCodec, PathologicalRlePatterns) {
  // Short periods exercise overlapping matches (offset < match length).
  for (std::size_t Period : {1u, 2u, 3u, 4u, 5u, 7u, 13u}) {
    std::vector<std::uint8_t> Data(40000);
    for (std::size_t I = 0; I != Data.size(); ++I)
      Data[I] = static_cast<std::uint8_t>((I % Period) * 37 + 1);
    roundTrip(Data);
  }
}

TEST(LzCodec, RepeatsBeyondTheWindow) {
  // The same 1 KiB block repeated at a 96 KiB stride: every repeat is
  // farther back than the 64 KiB offset range, so the matcher must not
  // emit out-of-window offsets -- but intra-block repeats still help.
  Rng R(0xBADF00D);
  std::vector<std::uint8_t> Block(1024);
  for (auto &B : Block)
    B = R.byte() & 0x0F; // compressible alphabet
  std::vector<std::uint8_t> Data;
  while (Data.size() < 3 * 96 * 1024) {
    Data.insert(Data.end(), Block.begin(), Block.end());
    for (std::size_t I = 0; I != 95 * 1024; ++I)
      Data.push_back(static_cast<std::uint8_t>(I & 0x7));
  }
  roundTrip(Data);
}

TEST(LzCodec, RandomizedRoundTripSweep) {
  // Mixed-entropy buffers across sizes: runs, repeated phrases, noise.
  Rng R(0x5EED);
  for (std::size_t Size :
       {2u, 3u, 4u, 5u, 15u, 16u, 17u, 255u, 256u, 4096u, 65535u, 65536u,
        65537u, 200000u}) {
    std::vector<std::uint8_t> Data;
    Data.reserve(Size);
    while (Data.size() < Size) {
      switch (R.next() % 3) {
      case 0: { // literal noise
        std::size_t N = 1 + R.next() % 64;
        for (std::size_t I = 0; I != N && Data.size() < Size; ++I)
          Data.push_back(R.byte());
        break;
      }
      case 1: { // run
        std::uint8_t B = R.byte();
        std::size_t N = 1 + R.next() % 512;
        for (std::size_t I = 0; I != N && Data.size() < Size; ++I)
          Data.push_back(B);
        break;
      }
      default: { // phrase copy from earlier in the buffer
        if (Data.empty()) {
          Data.push_back(R.byte());
          break;
        }
        std::size_t Off = 1 + R.next() % Data.size();
        std::size_t N = 1 + R.next() % 256;
        for (std::size_t I = 0; I != N && Data.size() < Size; ++I)
          Data.push_back(Data[Data.size() - Off]);
        break;
      }
      }
    }
    roundTrip(Data);
  }
}

//===----------------------------------------------------------------------===//
// Output depends on the input stream alone
//===----------------------------------------------------------------------===//

/// Runs \p Fn on a thread that has compressed nothing before.
template <typename FnT> auto onFreshThread(FnT Fn) {
  decltype(Fn()) Out;
  std::thread([&] { Out = Fn(); }).join();
  return Out;
}

/// A block pair where remembered match positions would change B's
/// encoding. B is noise with a 5-byte repeat of B[C, C+5) at offset
/// 3000, then a zero run that makes it compressible. Deep in the noise
/// the matcher probes only every few positions, so B never indexes
/// position C and, compressed alone, emits the repeat as literals. A is
/// a zero run up to C followed by B[C, C+64): compressing it indexes
/// position C under the repeat's hash, and a matcher that kept that
/// entry would find the repeat in B as a match.
struct HistoryPair {
  std::vector<std::uint8_t> A, B;
};

HistoryPair historyPair(const std::vector<std::uint8_t> &Noise,
                        std::size_t C) {
  HistoryPair P;
  P.B.assign(Noise.begin(), Noise.begin() + 3000);
  P.B.insert(P.B.end(), P.B.begin() + C, P.B.begin() + C + 5);
  P.B.insert(P.B.end(), Noise.begin() + 3000, Noise.end());
  P.B.resize(P.B.size() + 16384, 0);
  P.A.assign(C, 0);
  P.A.insert(P.A.end(), P.B.begin() + C, P.B.begin() + C + 64);
  return P;
}

std::vector<std::uint8_t> noise(std::uint64_t Seed, std::size_t N) {
  Rng R(Seed);
  std::vector<std::uint8_t> Out(N);
  for (std::uint8_t &B : Out)
    B = R.byte();
  return Out;
}

TEST(LzCodec, OneShotOutputIgnoresThreadHistory) {
  // B compressed after A on one thread == B compressed on a fresh
  // thread: the matcher's tables must not carry A's positions into B.
  std::vector<std::uint8_t> Noise = noise(0xB10C, 4096);
  for (std::size_t C = 2000; C != 2064; ++C) {
    HistoryPair P = historyPair(Noise, C);
    std::vector<std::uint8_t> Fresh =
        onFreshThread([&] { return lzCompress(P.B.data(), P.B.size()); });
    ASSERT_FALSE(Fresh.empty());
    std::vector<std::uint8_t> After = onFreshThread([&] {
      lzCompress(P.A.data(), P.A.size());
      return lzCompress(P.B.data(), P.B.size());
    });
    EXPECT_EQ(After, Fresh) << "C = " << C;
  }
}

TEST(LzCodec, EncoderStreamsAreIndependent) {
  // Two streams interleaved on one thread encode exactly as each does
  // alone on a fresh thread, and a stream's first block is the
  // one-shot encoding.
  std::vector<std::uint8_t> Noise = noise(0x57AE, 4096);
  for (std::size_t C = 2000; C != 2016; ++C) {
    HistoryPair P = historyPair(Noise, C);
    std::vector<std::uint8_t> Alone = onFreshThread([&] {
      LzEncoder E;
      E.compress(P.B.data(), P.B.size());
      return E.compress(P.B.data(), P.B.size());
    });
    LzEncoder E1, E2;
    E1.compress(P.A.data(), P.A.size());
    EXPECT_EQ(E2.compress(P.B.data(), P.B.size()),
              lzCompress(P.B.data(), P.B.size()));
    E1.compress(P.A.data(), P.A.size());
    EXPECT_EQ(E2.compress(P.B.data(), P.B.size()), Alone) << "C = " << C;
  }
}

//===----------------------------------------------------------------------===//
// Adversarial decoder inputs
//===----------------------------------------------------------------------===//

/// Every hostile input must fail cleanly: false returned, Out cleared.
void expectReject(const std::vector<std::uint8_t> &Packed,
                  std::size_t MaxRawLen) {
  std::vector<std::uint8_t> Out{0xAA}; // pre-dirtied: must come back empty
  EXPECT_FALSE(lzDecompress(Packed.data(), Packed.size(), Out, MaxRawLen));
  EXPECT_TRUE(Out.empty());
}

TEST(LzCodec, DecoderRejectsEmptyInput) { expectReject({}, 1024); }

TEST(LzCodec, DecoderRejectsDeclaredLengthOverCap) {
  // RawLen = 2^20 against a 1024-byte cap: rejected before any token.
  expectReject({0x80, 0x80, 0x40}, 1024);
}

TEST(LzCodec, DecoderRejectsUnterminatedRawLenVarint) {
  // Eleven continuation bytes: a u64 uvarint cannot be that long.
  expectReject(std::vector<std::uint8_t>(11, 0x80), 1 << 20);
}

TEST(LzCodec, DecoderRejectsTruncatedTokens) {
  // Truncate a valid block at every possible byte boundary; each prefix
  // must be rejected (the full block itself must still decode).
  std::vector<std::uint8_t> Data(2048);
  for (std::size_t I = 0; I != Data.size(); ++I)
    Data[I] = static_cast<std::uint8_t>(I / 7);
  std::vector<std::uint8_t> Packed = lzCompress(Data.data(), Data.size());
  ASSERT_FALSE(Packed.empty());
  std::vector<std::uint8_t> Out;
  ASSERT_TRUE(lzDecompress(Packed.data(), Packed.size(), Out, Data.size()));
  for (std::size_t Cut = 0; Cut != Packed.size(); ++Cut) {
    std::vector<std::uint8_t> Trunc(Packed.begin(), Packed.begin() + Cut);
    expectReject(Trunc, Data.size());
  }
}

TEST(LzCodec, DecoderRejectsOutOfRangeMatchOffset) {
  // RawLen 8, token: 4 literals + match len 4 at offset 9 -- one byte
  // beyond the output produced so far.
  expectReject({8, 0x40, 'a', 'b', 'c', 'd', 9, 0}, 64);
}

TEST(LzCodec, DecoderRejectsZeroMatchOffset) {
  expectReject({8, 0x40, 'a', 'b', 'c', 'd', 0, 0}, 64);
}

TEST(LzCodec, DecoderRejectsRawLenLies) {
  // A valid token stream whose literals-only tail ends before the
  // declared RawLen (lie high), and one that overruns it (lie low).
  std::vector<std::uint8_t> Data(64, 0x11);
  std::vector<std::uint8_t> Packed = lzCompress(Data.data(), Data.size());
  ASSERT_FALSE(Packed.empty());
  ASSERT_EQ(Packed[0], 64u) << "64 encodes as a single uvarint byte";
  std::vector<std::uint8_t> LieHigh = Packed;
  LieHigh[0] = 65; // one more byte than the tokens produce
  expectReject(LieHigh, 1024);
  std::vector<std::uint8_t> LieLow = Packed;
  LieLow[0] = 63; // tokens now overrun the declared length
  expectReject(LieLow, 1024);
}

TEST(LzCodec, DecoderRejectsHostileExtensionRuns) {
  // Token demanding a literal run extended by endless 0xFF bytes: the
  // run length is capped against RawLen, so this must reject without
  // scanning forever or allocating the moon.
  std::vector<std::uint8_t> Packed{16, 0xF0};
  Packed.insert(Packed.end(), 4096, 0xFF);
  expectReject(Packed, 1 << 20);
}

TEST(LzCodec, DecoderFuzzNeverCrashes) {
  // Random garbage and mutated valid blocks: any outcome is fine except
  // a crash, an over-read (ASan would flag it), or a success whose
  // output violates the declared bounds.
  Rng R(0xD1CE);
  std::vector<std::uint8_t> Data(4096);
  for (std::size_t I = 0; I != Data.size(); ++I)
    Data[I] = static_cast<std::uint8_t>(I / 5);
  std::vector<std::uint8_t> Valid = lzCompress(Data.data(), Data.size());
  ASSERT_FALSE(Valid.empty());
  for (int Iter = 0; Iter != 2000; ++Iter) {
    std::vector<std::uint8_t> Buf;
    if (Iter % 2) {
      Buf.resize(1 + R.next() % 512);
      for (auto &B : Buf)
        B = R.byte();
    } else {
      Buf = Valid;
      std::size_t Flips = 1 + R.next() % 8;
      for (std::size_t I = 0; I != Flips; ++I)
        Buf[R.next() % Buf.size()] ^= static_cast<std::uint8_t>(
            1u << (R.next() % 8));
    }
    std::vector<std::uint8_t> Out;
    if (lzDecompress(Buf.data(), Buf.size(), Out, Data.size())) {
      EXPECT_LE(Out.size(), Data.size());
    }
  }
}

} // namespace
