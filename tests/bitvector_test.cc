#include "bitmap/bitvector.h"

#include <bit>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "bitmap/bitvector_kernels.h"
#include "bitmap/popcount.h"

namespace bix {
namespace {

TEST(BitvectorTest, DefaultIsEmpty) {
  Bitvector bv;
  EXPECT_EQ(bv.size(), 0u);
  EXPECT_TRUE(bv.empty());
  EXPECT_TRUE(bv.None());
  EXPECT_TRUE(bv.All());
}

TEST(BitvectorTest, ZerosAndOnes) {
  Bitvector zeros = Bitvector::Zeros(100);
  EXPECT_EQ(zeros.Count(), 0u);
  EXPECT_TRUE(zeros.None());
  EXPECT_FALSE(zeros.All());

  Bitvector ones = Bitvector::Ones(100);
  EXPECT_EQ(ones.Count(), 100u);
  EXPECT_TRUE(ones.All());
  EXPECT_TRUE(ones.Any());
}

TEST(BitvectorTest, SetAndGet) {
  Bitvector bv(130);
  bv.Set(0);
  bv.Set(63);
  bv.Set(64);
  bv.Set(129);
  EXPECT_TRUE(bv.Get(0));
  EXPECT_TRUE(bv.Get(63));
  EXPECT_TRUE(bv.Get(64));
  EXPECT_TRUE(bv.Get(129));
  EXPECT_FALSE(bv.Get(1));
  EXPECT_FALSE(bv.Get(128));
  EXPECT_EQ(bv.Count(), 4u);
  bv.Set(63, false);
  EXPECT_FALSE(bv.Get(63));
  EXPECT_EQ(bv.Count(), 3u);
}

TEST(BitvectorTest, NotClearsTailBits) {
  // NOT on a non-word-multiple length must not leak set bits past size().
  Bitvector bv(70);
  bv.NotInPlace();
  EXPECT_EQ(bv.Count(), 70u);
  EXPECT_TRUE(bv.All());
  bv.NotInPlace();
  EXPECT_EQ(bv.Count(), 0u);
}

TEST(BitvectorTest, LogicalOpsMatchScalarSemantics) {
  std::mt19937_64 rng(7);
  const size_t n = 257;
  std::vector<bool> a_ref(n), b_ref(n);
  Bitvector a(n), b(n);
  for (size_t i = 0; i < n; ++i) {
    a_ref[i] = rng() & 1;
    b_ref[i] = rng() & 1;
    if (a_ref[i]) a.Set(i);
    if (b_ref[i]) b.Set(i);
  }
  Bitvector and_v = a & b;
  Bitvector or_v = a | b;
  Bitvector xor_v = a ^ b;
  Bitvector not_v = ~a;
  Bitvector andnot_v = a;
  andnot_v.AndNotWith(b);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(and_v.Get(i), a_ref[i] && b_ref[i]) << i;
    EXPECT_EQ(or_v.Get(i), a_ref[i] || b_ref[i]) << i;
    EXPECT_EQ(xor_v.Get(i), a_ref[i] != b_ref[i]) << i;
    EXPECT_EQ(not_v.Get(i), !a_ref[i]) << i;
    EXPECT_EQ(andnot_v.Get(i), a_ref[i] && !b_ref[i]) << i;
  }
}

TEST(BitvectorTest, NextSetBit) {
  Bitvector bv(200);
  bv.Set(5);
  bv.Set(64);
  bv.Set(199);
  EXPECT_EQ(bv.NextSetBit(0), 5u);
  EXPECT_EQ(bv.NextSetBit(5), 5u);
  EXPECT_EQ(bv.NextSetBit(6), 64u);
  EXPECT_EQ(bv.NextSetBit(65), 199u);
  EXPECT_EQ(bv.NextSetBit(200), 200u);
  EXPECT_EQ(Bitvector(64).NextSetBit(0), 64u);
}

TEST(BitvectorTest, ForEachSetBitAndIndices) {
  Bitvector bv(150);
  std::vector<uint32_t> expected = {0, 1, 63, 64, 65, 127, 149};
  for (uint32_t i : expected) bv.Set(i);
  EXPECT_EQ(bv.ToSetBitIndices(), expected);
  std::vector<uint32_t> seen;
  bv.ForEachSetBit([&](size_t i) { seen.push_back(static_cast<uint32_t>(i)); });
  EXPECT_EQ(seen, expected);
}

TEST(BitvectorTest, BytesRoundTrip) {
  std::mt19937_64 rng(11);
  for (size_t n : {0u, 1u, 7u, 8u, 9u, 63u, 64u, 65u, 1000u}) {
    Bitvector bv(n);
    for (size_t i = 0; i < n; ++i) {
      if (rng() & 1) bv.Set(i);
    }
    std::vector<uint8_t> bytes = bv.ToBytes();
    EXPECT_EQ(bytes.size(), (n + 7) / 8);
    Bitvector back = Bitvector::FromBytes(bytes, n);
    EXPECT_EQ(back, bv) << "n=" << n;
  }
}

// ToBytes/FromBytes are word copies; pin the byte image to the bit layout
// (bit 8i + j is bit j of byte i) so the copy cannot drift from it.
TEST(BitvectorTest, ByteImageMatchesBitLayoutAndRoundTrips) {
  std::mt19937_64 rng(12);
  for (size_t n : {0u, 1u, 7u, 8u, 63u, 64u, 65u, 1000u}) {
    Bitvector bv(n);
    for (size_t i = 0; i < n; ++i) {
      if (rng() & 1) bv.Set(i);
    }
    std::vector<uint8_t> bytes = bv.ToBytes();
    ASSERT_EQ(bytes.size(), (n + 7) / 8) << "n=" << n;
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ((bytes[i / 8] >> (i % 8)) & 1, bv.Get(i) ? 1 : 0)
          << "n=" << n << " bit=" << i;
    }
    if (n % 8 != 0) {
      EXPECT_EQ(bytes.back() >> (n % 8), 0) << "n=" << n;  // padding clear
    }
    EXPECT_EQ(Bitvector::FromBytes(bytes, n), bv) << "n=" << n;
  }
}

TEST(BitvectorTest, FromBytesClearsBitsPastNumBits) {
  for (size_t n : {0u, 1u, 7u, 8u, 63u, 64u, 65u, 1000u}) {
    // All-ones input, one byte longer than needed: only n bits survive.
    std::vector<uint8_t> bytes((n + 7) / 8 + 1, 0xFF);
    Bitvector bv = Bitvector::FromBytes(bytes, n);
    EXPECT_EQ(bv.size(), n);
    EXPECT_EQ(bv.Count(), n) << "n=" << n;
    EXPECT_EQ(bv, Bitvector::Ones(n)) << "n=" << n;
    EXPECT_EQ(bv.ToBytes(), Bitvector::Ones(n).ToBytes()) << "n=" << n;
  }
}

TEST(PopcountTest, MatchesStdPopcountOnEdgeWords) {
  std::vector<uint64_t> words = {0,
                                 ~uint64_t{0},
                                 0x7FFFFFFFu,  // a full 31-bit WAH literal
                                 0x80000000u,
                                 0xFFFFFFFFu,
                                 0x5555555555555555ull,
                                 0xAAAAAAAAAAAAAAAAull,
                                 0x0101010101010101ull,
                                 0x8000000000000001ull};
  for (int b = 0; b < 64; ++b) {
    words.push_back(uint64_t{1} << b);
    words.push_back(~(uint64_t{1} << b));
    words.push_back((uint64_t{1} << b) - 1);
  }
  std::mt19937_64 rng(13);
  for (int i = 0; i < 1000; ++i) words.push_back(rng());
  for (uint64_t w : words) {
    EXPECT_EQ(Popcount64(w), static_cast<size_t>(std::popcount(w)))
        << std::hex << w;
  }
  static_assert(Popcount64(~uint64_t{0}) == 64);
  static_assert(Popcount64(0x7FFFFFFFu) == 31);
}

TEST(BitvectorTest, EqualityIncludesLength) {
  Bitvector a(10), b(11);
  EXPECT_FALSE(a == b);
  Bitvector c(10);
  EXPECT_TRUE(a == c);
  c.Set(3);
  EXPECT_FALSE(a == c);
}

TEST(BitvectorTest, CountAcrossManyWords) {
  Bitvector bv(64 * 10);
  size_t expected = 0;
  for (size_t i = 0; i < bv.size(); i += 3) {
    bv.Set(i);
    ++expected;
  }
  EXPECT_EQ(bv.Count(), expected);
}

TEST(BitvectorTest, ReserveDoesNotChangeContentsOrLength) {
  Bitvector bv;
  bv.Reserve(1000);
  EXPECT_EQ(bv.size(), 0u);
  for (size_t i = 0; i < 130; ++i) bv.PushBack(i % 3 == 0);
  EXPECT_EQ(bv.size(), 130u);
  for (size_t i = 0; i < 130; ++i) {
    EXPECT_EQ(bv.Get(i), i % 3 == 0) << i;
  }
  // Reserving less than the current size is a no-op.
  bv.Reserve(10);
  EXPECT_EQ(bv.size(), 130u);
}

TEST(BitvectorTest, PushBackMatchesResizePlusSet) {
  std::mt19937_64 rng(404);
  Bitvector pushed;
  Bitvector preset(777);
  for (size_t i = 0; i < 777; ++i) {
    bool bit = rng() % 2 == 0;
    pushed.PushBack(bit);
    if (bit) preset.Set(i);
  }
  EXPECT_EQ(pushed, preset);
}

Bitvector RandomBits(size_t bits, uint64_t seed) {
  std::mt19937_64 rng(seed);
  Bitvector out(bits);
  for (size_t i = 0; i < bits; ++i) {
    if (rng() % 2 == 0) out.Set(i);
  }
  return out;
}

// Odd lengths around word boundaries; k = 1..6 operands.
TEST(BitvectorKernelsTest, FusedFoldsMatchPairwiseFolds) {
  for (size_t bits : {size_t{0}, size_t{1}, size_t{63}, size_t{64},
                      size_t{65}, size_t{1000}, size_t{70000}}) {
    std::vector<Bitvector> operands;
    for (int k = 1; k <= 6; ++k) {
      operands.push_back(RandomBits(bits, 31 * bits + static_cast<size_t>(k)));
      Bitvector or_fold = operands[0];
      Bitvector and_fold = operands[0];
      for (size_t i = 1; i < operands.size(); ++i) {
        or_fold.OrWith(operands[i]);
        and_fold.AndWith(operands[i]);
      }
      std::vector<const Bitvector*> ptrs;
      for (const Bitvector& b : operands) ptrs.push_back(&b);
      EXPECT_EQ(Bitvector::OrOfMany(ptrs), or_fold) << bits << " k=" << k;
      EXPECT_EQ(Bitvector::AndOfMany(ptrs), and_fold) << bits << " k=" << k;
      // The counting forms agree with the materialized folds.
      EXPECT_EQ(Bitvector::CountOrOfMany(ptrs), or_fold.Count())
          << bits << " k=" << k;
      EXPECT_EQ(Bitvector::CountAndOfMany(ptrs), and_fold.Count())
          << bits << " k=" << k;
      // The value-span conveniences agree with the pointer forms.
      EXPECT_EQ(OrOfMany(operands), or_fold) << bits << " k=" << k;
      EXPECT_EQ(AndOfMany(operands), and_fold) << bits << " k=" << k;
    }
  }
}

TEST(BitvectorKernelsTest, CountingKernelsMatchMaterializedOps) {
  for (size_t bits : {size_t{0}, size_t{1}, size_t{64}, size_t{65},
                      size_t{1000}, size_t{12345}}) {
    Bitvector a = RandomBits(bits, 7 + bits);
    Bitvector b = RandomBits(bits, 11 + bits);
    EXPECT_EQ(Bitvector::CountAnd(a, b), (a & b).Count()) << bits;
    EXPECT_EQ(Bitvector::CountOr(a, b), (a | b).Count()) << bits;
    Bitvector andnot = a;
    andnot.AndNotWith(b);
    EXPECT_EQ(Bitvector::AndNotCount(a, b), andnot.Count()) << bits;
  }
}

}  // namespace
}  // namespace bix
