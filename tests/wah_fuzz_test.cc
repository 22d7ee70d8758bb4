// Fuzz-style round-trip harness for the WAH codec and its run-at-a-time
// kernels.  Bit patterns are built from adversarial run segments — fills
// and literal noise with lengths chosen around the 31-bit group and 32/64
// word boundaries — then pushed through compress -> op -> decompress and
// checked against the dense reference, including the counting forms
// (Count, AndCount, CountOrOfMany/CountAndOfMany) and the canonical-
// encoding invariant (equal bit contents always have equal code words).
// The decoder-parity battery feeds valid, truncated, bit-flipped and forged
// storage payloads to the one-pass dense decoder and to the two-step
// reference it replaced, which must agree on every one.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <random>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bitmap/bitvector.h"
#include "bitmap/wah_bitvector.h"
#include "bitmap/wah_kernels.h"
#include "compress/wah_codec.h"

namespace bix {
namespace {

// Lengths that straddle the group size (31), the code-word size (32), and
// the dense backing-word size (64).
const size_t kEdgeLengths[] = {0,  1,  2,  29, 30, 31, 32, 33,
                               61, 62, 63, 64, 65, 92, 93, 124};

enum class Segment { kZeros, kOnes, kNoise, kAlternating };

Bitvector BuildPattern(std::mt19937_64& rng, size_t target_bits) {
  Bitvector out(target_bits);
  size_t bit = 0;
  while (bit < target_bits) {
    size_t len = rng() % 3 == 0 ? 1 + rng() % 200
                                : kEdgeLengths[rng() % 16];
    len = std::min(len, target_bits - bit);
    if (len == 0) len = 1;
    switch (static_cast<Segment>(rng() % 4)) {
      case Segment::kZeros:
        break;
      case Segment::kOnes:
        for (size_t i = 0; i < len; ++i) out.Set(bit + i);
        break;
      case Segment::kNoise:
        for (size_t i = 0; i < len; ++i) {
          if (rng() & 1) out.Set(bit + i);
        }
        break;
      case Segment::kAlternating:
        // Alternating full groups: ones-fill, zeros-fill, ones-fill, ...
        for (size_t i = 0; i < len; ++i) {
          if (((bit + i) / 31) % 2 == 0) out.Set(bit + i);
        }
        break;
    }
    bit += len;
  }
  return out;
}

// Every encoding the codec emits must be canonical: re-compressing the
// decompressed bits reproduces it exactly.
void ExpectCanonical(const WahBitvector& w, const std::string& what) {
  EXPECT_TRUE(WahBitvector::FromBitvector(w.ToBitvector()) == w)
      << what << ": non-canonical encoding (size=" << w.size() << ")";
}

TEST(WahFuzzTest, RoundTrip) {
  std::mt19937_64 rng(20260801);
  for (size_t len : kEdgeLengths) {
    for (int rep = 0; rep < 8; ++rep) {
      Bitvector dense = BuildPattern(rng, len);
      WahBitvector wah = WahBitvector::FromBitvector(dense);
      EXPECT_TRUE(wah.ToBitvector() == dense) << "len=" << len;
      EXPECT_EQ(wah.Count(), dense.Count()) << "len=" << len;
      ExpectCanonical(wah, "round-trip len=" + std::to_string(len));
    }
  }
  for (int rep = 0; rep < 200; ++rep) {
    size_t len = rng() % 2048;
    Bitvector dense = BuildPattern(rng, len);
    WahBitvector wah = WahBitvector::FromBitvector(dense);
    ASSERT_TRUE(wah.ToBitvector() == dense) << "len=" << len;
    ASSERT_EQ(wah.Count(), dense.Count()) << "len=" << len;
    ExpectCanonical(wah, "round-trip len=" + std::to_string(len));
  }
}

TEST(WahFuzzTest, FillFactoryMatchesDense) {
  for (size_t len : kEdgeLengths) {
    for (bool value : {false, true}) {
      WahBitvector fill = WahBitvector::Fill(len, value);
      Bitvector dense(len, value);
      EXPECT_TRUE(fill.ToBitvector() == dense)
          << "len=" << len << " value=" << value;
      EXPECT_EQ(fill.Count(), value ? len : 0);
      ExpectCanonical(fill, "Fill len=" + std::to_string(len));
    }
  }
}

TEST(WahFuzzTest, BinaryOpsMatchDenseReference) {
  std::mt19937_64 rng(20260802);
  for (int rep = 0; rep < 300; ++rep) {
    size_t len = rep < 64 ? kEdgeLengths[rep % 16] : rng() % 1024;
    Bitvector da = BuildPattern(rng, len);
    Bitvector db = BuildPattern(rng, len);
    WahBitvector a = WahBitvector::FromBitvector(da);
    WahBitvector b = WahBitvector::FromBitvector(db);
    const std::string ctx = "len=" + std::to_string(len);

    Bitvector ref_and = da;
    ref_and.AndWith(db);
    Bitvector ref_or = da;
    ref_or.OrWith(db);
    Bitvector ref_xor = da;
    ref_xor.XorWith(db);
    Bitvector ref_not = da;
    ref_not.NotInPlace();
    Bitvector ref_andnot = da;
    {
      Bitvector nb = db;
      nb.NotInPlace();
      ref_andnot.AndWith(nb);
    }

    WahBitvector got_and = WahBitvector::And(a, b);
    WahBitvector got_or = WahBitvector::Or(a, b);
    WahBitvector got_xor = WahBitvector::Xor(a, b);
    WahBitvector got_andnot = WahBitvector::AndNot(a, b);
    WahBitvector got_not = a.Not();

    ASSERT_TRUE(got_and.ToBitvector() == ref_and) << ctx;
    ASSERT_TRUE(got_or.ToBitvector() == ref_or) << ctx;
    ASSERT_TRUE(got_xor.ToBitvector() == ref_xor) << ctx;
    ASSERT_TRUE(got_andnot.ToBitvector() == ref_andnot) << ctx;
    ASSERT_TRUE(got_not.ToBitvector() == ref_not) << ctx;
    ExpectCanonical(got_and, "And " + ctx);
    ExpectCanonical(got_or, "Or " + ctx);
    ExpectCanonical(got_xor, "Xor " + ctx);
    ExpectCanonical(got_andnot, "AndNot " + ctx);
    ExpectCanonical(got_not, "Not " + ctx);

    // Counting forms never materialize and must agree with the dense
    // popcounts, including the partial tail group.
    ASSERT_EQ(WahBitvector::AndCount(a, b), ref_and.Count()) << ctx;
  }
}

// AndCount with a ones-fill covering the final (partial) group: the fill x
// fill fast path must not count bits past num_bits.
TEST(WahFuzzTest, AndCountTailCases) {
  for (size_t len : {31u, 32u, 33u, 62u, 63u, 64u, 65u}) {
    Bitvector all(len, true);
    WahBitvector a = WahBitvector::FromBitvector(all);
    EXPECT_EQ(WahBitvector::AndCount(a, a), len) << "len=" << len;

    Bitvector tail_only(len);
    for (size_t i = (len / 31) * 31; i < len; ++i) tail_only.Set(i);
    WahBitvector t = WahBitvector::FromBitvector(tail_only);
    EXPECT_EQ(WahBitvector::AndCount(a, t), tail_only.Count())
        << "len=" << len;
    EXPECT_EQ(WahBitvector::AndCount(t, t), tail_only.Count())
        << "len=" << len;
  }
}

TEST(WahFuzzTest, KAryKernelsMatchDenseFold) {
  std::mt19937_64 rng(20260803);
  for (int rep = 0; rep < 120; ++rep) {
    size_t len = rep < 32 ? kEdgeLengths[rep % 16] : rng() % 700;
    size_t k = 1 + rng() % 6;
    std::vector<Bitvector> dense;
    std::vector<WahBitvector> wah;
    for (size_t i = 0; i < k; ++i) {
      dense.push_back(BuildPattern(rng, len));
      wah.push_back(WahBitvector::FromBitvector(dense.back()));
    }
    Bitvector ref_or(len);
    Bitvector ref_and(len, true);
    for (const Bitvector& d : dense) {
      ref_or.OrWith(d);
      ref_and.AndWith(d);
    }
    const std::string ctx =
        "len=" + std::to_string(len) + " k=" + std::to_string(k);

    WahBitvector got_or = OrOfMany(wah);
    WahBitvector got_and = AndOfMany(wah);
    ASSERT_TRUE(got_or.ToBitvector() == ref_or) << ctx;
    ASSERT_TRUE(got_and.ToBitvector() == ref_and) << ctx;
    ExpectCanonical(got_or, "OrOfMany " + ctx);
    ExpectCanonical(got_and, "AndOfMany " + ctx);
    ASSERT_EQ(CountOrOfMany(wah), ref_or.Count()) << ctx;
    ASSERT_EQ(CountAndOfMany(wah), ref_and.Count()) << ctx;
  }
}

// Fills straddling the 2^30-group fill-count ceiling force multi-word
// fills; keep this one modest (a few hundred MB of *logical* bits is only a
// handful of code words physically).
TEST(WahFuzzTest, LongFillRunsStayExact) {
  const size_t kBig = size_t{40} * 31 * 1000;  // many groups, tiny encoding
  WahBitvector ones = WahBitvector::Fill(kBig, true);
  WahBitvector zeros = WahBitvector::Fill(kBig, false);
  EXPECT_EQ(ones.Count(), kBig);
  EXPECT_EQ(zeros.Count(), 0u);
  EXPECT_EQ(WahBitvector::AndCount(ones, ones), kBig);
  EXPECT_EQ(WahBitvector::AndCount(ones, zeros), 0u);
  WahBitvector x = WahBitvector::Xor(ones, zeros);
  EXPECT_EQ(x.Count(), kBig);
  EXPECT_TRUE(x == ones);
  EXPECT_TRUE(zeros.Not() == ones);
  const WahBitvector* ops[] = {&ones, &zeros, &ones};
  EXPECT_EQ(WahBitvector::CountOrOfMany(ops), kBig);
  EXPECT_EQ(WahBitvector::CountAndOfMany(ops), 0u);
}

// --- Decoder parity ---------------------------------------------------

constexpr uint32_t kFill = 0x80000000u;
constexpr uint32_t kOnes = 0x40000000u;

// The two-step decode the one-pass kernel replaced, kept as the reference:
// WahCodec::DecodeToWah (layout check + TryFromCodeWords validation, one
// copy of the words), then the old ToBitvector inflate, which set ones-fill
// ranges with word masks and ORed each literal into its straddled words.
bool ReferenceDecode(std::span<const uint8_t> payload, Bitvector* out) {
  WahBitvector wah;
  if (!WahCodec::DecodeToWah(payload, &wah)) return false;
  const size_t num_bits = wah.size();
  Bitvector dense(num_bits);
  std::span<uint64_t> words = dense.mutable_words();
  auto set_range = [&](size_t lo, size_t hi) {
    if (lo >= hi) return;
    size_t wlo = lo >> 6;
    size_t whi = (hi - 1) >> 6;
    uint64_t first = ~uint64_t{0} << (lo & 63);
    uint64_t last =
        (hi & 63) != 0 ? ~uint64_t{0} >> (64 - (hi & 63)) : ~uint64_t{0};
    if (wlo == whi) {
      words[wlo] |= first & last;
      return;
    }
    words[wlo] |= first;
    for (size_t w = wlo + 1; w < whi; ++w) words[w] = ~uint64_t{0};
    words[whi] |= last;
  };
  size_t bit = 0;
  for (uint32_t word : wah.code_words()) {
    if (word & kFill) {
      size_t span = static_cast<size_t>(word & 0x3FFFFFFFu) * 31;
      if (word & kOnes) set_range(bit, std::min(bit + span, num_bits));
      bit += span;
    } else {
      size_t w = bit >> 6;
      uint32_t off = static_cast<uint32_t>(bit & 63);
      words[w] |= static_cast<uint64_t>(word) << off;
      if (off > 64 - 31 && w + 1 < words.size()) {
        words[w + 1] |= static_cast<uint64_t>(word) >> (64 - off);
      }
      bit += 31;
    }
  }
  *out = std::move(dense);
  return true;
}

std::vector<uint8_t> MakePayload(uint64_t num_bits,
                                 const std::vector<uint32_t>& words) {
  std::vector<uint8_t> out(8 + 4 * words.size());
  std::memcpy(out.data(), &num_bits, 8);
  if (!words.empty()) std::memcpy(out.data() + 8, words.data(), 4 * words.size());
  return out;
}

struct ParityTally {
  int accepted = 0;
  int rejected = 0;
};

// The one-pass decoder (DecodeToDense, and Decompress built on it) must
// accept exactly the payloads the reference accepts, with equal bits.
// Returns whether the payload was accepted.
bool ExpectParity(std::span<const uint8_t> payload, const std::string& ctx,
                  ParityTally* tally) {
  Bitvector want;
  const bool want_ok = ReferenceDecode(payload, &want);
  uint64_t header_bits = 0;
  if (payload.size() >= 8) std::memcpy(&header_bits, payload.data(), 8);
  Bitvector got;
  const bool got_ok = WahCodec::DecodeToDense(
      payload, static_cast<size_t>(header_bits), &got);
  std::vector<uint8_t> bytes;
  const bool bytes_ok = WahCodec().Decompress(payload, &bytes);
  EXPECT_EQ(got_ok, want_ok) << ctx;
  EXPECT_EQ(bytes_ok, want_ok) << ctx;
  if (want_ok && got_ok && bytes_ok) {
    EXPECT_TRUE(got == want) << ctx;
    EXPECT_EQ(bytes, want.ToBytes()) << ctx;
  }
  ++(want_ok ? tally->accepted : tally->rejected);
  return want_ok;
}

// Replaces the payload's final group (the last word, or the last group of
// a final fill) with `group_word`.
std::vector<uint32_t> WithFinalGroup(std::vector<uint32_t> words,
                                     uint32_t group_word) {
  uint32_t last = words.back();
  if ((last & kFill) && (last & 0x3FFFFFFFu) > 1) {
    --words.back();
  } else {
    words.pop_back();
  }
  words.push_back(group_word);
  return words;
}

TEST(WahFuzzTest, OnePassDecoderMatchesReferenceOnValidAndMutatedPayloads) {
  std::mt19937_64 rng(20261019);
  std::vector<size_t> lengths(std::begin(kEdgeLengths), std::end(kEdgeLengths));
  for (int i = 0; i < 24; ++i) lengths.push_back(1 + rng() % 700);
  ParityTally valid, truncated, flipped;
  for (size_t len : lengths) {
    const Bitvector dense = BuildPattern(rng, len);
    const std::vector<uint8_t> payload = WahCodec::EncodeBits(dense);
    const std::string ctx = "len=" + std::to_string(len);
    ASSERT_TRUE(ExpectParity(payload, ctx, &valid)) << ctx;
    Bitvector got;
    ASSERT_TRUE(WahCodec::DecodeToDense(payload, len, &got));
    ASSERT_TRUE(got == dense) << ctx;
    // Every truncation (only the full length decodes).
    for (size_t cut = 0; cut < payload.size(); ++cut) {
      ExpectParity(std::span(payload).first(cut),
                   ctx + " cut=" + std::to_string(cut), &truncated);
    }
    // Every single-bit flip, header included.
    for (size_t bit = 0; bit < payload.size() * 8; ++bit) {
      std::vector<uint8_t> flip = payload;
      flip[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      ExpectParity(flip, ctx + " flip=" + std::to_string(bit), &flipped);
    }
  }
  EXPECT_EQ(valid.rejected, 0);
  EXPECT_EQ(truncated.accepted, 0);
  EXPECT_GT(flipped.accepted, 0);  // e.g. flips inside literal payloads
  EXPECT_GT(flipped.rejected, 0);
}

TEST(WahFuzzTest, OnePassDecoderRejectsForgedWordsLikeReference) {
  std::mt19937_64 rng(20261020);
  std::vector<size_t> lengths(std::begin(kEdgeLengths), std::end(kEdgeLengths));
  for (int i = 0; i < 24; ++i) lengths.push_back(1 + rng() % 700);
  // Group ends that are 64-bit word ends (multiples of 31 * 64 = 1984) with
  // N a few bits short: a trailing ones-fill there ends word-aligned.
  for (size_t len : {1960u, 1983u, 1985u, 3947u, 3967u}) lengths.push_back(len);
  ParityTally zero_count, tail_bits, ones_tail, group_count, random_word;
  for (size_t len : lengths) {
    if (len == 0) continue;
    const Bitvector dense = BuildPattern(rng, len);
    const WahBitvector wah = WahBitvector::FromBitvector(dense);
    const std::vector<uint32_t>& words = wah.code_words();
    const std::string ctx = "len=" + std::to_string(len);
    const uint32_t tail = static_cast<uint32_t>(len % 31);

    // A fill of count 0, in place of and in front of every word.
    for (size_t i = 0; i <= words.size(); ++i) {
      for (uint32_t value : {0u, kOnes}) {
        std::vector<uint32_t> forged = words;
        forged.insert(forged.begin() + static_cast<long>(i), kFill | value);
        EXPECT_FALSE(ExpectParity(MakePayload(len, forged),
                                  ctx + " zero-fill insert", &zero_count));
        if (i < words.size()) {
          forged = words;
          forged[i] = kFill | value;
          EXPECT_FALSE(ExpectParity(MakePayload(len, forged),
                                    ctx + " zero-fill replace", &zero_count));
        }
      }
    }

    if (tail != 0) {
      // Each bit past N in a final literal.
      for (uint32_t b = tail; b < 31; ++b) {
        uint32_t literal = (1u << b) | 1u;
        EXPECT_FALSE(ExpectParity(MakePayload(len, WithFinalGroup(words, literal)),
                                  ctx + " tail bit " + std::to_string(b),
                                  &tail_bits));
      }
      // A trailing ones-fill over the partial final group, alone and as
      // the whole stream.
      EXPECT_FALSE(ExpectParity(
          MakePayload(len, WithFinalGroup(words, kFill | kOnes | 1)),
          ctx + " trailing ones-fill", &ones_tail));
      EXPECT_FALSE(ExpectParity(
          MakePayload(len, {kFill | kOnes |
                            static_cast<uint32_t>((len + 30) / 31)}),
          ctx + " all-ones fill", &ones_tail));
    } else {
      // Over a full final group the same ones-fills are valid.
      EXPECT_TRUE(ExpectParity(
          MakePayload(len, WithFinalGroup(words, kFill | kOnes | 1)),
          ctx + " full trailing ones-fill", &ones_tail));
      EXPECT_TRUE(ExpectParity(
          MakePayload(len, {kFill | kOnes | static_cast<uint32_t>(len / 31)}),
          ctx + " full all-ones fill", &ones_tail));
    }

    // Group overflow and underflow.
    std::vector<uint32_t> forged = words;
    forged.push_back(0x1u);
    ExpectParity(MakePayload(len, forged), ctx + " extra literal", &group_count);
    forged = words;
    forged.push_back(kFill | 1);
    ExpectParity(MakePayload(len, forged), ctx + " extra fill", &group_count);
    forged = words;
    forged.pop_back();
    ExpectParity(MakePayload(len, forged), ctx + " dropped word", &group_count);
    for (size_t i = 0; i < words.size(); ++i) {
      if ((words[i] & kFill) == 0) continue;
      for (int delta : {-1, 1}) {
        forged = words;
        forged[i] = static_cast<uint32_t>(forged[i] + delta);
        ExpectParity(MakePayload(len, forged), ctx + " fill count moved",
                     &group_count);
      }
    }
    // Length headers one group off either way.
    ExpectParity(MakePayload(len + 31, words), ctx + " N+31", &group_count);
    if (len > 31) {
      ExpectParity(MakePayload(len - 31, words), ctx + " N-31", &group_count);
    }

    // Arbitrary words anywhere.
    for (int trial = 0; trial < 40 && !words.empty(); ++trial) {
      forged = words;
      forged[rng() % forged.size()] = static_cast<uint32_t>(rng());
      ExpectParity(MakePayload(len, forged), ctx + " random word",
                   &random_word);
    }
  }
  EXPECT_EQ(zero_count.accepted, 0);
  EXPECT_EQ(tail_bits.accepted, 0);
  EXPECT_GT(tail_bits.rejected, 0);
  EXPECT_GT(ones_tail.rejected, 0);
  EXPECT_GT(ones_tail.accepted, 0);
  EXPECT_EQ(group_count.accepted, 0);
  EXPECT_GT(random_word.rejected, 0);
}

// A header claiming far more bits than the code words can hold is rejected
// without allocating the claimed length.
TEST(WahFuzzTest, OnePassDecoderRejectsHugeClaimedLengthCheaply) {
  const std::vector<uint32_t> words = {kFill | kOnes | 3, 0x1234u};
  for (uint64_t claimed : {uint64_t{1} << 40, uint64_t{1} << 62,
                           ~uint64_t{0} - 5}) {
    Bitvector got;
    EXPECT_FALSE(WahCodec::DecodeToDense(MakePayload(claimed, words),
                                         static_cast<size_t>(claimed), &got));
    std::vector<uint8_t> bytes;
    EXPECT_FALSE(WahCodec().Decompress(MakePayload(claimed, words), &bytes));
  }
  // The same words under their true length decode.
  Bitvector got;
  ASSERT_TRUE(WahCodec::DecodeToDense(MakePayload(4 * 31, words), 4 * 31, &got));
  EXPECT_EQ(got.Count(), 3 * 31 + 5u);
  // A header that disagrees with the expected length is refused.
  EXPECT_FALSE(WahCodec::DecodeToDense(MakePayload(4 * 31, words), 4 * 31 - 1,
                                       &got));
}

}  // namespace
}  // namespace bix
