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
#include "bitmap/wah_run_decoder.h"  // FoldCodeWords, both fold forms
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

// --- Literal-block stitch ---------------------------------------------
//
// The dense fold stitches 64 consecutive literals into 31 output words at
// once (wah_internal::FoldCodeWords).  These streams are built word by
// word so the block lands at every buffer residue, meets a fill at every
// block offset, and ends on both sides of the checked edge word.

uint32_t RandomLiteral(std::mt19937_64& rng) {
  uint32_t w;
  do {
    w = static_cast<uint32_t>(rng()) & 0x7FFFFFFFu;
  } while (w == 0 || w == 0x7FFFFFFFu);
  return w;
}

// Appends literals until the stream holds `groups` groups, then sets
// num_bits = 31 * groups - cut and clears the final literal's bits past it.
std::vector<uint32_t> FinishStream(std::mt19937_64& rng,
                                   std::vector<uint32_t> words,
                                   uint64_t groups, uint32_t cut,
                                   uint64_t* num_bits) {
  uint64_t have = 0;
  for (uint32_t w : words) have += (w & kFill) ? (w & 0x3FFFFFFFu) : 1;
  while (have < groups) {
    words.push_back(RandomLiteral(rng));
    ++have;
  }
  *num_bits = 31 * groups - cut;
  if (cut != 0) {
    words.back() = (words.back() & ((1u << (31 - cut)) - 1)) | 1u;
  }
  return words;
}

// Both fold forms over random accumulators (zero past num_bits, as dense
// bitvectors keep them) against the reference decode, plus the public
// one-pass decoders through ExpectParity.
void ExpectFoldsMatchReference(std::mt19937_64& rng,
                               const std::vector<uint32_t>& words,
                               uint64_t num_bits, const std::string& ctx,
                               ParityTally* tally) {
  const std::vector<uint8_t> payload = MakePayload(num_bits, words);
  ASSERT_TRUE(ExpectParity(payload, ctx, tally)) << ctx;
  Bitvector want;
  ASSERT_TRUE(ReferenceDecode(payload, &want)) << ctx;
  Bitvector acc(static_cast<size_t>(num_bits));
  std::span<uint64_t> acc_words = acc.mutable_words();
  for (uint64_t& w : acc_words) w = rng();
  if (num_bits % 64 != 0) acc_words.back() &= (1ull << (num_bits % 64)) - 1;
  const uint8_t* code = payload.data() + 8;
  Bitvector got_or = acc;
  ASSERT_TRUE(wah_internal::FoldCodeWords<true>(
      got_or.mutable_words(), code, words.size(), num_bits))
      << ctx;
  Bitvector want_or = acc;
  want_or.OrWith(want);
  EXPECT_TRUE(got_or == want_or) << ctx << " (OR fold)";
  Bitvector got_and = acc;
  ASSERT_TRUE(wah_internal::FoldCodeWords<false>(
      got_and.mutable_words(), code, words.size(), num_bits))
      << ctx;
  Bitvector want_and = acc;
  want_and.AndWith(want);
  EXPECT_TRUE(got_and == want_and) << ctx << " (AND fold)";
}

// Zeros-fill groups that put the next group at bit residue `n` mod 64
// (31 * 31 == 1 mod 64).
uint32_t LeadGroupsForResidue(uint32_t n) { return (31 * n) % 64; }

// The pair path stitches this many literals of a run before it probes for
// a block, so a run's first block starts at its 17th literal.
constexpr uint32_t kLiteralsBeforeProbe = 16;

TEST(WahFuzzTest, LiteralBlockMeetsAFillAtEveryOffsetAndResidue) {
  std::mt19937_64 rng(20261021);
  ParityTally tally;
  for (uint32_t n = 0; n < 64; ++n) {
    const uint32_t lead = LeadGroupsForResidue(n);
    // A fill at literal index kLiteralsBeforeProbe + k sits at offset k of
    // the first probed block; the last index leaves no fill, so the first
    // probe stitches a whole block.
    const uint32_t no_fill = kLiteralsBeforeProbe + 64;
    for (uint32_t fill_at = 0; fill_at <= no_fill; ++fill_at) {
      std::vector<uint32_t> words;
      if (lead != 0) words.push_back(kFill | lead);
      for (uint32_t k = 0; k < fill_at; ++k) {
        words.push_back(RandomLiteral(rng));
      }
      if (fill_at < no_fill) {
        // Ones and zeros fills of 1..3 groups, shifting what follows.
        words.push_back(kFill | (fill_at % 2 ? kOnes : 0) | (1 + fill_at % 3));
      }
      uint64_t num_bits = 0;
      const uint64_t groups = lead + fill_at + 3 + 200;
      words = FinishStream(rng, std::move(words), groups,
                           static_cast<uint32_t>(rng() % 31), &num_bits);
      ExpectFoldsMatchReference(
          rng, words, num_bits,
          "n=" + std::to_string(n) + " fill_at=" + std::to_string(fill_at),
          &tally);
    }
  }
  EXPECT_EQ(tally.rejected, 0);
}

TEST(WahFuzzTest, LiteralBlockEndsBeforeAtAndAfterTheEdgeWord) {
  std::mt19937_64 rng(20261022);
  ParityTally tally, forged;
  for (uint32_t n = 0; n < 64; ++n) {
    const uint32_t lead = LeadGroupsForResidue(n);
    // The first block starts at group lead + kLiteralsBeforeProbe, in word
    // w0; it may run only while its last word, w0 + 30, stays below
    // edge = num_bits / 64.  Sweep num_bits so edge runs from w0 + 29
    // (block refused) to w0 + 32.
    const uint64_t w0 = 31 * (uint64_t{lead} + kLiteralsBeforeProbe) / 64;
    for (uint64_t bits = 64 * (w0 + 29); bits < 64 * (w0 + 33); ++bits) {
      const uint64_t groups = (bits + 30) / 31;
      if (groups < lead + 1) continue;
      std::vector<uint32_t> words;
      if (lead != 0) words.push_back(kFill | lead);
      uint64_t num_bits = 0;
      words = FinishStream(rng, std::move(words), groups,
                           static_cast<uint32_t>(31 * groups - bits),
                           &num_bits);
      ASSERT_EQ(num_bits, bits);
      const std::string ctx =
          "n=" + std::to_string(n) + " bits=" + std::to_string(bits);
      ExpectFoldsMatchReference(rng, words, num_bits, ctx, &tally);
      // Forged forms of the same stream: a bit set past N in the final
      // literal, and one literal too many.  Both must be rejected, so no
      // block may write the edge word without the checked flush.
      if (bits % 31 != 0) {
        std::vector<uint32_t> tail = words;
        tail.back() |= 1u << 30;
        ExpectParity(MakePayload(num_bits, tail), ctx + " tail", &forged);
      }
      std::vector<uint32_t> over = words;
      over.push_back(RandomLiteral(rng));
      ExpectParity(MakePayload(num_bits, over), ctx + " overflow", &forged);
    }
  }
  EXPECT_EQ(tally.rejected, 0);
  EXPECT_EQ(forged.accepted, 0);
}

TEST(WahFuzzTest, LiteralBlockStreamsSurviveTruncationAndBitFlipSweeps) {
  std::mt19937_64 rng(20261023);
  ParityTally valid, truncated, flipped;
  for (uint32_t n : {0u, 1u, 33u, 63u}) {
    const uint32_t lead = LeadGroupsForResidue(n);
    std::vector<uint32_t> words;
    if (lead != 0) words.push_back(kFill | lead);
    for (int k = 0; k < 70; ++k) words.push_back(RandomLiteral(rng));
    words.push_back(kFill | kOnes | 2);
    uint64_t num_bits = 0;
    words = FinishStream(rng, std::move(words), lead + 72 + 130, n % 31,
                         &num_bits);
    const std::vector<uint8_t> payload = MakePayload(num_bits, words);
    const std::string ctx = "n=" + std::to_string(n);
    ASSERT_TRUE(ExpectParity(payload, ctx, &valid)) << ctx;
    for (size_t cut = 0; cut < payload.size(); ++cut) {
      ExpectParity(std::span(payload).first(cut),
                   ctx + " cut=" + std::to_string(cut), &truncated);
    }
    for (size_t bit = 0; bit < payload.size() * 8; ++bit) {
      std::vector<uint8_t> flip = payload;
      flip[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      ExpectParity(flip, ctx + " flip=" + std::to_string(bit), &flipped);
    }
  }
  EXPECT_EQ(valid.rejected, 0);
  EXPECT_EQ(truncated.accepted, 0);
  EXPECT_GT(flipped.accepted, 0);
  EXPECT_GT(flipped.rejected, 0);
}

}  // namespace
}  // namespace bix
