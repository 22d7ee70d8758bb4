#include "bitmap/wah_bitvector.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <utility>

#include "bitmap/popcount.h"
#include "bitmap/wah_run_decoder.h"
#include "core/check.h"

namespace bix {

using namespace wah_internal;

static_assert(std::endian::native == std::endian::little,
              "WAH code words are read and stored little-endian");

namespace {

// ceil(num_bits / 31), without the overflow of adding 30 first.
uint64_t NumGroups(size_t num_bits) {
  return num_bits / kGroupBits + (num_bits % kGroupBits != 0 ? 1 : 0);
}

}  // namespace

void WahBitvector::AppendLiteral(uint32_t group) {
  BIX_DCHECK((group & kFillFlag) == 0);
  if (group == 0) {
    AppendFill(false, 1);
  } else if (group == kLiteralMask) {
    AppendFill(true, 1);
  } else {
    words_.push_back(group);
  }
}

void WahBitvector::AppendFill(bool value, uint64_t count) {
  while (count > 0) {
    if (!words_.empty() && IsFill(words_.back()) &&
        FillValue(words_.back()) == value &&
        FillCount(words_.back()) < kMaxFillCount) {
      uint64_t room = kMaxFillCount - FillCount(words_.back());
      uint64_t take = std::min(room, count);
      words_.back() += static_cast<uint32_t>(take);
      count -= take;
    } else {
      uint32_t take = static_cast<uint32_t>(
          std::min<uint64_t>(count, kMaxFillCount));
      words_.push_back(kFillFlag | (value ? kFillValueFlag : 0) | take);
      count -= take;
    }
  }
}

WahBitvector WahBitvector::Fill(size_t num_bits, bool value) {
  WahBitvector out;
  out.num_bits_ = num_bits;
  size_t groups = (num_bits + kGroupBits - 1) / kGroupBits;
  out.AppendFill(value, groups);
  out.ClearTail();  // a ones fill must not cover bits past num_bits
  return out;
}

WahBitvector WahBitvector::FromBitvector(const Bitvector& dense) {
  WahBitvector out;
  out.num_bits_ = dense.size();
  std::span<const uint64_t> words = dense.words();
  size_t groups = (dense.size() + kGroupBits - 1) / kGroupBits;
  for (size_t g = 0; g < groups; ++g) {
    // Extract the 31-bit group straddling at most two backing words.
    size_t start = g * kGroupBits;
    size_t w = start >> 6;
    uint32_t off = static_cast<uint32_t>(start & 63);
    uint64_t bits = words[w] >> off;
    if (off > 64 - kGroupBits && w + 1 < words.size()) {
      bits |= words[w + 1] << (64 - off);
    }
    uint32_t group = static_cast<uint32_t>(bits) & kLiteralMask;
    if (start + kGroupBits > dense.size()) {
      uint32_t tail = static_cast<uint32_t>(dense.size() - start);
      group &= (uint32_t{1} << tail) - 1;
    }
    out.AppendLiteral(group);
  }
  return out;
}

bool WahBitvector::TryFromCodeWords(std::span<const uint8_t> code,
                                    size_t num_bits, WahBitvector* out) {
  if (code.size() % sizeof(uint32_t) != 0) return false;
  const size_t num_words = code.size() / sizeof(uint32_t);
  const uint64_t want_groups = (num_bits + kGroupBits - 1) / kGroupBits;
  uint64_t groups = 0;
  uint32_t word = 0;
  for (size_t i = 0; i < num_words; ++i) {
    std::memcpy(&word, code.data() + i * sizeof(uint32_t), sizeof(word));
    if (IsFill(word)) {
      if (FillCount(word) == 0) return false;
      groups += FillCount(word);
    } else {
      ++groups;
      // The final group may be partial; bits past num_bits must be clear.
      if (groups == want_groups) {
        uint32_t tail = static_cast<uint32_t>(
            num_bits - (want_groups - 1) * kGroupBits);
        if (tail < kGroupBits && (word >> tail) != 0) return false;
      }
    }
    if (groups > want_groups) return false;
  }
  if (groups != want_groups) return false;
  // A trailing ones-fill over a partial final group would assert bits past
  // num_bits; reject it (the canonical encoder never emits one uncleared).
  if (num_bits % kGroupBits != 0 && num_words != 0 && IsFill(word) &&
      FillValue(word)) {
    return false;
  }
  out->num_bits_ = num_bits;
  out->words_.resize(num_words);
  if (num_words != 0) {
    std::memcpy(out->words_.data(), code.data(), code.size());
  }
  return true;
}

namespace wah_internal {

namespace {

// The literal-block stitch.  64 consecutive literal code words carry
// 64 * 31 = 1984 = 31 * 64 payload bits: exactly 31 output words.  Pair m
// of the block (code words 2m and 2m+1, 62 payload bits) lands at block
// bit 62m, so every shift that assembles the block is a compile-time
// constant and no step waits on the previous one's fill level.
constexpr size_t kBlockCodeWords = 64;
constexpr size_t kBlockOutWords = 31;
constexpr uint64_t kPairFillBits = 0x8000000080000000ull;
// Literals a run must already hold before a block is probed for.
constexpr size_t kProbeAfter = 16;

// Two literal code words as one 62-bit run (low word first).
inline uint64_t LiteralPair(uint64_t two) {
  return (two & 0x7fffffffull) | ((two >> 1) & 0x3fffffff80000000ull);
}

template <size_t M>
inline void StitchBlockPair(const uint8_t* code, uint64_t* block) {
  constexpr unsigned kBit = 62 * M;
  constexpr unsigned kWord = kBit / 64;
  constexpr unsigned kOff = kBit % 64;
  uint64_t two;
  std::memcpy(&two, code + 8 * M, sizeof(two));
  const uint64_t pair = LiteralPair(two);
  block[kWord] |= pair << kOff;
  // kOff is even; at 0 or 2 the pair's 62 bits end inside the word.
  if constexpr (kOff > 2) block[kWord + 1] |= pair >> (64 - kOff);
}

template <size_t... M>
inline void AssembleLiteralBlock(const uint8_t* code, uint64_t* block,
                                 std::index_sequence<M...>) {
  (StitchBlockPair<M>(code, block), ...);
}

// Index of the first fill among the 64 code words from `i`, or i + 64
// when all are literals.  Stops at the fill, so a probe costs no more
// than the words the caller consumes before it may probe again.
size_t FirstFillInBlock(const uint8_t* code, size_t i) {
  for (size_t j = i; j < i + kBlockCodeWords; j += 2) {
    uint64_t two;
    std::memcpy(&two, code + j * sizeof(uint32_t), sizeof(two));
    if ((two & kPairFillBits) != 0) {
      return (two & kFillFlag) != 0 ? j : j + 1;
    }
  }
  return i + kBlockCodeWords;
}

}  // namespace

template <bool kIsOr>
bool FoldCodeWords(std::span<uint64_t> words, const uint8_t* code,
                   size_t num_words, size_t num_bits) {
  // A stitch buffer realigns the 31-bit groups: a literal costs three ALU
  // ops, and each output word is touched once (per 2.06 groups), not once
  // per group.  Fills bypass the buffer for their word-aligned middle:
  // identity fills (zeros for OR, ones for AND) skip whole words, dominant
  // fills overwrite them with pure stores — word masks, no per-bit loop.
  //
  // The stream covers ceil(num_bits/31)*31 bits, which can run past the
  // last word.  Word `edge` is the first that holds a position >= num_bits
  // (`edge_mask` of it, all of every later word); flushes from there on
  // take a checked path, and nothing past the last word is written.
  const size_t nwords = words.size();
  const uint64_t want_bits = NumGroups(num_bits) * kGroupBits;
  const size_t edge = num_bits >> 6;
  const uint64_t edge_mask = ~uint64_t{0} << (num_bits & 63);
  auto past_end = [&](size_t word) {
    return word == edge ? edge_mask : ~uint64_t{0};
  };
  bool clean = true;  // no set bit decoded at or past num_bits
  size_t w = 0;       // output word the buffer starts in
  uint64_t buf = 0;   // pending stream bits [64w, 64w + n)
  unsigned n = 0;

  auto merge = [&](uint64_t& word, uint64_t bits) {
    if (kIsOr) {
      word |= bits;
    } else {
      word &= bits;
    }
  };
  auto flush = [&](uint64_t full) {
    if (w >= edge) {
      if ((full & past_end(w)) != 0) clean = false;
      if (w >= nwords) {
        ++w;
        return;
      }
    }
    merge(words[w], full);
    ++w;
  };
  size_t i = 0;
  // Literal-block fast path: on incompressible inputs literals come in runs
  // far longer than 64, so stitch 64 of them into 31 words at once and
  // merge those at the buffer's offset n, for as many whole blocks as the
  // run holds.  Only while the block's words stay below `edge`: the checked
  // flushes are never bypassed.  The pair path probes once its literal run
  // is kProbeAfter words long (`probe_at`), and a probe that meets a fill
  // is not retried before that fill, so fill-heavy streams pay no probes
  // and no word is scanned twice.
  size_t probe_at = kProbeAfter;
  auto stitch_blocks = [&] {
    while (num_words - i >= kBlockCodeWords && w + kBlockOutWords <= edge) {
      const size_t fill = FirstFillInBlock(code, i);
      if (fill != i + kBlockCodeWords) {
        probe_at = fill + 1;
        return;
      }
      uint64_t block[kBlockOutWords] = {};
      AssembleLiteralBlock(code + i * sizeof(uint32_t), block,
                           std::make_index_sequence<kBlockCodeWords / 2>());
      if (n == 0) {  // buf is empty too
        for (size_t j = 0; j < kBlockOutWords; ++j) {
          merge(words[w + j], block[j]);
        }
      } else {
        merge(words[w], buf | (block[0] << n));
        for (size_t j = 1; j < kBlockOutWords; ++j) {
          merge(words[w + j], (block[j] << n) | (block[j - 1] >> (64 - n)));
        }
        buf = block[kBlockOutWords - 1] >> (64 - n);
      }
      w += kBlockOutWords;
      i += kBlockCodeWords;
    }
  };
  while (i < num_words) {
    // Literal-pair fast path: load two code words at once (one 64-bit
    // load, one fill test) and stitch their 62 payload bits together.
    if (i + 1 < num_words) {
      uint64_t two;
      std::memcpy(&two, code + i * sizeof(uint32_t), sizeof(two));
      if ((two & kPairFillBits) == 0) {
        const uint64_t pair = LiteralPair(two);
        buf |= pair << n;
        n += 2 * kGroupBits;
        if (n >= 64) {
          flush(buf);
          n -= 64;
          buf = n == 0 ? 0 : pair >> (2 * kGroupBits - n);
        }
        i += 2;
        if (i >= probe_at) stitch_blocks();
        continue;
      }
    }
    uint32_t cw;
    std::memcpy(&cw, code + i * sizeof(uint32_t), sizeof(cw));
    ++i;
    if (!IsFill(cw)) {
      buf |= uint64_t{cw} << n;
      n += kGroupBits;
      if (n >= 64) {
        flush(buf);
        n -= 64;
        buf = n == 0 ? 0 : uint64_t{cw} >> (kGroupBits - n);
      }
      continue;
    }
    probe_at = i + kProbeAfter;
    const bool v = FillValue(cw);
    const uint64_t groups = FillCount(cw);
    uint64_t span = groups * kGroupBits;
    // Zero count, group overflow, or a ones-fill reaching past num_bits
    // (only a trailing fill over a partial final group can).  The last
    // needs its own test: such a fill can store the whole edge word below
    // and end word-aligned, so no checked flush would see its bits.
    const uint64_t fill_end = uint64_t{w} * 64 + n + span;
    if (groups == 0 || fill_end > want_bits || (v && fill_end > num_bits)) {
      return false;
    }
    if (n != 0) {
      const unsigned take = 64 - n;
      if (span < take) {
        if (v) buf |= ((uint64_t{1} << span) - 1) << n;
        n += static_cast<unsigned>(span);
        continue;
      }
      if (v) buf |= ~uint64_t{0} << n;
      flush(buf);
      buf = 0;
      n = 0;
      span -= take;
    }
    const size_t target = w + static_cast<size_t>(span >> 6);
    if (v == kIsOr) {
      // Dominant fill: pure stores, no read of the accumulator.
      const uint64_t store = kIsOr ? ~uint64_t{0} : uint64_t{0};
      for (const size_t end = std::min(target, nwords); w < end; ++w) {
        words[w] = store;
      }
    }
    w = target;  // identity fills skip their whole words
    n = static_cast<unsigned>(span & 63);
    if (n != 0) buf = v ? (uint64_t{1} << n) - 1 : 0;
  }
  // Group underflow, or overflow by literals.
  if (uint64_t{w} * 64 + n != want_bits) return false;
  if (n != 0) {
    if (w >= edge && (buf & past_end(w)) != 0) return false;
    // Partial final word: bits at or above n belong to no group and stay
    // untouched (AND masks them back in as identity).
    if (w < nwords) {
      if (kIsOr) {
        words[w] |= buf;
      } else {
        words[w] &= buf | (~uint64_t{0} << n);
      }
    }
  }
  return clean;
}

template bool FoldCodeWords<true>(std::span<uint64_t>, const uint8_t*, size_t,
                                  size_t);
template bool FoldCodeWords<false>(std::span<uint64_t>, const uint8_t*, size_t,
                                   size_t);

}  // namespace wah_internal

bool WahBitvector::InflateCodeWords(std::span<const uint8_t> code,
                                    size_t num_bits, Bitvector* out) {
  if (code.size() % sizeof(uint32_t) != 0) return false;
  const size_t num_words = code.size() / sizeof(uint32_t);
  // Allocation guard for a length taken from an untrusted header: when the
  // bit length claims more than 512 output bytes per code word, first check
  // that the words' groups add up to it.  Such a payload has few words for
  // its output, so this scan costs less than zeroing that output, and a
  // forged length cannot make the inflate allocate memory its code words
  // do not account for.
  if (num_bits / 64 > 64 * num_words + 1024) {
    uint64_t groups = 0;
    for (size_t i = 0; i < num_words; ++i) {
      uint32_t cw;
      std::memcpy(&cw, code.data() + i * sizeof(uint32_t), sizeof(cw));
      groups += IsFill(cw) ? FillCount(cw) : 1;
    }
    if (groups != NumGroups(num_bits)) return false;
  }
  Bitvector dense(num_bits);
  if (!FoldCodeWords<true>(dense.mutable_words(), code.data(), num_words,
                           num_bits)) {
    return false;
  }
  *out = std::move(dense);
  return true;
}

Bitvector WahBitvector::ToBitvector() const {
  Bitvector out(num_bits_);
  const bool ok = FoldCodeWords<true>(
      out.mutable_words(), reinterpret_cast<const uint8_t*>(words_.data()),
      words_.size(), num_bits_);
  BIX_CHECK(ok);  // every WahBitvector holds a validated stream
  return out;
}

size_t WahBitvector::Count() const {
  size_t count = 0;
  size_t bit = 0;
  for (uint32_t word : words_) {
    if (IsFill(word)) {
      size_t span = static_cast<size_t>(FillCount(word)) * kGroupBits;
      if (FillValue(word)) {
        // A ones-fill never covers bits past num_bits_ (tails are kept
        // zero), so the whole span counts.
        count += std::min(span, num_bits_ - bit);
      }
      bit += span;
    } else {
      count += Popcount64(word);
      bit += kGroupBits;
    }
  }
  return count;
}

template <typename GroupOp>
WahBitvector WahBitvector::BinaryOp(const WahBitvector& a,
                                    const WahBitvector& b, GroupOp op) {
  BIX_CHECK(a.num_bits_ == b.num_bits_);
  WahBitvector out;
  out.num_bits_ = a.num_bits_;
  RunDecoder x(a.words_);
  RunDecoder y(b.words_);
  while (!x.done() && !y.done()) {
    if (x.is_fill() && y.is_fill()) {
      uint64_t n = std::min(x.groups_left(), y.groups_left());
      uint32_t xg = x.fill_value() ? kLiteralMask : 0;
      uint32_t yg = y.fill_value() ? kLiteralMask : 0;
      uint32_t rg = op(xg, yg) & kLiteralMask;
      // A bitwise group op on two fills is itself a fill.
      BIX_DCHECK(rg == 0 || rg == kLiteralMask);
      out.AppendFill(rg == kLiteralMask, n);
      x.Consume(n);
      y.Consume(n);
    } else {
      uint32_t xg = x.is_fill() ? (x.fill_value() ? kLiteralMask : 0)
                                : x.literal();
      uint32_t yg = y.is_fill() ? (y.fill_value() ? kLiteralMask : 0)
                                : y.literal();
      out.AppendLiteral(op(xg, yg) & kLiteralMask);
      x.Consume(1);
      y.Consume(1);
    }
  }
  BIX_CHECK(x.done() && y.done());
  return out;
}

size_t WahBitvector::AndCount(const WahBitvector& a, const WahBitvector& b) {
  BIX_CHECK(a.num_bits_ == b.num_bits_);
  RunDecoder x(a.words_);
  RunDecoder y(b.words_);
  size_t count = 0;
  size_t bit = 0;
  while (!x.done() && !y.done()) {
    if (x.is_fill() && y.is_fill()) {
      uint64_t n = std::min(x.groups_left(), y.groups_left());
      if (x.fill_value() && y.fill_value()) {
        // As in Count(): a ones-fill never covers bits past num_bits_, but
        // clamp defensively so the tail can never over-count.
        size_t span = static_cast<size_t>(n) * kGroupBits;
        count += std::min(span, a.num_bits_ - bit);
      }
      bit += static_cast<size_t>(n) * kGroupBits;
      x.Consume(n);
      y.Consume(n);
    } else {
      uint32_t xg = x.is_fill() ? (x.fill_value() ? kLiteralMask : 0)
                                : x.literal();
      uint32_t yg = y.is_fill() ? (y.fill_value() ? kLiteralMask : 0)
                                : y.literal();
      count += Popcount64(xg & yg);
      bit += kGroupBits;
      x.Consume(1);
      y.Consume(1);
    }
  }
  BIX_CHECK(x.done() && y.done());
  return count;
}

WahBitvector WahBitvector::And(const WahBitvector& a, const WahBitvector& b) {
  return BinaryOp(a, b, [](uint32_t x, uint32_t y) { return x & y; });
}

WahBitvector WahBitvector::Or(const WahBitvector& a, const WahBitvector& b) {
  return BinaryOp(a, b, [](uint32_t x, uint32_t y) { return x | y; });
}

WahBitvector WahBitvector::Xor(const WahBitvector& a, const WahBitvector& b) {
  return BinaryOp(a, b, [](uint32_t x, uint32_t y) { return x ^ y; });
}

WahBitvector WahBitvector::AndNot(const WahBitvector& a,
                                  const WahBitvector& b) {
  return BinaryOp(a, b, [](uint32_t x, uint32_t y) { return x & ~y; });
}

WahBitvector WahBitvector::Not() const {
  WahBitvector out;
  out.num_bits_ = num_bits_;
  for (uint32_t word : words_) {
    if (IsFill(word)) {
      out.AppendFill(!FillValue(word), FillCount(word));
    } else {
      out.AppendLiteral(~word & kLiteralMask);
    }
  }
  out.ClearTail();
  return out;
}

void WahBitvector::ClearTail() {
  uint32_t tail_bits = static_cast<uint32_t>(num_bits_ % kGroupBits);
  if (tail_bits == 0 || words_.empty()) return;
  uint32_t mask = (uint32_t{1} << tail_bits) - 1;
  uint32_t last = words_.back();
  if (IsFill(last)) {
    if (!FillValue(last)) return;  // zero fill: tail already clear
    // Peel the final group off the ones-fill and mask it.
    if (FillCount(last) == 1) {
      words_.pop_back();
    } else {
      words_.back() = last - 1;
    }
    AppendLiteral(kLiteralMask & mask);
  } else {
    words_.pop_back();
    AppendLiteral(last & mask);
  }
}

}  // namespace bix
