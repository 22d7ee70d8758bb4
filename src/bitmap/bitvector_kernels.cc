#include "bitmap/bitvector_kernels.h"

#include <cstddef>
#include <vector>

#include "bitmap/popcount.h"
#include "core/check.h"

namespace bix {

namespace {

// 1024 words = 8 KB: the accumulator block stays L1-resident across the k
// operand passes while each operand stream is read exactly once.
constexpr size_t kBlockWords = 1024;

template <typename WordOp>
Bitvector FoldMany(std::span<const Bitvector* const> operands, WordOp op) {
  BIX_CHECK(!operands.empty());
  const size_t num_bits = operands[0]->size();
  for (const Bitvector* o : operands) BIX_CHECK(o->size() == num_bits);
  Bitvector out = *operands[0];
  if (operands.size() == 1) return out;
  std::span<uint64_t> dst = out.mutable_words();
  const size_t num_words = dst.size();
  for (size_t w0 = 0; w0 < num_words; w0 += kBlockWords) {
    const size_t w1 = std::min(w0 + kBlockWords, num_words);
    for (size_t k = 1; k < operands.size(); ++k) {
      const uint64_t* src = operands[k]->words().data();
      for (size_t w = w0; w < w1; ++w) dst[w] = op(dst[w], src[w]);
    }
  }
  return out;
}

// Counting fold: combines a block of all k operands into a stack-resident
// 8 KB window, popcounts it, and moves on — the k-ary counting mirror of
// FoldMany that never materializes the combination.
template <typename WordOp>
size_t CountFoldMany(std::span<const Bitvector* const> operands, WordOp op) {
  BIX_CHECK(!operands.empty());
  const size_t num_bits = operands[0]->size();
  for (const Bitvector* o : operands) BIX_CHECK(o->size() == num_bits);
  const size_t num_words = operands[0]->words().size();
  uint64_t block[kBlockWords];
  size_t count = 0;
  for (size_t w0 = 0; w0 < num_words; w0 += kBlockWords) {
    const size_t w1 = std::min(w0 + kBlockWords, num_words);
    const uint64_t* first = operands[0]->words().data();
    for (size_t w = w0; w < w1; ++w) block[w - w0] = first[w];
    for (size_t k = 1; k < operands.size(); ++k) {
      const uint64_t* src = operands[k]->words().data();
      for (size_t w = w0; w < w1; ++w) {
        block[w - w0] = op(block[w - w0], src[w]);
      }
    }
    for (size_t w = w0; w < w1; ++w) {
      count += Popcount64(block[w - w0]);
    }
  }
  return count;
}

template <typename WordOp>
size_t CountCombined(const Bitvector& a, const Bitvector& b, WordOp op) {
  BIX_CHECK(a.size() == b.size());
  const uint64_t* wa = a.words().data();
  const uint64_t* wb = b.words().data();
  const size_t num_words = a.words().size();
  size_t count = 0;
  for (size_t w = 0; w < num_words; ++w) {
    count += Popcount64(op(wa[w], wb[w]));
  }
  return count;
}

}  // namespace

Bitvector Bitvector::OrOfMany(std::span<const Bitvector* const> operands) {
  return FoldMany(operands, [](uint64_t x, uint64_t y) { return x | y; });
}

Bitvector Bitvector::AndOfMany(std::span<const Bitvector* const> operands) {
  return FoldMany(operands, [](uint64_t x, uint64_t y) { return x & y; });
}

size_t Bitvector::CountOrOfMany(std::span<const Bitvector* const> operands) {
  return CountFoldMany(operands, [](uint64_t x, uint64_t y) { return x | y; });
}

size_t Bitvector::CountAndOfMany(std::span<const Bitvector* const> operands) {
  return CountFoldMany(operands, [](uint64_t x, uint64_t y) { return x & y; });
}

size_t Bitvector::CountAnd(const Bitvector& a, const Bitvector& b) {
  return CountCombined(a, b, [](uint64_t x, uint64_t y) { return x & y; });
}

size_t Bitvector::CountOr(const Bitvector& a, const Bitvector& b) {
  return CountCombined(a, b, [](uint64_t x, uint64_t y) { return x | y; });
}

// The tail bits of `a` are zero, so the unmasked complement of `b`'s tail
// never leaks into the count.
size_t Bitvector::AndNotCount(const Bitvector& a, const Bitvector& b) {
  return CountCombined(a, b, [](uint64_t x, uint64_t y) { return x & ~y; });
}

namespace {

template <typename Fold>
Bitvector FoldValues(std::span<const Bitvector> operands, Fold fold) {
  std::vector<const Bitvector*> ptrs;
  ptrs.reserve(operands.size());
  for (const Bitvector& o : operands) ptrs.push_back(&o);
  return fold(ptrs);
}

}  // namespace

Bitvector OrOfMany(std::span<const Bitvector> operands) {
  return FoldValues(operands, [](std::span<const Bitvector* const> p) {
    return Bitvector::OrOfMany(p);
  });
}

Bitvector AndOfMany(std::span<const Bitvector> operands) {
  return FoldValues(operands, [](std::span<const Bitvector* const> p) {
    return Bitvector::AndOfMany(p);
  });
}

}  // namespace bix
