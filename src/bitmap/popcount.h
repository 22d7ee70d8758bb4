// Word popcount shared by every counting loop in bitmap/.
//
// The default x86-64 target has no POPCNT instruction, so std::popcount
// compiles to an out-of-line libgcc call (__popcountdi2) per word.  This
// SWAR form inlines into a handful of ALU ops and is about 3x faster over
// a 10M-bit vector on that target; with -mpopcnt the compiler recognizes
// the idiom and emits the instruction anyway.

#ifndef BIX_BITMAP_POPCOUNT_H_
#define BIX_BITMAP_POPCOUNT_H_

#include <cstddef>
#include <cstdint>

namespace bix {

/// Number of set bits in `x` (32-bit code words zero-extend into it).
constexpr size_t Popcount64(uint64_t x) {
  x -= (x >> 1) & 0x5555555555555555ULL;
  x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
  x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
  return static_cast<size_t>((x * 0x0101010101010101ULL) >> 56);
}

}  // namespace bix

#endif  // BIX_BITMAP_POPCOUNT_H_
