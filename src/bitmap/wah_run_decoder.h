// Internal WAH code-word vocabulary and run decoder, shared by the codec
// (wah_bitvector.cc) and the fused multi-operand kernels (wah_kernels.cc).
// Not part of the public surface; include only from bitmap/ sources.

#ifndef BIX_BITMAP_WAH_RUN_DECODER_H_
#define BIX_BITMAP_WAH_RUN_DECODER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/check.h"

namespace bix::wah_internal {

inline constexpr uint32_t kGroupBits = 31;
inline constexpr uint32_t kLiteralMask = 0x7FFFFFFFu;
inline constexpr uint32_t kFillFlag = 0x80000000u;
inline constexpr uint32_t kFillValueFlag = 0x40000000u;
inline constexpr uint32_t kMaxFillCount = 0x3FFFFFFFu;

inline bool IsFill(uint32_t word) { return (word & kFillFlag) != 0; }
inline bool FillValue(uint32_t word) { return (word & kFillValueFlag) != 0; }
inline uint32_t FillCount(uint32_t word) { return word & kMaxFillCount; }

// The one WAH-to-dense decode loop (wah_bitvector.cc).  Folds `num_words`
// serialized code words (little-endian u32s at `code`, read with memcpy so
// a storage payload needs no aligned copy) into `words`, the dense backing
// words of a `num_bits`-bit accumulator: OR when kIsOr, else AND.  Into a
// zeroed accumulator the OR form is the inflate of WahBitvector::
// ToBitvector, WahCodec::Decompress and the storage layer's dense fetch;
// the k-ary dense fold (wah_kernels.cc) runs both forms.
//
// The same pass validates the stream and returns false on exactly what
// WahBitvector::TryFromCodeWords rejects: a fill count of 0, a group total
// other than ceil(num_bits / 31), set bits past num_bits in the final
// literal, and a trailing ones-fill over a partial final group.  On false,
// `words` may hold partial output.
template <bool kIsOr>
bool FoldCodeWords(std::span<uint64_t> words, const uint8_t* code,
                   size_t num_words, size_t num_bits);
extern template bool FoldCodeWords<true>(std::span<uint64_t>, const uint8_t*,
                                         size_t, size_t);
extern template bool FoldCodeWords<false>(std::span<uint64_t>, const uint8_t*,
                                          size_t, size_t);

// Sequential reader over the code words, exposing one run at a time.
class RunDecoder {
 public:
  explicit RunDecoder(const std::vector<uint32_t>& words) : words_(words) {
    Advance();
  }

  bool done() const { return done_; }
  bool is_fill() const { return is_fill_; }
  bool fill_value() const { return fill_value_; }
  uint64_t groups_left() const { return groups_left_; }
  uint32_t literal() const { return literal_; }

  // The current group as a 31-bit payload (fills expand to 0 / all-ones).
  uint32_t group() const {
    return is_fill_ ? (fill_value_ ? kLiteralMask : 0) : literal_;
  }

  // Consumes `n` groups of the current run (n == groups_left() for
  // literals, n <= groups_left() for fills).
  void Consume(uint64_t n) {
    BIX_DCHECK(n <= groups_left_);
    groups_left_ -= n;
    if (groups_left_ == 0) Advance();
  }

  // Consumes `n` groups across run boundaries (the k-ary kernels skip the
  // stretch a dominant fill of another operand decides).
  void Skip(uint64_t n) {
    while (n > 0) {
      BIX_DCHECK(!done_);
      uint64_t take = std::min(n, groups_left_);
      Consume(take);
      n -= take;
    }
  }

 private:
  void Advance() {
    if (index_ == words_.size()) {
      done_ = true;
      return;
    }
    uint32_t word = words_[index_++];
    if (IsFill(word)) {
      is_fill_ = true;
      fill_value_ = FillValue(word);
      groups_left_ = FillCount(word);
    } else {
      is_fill_ = false;
      literal_ = word;
      groups_left_ = 1;
    }
  }

  const std::vector<uint32_t>& words_;
  size_t index_ = 0;
  bool done_ = false;
  bool is_fill_ = false;
  bool fill_value_ = false;
  uint64_t groups_left_ = 0;
  uint32_t literal_ = 0;
};

// Absolute-position run cursor for the run-event heap merge
// (wah_kernels.cc).  Unlike RunDecoder it never consumes partially: the
// merge tracks its own position and only needs to know where each operand's
// current run *ends* (the operand's next event).  Fill words split by the
// 2^30 count ceiling are coalesced into one run, so every Next() is a real
// run boundary — one heap event.
class RunCursor {
 public:
  explicit RunCursor(const std::vector<uint32_t>& words) : words_(words) {
    Next();
  }

  bool done() const { return done_; }
  bool is_fill() const { return is_fill_; }
  bool fill_value() const { return fill_value_; }
  uint32_t literal() const { return literal_; }

  /// Absolute group index one past the current run.
  uint64_t end() const { return end_; }

  /// Advances to the next run (no-op once done).
  void Next() {
    if (index_ == words_.size()) {
      done_ = true;
      return;
    }
    uint32_t word = words_[index_++];
    if (IsFill(word)) {
      is_fill_ = true;
      fill_value_ = FillValue(word);
      uint64_t groups = FillCount(word);
      while (index_ < words_.size() && IsFill(words_[index_]) &&
             FillValue(words_[index_]) == fill_value_) {
        groups += FillCount(words_[index_]);
        ++index_;
      }
      end_ += groups;
    } else {
      is_fill_ = false;
      literal_ = word;
      end_ += 1;
    }
  }

 private:
  const std::vector<uint32_t>& words_;
  size_t index_ = 0;
  uint64_t end_ = 0;
  bool done_ = false;
  bool is_fill_ = false;
  bool fill_value_ = false;
  uint32_t literal_ = 0;
};

}  // namespace bix::wah_internal

#endif  // BIX_BITMAP_WAH_RUN_DECODER_H_
