// In-memory bitmap index over one attribute (the paper's index I).
//
// A BitmapIndex is defined by a base sequence (attribute value
// decomposition) and an encoding scheme, built from a column of value ranks
// in [0, C).  It implements BitmapSource so the shared evaluation algorithms
// (core/eval.h) run over it directly.

#ifndef BIX_CORE_BITMAP_INDEX_H_
#define BIX_CORE_BITMAP_INDEX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "bitmap/bitvector.h"
#include "core/base_sequence.h"
#include "core/bitmap_source.h"
#include "core/component.h"
#include "core/eval_stats.h"
#include "core/predicate.h"

namespace bix {

/// Sentinel marking a NULL attribute value in an input column.
inline constexpr uint32_t kNullValue = UINT32_MAX;

class BitmapIndex final : public BitmapSource {
 public:
  /// Builds an index over `values` (value ranks in [0, cardinality), or
  /// kNullValue).  `base` must be well defined for `cardinality`.
  static BitmapIndex Build(std::span<const uint32_t> values,
                           uint32_t cardinality, const BaseSequence& base,
                           Encoding encoding);

  BitmapIndex(BitmapIndex&&) noexcept = default;
  BitmapIndex& operator=(BitmapIndex&&) noexcept = default;
  BitmapIndex(const BitmapIndex&) = delete;
  BitmapIndex& operator=(const BitmapIndex&) = delete;

  /// A deep copy.  Copying is explicit so that no bitmap set is duplicated
  /// by accident; the mutation layer clones a snapshot's delta index to
  /// extend it copy-on-write.
  BitmapIndex Clone() const {
    return BitmapIndex(cardinality_, base_, encoding_, components_, non_null_);
  }

  // BitmapSource:
  const BaseSequence& base() const override { return base_; }
  Encoding encoding() const override { return encoding_; }
  size_t num_records() const override { return non_null_.size(); }
  uint32_t cardinality() const override { return cardinality_; }
  const Bitvector& non_null() const override { return non_null_; }
  Bitvector Fetch(int component, uint32_t slot,
                  EvalStats* stats) const override;
  const Bitvector* FetchView(int component, uint32_t slot,
                             EvalStats* stats) const override;

  /// Evaluates `A op v`, returning the foundset bitmap.  The default
  /// algorithm (kAuto) is RangeEval-Opt for range encoding and EqualityEval
  /// for equality encoding.  `v` may lie outside [0, C) (trivial results).
  Bitvector Evaluate(CompareOp op, int64_t v,
                     EvalStats* stats = nullptr) const;
  Bitvector Evaluate(EvalAlgorithm algorithm, CompareOp op, int64_t v,
                     EvalStats* stats = nullptr) const;

  const IndexComponent& component(int i) const {
    return components_[static_cast<size_t>(i)];
  }

  /// Appends one record (value rank in [0, C) or kNullValue) — the
  /// read-mostly warehouse's incremental-load path.  O(total bitmaps).
  void Append(uint32_t value);

  /// Pre-allocates all bitmaps for a total of `num_records` records so a
  /// batch of Appends up to that size never reallocates mid-loop.
  void Reserve(size_t num_records);

  /// Total number of stored bitmaps — the paper's Space(I) metric.
  int64_t TotalStoredBitmaps() const;

  /// Total bit-packed bytes across all stored bitmaps.
  int64_t SizeInBytes() const;

 private:
  BitmapIndex(uint32_t cardinality, BaseSequence base, Encoding encoding,
              std::vector<IndexComponent> components, Bitvector non_null)
      : cardinality_(cardinality),
        base_(std::move(base)),
        encoding_(encoding),
        components_(std::move(components)),
        non_null_(std::move(non_null)) {}

  uint32_t cardinality_;
  BaseSequence base_;
  Encoding encoding_;
  std::vector<IndexComponent> components_;
  Bitvector non_null_;
};

}  // namespace bix

#endif  // BIX_CORE_BITMAP_INDEX_H_
