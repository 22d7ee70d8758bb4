#include "oracle.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

namespace perfbench {

Zipf::Zipf(uint32_t n, double skew) : cdf_(n) {
  double total = 0;
  for (uint32_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), skew);
    cdf_[k] = total;
  }
  for (double& c : cdf_) c /= total;
}

uint32_t Zipf::Sample(Rng& rng) const {
  const double u = rng.Uniform();
  auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) --it;
  return static_cast<uint32_t>(it - cdf_.begin());
}

ColumnOracle::ColumnOracle(std::vector<uint32_t> logical, uint32_t cardinality)
    : values_(std::move(logical)),
      cardinality_(cardinality),
      hist_(cardinality, 0) {
  for (uint32_t x : values_) {
    if (x != bix::kNullValue) ++hist_[x];
  }
  RebuildPrefix();
}

void ColumnOracle::RebuildPrefix() {
  prefix_.assign(cardinality_ + 1, 0);
  for (uint32_t k = 0; k < cardinality_; ++k) {
    prefix_[k + 1] = prefix_[k] + hist_[k];
  }
}

void ColumnOracle::Append(std::span<const uint32_t> values) {
  values_.insert(values_.end(), values.begin(), values.end());
  for (uint32_t x : values) {
    if (x != bix::kNullValue) ++hist_[x];
  }
  RebuildPrefix();
}

void ColumnOracle::Delete(std::span<const uint32_t> rows) {
  for (uint32_t r : rows) {
    uint32_t& x = values_.at(r);
    if (x != bix::kNullValue) --hist_[x];
    x = bix::kNullValue;
  }
  RebuildPrefix();
}

uint64_t ColumnOracle::ExpectedCount(bix::CompareOp op, int64_t v) const {
  const int64_t c = cardinality_;
  // Rows with a value below k, for any integer k.
  auto below = [&](int64_t k) {
    return prefix_[static_cast<size_t>(std::clamp<int64_t>(k, 0, c))];
  };
  const uint64_t all = prefix_[cardinality_];
  switch (op) {
    case bix::CompareOp::kLt: return below(v);
    case bix::CompareOp::kLe: return below(v + 1);
    case bix::CompareOp::kGt: return all - below(v + 1);
    case bix::CompareOp::kGe: return all - below(v);
    case bix::CompareOp::kEq: return below(v + 1) - below(v);
    case bix::CompareOp::kNe: return all - (below(v + 1) - below(v));
  }
  return 0;
}

bix::Bitvector ColumnOracle::ExpectedFoundset(bix::CompareOp op,
                                              int64_t v) const {
  bix::Bitvector out = bix::Bitvector::Zeros(values_.size());
  for (size_t i = 0; i < values_.size(); ++i) {
    if (values_[i] != bix::kNullValue && Matches(op, values_[i], v)) {
      out.Set(i);
    }
  }
  return out;
}

bool SameFoundset(const bix::Bitvector& got, const bix::Bitvector& want,
                  size_t* first_diff) {
  if (got.size() != want.size()) {
    *first_diff = std::min(got.size(), want.size());
    return false;
  }
  std::span<const uint64_t> a = got.words();
  std::span<const uint64_t> b = want.words();
  for (size_t w = 0; w < a.size(); ++w) {
    if (a[w] != b[w]) {
      *first_diff = w * 64 + static_cast<size_t>(std::countr_zero(a[w] ^ b[w]));
      return false;
    }
  }
  return true;
}

bool SelfTestOracle(const ColumnOracle& oracle, uint64_t seed) {
  Rng rng(seed);
  const int64_t v = static_cast<int64_t>(rng.Below(oracle.cardinality()));
  const bix::Bitvector want = oracle.ExpectedFoundset(bix::CompareOp::kLe, v);
  size_t diff = 0;
  if (want.size() == 0 || !SameFoundset(want, want, &diff)) {
    std::fprintf(stderr, "oracle self-test: a foundset differs from itself\n");
    return false;
  }
  bix::Bitvector flipped = want;
  const size_t pos = rng.Below(want.size());
  flipped.Set(pos, !flipped.Get(pos));
  if (SameFoundset(flipped, want, &diff) || diff != pos) {
    std::fprintf(stderr,
                 "oracle self-test: flipped bit %zu was not caught\n", pos);
    return false;
  }
  if (oracle.ExpectedCount(bix::CompareOp::kLe, v) != want.Count()) {
    std::fprintf(stderr,
                 "oracle self-test: prefix-sum count disagrees with scan\n");
    return false;
  }
  return true;
}

}  // namespace perfbench
