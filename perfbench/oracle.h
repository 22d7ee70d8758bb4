// Correctness oracle of the end-to-end benchmark, kept apart from the
// library: it holds every logical column in memory (appended rows added,
// deleted rows set to NULL) and answers a predicate two ways, from value-
// histogram prefix sums (the row count every query is checked against) and
// by a direct scan (the foundset a seeded sample is checked against bit for
// bit).  It shares no code with the evaluation algorithms it checks.

#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "bitmap/bitvector.h"
#include "core/bitmap_index.h"
#include "core/predicate.h"

namespace perfbench {

// splitmix64: the one generator every seeded choice of the benchmark draws
// from, so inputs depend on the seed alone and never on the library's own
// generators.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

// Derives an independent stream seed from the run seed and a purpose tag.
inline uint64_t SubSeed(uint64_t seed, uint64_t tag) {
  Rng r(seed ^ (tag * 0xD1B54A32D192ED03ull));
  return r.Next();
}

// Zipf(s) over [0, n): rank 0 most frequent.  Inverse-CDF sampling.
class Zipf {
 public:
  Zipf(uint32_t n, double skew);
  uint32_t Sample(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

inline bool Matches(bix::CompareOp op, uint32_t value, int64_t v) {
  const int64_t x = value;
  switch (op) {
    case bix::CompareOp::kLt: return x < v;
    case bix::CompareOp::kLe: return x <= v;
    case bix::CompareOp::kGt: return x > v;
    case bix::CompareOp::kGe: return x >= v;
    case bix::CompareOp::kEq: return x == v;
    case bix::CompareOp::kNe: return x != v;
  }
  return false;
}

class ColumnOracle {
 public:
  ColumnOracle(std::vector<uint32_t> logical, uint32_t cardinality);

  void Append(std::span<const uint32_t> values);
  // Rows are logical ids; deleting a deleted row is a no-op.
  void Delete(std::span<const uint32_t> rows);

  size_t rows() const { return values_.size(); }
  uint32_t cardinality() const { return cardinality_; }
  const std::vector<uint32_t>& values() const { return values_; }

  // Rows matching `op v`, from the histogram's prefix sums.
  uint64_t ExpectedCount(bix::CompareOp op, int64_t v) const;
  // The matching rows' logical ids, by scanning the column.
  bix::Bitvector ExpectedFoundset(bix::CompareOp op, int64_t v) const;

 private:
  std::vector<uint32_t> values_;
  uint32_t cardinality_;
  std::vector<uint64_t> hist_;
  // prefix_[k] = rows with a value below k; rebuilt after mutations.
  std::vector<uint64_t> prefix_;
  void RebuildPrefix();
};

// True when `got` equals `want` bit for bit; otherwise `*first_diff` is the
// first differing position (the shorter size when the sizes differ).
bool SameFoundset(const bix::Bitvector& got, const bix::Bitvector& want,
                  size_t* first_diff);

// Flips one seeded bit of a scanned foundset and confirms SameFoundset
// reports exactly that position: the check that the check catches a
// one-bit error.  Returns false (with a message on stderr) when it does not.
bool SelfTestOracle(const ColumnOracle& oracle, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
